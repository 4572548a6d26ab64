import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from cpflow.errors import CpflowError, MeshFormatError, MeshValidationError, StarConditionError
from cpflow.hypgeom import TrianglePacking
from cpflow.mesh import (
    Edge,
    Face,
    WeightedTriangulation,
    builtin_mesh,
    check_star_condition,
    load_mesh,
    save_mesh,
    simplicial_from_faces,
)
from oracles import corner_gammas


def test_tetra_combinatorics():
    m = builtin_mesh("tetra")
    assert m.vertex_count == 4
    assert m.edge_count == 6
    assert m.face_count == 4
    assert m.euler_characteristic() == 2
    assert m.degrees() == (3, 3, 3, 3)
    assert m.max_degree() == 3


def test_genus2_combinatorics():
    m = builtin_mesh("genus2_min")
    assert m.vertex_count == 2
    assert m.edge_count == 12
    assert m.face_count == 8
    assert m.euler_characteristic() == -2
    # center holds 8 spoke ends; the rim vertex is hit by 8 spoke ends plus
    # both ends of each of the 4 rim loops
    assert m.degrees() == (8, 16)
    assert m.corner_counts() == (8, 16)


def test_unknown_builtin():
    with pytest.raises(MeshValidationError):
        builtin_mesh("cube")


def test_builtin_weight_range():
    builtin_mesh("tetra", weight=math.pi / 2)
    with pytest.raises(MeshValidationError):
        builtin_mesh("tetra", weight=math.pi)


@pytest.mark.parametrize("name,chi", [("tetra", 2), ("genus2_min", -2)])
def test_save_load_round_trip(name, chi):
    m = builtin_mesh(name, weight=0.1)
    text = save_mesh(m)
    m2 = load_mesh(text)
    assert m2.euler_characteristic() == chi
    assert m2.vertex_count == m.vertex_count
    for e1, e2 in zip(m.edges, m2.edges):
        assert (e1.a, e1.b) == (e2.a, e2.b)
        assert e1.phi == e2.phi          # bit-exact numeric round trip
    assert save_mesh(m2) == text


def test_degree_sum_counts_every_edge_end():
    for name in ("tetra", "genus2_min"):
        m = builtin_mesh(name)
        assert sum(m.degrees()) == 2 * m.edge_count
        assert m.euler_characteristic() % 2 == 0


def test_edge_in_three_faces_rejected():
    m = builtin_mesh("tetra")
    doc = save_mesh(m)
    # duplicate one face so its edges appear three times
    last_face = "  [%d, %d, %d, %d, %d, %d]" % (m.faces[-1].corners + m.faces[-1].edges)
    bad = doc.replace(' "faces": [\n', ' "faces": [\n%s,\n' % last_face)
    with pytest.raises(MeshValidationError, match="exactly two faces"):
        load_mesh(bad)


def test_weight_out_of_range_rejected():
    m = builtin_mesh("tetra")
    text = save_mesh(m)
    first_row = "[0, %d, %d, 0]" % (m.edges[0].a, m.edges[0].b)
    bad = text.replace(first_row, first_row[:-2] + "3.2]")
    assert bad != text
    with pytest.raises(MeshValidationError, match="outside"):
        load_mesh(bad)
    # an integer beyond double range is out of range, as inf is
    with pytest.raises(MeshValidationError, match="edge 0 weight inf outside"):
        load_mesh(bad.replace("3.2]", "1" + "0" * 400 + "]"))


def test_vertex_missing_from_faces_rejected():
    m = builtin_mesh("tetra")
    text = save_mesh(m).replace('"vertices": 4', '"vertices": 5')
    with pytest.raises(MeshValidationError, match="no face"):
        load_mesh(text)


def test_corner_edge_mismatch_rejected():
    with pytest.raises(MeshValidationError, match="do not match"):
        # edge 0 joins 0-1 but is declared opposite corner 0 of (0,1,2)
        load_mesh(
            '{"vertices": 3,'
            ' "edges": [[0,0,1,0.0],[1,0,2,0.0],[2,1,2,0.0]],'
            ' "faces": [[0,1,2,0,1,2],[0,2,1,0,2,1]]}'
        )


def test_parse_errors():
    with pytest.raises(MeshFormatError):
        load_mesh("not json")
    with pytest.raises(MeshFormatError):
        load_mesh('{"vertices": 4}')
    with pytest.raises(MeshFormatError, match="dense"):
        load_mesh('{"vertices": 2, "edges": [[5,0,1,0.0]], "faces": []}')
    # JSON true and false are not ids, though Python counts bool as int
    for text in _TETRA_WITH_BOOLEANS:
        with pytest.raises(MeshFormatError, match="integer"):
            load_mesh(text)


def _tetra_with(path, value):
    """The tetra file with the entry at path replaced."""
    doc = json.loads(save_mesh(builtin_mesh("tetra")))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


_TETRA_WITH_BOOLEANS = [_tetra_with(("edges", 1, 0), True), _tetra_with(("vertices",), True),
                        _tetra_with(("faces", 2, 4), False)]


def test_star_condition_zero_weights():
    rep = check_star_condition(builtin_mesh("tetra"))
    assert rep.all_nonnegative
    assert all(g == 2.0 for _, _, g in rep.gammas)


def test_star_condition_orthogonal_weights():
    rep = check_star_condition(builtin_mesh("tetra", weight=math.pi / 2))
    assert rep.all_nonnegative
    assert all(abs(g) < 1e-15 for _, _, g in rep.gammas)


def test_star_condition_obtuse_violation():
    gs = corner_gammas((3 * math.pi / 4, 3 * math.pi / 4, 0.0))
    assert sorted(gs) == pytest.approx([-math.sqrt(2), -math.sqrt(2), 1.5])
    m = builtin_mesh("tetra")
    phis = [0.0] * 6
    f = m.faces[0]
    phis[f.edges[0]] = 3 * math.pi / 4
    phis[f.edges[1]] = 3 * math.pi / 4
    rep = check_star_condition(m.with_weights(phis))
    assert not rep.all_nonnegative
    assert any(g == pytest.approx(-math.sqrt(2)) for _, _, g in rep.violations)


def _first_listed(mesh):
    violations = check_star_condition(mesh).violations
    return violations[0][:2] if violations else None


@pytest.mark.parametrize("base", [builtin_mesh("tetra"), builtin_mesh("genus2_min"),
                                  oracles.torus_grid(4, 5)], ids=["tetra", "genus2_min", "torus"])
def test_first_star_violation_is_the_reports_first(base):
    rng = np.random.default_rng(11)
    hits = 0
    for top in (math.pi / 2, 0.75 * math.pi, math.pi) * 40:
        mesh = base.with_weights(rng.uniform(0.0, top, base.edge_count))
        want = _first_listed(mesh)
        assert mesh.first_star_violation == want
        hits += want is not None
    assert 0 < hits < 120           # meshes with and without violations


# weights (0, pi x, pi (1 - x)) on a face: two corner gammas cancel to
# -1.1e-16, 1.1e-16 or 0 in doubles, where a last-digit difference in a
# cosine would flip the decision; "tie" is (0, y, pi - y), two gammas of
# -1.1e-16
_BAND = {name: (math.pi * x, math.pi * (1.0 - x)) for name, x in (
    ("negative", 0.038442336495257114), ("positive", 0.008986520219670495),
    ("zero", 0.0004992511233150275))}
_BAND["tie"] = (0.9691644825584158, math.pi - 0.9691644825584158)


def _passes(check):
    try:
        check()
    except StarConditionError:
        return False
    return True


@pytest.mark.parametrize("pair", _BAND.values(), ids=_BAND.keys())
def test_every_corner_route_reads_one_gamma_near_zero(pair):
    m = builtin_mesh("tetra")
    phis = np.zeros(m.edge_count)
    _, e1, e2 = m.faces[2].edges
    phis[e1], phis[e2] = pair
    mesh = m.with_weights(phis)
    face = mesh.face_weights(2)
    gammas = corner_gammas(face)
    assert abs(min(gammas)) < 1e-12
    passes = min(gammas) >= 0.0
    # the report lists the packing's gammas, which equal the scalar reference's
    assert [g for f, _, g in check_star_condition(mesh).gammas if f == 2] == \
        mesh.packing.gammas[:, 2].tolist() == list(gammas)
    assert mesh.first_star_violation == _first_listed(mesh)
    assert (mesh.first_star_violation is None) == passes
    # the packing check and the sampler, on one face and on the mesh, decide as
    # the scalar reference does: it takes the band try if it passes, else the
    # zero try after it
    assert _passes(TrianglePacking(np.ones(3), face).require_star) == passes
    want = face if passes else (0.0, 0.0, 0.0)
    rng = oracles.ScriptedRng([face, np.zeros(3)])
    assert oracles.sample_star_face_weights(rng) == want
    rng = oracles.ScriptedRng([phis] + [np.zeros(m.edge_count)] * 400)
    assert oracles.sample_star_mesh_weights(m, rng).phi.tolist() == \
        (phis.tolist() if passes else [0.0] * m.edge_count)


@given(st.permutations([0, 1, 2]),
       st.tuples(*[st.floats(0.0, math.pi, exclude_max=True)] * 3))
def test_gamma_multiset_stable_under_corner_relabeling(perm, weights):
    base = corner_gammas(weights)
    permuted = corner_gammas(tuple(weights[p] for p in perm))
    assert sorted(permuted) == pytest.approx(sorted(base))


def test_simplicial_builder_octahedron():
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
             (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
    m = simplicial_from_faces(6, faces)
    assert m.euler_characteristic() == 2
    assert m.edge_count == 12
    assert m.degrees() == (4, 4, 4, 4, 4, 4)


def test_meshes_share_their_arrays_read_only():
    m = builtin_mesh("genus2_min")
    assert m.ends.shape == (12, 2) and m.corners.shape == m.edge_ids.shape == (8, 3)
    m2 = m.with_weights(np.full(12, 0.5))
    assert m2.ends is m.ends and m2.corners is m.corners and m2.edge_ids is m.edge_ids
    assert m.phi.tolist() == [0.0] * 12 and m2.phi.tolist() == [0.5] * 12
    for a in (m.ends, m.phi, m.corners, m.edge_ids, m2.phi):
        with pytest.raises(ValueError):
            a[0] = 1
    with pytest.raises(MeshValidationError, match="edge 3 weight 3.2 outside"):
        m.with_weights(np.array([0.0] * 3 + [3.2] + [0.0] * 8))
    with pytest.raises(MeshValidationError, match="weight vector length != edge count"):
        m.with_weights([0.5] * 11)


def test_object_and_array_constructors_agree():
    m = builtin_mesh("genus2_min", 0.3)
    again = WeightedTriangulation(m.vertex_count, m.edges, m.faces)
    arrays = WeightedTriangulation.from_arrays(m.vertex_count, m.ends, m.phi, m.corners, m.edge_ids)
    assert save_mesh(again) == save_mesh(arrays) == save_mesh(m)
    assert again.faces == arrays.faces == m.faces


def test_face_that_is_not_a_triangle_keeps_the_loop_order():
    m = builtin_mesh("tetra")
    faces = list(m.faces)
    faces[2] = Face(faces[2].corners[:2], faces[2].edges)
    for edges, want in ((m.edges, "face 2 is not a triangle"),
                        ((Edge(0, 9, 0.0),) + m.edges[1:], "edge 0 endpoint out of range")):
        with pytest.raises(MeshValidationError) as exc:
            WeightedTriangulation(4, edges, faces)
        assert str(exc.value) == want
        with pytest.raises(MeshValidationError) as ref:
            oracles.validate_loop(4, edges, faces)
        assert str(ref.value) == want


def test_vertex_count_is_checked_before_any_per_vertex_array():
    text = _tetra_with(("vertices",), 10**7)
    tracemalloc.start()
    try:
        with pytest.raises(MeshValidationError, match="above 3 per face"):
            load_mesh(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6         # one array per vertex would take 8e7 bytes


# -- the array validator against the object loop ------------------------------------

_INT64 = range(-2**63, 2**63)


def _outcome(load, text):
    try:
        return load(text)
    except CpflowError as exc:
        return type(exc), str(exc)


def _new(text):
    m = load_mesh(text)
    return m.vertex_count, m.edges, m.faces


def _old(text):
    n, edges, faces = oracles.load_mesh_loop(text)
    return n, tuple(edges), tuple(faces)


def _ints(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in _ints(child)]
    return [node] if type(node) is int else []


def _agree(text):
    """load_mesh raises the class and message of the loop, or builds the
    same mesh; with an id beyond int64 it still raises a CpflowError."""
    got = _outcome(_new, text)
    try:
        beyond = not all(x in _INT64 for x in _ints(json.loads(text)))
    except (ValueError, RecursionError):
        beyond = False
    if beyond:
        assert isinstance(got, tuple) and issubclass(got[0], CpflowError), got
    else:
        assert got == _outcome(_old, text)


def _malformed_inputs():
    tetra = builtin_mesh("tetra")
    text = save_mesh(tetra)
    last = "  [%d, %d, %d, %d, %d, %d]" % (tetra.faces[-1].corners + tetra.faces[-1].edges)
    near_pi = builtin_mesh("genus2_min")
    near_pi = near_pi.with_weights([math.nextafter(math.pi, 0.0)] + [0.0] * 11)
    return [
        "not json", '{"vertices": 4}', '{"vertices": 2, "edges": [[5,0,1,0.0]], "faces": []}',
        '{"vertices": 2, "edges": [[0,0,1,0.0]], "faces": []}',
        text.replace(' "faces": [\n', ' "faces": [\n%s,\n' % last),
        text.replace("[0, 0, 1, 0]", "[0, 0, 1, 3.2]"),
        text.replace('"vertices": 4', '"vertices": 5'),
        '{"vertices": 3, "edges": [[0,0,1,0.0],[1,0,2,0.0],[2,1,2,0.0]],'
        ' "faces": [[0,1,2,0,1,2],[0,2,1,0,2,1]]}',
        *_TETRA_WITH_BOOLEANS, _tetra_with(("edges", 0, 3), 10**400),
        _tetra_with(("edges", 0, 3), "x"), _tetra_with(("edges", 0, 3), None),
        _tetra_with(("vertices",), 2**62), "[" * 100_000, '{"vertices": ' + "1" * 5000 + "}",
        _tetra_with(("faces", 0, 0), 2**70), _tetra_with(("edges", 5, 1), -2**70),
        b'{"vertices": \xff}', save_mesh(near_pi),
        '{"vertices": 2, "edges": {}, "faces": []}', '{"vertices": 2, "edges": [], "faces": {}}',
        '{"vertices": 2, "edges": [[0, 0, 1]], "faces": []}',
        '{"vertices": 2, "edges": [], "faces": [[0]]}',
    ]


def test_malformed_inputs_match_the_loop():
    for text in _malformed_inputs():
        _agree(text)


_POOL = [-1, 0, 1, 2, 3, 5, 8, 11, 12, 13, 2**62, 2**63 - 1, 2**63, -2**63, -2**63 - 1,
         2**70, -2**70, 10**400, True, False, 0.5, 3.2, math.pi, math.nextafter(math.pi, 0.0),
         -0.0, -1e-300, math.nan, math.inf, -math.inf, None, "x", []]


def _mutate(doc, rng):
    """One random change: a leaf replaced, two entries of a row swapped, or
    a row deleted, duplicated or swapped with another."""
    key = rng.choice(["vertices", "edges", "faces", "edges", "faces"])
    kind = rng.choice(["leaf", "leaf", "leaf", "swap", "row"])
    if key == "vertices":
        doc[key] = rng.choice(_POOL + [rng.randint(1, 15)])
        return
    rows = doc[key]
    i = rng.randrange(len(rows))
    if kind == "leaf":
        j = rng.randrange(len(rows[i]))
        rows[i][j] = rng.choice(_POOL + [rng.randint(-2, 15)])
    elif kind == "swap":
        j, k = rng.randrange(len(rows[i])), rng.randrange(len(rows[i]))
        rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
    else:
        action = rng.choice(["delete", "duplicate", "swap"])
        if action == "delete":
            del rows[i]
        elif action == "duplicate":
            rows.insert(rng.randrange(len(rows) + 1), list(rows[i]))
        else:
            k = rng.randrange(len(rows))
            rows[i], rows[k] = rows[k], rows[i]


def test_seeded_mutations_match_the_loop():
    bases = [json.loads(save_mesh(builtin_mesh(name, w)))
             for name in ("tetra", "genus2_min") for w in (0.0, 0.4)]
    for seed in range(2400):
        rng = random.Random(seed)
        doc = json.loads(json.dumps(bases[seed % len(bases)]))
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            if doc["edges"] and doc["faces"]:
                _mutate(doc, rng)
        _agree(json.dumps(doc))
