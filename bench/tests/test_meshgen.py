"""The generated genus-2 meshes are closed surfaces of the right size."""

import math

import numpy as np
import pytest

from cpflow import mesh as meshmod

import meshgen

LEVELS = (0, 1, 2, 3)


@pytest.fixture(scope="module", params=LEVELS)
def level_mesh(request):
    return request.param, meshgen.genus2(request.param)


def test_face_count_and_euler_characteristic(level_mesh):
    k, m = level_mesh
    assert m.face_count == 8 * 4 ** k
    assert m.euler_characteristic() == -2
    assert 3 * m.face_count == 2 * m.edge_count


def test_validation_passes_on_load(level_mesh):
    _, m = level_mesh
    # the constructor validated m; load_mesh validates again from text
    assert meshmod.load_mesh(meshmod.save_mesh(m)).face_count == m.face_count


def test_every_vertex_link_is_one_cycle(level_mesh):
    _, m = level_mesh
    assert meshgen.vertex_links(m) == [1] * m.vertex_count


def test_corner_condition_for_weights_up_to_half_pi(level_mesh):
    _, m = level_mesh
    rng = np.random.default_rng(7)
    seeded = m.with_weights(rng.uniform(0.0, 0.5 * math.pi, m.edge_count))
    assert meshmod.check_star_condition(seeded).all_nonnegative
    assert meshmod.check_star_condition(m.with_uniform_weight(0.5 * math.pi)).all_nonnegative


def test_file_round_trip_is_bit_exact(level_mesh):
    _, m = level_mesh
    rng = np.random.default_rng(11)
    seeded = m.with_weights(rng.uniform(0.0, 0.5 * math.pi, m.edge_count))
    text = meshmod.save_mesh(seeded)
    back = meshmod.load_mesh(text)
    assert meshmod.save_mesh(back) == text
    assert [e.phi for e in back.edges] == [e.phi for e in seeded.edges]
    assert back.faces == seeded.faces


def test_loops_split_into_multi_edges():
    m = meshgen.genus2(1)
    pairs = [tuple(sorted((e.a, e.b))) for e in m.edges]
    assert all(a != b for a, b in pairs)
    assert len(set(pairs)) < len(pairs)


def test_same_way_gluing_of_loop_halves_breaks_the_links():
    # gluing both faces of a loop with the same half at the traversal start
    # pinches the surface; the link check must see it
    base = meshgen.genus2(0)
    half_at = meshgen._half_ends(base)
    for (fid, c, eid), h in list(half_at.items()):
        if base.edges[eid].a == base.edges[eid].b:
            t = base.faces[fid].edges.index(eid)
            half_at[(fid, c, eid)] = 2 * eid + (0 if c == (t + 1) % 3 else 1)
    original = meshgen._half_ends
    meshgen._half_ends = lambda m: half_at if m is base else original(m)
    try:
        bad = meshgen.subdivide(base)
    finally:
        meshgen._half_ends = original
    assert meshgen.vertex_links(bad) != [1] * bad.vertex_count
