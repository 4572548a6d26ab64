import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from cpflow import verify
from cpflow.errors import CpflowError, RadiusOverflowError
from cpflow.hypgeom import TrianglePacking, angle_jacobian, pair_derivative
from cpflow.laplacian import assemble
from cpflow.mesh import builtin_mesh
from cpflow.verify import (
    SubstitutedCoords,
    angle_decay_threshold,
    cosine_inequality_bruteforce,
    closed_form_pair,
    default_weight_triples,
    fd_angle_jacobian,
    fd_curvature_jacobian,
    floor_bound_constants,
    matrix_rel_error,
    poly_forms,
    poly_pair_derivative,
    run_identities,
    run_jacobians,
    run_lemma52,
    run_prop24,
    run_prop31,
    run_spd,
    run_suite,
    run_theorem1,
    run_theorem2,
    sample_rng,
    sample_star_face_weights,
    sample_star_mesh_weights,
    sweep_floor_bounds,
)
from oracles import COSINE_GRID_MIN_C07_N50

TETRA = builtin_mesh("tetra")


# -- finite-difference oracles ---------------------------------------------------

def test_fd_angle_jacobian_symmetric_configuration():
    tp = TrianglePacking((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    fd = fd_angle_jacobian(tp, 1e-5)[:, :, 0]
    assert np.max(np.abs(fd - fd.T)) < 1e-9


def test_fd_angle_jacobian_matches_analytic():
    for i in range(25):
        rng = sample_rng(3, i)
        radii = tuple(np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3)))
        tp = TrianglePacking(radii, sample_star_face_weights(rng))
        assert matrix_rel_error(fd_angle_jacobian(tp), angle_jacobian(tp)) < 1e-6


def test_fd_angle_jacobian_retries_only_the_triangle_that_leaves():
    # u = ln tanh(r/2) is -5.0e-6 at r = 12.9, so its stencil at h = 1e-5
    # leaves u < 0: that triangle alone is differenced again at h / 10
    radii = np.array([[1.0, 12.9], [1.5, 1.0], [0.7, 2.0]])
    tp = TrianglePacking(radii, np.zeros((3, 2)))
    fd = fd_angle_jacobian(tp, 1e-5)
    for i, h in ((0, 1e-5), (1, 0.1 * 1e-5)):
        alone = TrianglePacking(radii[:, [i]], np.zeros((3, 1)))
        assert fd[:, :, i].tolist() == fd_angle_jacobian(alone, h)[:, :, 0].tolist()
    assert np.all(matrix_rel_error(fd, angle_jacobian(tp)) < 1e-6)


def test_fd_step_bounds():
    tp = TrianglePacking((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        fd_angle_jacobian(tp, 1e-1)
    with pytest.raises(ValueError):
        fd_curvature_jacobian(TETRA, np.ones(4), 1e-8)


def test_fd_curvature_symmetry_and_match():
    rng = sample_rng(5, 0)
    r = rng.uniform(0.5, 2.0, 4)
    fd = fd_curvature_jacobian(TETRA, r)
    assert np.max(np.abs(fd - fd.T)) <= 1e-6
    from cpflow.laplacian import assemble
    asm = assemble(TETRA, r)
    assert np.max(np.abs(fd - asm.L)) <= np.max(
        np.maximum(1e-6 * np.abs(asm.L), 1e-8)
    )


# -- explicit bound constants ------------------------------------------------------

def test_floor_constants_reference_point():
    consts = floor_bound_constants(TETRA, math.log(2.0))
    assert consts.a == pytest.approx(0.25, rel=1e-15)
    assert consts.phi_bar == 0.0
    assert consts.a3 == pytest.approx(20971520.0, rel=1e-12)
    assert consts.a2 == pytest.approx(83886080.0, rel=1e-12)
    assert consts.a1 == pytest.approx(1.0 / 62914560.0, rel=1e-12)
    assert consts.a2 == pytest.approx(4 * consts.a3, rel=1e-15)


def test_floor_constants_fixed_members():
    for r_floor in (0.1, 1.0, 7.0):
        consts = floor_bound_constants(TETRA, r_floor)
        assert (consts.m2, consts.m3, consts.m5, consts.m7) == (2.0, 5.0, 6.0, 19.0)
        assert 0.0 < consts.a < 0.5
        assert consts.a1 <= consts.a2
        # self-consistency of the constant family
        one_pb = 1.0 + consts.phi_bar
        assert consts.a1 * 15.0 / (64.0 * consts.a ** 14 * one_pb ** 2) == \
            pytest.approx(1.0, rel=1e-12)


def test_floor_constants_large_floor_limit():
    consts = floor_bound_constants(TETRA, 50.0)
    assert consts.a == pytest.approx(0.5, rel=1e-12)


def test_floor_constants_mixed_weights_reflect_phi_bar():
    m = builtin_mesh("genus2_min", weight=2.5)
    consts = floor_bound_constants(m, 1.0)
    assert consts.phi_bar == pytest.approx(math.cos(2.5), rel=1e-15)
    assert consts.phi_bar < 0.0


def test_floor_bounds_boundary_metric_included():
    rep = sweep_floor_bounds(TETRA, 0.5, 10, 42)
    assert rep.passed
    assert rep.infs["A_min"] >= floor_bound_constants(TETRA, 0.5).a1
    assert rep.sups["B_max"] <= floor_bound_constants(TETRA, 0.5).a3


# -- substituted polynomial forms ----------------------------------------------------

def test_poly_forms_unit_point_zero_weights():
    co = SubstitutedCoords(
        x=1.0, y=1.0, z=1.0,
        a1=0.0, a2=0.0, a3=0.0, b1=2.0, b2=2.0, b3=2.0, c=2.0, phi_ij=1.0,
    )
    f, g1, g2, q = poly_forms(co)
    assert f == 8.0
    assert q == pytest.approx(2.0 * 1.0 + 0.0, rel=1e-15)   # (1+p)xy at x=y


def test_poly_vanishes_at_equality_weights():
    # w_ij = 0 and w_ik + w_jk = pi make every f coefficient zero
    co = SubstitutedCoords.from_radii(
        0.7, 1.3, 2.0, 0.0, 2.0, math.pi - 2.0
    )
    assert co.a1 == 0.0
    # cos(pi - 2) and -cos(2) differ by ~1e-17 in floats, so the
    # coefficients vanish only to that resolution
    assert abs(co.b2) < 1e-15 and abs(co.b3) < 1e-15
    t1, t2 = poly_pair_derivative(co)
    assert abs(t1) < 1e-15 and abs(t2) < 1e-15


def test_poly_matches_closed_form_on_random_samples():
    worst = 0.0
    for i in range(300):
        rng = sample_rng(9, i)
        radii = tuple(np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3)))
        weights = sample_star_face_weights(rng)
        tp = TrianglePacking(radii, weights)
        t1s, t2s = closed_form_pair(tp)
        for t in range(3):
            a, b = (t + 1) % 3, (t + 2) % 3
            co = SubstitutedCoords.from_radii(
                radii[a], radii[b], radii[t],
                weights[t], weights[b], weights[a],
            )
            p1, p2 = poly_pair_derivative(co)
            t1, t2 = t1s[t, 0], t2s[t, 0]
            worst = max(worst, abs(p1 - t1) / max(t1, p1, 1e-300))
            worst = max(worst, abs(p2 - t2) / max(t2, p2, 1e-300))
    assert worst < 1e-9


def test_poly_t2_equals_t1_times_cosh_l_minus_one():
    from cpflow.hypgeom import edge_terms, half_angles
    radii = (0.5, 1.5, 2.5)
    weights = (0.3, 1.2, 0.9)
    tp = TrianglePacking(radii, weights)
    t1 = pair_derivative(tp, 2, 1, use_delta=True)
    w = edge_terms(radii[1], radii[2], half_angles(weights[0]))[0]
    t2s = closed_form_pair(tp)[1]
    assert t2s[0] == pytest.approx(t1 * w, rel=1e-12)


# -- brute-force cosine inequality ------------------------------------------------------

def test_cosine_grid_contains_reference_points():
    val, arg = cosine_inequality_bruteforce(0.0, 50)
    assert val >= 1.0
    # x=y=z=0 gives 2 and x=y=z=1 gives 6; both lie on the grid
    assert val <= 2.0


def test_cosine_grid_minima():
    for c, bound in ((0.0, 1.0), (-0.3, 0.7), (-0.7, 0.3), (-0.99, 0.01)):
        val, arg = cosine_inequality_bruteforce(c, 50)
        assert val >= bound
        assert all(c <= x <= 1.0 for x in arg)
    val, _ = cosine_inequality_bruteforce(-0.7, 50)
    assert val == pytest.approx(COSINE_GRID_MIN_C07_N50, rel=1e-15)


def test_cosine_grid_in_passes_matches_one_array():
    # grid_n = 120 is minimized in two passes over x
    c, n = -0.7, 120
    ticks = np.array([c + k * (1.0 - c) / n for k in range(n + 1)])
    x, y, z = np.meshgrid(ticks, ticks, ticks, indexing="ij")
    cxy, cyx, czx = x + y * z, y + x * z, z + x * y
    val = np.where((cxy >= 0) & (cyx >= 0) & (czx >= 0),
                   2.0 - x * x - y * y + cxy + cyx + czx, np.inf)
    k = np.argmin(val)
    want = (float(val.flat[k]), (float(x.flat[k]), float(y.flat[k]), float(z.flat[k])))
    assert cosine_inequality_bruteforce(c, n) == want


def test_cosine_grid_validation():
    with pytest.raises(ValueError):
        cosine_inequality_bruteforce(0.5, 50)
    with pytest.raises(ValueError):
        cosine_inequality_bruteforce(0.0, 5)


# -- angle decay scan ----------------------------------------------------------------------

def test_angle_decay_zero_weights():
    thr, found = angle_decay_threshold((0.0, 0.0, 0.0), 1e-3, (0.1, 10.0))
    assert found and 0.1 < thr < 50.0


def test_angle_decay_trivial_epsilon():
    thr, found = angle_decay_threshold((0.0, 0.0, 0.0), math.pi, (0.1, 10.0))
    assert found and thr == pytest.approx(1e-6)


def test_angle_decay_monotone_in_epsilon():
    t_loose, _ = angle_decay_threshold((0.0, 0.0, 0.0), 1e-3, (0.1, 10.0))
    t_tight, _ = angle_decay_threshold((0.0, 0.0, 0.0), 1e-6, (0.1, 10.0))
    assert t_tight > t_loose


def test_angle_decay_validation():
    with pytest.raises(ValueError):
        angle_decay_threshold((0.0, 0.0, 0.0), 0.0, (0.1, 10.0))


# -- suites -----------------------------------------------------------------------------------

def test_identity_suite_small():
    rep = run_identities(300, 7)
    assert rep.passed
    assert rep.sups["row_identity_residual"] <= 1e-9
    assert rep.sups["pair_symmetry"] <= 1e-12


def test_jacobian_suite_small():
    rep = run_jacobians(60, 7, mesh_metrics=8)
    assert rep.passed
    assert rep.sups["angle_fd_matrix_rel"] <= 1e-6


def test_jacobian_mesh_metrics_follow_samples(monkeypatch):
    """The mesh half assembles min(100, samples) metrics per built-in mesh
    unless mesh_metrics says otherwise."""
    sizes = []
    assemble_ = verify.laplacian.assemble
    monkeypatch.setattr(verify.laplacian, "assemble",
                        lambda mesh, r: sizes.append(mesh.vertex_count) or assemble_(mesh, r))
    for samples, mesh_metrics, per_mesh in ((3, None, 3), (3, 5, 5), (150, None, 100)):
        sizes.clear()
        assert run_jacobians(samples, 7, mesh_metrics=mesh_metrics).passed
        assert sorted(sizes) == [2] * per_mesh + [4] * per_mesh


def test_spd_suite_small():
    rep = run_spd(10, 7)
    assert rep.passed
    assert rep.infs["min_eigenvalue"] > 0.0


def test_theorem1_suite_small():
    rep = run_theorem1(50, 7)
    assert rep.passed


def test_theorem2_suite_small():
    rep = run_theorem2(6, 7)
    assert rep.passed
    assert rep.sups["poly_cross_check"] <= 1e-9


def test_prop24_suite_small():
    rep = run_prop24(40, 7)
    assert rep.passed
    assert rep.sups["B_max"] < 1.0


def test_prop31_suite_small_grid():
    rep = run_prop31(20, 7)
    assert rep.passed and rep.infs["min[c=0]"] >= 1.0


def test_lemma52_suite():
    rep = run_lemma52(7)
    assert rep.passed
    loose = rep.sups["threshold[zero,eps=0.001]"]
    tight = rep.sups["threshold[zero,eps=1e-06]"]
    assert tight > loose


def test_weight_triples_all_admissible():
    triples = default_weight_triples(20, 42)
    assert len(triples) == 20
    from cpflow.mesh import corner_gammas
    assert all(min(corner_gammas(w)) >= 0.0 for w in triples)


def test_report_schema_and_dispatch():
    rep = run_suite("prop31", None, 42, 50)
    doc = rep.to_dict()
    assert list(doc.keys()) == [
        "suite", "seed", "samples", "sups", "infs", "violations", "wall_time"
    ]
    assert doc["suite"] == "prop31"
    with pytest.raises(ValueError):
        run_suite("nope")


def test_suite_reports_reproducible():
    a = run_identities(100, 123)
    b = run_identities(100, 123)
    assert a.sups == b.sups and a.infs == b.infs
    c = run_identities(100, 124)
    assert c.sups != a.sups


# -- batched mesh suites against the per-metric loops ---------------------------------

@pytest.mark.parametrize("mesh", [TETRA, builtin_mesh("genus2_min"), verify._octahedron()],
                         ids=["tetra", "genus2_min", "octahedron"])
def test_block_sampler_matches_per_try_loop(mesh):
    for seed in range(300):
        fast, slow = sample_rng(seed, 0), sample_rng(seed, 0)
        got = sample_star_mesh_weights(mesh, fast)
        want = oracles.sample_star_mesh_weights_loop(mesh, slow)
        assert [e.phi for e in got.edges] == [e.phi for e in want.edges]
        assert fast.random() == slow.random()       # the generators end in the same state


class _ScriptedRng:
    """Stands in for a Generator: uniform draws hand out the given rows in
    turn, and bit_generator.state is the index of the next row."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.bit_generator = SimpleNamespace(state=0)

    def uniform(self, low, high, size):
        count = size[0] if isinstance(size, tuple) else 1
        k = self.bit_generator.state
        self.bit_generator.state = k + count
        block = self.rows[k:k + count]
        return block if isinstance(size, tuple) else block[0]


def test_block_sampler_leaves_near_zero_gammas_to_the_scalar_check():
    # face 0 weighs (0, x, pi - x): two corner gammas cancel to ~1e-16
    x = 0.9691644825584158
    tie = np.zeros(TETRA.edge_count)
    tie[list(TETRA.faces[0].edges[1:])] = x, math.pi - x
    g = np.cos(tie)[np.array([f.edges for f in TETRA.faces])]
    assert -1e-12 <= (g + g[:, [1, 2, 0]] * g[:, [2, 0, 1]]).min() < 0.0
    rows = [np.full(TETRA.edge_count, 3.0), tie] + [np.zeros(TETRA.edge_count)] * 2000
    fast, slow = _ScriptedRng(rows), _ScriptedRng(rows)
    got = sample_star_mesh_weights(TETRA, fast)
    want = oracles.sample_star_mesh_weights_loop(TETRA, slow)
    assert [e.phi for e in got.edges] == [e.phi for e in want.edges]
    assert fast.bit_generator.state == slow.bit_generator.state


def test_block_sampler_gives_up_with_a_package_error():
    with pytest.raises(CpflowError, match="did not terminate"):
        sample_star_mesh_weights(builtin_mesh("genus2_min"), sample_rng(0, 0), max_tries=3)


def _report(rep):
    doc = rep.to_dict()
    doc.pop("wall_time")
    return doc


@pytest.mark.parametrize("seed", range(4))
def test_chunked_suites_match_per_metric_loops(monkeypatch, seed):
    octa = verify._octahedron()
    monkeypatch.setattr(verify, "_CHUNK", 7)        # 23 or 24 metrics straddle chunks
    batched = [_report(run_theorem1(23, seed)), _report(run_theorem1(23, seed, mesh=octa)),
               _report(run_prop24(23, seed)), _report(run_prop24(23, seed, mesh=octa))]
    monkeypatch.setattr(verify, "sweep_floor_bounds", oracles.sweep_floor_bounds_loop)
    looped = [_report(run_theorem1(23, seed)), _report(run_theorem1(23, seed, mesh=octa)),
              _report(oracles.run_prop24_loop(23, seed)),
              _report(oracles.run_prop24_loop(23, seed, mesh=octa))]
    assert batched == looped


def test_chunk_with_an_overflowing_metric_raises_what_the_loop_raises(monkeypatch):
    # at this floor the boundary metric assembles and sample 8 (metric 9,
    # inside the second chunk of 7) is the first to overflow
    monkeypatch.setattr(verify, "_CHUNK", 7)
    with pytest.raises(RadiusOverflowError) as want:
        oracles.sweep_floor_bounds_loop(TETRA, 138.0, 20, 0)
    with pytest.raises(RadiusOverflowError) as got:
        sweep_floor_bounds(TETRA, 138.0, 20, 0)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mesh", [TETRA, builtin_mesh("genus2_min"), verify._octahedron()],
                         ids=["tetra", "genus2_min", "octahedron"])
def test_chunk_rows_are_the_per_metric_assemblies(monkeypatch, mesh):
    monkeypatch.setattr(verify, "_CHUNK", 7)
    radii = np.array([verify.log_uniform(sample_rng(5, i), 1e-3, 50.0, mesh.vertex_count)
                      for i in range(16)])
    chunks = list(verify._chunk_assemblies(mesh, radii))
    assert [first for first, *_ in chunks] == [0, 7, 14]
    for first, A, B, residual in chunks:
        single = [assemble(mesh, r) for r in radii[first:first + len(A)]]
        assert A.tolist() == [asm.A.tolist() for asm in single]
        assert B.tolist() == [asm.B.tolist() for asm in single]
        assert residual == max(asm.ab_residual for asm in single)


def test_chunked_violations_match_per_metric_loop(monkeypatch):
    # bounds in the middle of the sampled A and B: most metrics break some
    tight = dataclasses.replace(floor_bound_constants(TETRA, 0.5), a1=2.7, a2=2.9, a3=0.06)
    monkeypatch.setattr(verify, "floor_bound_constants", lambda mesh, r_floor: tight)
    monkeypatch.setattr(verify, "_CHUNK", 7)
    want = oracles.sweep_floor_bounds_loop(TETRA, 0.5, 23, 0)
    assert len(want.violations) > 10
    assert _report(sweep_floor_bounds(TETRA, 0.5, 23, 0)) == _report(want)
