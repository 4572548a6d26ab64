import dataclasses
import gc
import math
import pathlib
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from cpflow import verify
from cpflow.errors import (
    CpflowError, DegenerateFaceError, NumericalConsistencyError, RadiusOverflowError,
    StarConditionError)
from cpflow.flow import FlowConfig, step
from cpflow.hypgeom import RADIUS_CAP, TrianglePacking, angle_jacobian, pair_derivative
from cpflow.laplacian import apply_p_delta, assemble, u_of_r
from cpflow.mesh import builtin_mesh, check_star_condition
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
)
from oracles import (
    COSINE_GRID_MIN_C07_N50, corner_gammas, sample_rng, sample_star_face_weights,
    sample_star_mesh_weights)

TETRA = builtin_mesh("tetra")


# -- finite-difference oracles ---------------------------------------------------

def test_fd_angle_jacobian_symmetric_configuration():
    tp = TrianglePacking((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    fd = fd_angle_jacobian(tp)[:, :, 0]
    assert np.max(np.abs(fd - fd.T)) < 1e-9


def test_fd_angle_jacobian_matches_analytic():
    for i in range(25):
        rng = sample_rng(3, i)
        radii = tuple(np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3)))
        tp = TrianglePacking(radii, sample_star_face_weights(rng))
        assert matrix_rel_error(fd_angle_jacobian(tp), angle_jacobian(tp)) < 1e-6


def test_fd_angle_jacobian_retries_only_the_triangle_that_leaves():
    # u = ln tanh(r/2) is -5.0e-6 at r = 12.9, so its stencil at FD_STEP =
    # 1e-5 leaves u < 0: that triangle alone is differenced at a tenth
    radii = np.array([[1.0, 12.9], [1.5, 1.0], [0.7, 2.0]])
    tp = TrianglePacking(radii, np.zeros((3, 2)))
    fd = fd_angle_jacobian(tp)
    for i, h in ((0, verify.FD_STEP), (1, verify.FD_STEP / 10)):
        alone = oracles.fd_angle_jacobian_loop(TrianglePacking(radii[:, [i]], np.zeros((3, 1))), h)
        assert fd[:, :, i].tolist() == alone[:, :, 0].tolist()
    assert np.all(matrix_rel_error(fd, angle_jacobian(tp)) < 1e-6)


def test_fd_angle_jacobian_matches_triangle_loop():
    # 1 000 drawn star triangles, two of them moved to a radius of 12.9 and
    # 13, where u + FD_STEP leaves u < 0 and the step is a tenth
    (_, tp), = verify.sample_star_triangles(7, "jacobians", 1_000, 1_000, 0.1, 10.0)
    radii = tp.radii.copy()
    radii[0, 500], radii[2, 501] = 12.9, 13.0
    assert np.sum(np.any(u_of_r(radii) + verify.FD_STEP >= 0.0, axis=0)) == 2
    tp = TrianglePacking(radii, tp.weights)
    got = fd_angle_jacobian(tp)
    assert got.shape == (3, 3, 1_000)
    assert got.tobytes() == oracles.fd_angle_jacobian_loop(tp, verify.FD_STEP).tobytes()


@pytest.mark.parametrize("error", [DegenerateFaceError, RadiusOverflowError])
def test_fd_angle_jacobian_raises_the_first_failing_triangle_error(monkeypatch, error):
    # triangles 1 and 2 of 4 are refused, and the batch names 2; then the
    # triangles are taken one at a time and 1 raises, a DegenerateFaceError
    # only after the step FD_STEP / 10 fails too
    weights = np.array([[0.1, 0.2, 0.3, 0.4]] * 3)
    geometry, refused = verify.hypgeom.triangle_geometry, []

    def refusing(tri):
        for k in (2, 1):
            if np.any(tri.weights[0] == weights[0, k]):
                refused.append(k)
                raise error(f"triangle {k} refused")
        return geometry(tri)

    monkeypatch.setattr(verify.hypgeom, "triangle_geometry", refusing)
    with pytest.raises(error) as got:
        fd_angle_jacobian(TrianglePacking(np.ones((3, 4)), weights))
    if error is DegenerateFaceError:
        assert refused == [2, 1, 1]
        assert str(got.value) == "finite-difference stencil leaves the admissible set"
    else:
        assert refused == [2, 1]
        assert str(got.value) == "triangle 1 refused"


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


@pytest.mark.parametrize("r_floor", [0.0, -1.0, math.nan], ids=repr)
def test_floor_constants_refuse_a_floor_that_is_not_positive(r_floor):
    with pytest.raises(ValueError, match="radius floor must be positive"):
        floor_bound_constants(TETRA, r_floor)


def test_floor_constants_mixed_weights_reflect_phi_bar():
    m = builtin_mesh("genus2_min", weight=2.5)
    consts = floor_bound_constants(m, 1.0)
    assert consts.phi_bar == pytest.approx(math.cos(2.5), rel=1e-15)
    assert consts.phi_bar < 0.0


@pytest.mark.parametrize("mesh", [TETRA, builtin_mesh("genus2_min"), verify._octahedron(),
                                  oracles.torus_grid(4, 5)],
                         ids=["tetra", "genus2_min", "octahedron", "torus"])
def test_corner_values_equal_the_scalar_loop_in_report_and_bounds(mesh):
    a = 0.5 * (-math.expm1(-0.5))
    rng = np.random.default_rng(21)
    for top in (math.pi / 2, 0.9 * math.pi, math.pi):
        m = mesh.with_weights(rng.uniform(0.0, top, mesh.edge_count))
        gammas, m4 = [], []
        for fid, f in enumerate(m.faces):
            weights = tuple(m.phi[e] for e in f.edges)
            g, cosines = corner_gammas(weights), [math.cos(w) for w in weights]
            gammas += [(fid, t, g[t]) for t in range(3)]
            m4.append(tuple(32.0 * a**10 * ((1.0 - cosines[t] * cosines[t])
                                            + g[(t + 1) % 3] + g[(t + 2) % 3])
                            for t in range(3)))
        rep = check_star_condition(m)
        assert rep.gammas == tuple(gammas)
        assert rep.violations == tuple(x for x in gammas if x[2] < 0.0)
        consts = floor_bound_constants(m, 0.5)
        assert consts.phi_bar == min(0.0, min(math.cos(p) for p in m.phi.tolist()))
        assert consts.m4_per_face == tuple(m4)


def test_floor_bounds_boundary_metric_included():
    rep = run_theorem1(10, 42)
    assert rep.passed
    for r_floor in verify.FLOORS:
        assert rep.infs[f"A_min[R={r_floor},zero]"] >= floor_bound_constants(TETRA, r_floor).a1
        assert rep.sups[f"B_max[R={r_floor},zero]"] <= floor_bound_constants(TETRA, r_floor).a3


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


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cosine_grid_above_180_passes_over_bands_of_y():
    # an x-plane of grid_n = 250 holds 251**2 > 2**15 points: each pass
    # takes one x and a band of y values
    c, n = -0.7, 250
    ticks = np.array([c + k * (1.0 - c) / n for k in range(n + 1)])
    y, z = np.meshgrid(ticks, ticks, indexing="ij")
    want = (math.inf, None)
    for x in ticks:             # the first minimum, plane by plane
        cxy, cyx, czx = x + y * z, y + x * z, z + x * y
        val = np.where((cxy >= 0) & (cyx >= 0) & (czx >= 0),
                       2.0 - x * x - y * y + cxy + cyx + czx, np.inf)
        k = np.argmin(val)
        if val.flat[k] < want[0]:
            want = (float(val.flat[k]), (float(x), float(y.flat[k]), float(z.flat[k])))
    assert cosine_inequality_bruteforce(c, n) == want
    # the passes, not the grid, set the memory
    assert _traced_peak(cosine_inequality_bruteforce, c, n) < \
        1.5 * _traced_peak(cosine_inequality_bruteforce, c, 50)


def test_cosine_grid_validation():
    with pytest.raises(ValueError):
        cosine_inequality_bruteforce(0.5, 50)
    with pytest.raises(ValueError):
        cosine_inequality_bruteforce(0.0, 5)


# -- angle decay scan ----------------------------------------------------------------------

def test_angle_decay_zero_weights():
    thr, found = angle_decay_threshold((0.0, 0.0, 0.0), 1e-3)
    assert found and 0.1 < thr < 50.0


def test_angle_decay_trivial_epsilon():
    thr, found = angle_decay_threshold((0.0, 0.0, 0.0), math.pi)
    assert found and thr == pytest.approx(1e-6)


def test_angle_decay_monotone_in_epsilon():
    t_loose, _ = angle_decay_threshold((0.0, 0.0, 0.0), 1e-3)
    t_tight, _ = angle_decay_threshold((0.0, 0.0, 0.0), 1e-6)
    assert t_tight > t_loose


def test_angle_decay_validation():
    with pytest.raises(ValueError):
        angle_decay_threshold((0.0, 0.0, 0.0), 0.0)


# -- suites -----------------------------------------------------------------------------------

def test_identity_suite_small():
    rep = run_identities(300, 7)
    assert rep.passed
    assert rep.sups["row_identity_residual"] <= 1e-9
    assert rep.sups["pair_symmetry"] <= 1e-12


def test_jacobian_suite_small():
    rep = run_jacobians(60, 7)
    assert rep.passed
    assert rep.sups["angle_fd_matrix_rel"] <= 1e-6


def test_jacobian_mesh_metrics_follow_samples(monkeypatch):
    """The mesh half assembles min(MESH_METRICS, samples) metrics per
    built-in mesh, in one union of that many copies of it."""
    sizes = []
    assemble_ = verify.laplacian.assemble
    monkeypatch.setattr(verify.laplacian, "assemble",
                        lambda mesh, r: sizes.append(mesh.vertex_count) or assemble_(mesh, r))
    for samples, cap, per_mesh in ((3, 100, 3), (3, 2, 2), (150, 100, 100)):
        monkeypatch.setattr(verify, "MESH_METRICS", cap)
        sizes.clear()
        assert run_jacobians(samples, 7).passed
        assert sorted(sizes) == [2 * per_mesh, 4 * per_mesh]


def test_jacobian_targets_draw_independent_radii(monkeypatch):
    # each built-in mesh draws its metrics from streams of its own: no
    # radius of a tetra metric is one of a genus2_min metric's
    radii = []
    assemble_ = verify.laplacian.assemble
    monkeypatch.setattr(verify.laplacian, "assemble",
                        lambda mesh, r: radii.append(r.tolist()) or assemble_(mesh, r))
    for seed in (0, 42):
        radii.clear()
        assert run_jacobians(20, seed).passed
        tetra, genus2 = radii       # one union of 20 copies per mesh
        assert len(tetra) == 80 and len(genus2) == 40
        assert not set(tetra) & set(genus2)


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


def test_prop31_and_lemma52_list_their_violations(monkeypatch):
    # a grid minimum a half below 1 + c; thresholds that fall as epsilon
    # shrinks, the one at 1e-6 not found
    monkeypatch.setattr(verify, "cosine_inequality_bruteforce",
                        lambda c, grid_n: (0.5 + c, (0.0, 0.0, 0.0)))
    rep = run_prop31(20, 7)
    assert not rep.passed
    assert rep.violations == [{"sample": f"c={c:g}", "quantity": "grid_minimum",
                               "value": 0.5 + c, "bound": 1.0 + c} for c in verify.C_VALUES]
    thresholds = {1e-3: (5.0, True), 1e-6: (4.0, False), math.pi: (0.1, True)}
    monkeypatch.setattr(verify, "angle_decay_threshold", lambda w, eps, seed: thresholds[eps])
    rep = run_lemma52(7)
    assert not rep.passed
    for name in ("zero", "mixed0", "mixed1"):
        sample = f"{name}:eps=1e-06"
        assert [v for v in rep.violations if v["sample"] == sample] == [
            {"sample": sample, "quantity": "threshold_not_found", "value": 4.0,
             "bound": RADIUS_CAP},
            {"sample": sample, "quantity": "threshold_monotonicity", "value": 4.0, "bound": 5.0}]
    assert len(rep.violations) == 6


def test_weight_triples_all_admissible():
    triples = default_weight_triples(20, 42)
    assert len(triples) == 20
    assert all(min(corner_gammas(w)) >= 0.0 for w in triples)


def test_report_schema_and_dispatch():
    rep = run_suite("prop31", None, 42)
    doc = rep.to_dict()
    assert list(doc.keys()) == [
        "suite", "seed", "samples", "sups", "infs", "violations", "wall_time"
    ]
    assert doc["suite"] == "prop31"
    with pytest.raises(ValueError):
        run_suite("nope")
    for name in verify.SUITE_NAMES:     # only None selects the default size
        for samples, seed in ((0, 42), (-5, 42), (None, -1)):
            with pytest.raises(ValueError):
                run_suite(name, samples, seed)


@pytest.mark.parametrize("name, size, seed, what", [
    ("spd", 2.5, 42, "size"), ("prop31", 12.5, 42, "size"), ("theorem2", True, 42, "size"),
    ("spd", np.float64(3.0), 42, "size"), ("identities", 3, 1.5, "seed"),
    ("identities", 3, True, "seed"), ("identities", 3, None, "seed")], ids=repr)
def test_suite_args_refuse_what_is_no_integer(name, size, seed, what):
    # before, these ended in numpy TypeErrors, and theorem2 ran 5 triples at True
    with pytest.raises(ValueError, match=f"^{what} must be an integer"):
        run_suite(name, size, seed)


@pytest.mark.parametrize("call, name", [
    (lambda: FlowConfig(p="3"), "p"), (lambda: FlowConfig(k_tol=None), "k_tol"),
    (lambda: FlowConfig(dt=True, t_max=2.0), "dt"), (lambda: run_suite("spd", 2, mesh="x"), "mesh"),
    (lambda: TETRA.copies(2.5), "copy count"), (lambda: TETRA.copies(True), "copy count"),
    (lambda: FlowConfig(t_max=10**400), "t_max"), (lambda: FlowConfig(dt=10**400, t_max=1.0), "dt"),
    (lambda: apply_p_delta(assemble(TETRA, np.ones(4)), np.zeros(4), "3"), "p"),
    (lambda: step(TETRA, np.ones(4), 0.01, "2"), "p"),
    (lambda: step(TETRA, np.ones(4), "0.01", 2.0), "dt")],
    ids=["p_str", "k_tol_none", "dt_bool", "mesh_str", "copies_float", "copies_bool",
         "t_max_beyond_float", "dt_beyond_float", "apply_p_str", "step_p_str", "step_dt_str"])
def test_library_refuses_an_argument_of_the_wrong_type(call, name):
    # before, the first two raised TypeError from a comparison, dt = True ran
    # as 1, the mesh raised AttributeError, 2.5 copies TypeError, True copies
    # gave a mesh, an int beyond float range OverflowError from t_max / dt, a
    # string p TypeError from p > 1, and step parsed a string dt
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def test_suite_args_take_numpy_integers():
    rep = run_suite("identities", np.int64(3), np.uint32(42))
    assert _report(rep) == _report(run_suite("identities", 3, 42))


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


def test_block_sampler_leaves_near_zero_gammas_to_the_scalar_check():
    # face 0 weighs (0, x, pi - x): two corner gammas cancel to ~1e-16
    x = 0.9691644825584158
    tie = np.zeros(TETRA.edge_count)
    tie[list(TETRA.faces[0].edges[1:])] = x, math.pi - x
    g = np.cos(tie)[np.array([f.edges for f in TETRA.faces])]
    assert -1e-12 <= (g + g[:, [1, 2, 0]] * g[:, [2, 0, 1]]).min() < 0.0
    rows = [np.full(TETRA.edge_count, 3.0), tie] + [np.zeros(TETRA.edge_count)] * 2000
    fast, slow = oracles.ScriptedRng(rows), oracles.ScriptedRng(rows)
    got = sample_star_mesh_weights(TETRA, fast)
    want = oracles.sample_star_mesh_weights_loop(TETRA, slow)
    assert [e.phi for e in got.edges] == [e.phi for e in want.edges]
    assert fast.bit_generator.state == slow.bit_generator.state


def test_block_sampler_gives_up_with_a_package_error(monkeypatch):
    monkeypatch.setattr(verify, "MAX_WEIGHT_TRIES", 3)
    with pytest.raises(CpflowError, match="did not terminate"):
        sample_star_mesh_weights(builtin_mesh("genus2_min"), sample_rng(0, 0))


_FACE = np.array([[0], [1], [2]])     # one triangle's edges, as a mesh's edge_rows


@pytest.mark.parametrize("edges, max_tries", [
    (_FACE, 12), (TETRA.edge_rows, 90), (builtin_mesh("genus2_min").edge_rows, 2_500),
    (verify._octahedron().edge_rows, 1_500)], ids=["triangle", "tetra", "genus2_min", "octahedron"])
def test_star_weights_matches_one_try_loop(monkeypatch, edges, max_tries):
    # blocks of 2**5 weights at first and at most 2**9, so a call draws many
    # blocks; MAX_WEIGHT_TRIES two to three times the mean tries of one row,
    # so that at some seeds a row among the 12 gives up and at others none
    monkeypatch.setattr(verify, "_ROUND", 2**9)
    monkeypatch.setattr(verify, "_FIRST", 2**5)
    monkeypatch.setattr(verify, "MAX_WEIGHT_TRIES", max_tries)
    gave_up = []
    for seed in range(8):
        fast, slow = sample_rng(seed, 0), sample_rng(seed, 0)
        rows, failed = verify.star_weights(fast, edges, 12)
        want, error = oracles.star_weights_loop(slow, edges, 12, max_tries)
        assert rows.shape == (len(want), edges.max() + 1)
        assert rows.tolist() == [w.tolist() for w in want]     # up to the loop's give-up point
        assert type(failed) is type(error) and str(failed) == str(error)
        assert fast.random() == slow.random()       # the generators end in the same state
        gave_up.append(error is not None)
    assert any(gave_up) and not all(gave_up)
    fast, slow = sample_rng(0, 0), sample_rng(0, 0)
    rows, failed = verify.star_weights(fast, edges, 0)
    assert rows.shape == (0, edges.max() + 1) and failed is None
    assert fast.random() == slow.random()


def test_star_weights_decide_band_tries_as_the_scalar_check():
    # tries (0, x, 1 - x) pi have two corner gammas of -1.1e-16, 1.1e-16 or 0,
    # where a last-digit difference in a cosine flips the decision;
    # (0.9, 0.9, 0.9) pi fails by 0.047
    neg, pos, zero = 0.038442336495257114, 0.008986520219670495, 0.0004992511233150275
    band = {x: math.pi * np.array([0.0, x, 1.0 - x]) for x in (neg, pos, zero)}
    for x, want_min in ((neg, -1.1102230246251565e-16), (pos, 1.1102230246251565e-16),
                        (zero, 0.0)):
        assert min(corner_gammas(tuple(band[x]))) == want_min
    fail = math.pi * np.array([0.9, 0.9, 0.9])
    rows = [band[neg], band[pos], fail, band[neg], band[zero], fail]
    fast, slow = oracles.ScriptedRng(rows), oracles.ScriptedRng(rows)
    got, failed = verify.star_weights(fast, _FACE, 2)
    want, error = oracles.star_weights_loop(slow, _FACE, 2, verify.MAX_WEIGHT_TRIES)
    assert got.tolist() == [w.tolist() for w in want] == [band[pos].tolist(), band[zero].tolist()]
    assert failed is error is None
    assert fast.bit_generator.state == slow.bit_generator.state == 5


def test_star_weights_take_a_pass_on_the_last_allowed_try(monkeypatch):
    # with 3 tries allowed, a pass on the 3rd try after the row before is a
    # row, and one on the 4th comes after the give-up
    monkeypatch.setattr(verify, "MAX_WEIGHT_TRIES", 3)
    fail, ok = [math.pi * 0.9] * 3, [0.0] * 3
    script = [fail, fail, ok, fail, fail, fail, ok]
    fast, slow = oracles.ScriptedRng(script), oracles.ScriptedRng(script)
    rows, failed = verify.star_weights(fast, _FACE, 2)
    want, error = oracles.star_weights_loop(slow, _FACE, 2, 3)
    assert rows.tolist() == [w.tolist() for w in want] == [ok]
    assert str(failed) == str(error) == "weight rejection sampling did not terminate"
    assert fast.bit_generator.state == slow.bit_generator.state == 6


@pytest.mark.parametrize("keep_even", [False, True], ids=["all", "keep_even"])
@pytest.mark.parametrize("mesh, max_tries", [
    (TETRA, 60), (builtin_mesh("genus2_min"), 2_000), (verify._octahedron(), 1_500)],
    ids=["tetra", "genus2_min", "octahedron"])
def test_mesh_metrics_match_per_metric_loop(monkeypatch, mesh, max_tries, keep_even):
    # blocks of at most 2**9 weights, and MAX_WEIGHT_TRIES about twice the
    # mean tries of one metric: at some seeds a metric gives up, and the
    # metrics before it come back with the error the loop raises there
    monkeypatch.setattr(verify, "_ROUND", 2**9)
    monkeypatch.setattr(verify, "_FIRST", 2**6)
    monkeypatch.setattr(verify, "MAX_WEIGHT_TRIES", max_tries)
    gave_up = []
    for seed in range(3):
        phi, radii, failed = verify._mesh_metrics(mesh, seed, "spd:mesh", 23, 5.0, keep_even)
        want, error = [], None
        try:
            for _, m, r in oracles._mesh_metrics_loop(mesh, seed, "spd:mesh", 23, 5.0, keep_even):
                want.append([m.phi.tolist(), r.tolist()])
        except CpflowError as exc:
            error = exc
        assert [[p.tolist(), r.tolist()] for p, r in zip(phi, radii)] == want
        assert len(phi) == len(radii) and str(failed) == str(error)
        gave_up.append(error is not None)
    assert any(gave_up)


class _CountingRng:
    """A Generator that counts the weight tries drawn from it."""

    def __init__(self, rng, count):
        self.rng, self.count, self.bit_generator = rng, count, rng.bit_generator

    def uniform(self, low, high, size):
        if (low, high) == (0.0, math.pi):
            self.count[0] += size[0] if isinstance(size, tuple) else 1
        return self.rng.uniform(low, high, size)

    def random(self, size=None):
        return self.rng.random(size)


@pytest.mark.parametrize("suite, loop", [(run_spd, oracles.run_spd_loop),
                                         (run_jacobians, oracles.run_jacobians_loop)],
                         ids=["spd", "jacobians"])
@pytest.mark.parametrize("mesh", [None, oracles.torus_grid(3, 3)], ids=["builtin", "torus3x3"])
def test_sampler_gives_up_where_the_loop_does(monkeypatch, suite, loop, mesh):
    # with 1 500 tries, every tetra metric passes and a genus2_min one gives
    # up after others passed; on the 3x3 torus no try passes, so spd gives
    # up at metric 0, and jacobians after checking metric 0 (the torus's own
    # weights). Each sampler call draws at most one block past the loop's
    # last try, here at most 2**9 weights, 2**9 // 3 tries, and the runs
    # make at most three calls (the triangles of jacobians and two meshes)
    monkeypatch.setattr(verify, "MAX_WEIGHT_TRIES", 1_500)
    monkeypatch.setattr(verify, "_ROUND", 2**9)
    monkeypatch.setattr(verify, "_FIRST", 2**9)
    tries, reports = [0], []
    stream = verify._stream
    monkeypatch.setattr(verify, "_stream", lambda seed, tag: _CountingRng(stream(seed, tag), tries))

    class Kept(verify.SweepReport):
        def __init__(self, *args):
            super().__init__(*args)
            reports.append(self)

    monkeypatch.setattr(verify, "SweepReport", Kept)
    drawn = []
    for run in (loop, suite):
        tries[0] = 0
        with pytest.raises(CpflowError, match="weight rejection sampling did not terminate"):
            run(12, 0, mesh=mesh)
        drawn.append(tries[0])
    want, got = reports
    assert _report(got) == _report(want)
    # the mesh metrics before the one that gave up were checked: none for spd on the torus
    checked = "min_eigenvalue" in got.infs or "curvature_fd_margin" in got.sups
    assert checked == (mesh is None or suite is run_jacobians)
    assert drawn[0] <= drawn[1] < drawn[0] + 3 * (2**9 // 3)


def _report(rep):
    doc = rep.to_dict()
    doc.pop("wall_time")
    return doc


@pytest.mark.parametrize("seed", range(4))
def test_chunked_suites_match_per_metric_loops(monkeypatch, seed):
    octa = verify._octahedron()
    # unions of 7 tetrahedra or 3 octahedra: 23 or 24 metrics straddle chunks
    monkeypatch.setattr(verify, "_BATCH", 7 * TETRA.face_count)
    batched = [_report(run_theorem1(23, seed)), _report(run_theorem1(23, seed, mesh=octa)),
               _report(run_prop24(23, seed)), _report(run_prop24(23, seed, mesh=octa))]
    looped = [_report(oracles.run_theorem1_loop(23, seed)),
              _report(oracles.run_theorem1_loop(23, seed, mesh=octa)),
              _report(oracles.run_prop24_loop(23, seed)),
              _report(oracles.run_prop24_loop(23, seed, mesh=octa))]
    assert batched == looped


def test_chunk_with_an_overflowing_metric_raises_what_the_loop_raises(monkeypatch):
    # at this floor the boundary metric assembles and sample 8 (metric 9,
    # inside the second chunk of 7) is the first to overflow
    monkeypatch.setattr(verify, "_BATCH", 7 * TETRA.face_count)
    monkeypatch.setattr(verify, "FLOORS", (138.0,))
    with pytest.raises(RadiusOverflowError) as want:
        oracles.run_theorem1_loop(20, 0)
    with pytest.raises(RadiusOverflowError) as got:
        run_theorem1(20, 0)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mesh", [TETRA, builtin_mesh("genus2_min"), verify._octahedron()],
                         ids=["tetra", "genus2_min", "octahedron"])
def test_chunk_rows_are_the_per_metric_assemblies(monkeypatch, mesh):
    monkeypatch.setattr(verify, "_BATCH", 7 * mesh.face_count)
    radii = np.array([verify.log_uniform(sample_rng(5, i).random(mesh.vertex_count), 1e-3, 50.0)
                      for i in range(16)])
    chunks = list(verify._on_copies(assemble, mesh, radii))
    assert [first for first, _ in chunks] == [0, 7, 14]
    for first, union in chunks:
        single = [assemble(mesh, r) for r in radii[first:first + 7]]
        assert union.A.reshape(len(single), -1).tolist() == [asm.A.tolist() for asm in single]
        assert union.B.reshape(len(single), -1).tolist() == [asm.B.tolist() for asm in single]
        assert union.ab_residual == max(asm.ab_residual for asm in single)


def test_chunked_violations_match_per_metric_loop(monkeypatch):
    # bounds in the middle of the sampled A and B: most metrics break some
    tight = dataclasses.replace(floor_bound_constants(TETRA, 0.5), a1=2.7, a2=2.9, a3=0.06)
    monkeypatch.setattr(verify, "floor_bound_constants", lambda mesh, r_floor: tight)
    monkeypatch.setattr(verify, "_BATCH", 7 * TETRA.face_count)
    monkeypatch.setattr(verify, "FLOORS", (0.5,))
    want = oracles.run_theorem1_loop(23, 0)
    assert len(want.violations) > 10
    assert _report(run_theorem1(23, 0)) == _report(want)


# -- spd and jacobians on unions of reweighted copies against the loops -----------------

_OCTA = verify._octahedron()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mesh", [None, _OCTA], ids=["builtin", "octahedron"])
def test_union_spd_and_jacobians_match_per_metric_loops(monkeypatch, seed, mesh):
    # unions of 14 tetrahedra or 7 genus2_min or octahedron copies: 23
    # metrics make two or four chunks, the last a tail
    monkeypatch.setattr(verify, "_BATCH", 56)
    assert (_report(run_spd(23, seed, mesh=mesh))
            == _report(oracles.run_spd_loop(23, seed, mesh=mesh)))
    assert (_report(run_jacobians(23, seed, mesh=mesh))
            == _report(oracles.run_jacobians_loop(23, seed, mesh=mesh)))


def test_union_jacobian_violations_match_per_metric_loop(monkeypatch):
    # tolerances below the FD error: margins and symmetry break for most
    # metrics, and a negative ATOL fails every nonadjacent octahedron entry
    monkeypatch.setattr(verify, "_BATCH", 56)
    monkeypatch.setattr(verify, "CURVATURE_FD_RTOL", 1e-10)
    monkeypatch.setattr(verify, "CURVATURE_FD_ATOL", -1e-12)
    monkeypatch.setattr(verify, "FD_SYMMETRY_ATOL", 1e-10)
    want = oracles.run_jacobians_loop(23, 0)
    quantities = {v["quantity"] for v in want.violations}
    assert quantities == {"curvature_fd_margin", "curvature_fd_symmetry", "nonadjacent_fd_entry"}
    assert len(want.violations) > 100
    assert _report(run_jacobians(23, 0)) == _report(want)


def _refusing(f, edge_count, refused, error):
    """f, raising error on a mesh that holds a copy weighted by one of the
    refused weight rows; a union holding several names the last."""
    def g(mesh, r):
        rows = mesh.phi.reshape(-1, edge_count)
        hit = [k for k, phi in enumerate(refused) if (rows == phi).all(axis=1).any()]
        if hit:
            raise error(f"metric {hit[-1]} refused")
        return f(mesh, r)
    return g


def test_union_spd_chunk_raises_what_the_loop_raises(monkeypatch):
    # tetra metrics 9 and 12 fail, both in the second chunk of 7: a union
    # holding both names 12 ("metric 1"), the loop 9 ("metric 0")
    monkeypatch.setattr(verify, "_BATCH", 7 * TETRA.face_count)
    phi = verify._mesh_metrics(TETRA, 0, "spd:tetra", 23, 10.0)[0]
    refuse = _refusing(assemble, TETRA.edge_count, [phi[9], phi[12]], NumericalConsistencyError)
    monkeypatch.setattr(verify.laplacian, "assemble", refuse)
    monkeypatch.setattr(oracles, "assemble", refuse)
    with pytest.raises(NumericalConsistencyError) as want:
        oracles.run_spd_loop(23, 0)
    with pytest.raises(NumericalConsistencyError) as got:
        run_spd(23, 0)
    assert str(got.value) == str(want.value) == "metric 0 refused"


@pytest.mark.parametrize("error", [DegenerateFaceError, RadiusOverflowError])
def test_union_jacobians_chunk_raises_what_the_loop_raises(monkeypatch, error):
    # in the second chunk of 7 tetra metrics, metric 9's stencil and metric
    # 11's assembly fail: the loop reaches metric 9's stencil first, while
    # the union's assembly raises first
    monkeypatch.setattr(verify, "_BATCH", 7 * TETRA.face_count)
    phi = verify._mesh_metrics(TETRA, 0, "jacobians:tetra", 23, 5.0, keep_even=True)[0]
    curvature = _refusing(verify.laplacian.curvature, TETRA.edge_count, [phi[9]], error)
    refuse = _refusing(assemble, TETRA.edge_count, [phi[11]], NumericalConsistencyError)
    monkeypatch.setattr(verify.laplacian, "curvature", curvature)
    monkeypatch.setattr(oracles, "curvature", curvature)
    monkeypatch.setattr(verify.laplacian, "assemble", refuse)
    monkeypatch.setattr(oracles, "assemble", refuse)
    with pytest.raises(CpflowError) as want:
        oracles.run_jacobians_loop(23, 0)
    with pytest.raises(CpflowError) as got:
        run_jacobians(23, 0)
    assert type(got.value) is type(want.value) is error
    assert str(got.value) == str(want.value)
    if error is RadiusOverflowError:    # a DegenerateFaceError fails the step h / 10 too
        assert str(got.value) == "metric 0 refused"


def test_union_jacobians_check_the_metrics_drawn_before_the_sampler_gives_up(monkeypatch):
    # metric 0 keeps the mesh's weights, which break the corner condition,
    # and metric 1's sampler gives up: the loop stops at metric 0. The
    # triangles' weights pass within 20 tries at seed 0 (6 and 16), and
    # metric 1's first passing try is its 85th
    monkeypatch.setattr(verify, "MAX_WEIGHT_TRIES", 20)
    bad = TETRA.with_uniform_weight(3.0)
    assert verify._mesh_metrics(bad, 0, "jacobians:mesh", 2, 5.0, keep_even=True)[2] is not None
    with pytest.raises(StarConditionError) as want:
        oracles.run_jacobians_loop(2, 0, mesh=bad)
    with pytest.raises(StarConditionError) as got:
        run_jacobians(2, 0, mesh=bad)
    assert str(got.value) == str(want.value)


def test_jacobians_check_the_octahedron_metrics_drawn_before_its_sampler_gives_up(monkeypatch):
    # with 800 tries at seed 0 the triangles' and tetra's weights pass, and
    # the octahedron's sampler gives up at its 6th metric: the 5 before it
    # are checked and its error raised, as in the loop
    monkeypatch.setattr(verify, "MAX_WEIGHT_TRIES", 800)
    assert len(verify._mesh_metrics(_OCTA, 0, "jacobians:octa", 20, 5.0, keep_even=True)[0]) == 5
    reports = []

    class Kept(verify.SweepReport):
        def __init__(self, *args):
            super().__init__(*args)
            reports.append(self)

    monkeypatch.setattr(verify, "SweepReport", Kept)
    for run in (oracles.run_jacobians_loop, run_jacobians):
        with pytest.raises(CpflowError, match="weight rejection sampling did not terminate"):
            run(4, 0, mesh=TETRA)
    want, got = reports
    assert "nonadjacent_fd_entry" in got.sups
    assert _report(got) == _report(want)


def test_stacked_metric_at_a_radius_of_13_alone_takes_a_tenth_of_the_step():
    rng = sample_rng(4, 0)
    phi = np.array([sample_star_mesh_weights(_OCTA, rng).phi for _ in range(5)])
    r = verify.log_uniform(rng.random((5, 6)), 0.1, 5.0)
    r[2, 3] = 13.0          # u + FD_STEP leaves the domain for metric 2 alone
    fd = fd_curvature_jacobian(_OCTA, r, phi)
    assert fd.shape == (5, 6, 6)
    for i in range(5):
        h = verify.FD_STEP / 10 if i == 2 else verify.FD_STEP
        want = oracles.fd_curvature_jacobian_loop(_OCTA.with_weights(phi[i]), r[i], h)
        assert fd[i].tobytes() == want.tobytes()
    loop_at_fd_step = oracles.fd_curvature_jacobian_loop(_OCTA.with_weights(phi[2]), r[2])
    assert fd[2].tobytes() == loop_at_fd_step.tobytes()     # the loop's own rule agrees


def test_stencil_at_a_radius_of_15_leaves_the_admissible_set():
    # u(15) = -6.1e-7, so even a tenth of FD_STEP reaches u >= 0
    assert u_of_r(15.0) + verify.FD_STEP / 10 >= 0.0
    with pytest.raises(DegenerateFaceError, match="^finite-difference stencil leaves"):
        fd_angle_jacobian(TrianglePacking([15.0, 1.0, 1.0], [0.0, 0.0, 0.0]))


def test_stacked_radii_with_one_bad_metric_raise_what_that_metric_raises():
    r = np.ones((3, _OCTA.vertex_count))
    r[1, 4] = 0.0
    with pytest.raises(RadiusOverflowError) as want:
        fd_curvature_jacobian(_OCTA, r[1])
    with pytest.raises(RadiusOverflowError) as got:
        fd_curvature_jacobian(_OCTA, r)
    assert str(got.value) == str(want.value) == "radius at vertex 4 = 0.0 outside (0, 700.0]"


@pytest.mark.parametrize("suite", [run_spd, run_jacobians])
def test_union_suites_assemble_once_per_chunk_of_metrics(monkeypatch, suite):
    # ceil(23 F / 56) assemblies per target: unions of 14 tetrahedra (F = 4),
    # then of 7 genus2_min copies (F = 8); the octahedron metrics assemble none
    monkeypatch.setattr(verify, "_BATCH", 56)
    faces = []
    assemble_ = verify.laplacian.assemble
    monkeypatch.setattr(verify.laplacian, "assemble",
                        lambda mesh, r: faces.append(mesh.face_count) or assemble_(mesh, r))
    assert suite(23, 0).passed
    assert faces == [56, 36] + [56, 56, 56, 16]


# -- theorem2 a chunk of weight triples at a time against the per-triple loop ----------

@pytest.mark.parametrize("seed", range(3))
def test_chunked_theorem2_matches_per_triple_loop(seed):
    assert _report(run_theorem2(20, seed)) == _report(oracles.run_theorem2_loop(20, seed))


def test_chunked_theorem2_violations_come_in_the_loop_order(monkeypatch):
    # no stabilization margin and a cross-check tolerance below the two
    # routes' agreement: hundreds of point violations, and stabilization
    # violations listed after their ray's points, before the next ray's
    monkeypatch.setattr(verify, "STABILIZATION_RTOL", 0.0)
    monkeypatch.setattr(verify, "DENOMINATOR_EQUIV_RTOL", 1e-14)
    want = oracles.run_theorem2_loop(20, 0)
    quantities = [v["quantity"] for v in want.violations]
    assert quantities.count("poly_cross_check") > 100
    assert {"t1_sup_stabilization", "t2_sup_stabilization"} <= set(quantities)
    assert ("t1_sup_stabilization", "poly_cross_check") in set(zip(quantities, quantities[1:]))
    assert _report(run_theorem2(20, 0)) == _report(want)


@pytest.mark.parametrize("refused, inadmissible, error", [
    ([6, 7], None, DegenerateFaceError),    # a chunk's call names 7, the loop 6
    ([2], 3, DegenerateFaceError),          # the loop evaluates triple 2 before checking 3
    ([], 3, ValueError)], ids=["two_kernels", "kernel_then_condition", "condition"])
def test_chunked_theorem2_raises_what_the_loop_raises(monkeypatch, refused, inadmissible, error):
    # chunks of 2 triples: 2 and 3 share one, and 6 and 7 another
    assert max(1, verify._BATCH // 828) == 2
    triples = default_weight_triples(20, 0)
    if inadmissible is not None:
        triples[inadmissible] = (3.0, 3.0, 3.0)
    monkeypatch.setattr(verify, "default_weight_triples", lambda count, seed: list(triples))
    closed = verify.closed_form_pair

    def refusing(tp):
        hit = [k for k in refused if (tp.weights.T == triples[k]).all(axis=1).any()]
        if hit:
            raise DegenerateFaceError(f"triple {hit[-1]} refused")
        return closed(tp)

    monkeypatch.setattr(verify, "closed_form_pair", refusing)
    with pytest.raises(error) as want:
        oracles.run_theorem2_loop(20, 0)
    with pytest.raises(error) as got:
        run_theorem2(20, 0)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_theorem2_and_spd_stay_within_their_memory_and_kernel_calls(monkeypatch):
    # theorem2 evaluates its 828 points for max(1, _BATCH // 828) triples
    # per kernel call: 10 calls for the default 20 triples. One call over
    # all 20 peaks at ~11 MB, and spd's weight sampler at ~6 MB with rounds
    # of 2**18 weights; as built they peak at ~1.6 and ~1.1 MB
    calls = []
    closed = verify.closed_form_pair
    monkeypatch.setattr(verify, "closed_form_pair",
                        lambda tp: calls.append(tp.weights.shape[1]) or closed(tp))
    run_suite("spd")        # builds what the meshes cache
    assert _traced_peak(run_suite, "spd") < 2 * 2**20
    calls.clear()
    assert _traced_peak(run_suite, "theorem2") < 3 * 2**20
    assert len(calls) == math.ceil(20 / max(1, verify._BATCH // 828))


# -- block triangle sampler and stacked stencils against the loops --------------------

@pytest.mark.parametrize("suite, r_lo, r_hi", [("identities", 1e-3, 1e2), ("jacobians", 0.1, 10.0)],
                         ids=["identities", "jacobians"])
def test_triangle_sampler_matches_per_sample_loop(suite, r_lo, r_hi):
    # chunks of 4 000, or of 700 with a tail: each chunk's weights go on
    # from the passing tries of the chunk before
    for seed in range(5):
        want = oracles.sample_star_triangles_loop(seed, suite, range(4_000), r_lo, r_hi)
        for step in (700, 4_000):
            chunks = list(verify.sample_star_triangles(seed, suite, 4_000, step, r_lo, r_hi))
            assert [ids for ids, _ in chunks] == [range(lo, min(lo + step, 4_000))
                                                  for lo in range(0, 4_000, step)]
            assert np.hstack([tp.radii for _, tp in chunks]).tolist() == want.radii.tolist()
            assert np.hstack([tp.weights for _, tp in chunks]).tolist() == want.weights.tolist()


def test_floor_sweeps_share_one_draw_per_sample(monkeypatch):
    # at 7.3 and 30.3, (r_floor + 5) - r_floor is not 5 in doubles
    monkeypatch.setattr(verify, "FLOORS", (0.3, 7.3, 30.3))
    assert _report(run_theorem1(23, 3)) == _report(oracles.run_theorem1_loop(23, 3))
    streams, rows, drawn = [], [], []
    stream_, star_weights_, unit_draws_ = verify._stream, verify.star_weights, verify._unit_draws
    monkeypatch.setattr(verify, "_stream",
                        lambda seed, tag: streams.append(tag) or stream_(seed, tag))
    monkeypatch.setattr(verify, "star_weights", lambda rng, edges, count: rows.append(count)
                        or star_weights_(rng, edges, count))
    monkeypatch.setattr(verify, "_unit_draws", lambda seed, tag, ids, size: drawn.extend(ids)
                        or unit_draws_(seed, tag, ids, size))
    run_theorem1(23, 4)
    assert sorted(drawn) == [*range(23)]
    # one row of the theorem1:weights stream, the mixed weights, and one block of radii
    assert rows == [1]
    tags = verify.STREAM_TAGS
    assert sorted(streams) == [tags["theorem1"], tags["theorem1:weights"]]


_FD_MESHES = [TETRA, builtin_mesh("genus2_min"), verify._octahedron(), oracles.torus_grid(8, 8)]


@pytest.mark.parametrize("mesh", _FD_MESHES, ids=["tetra", "genus2_min", "octahedron", "torus8x8"])
def test_stacked_curvature_stencils_match_column_loop(mesh):
    for seed in range(6):
        rng = sample_rng(seed, 0)
        if seed % 2 == 0:
            weighted = mesh
        elif mesh.edge_count <= 12:
            weighted = sample_star_mesh_weights(mesh, rng)
        else:   # rejection would not end; weights below pi / 2 meet the corner condition
            weighted = mesh.with_weights(rng.uniform(0.0, 0.5 * math.pi, mesh.edge_count))
        r = verify.log_uniform(rng.random(mesh.vertex_count), 0.1, 5.0)
        if seed >= 4:       # u + h leaves the domain at a radius of 13: h / 10 is taken
            r[seed % mesh.vertex_count] = 13.0
            assert np.any(verify.laplacian.u_of_r(r) + 1e-5 >= 0.0)
        got = fd_curvature_jacobian(weighted, r)
        assert got.tolist() == oracles.fd_curvature_jacobian_loop(weighted, r).tolist()
        assert got.flags.c_contiguous


def test_stacked_curvature_stencils_are_one_call(monkeypatch):
    calls = []
    curvature_ = verify.laplacian.curvature
    monkeypatch.setattr(verify.laplacian, "curvature",
                        lambda mesh, r: calls.append(mesh.vertex_count) or curvature_(mesh, r))
    fd_curvature_jacobian(verify._octahedron(), np.linspace(0.5, 2.0, 6))
    assert calls == [72]


def test_curvature_stencils_take_one_call_per_chunk_of_copies(monkeypatch):
    # 128 stencil points on the 64-vertex torus of 128 faces: 8 unions of
    # 2**11 // 128 = 16 copies
    calls = []
    curvature_ = verify.laplacian.curvature
    monkeypatch.setattr(verify.laplacian, "curvature",
                        lambda mesh, r: calls.append(mesh.vertex_count) or curvature_(mesh, r))
    fd_curvature_jacobian(oracles.torus_grid(8, 8), np.linspace(0.5, 2.0, 64))
    assert calls == [16 * 64] * 8


@pytest.mark.parametrize("mesh", _FD_MESHES, ids=["tetra", "genus2_min", "octahedron", "torus8x8"])
def test_copies_is_a_new_offset_union_that_validates(mesh):
    mesh = mesh.with_weights(np.random.default_rng(3).uniform(0.0, 0.5 * math.pi, mesh.edge_count))
    n, ne = mesh.vertex_count, mesh.edge_count
    union = mesh.copies(12)
    assert union.vertex_count == 12 * n
    for got, rows, step in ((union.ends, mesh.ends, n), (union.corners, mesh.corners, n),
                            (union.edge_ids, mesh.edge_ids, ne)):
        assert np.array_equal(got, np.concatenate([rows + c * step for c in range(12)]))
    assert union.phi.tolist() == np.tile(mesh.phi, 12).tolist()
    # validation is the reference: it raises on any array copies got wrong
    verify.WeightedTriangulation.from_arrays(
        union.vertex_count, union.ends, union.phi, union.corners, union.edge_ids)
    assert mesh.copies(12) is not union
    with pytest.raises(ValueError):
        mesh.copies(0)


def test_fd_curvature_jacobian_leaves_no_union_on_the_mesh():
    # 512 stencil points on the 256-vertex torus of 512 faces: unions of 4
    # copies, which the mesh must not keep
    mesh = oracles.torus_grid(16, 16)
    r = np.linspace(0.5, 2.0, mesh.vertex_count)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fd_curvature_jacobian(mesh, r)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20


@pytest.mark.parametrize("suite", verify.MESH_SUITES)
def test_mesh_suites_keep_no_reference_to_the_mesh(suite):
    mesh = verify._octahedron()
    ref = weakref.ref(mesh)
    run_suite(suite, 3, mesh=mesh)
    del mesh
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("error", [DegenerateFaceError, RadiusOverflowError])
def test_stacked_curvature_stencils_fall_back_point_by_point(monkeypatch, error):
    # the 12 stencil points of the octahedron in chunks of 7: points 8
    # (u + h e_4) and 11 (u - h e_5), both in the second chunk, fail, so
    # that chunk is evaluated point by point and raises what point 8 raises;
    # a DegenerateFaceError fails the step h / 10 too
    curvature_ = verify.laplacian.curvature
    octa = verify._octahedron()
    r = np.array([0.3, 1.2, 1.0, 2.0, 0.7, 4.0])
    base = verify.laplacian.r_of_u(u_of_r(r))       # the stencil's centre

    def refuse_two_points(mesh, radii):
        rows = radii.reshape(-1, octa.vertex_count)
        # a union holding both points names point 11's
        for k, moved in ((5, rows[:, 5] < base[5]), (4, rows[:, 4] > base[4])):
            if moved.any():
                raise error(f"stencil point moving r[{k}] refused")
        return curvature_(mesh, radii)

    monkeypatch.setattr(verify, "_BATCH", 7 * octa.face_count)
    monkeypatch.setattr(verify.laplacian, "curvature", refuse_two_points)
    monkeypatch.setattr(oracles, "curvature", refuse_two_points)
    with pytest.raises(CpflowError) as want:
        oracles.fd_curvature_jacobian_loop(octa, r)
    with pytest.raises(CpflowError) as got:
        fd_curvature_jacobian(octa, r)
    assert type(got.value) is type(want.value) is error
    assert str(got.value) == str(want.value)
    if error is RadiusOverflowError:
        assert str(got.value) == "stencil point moving r[4] refused"


@pytest.mark.parametrize("seed", [0, 42, 2**32 + 5, 2**70 + 3, 2**130])
def test_sample_drawn_alone_is_its_row_of_the_block(seed):
    for tag in verify.STREAM_TAGS.values():
        for size in (1, 3, 51):
            bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag, 0)))
            block = np.random.Generator(bit_generator).random((1_000, size))
            for i in (0, 1, 2, 517, 999):
                assert oracles.unit_draws_loop(seed, tag, [i], size).tobytes() == block[i].tobytes()
            for ids in (range(1_000), range(517, 518), range(300, 700), range(0)):
                got = verify._unit_draws(seed, tag, ids, size)
                assert got.shape == (len(ids), size)
                assert got.tobytes() == block[ids.start:ids.stop].tobytes()


def test_readme_stream_snippet_draws_sample_517_of_identities():
    # the README's example of the stream layout, run as written
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet, = [block.split("```")[0] for block in readme.split("```python\n")[1:]
                if "seed, i = 42, 517" in block]
    scope = {}
    exec(snippet, scope)
    (_, tp), = verify.sample_star_triangles(42, "identities", 518, 518, *verify.IDENTITY_RADII)
    assert scope["radii"].tobytes() == tp.radii[:, 517].tobytes()
    assert scope["weights"].tobytes() == tp.weights[:, 517].tobytes()


def _key_words(key):
    """The 32-bit words SeedSequence mixes for a spawn key of integers."""
    words = []
    for k in key:
        words.append(k & 0xFFFFFFFF)
        while k > 0xFFFFFFFF:
            k >>= 32
            words.append(k & 0xFFFFFFFF)
    return tuple(words)


def test_stream_keys_are_distinct_as_seed_words(monkeypatch):
    # the spawn keys of one small run of every suite, and of the mesh
    # suites on a given mesh, by the function that made them: _stream
    # builds every SeedSequence, one per tag and nothing else; a key equal
    # in words to another would draw the same stream
    keys = {}
    seed_sequence = np.random.SeedSequence

    def recording(entropy=None, *, spawn_key=(), **kwargs):
        keys.setdefault(sys._getframe(1).f_code.co_name, set()).add(tuple(spawn_key))
        return seed_sequence(entropy, spawn_key=spawn_key, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    for name in verify.SUITE_NAMES:
        run_suite(name, 12 if name == "prop31" else 8, 0)
    for name in verify.MESH_SUITES:
        run_suite(name, 8, 0, mesh=verify._octahedron())
    assert keys == {"_stream": {(tag, 0) for tag in verify.STREAM_TAGS.values()}}
    assert len({_key_words(key) for key in keys["_stream"]}) == len(verify.STREAM_TAGS)
