import math

import numpy as np
import pytest

from cpflow.hypgeom import TrianglePacking, angle_jacobian, pair_derivative
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
    from cpflow.hypgeom import cosh_length_minus_one
    radii = (0.5, 1.5, 2.5)
    weights = (0.3, 1.2, 0.9)
    tp = TrianglePacking(radii, weights)
    t1 = pair_derivative(tp, 2, 1, use_delta=True)
    w = cosh_length_minus_one(radii[1], radii[2], weights[0])
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
