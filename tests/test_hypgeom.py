import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmath as mp

from cpflow.errors import (
    DegenerateFaceError,
    RadiusOverflowError,
    StarConditionError,
)
import oracles
from cpflow.hypgeom import (
    TrianglePacking,
    angle_jacobian,
    chain_rule_diagonal,
    delta_invariant,
    edge_terms,
    glickenstein_residual,
    half_angles,
    pair_derivative,
    triangle_geometry,
)
from oracles import (
    EDGE_LENGTH_1_2_PI3,
    THETA_EQUILATERAL_R1_W0,
    THETA_EQUILATERAL_R1_WPI2,
    edge_length,
    edge_length_mp,
    triangle_angles_mp,
)

ACOSH2 = math.acosh(2.0)

radii_st = st.floats(1e-3, 1e2)
positive_radii = st.tuples(radii_st, radii_st, radii_st)


def star_weights(rng_seed):
    rng = np.random.default_rng(rng_seed)
    while True:
        w = rng.uniform(0.0, math.pi, 3)
        g = np.cos(w)
        if all(g[t] + g[(t + 1) % 3] * g[(t + 2) % 3] >= 0 for t in range(3)):
            return tuple(w)


# -- edge lengths ---------------------------------------------------------------

def test_tangent_circles_length_is_radius_sum():
    # zero weight means tangency: the geodesic runs through both centers
    assert edge_length(ACOSH2, ACOSH2, 0.0) == pytest.approx(2 * ACOSH2, rel=1e-15)


def test_orthogonal_circles_pythagoras():
    # cos(pi/2) kills the sinh term; here cosh l = cosh^2(arccosh 2) = 4
    v = edge_length(ACOSH2, ACOSH2, math.pi / 2)
    assert v == pytest.approx(math.acosh(4.0), rel=1e-15)
    assert v == pytest.approx(2.0634370688955608, rel=1e-10)


@given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
def test_pythagoras_property(r_a, r_b):
    v = edge_length(r_a, r_b, math.pi / 2)
    assert math.cosh(v) == pytest.approx(math.cosh(r_a) * math.cosh(r_b), rel=1e-12)


def test_edge_length_regression_against_high_precision():
    got = edge_length(1.0, 2.0, math.pi / 3)
    assert got == pytest.approx(EDGE_LENGTH_1_2_PI3, rel=1e-15)
    fresh = float(edge_length_mp(1.0, 2.0, mp.pi / 3))
    assert fresh == pytest.approx(EDGE_LENGTH_1_2_PI3, rel=1e-15)


@given(st.floats(1e-6, 300.0), st.floats(1e-6, 300.0),
       st.floats(0.0, math.pi, exclude_max=True))
@settings(max_examples=200)
def test_edge_length_matches_reference(r_a, r_b, phi):
    got = edge_length(r_a, r_b, phi)
    want = float(edge_length_mp(r_a, r_b, phi))
    # weights within ulps of pi cap the attainable relative accuracy
    assert got == pytest.approx(want, rel=5e-12, abs=1e-300)


def test_edge_length_symmetry():
    assert edge_length(0.3, 2.0, 1.0) == edge_length(2.0, 0.3, 1.0)


def test_radius_cap_and_overflow():
    with pytest.raises(RadiusOverflowError):
        edge_length(701.0, 1.0, 0.0)
    with pytest.raises(RadiusOverflowError):
        edge_length(-1.0, 1.0, 0.0)
    with pytest.raises(RadiusOverflowError, match="overflow"):
        edge_length(700.0, 700.0, 0.0)


# -- triangle geometry -----------------------------------------------------------

@given(st.floats(0.05, 15.0))
def test_equilateral_symmetry(t):
    geom = triangle_geometry(TrianglePacking((t, t, t), (0.0, 0.0, 0.0)))
    assert geom.angles[0] == geom.angles[1] == geom.angles[2]
    assert geom.angles[0] < math.pi / 3
    assert geom.area > 0.0
    assert geom.area == pytest.approx(math.pi - 3 * geom.angles[0], abs=1e-15)


def test_equilateral_unit_angle_regressions():
    g0 = triangle_geometry(TrianglePacking((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)))
    assert g0.lengths.ravel().tolist() == [2.0, 2.0, 2.0]
    assert g0.angles[0] == pytest.approx(THETA_EQUILATERAL_R1_W0, rel=1e-14)
    w = math.pi / 2
    g1 = triangle_geometry(TrianglePacking((1.0, 1.0, 1.0), (w, w, w)))
    assert g1.cosh_l[0] == pytest.approx(math.cosh(1.0) ** 2, rel=1e-15)
    assert g1.angles[0] == pytest.approx(THETA_EQUILATERAL_R1_WPI2, rel=1e-14)
    # freshness of the frozen constants
    fresh = [float(v) for v in triangle_angles_mp((1, 1, 1), (0, 0, 0))]
    assert fresh[0] == pytest.approx(THETA_EQUILATERAL_R1_W0, rel=1e-15)


def test_large_radius_angle_decay():
    geom = triangle_geometry(TrianglePacking((10.0, 10.0, 10.0), (0.0, 0.0, 0.0)))
    assert all(th < 1e-3 for th in geom.angles)
    assert all(th > 0.0 for th in geom.angles)


@given(st.integers(0, 10_000))
@settings(max_examples=150)
def test_geometry_matches_reference_angles(seed):
    rng = np.random.default_rng(seed)
    radii = tuple(np.exp(rng.uniform(math.log(1e-2), math.log(50.0), 3)))
    weights = star_weights(seed + 1)
    geom = triangle_geometry(TrianglePacking(radii, weights))
    want = triangle_angles_mp(radii, weights)
    for t in range(3):
        assert geom.angles[t] == pytest.approx(float(want[t]), rel=1e-11, abs=1e-13)
    assert geom.area == pytest.approx(float(math.pi - sum(want)), rel=1e-9, abs=1e-12)


def test_triangle_inequality_violation_raises():
    # weights breaking the corner condition can break the inequalities
    with pytest.raises(DegenerateFaceError):
        triangle_geometry(
            TrianglePacking((1e-3, 1e-3, 10.0), (0.1, 3.0, 3.0))
        )


# -- angle jacobian ----------------------------------------------------------------

def test_derivative_vanishes_at_equality_configuration():
    # weight 0 on the shared edge, the others summing to pi; in floats
    # cos(pi/2) is ~6e-17, so the cancellation bottoms out near 1e-17
    tp = TrianglePacking((1.0, 2.0, 0.7), (math.pi / 2, math.pi / 2, 0.0))
    J = angle_jacobian(tp)
    scale = float(np.max(np.abs(J)))
    assert abs(J[0, 1]) <= 1e-15 * scale
    assert J[1, 0] == J[0, 1]


def test_row_identity_unit_equilateral():
    tp = TrianglePacking((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    J = angle_jacobian(tp)
    res = glickenstein_residual(tp)
    for a in range(3):
        assert abs(res[a]) <= 1e-10 * (1.0 + abs(J[a, a]))


def test_row_identity_extreme_aspect():
    tp = TrianglePacking((0.01, 5.0, 0.3), (0.0, math.pi / 2, math.pi / 2))
    J = angle_jacobian(tp)
    res = glickenstein_residual(tp)
    for a in range(3):
        assert abs(res[a]) <= 1e-8 * (1.0 + abs(J[a, a]))


def test_star_violation_raises_not_residual():
    tp = TrianglePacking((1.0, 1.0, 1.0), (3.0, 3.0, 0.1))
    with pytest.raises(StarConditionError):
        tp.require_star()
    with pytest.raises(StarConditionError):
        glickenstein_residual(tp)
    with pytest.raises(StarConditionError):
        angle_jacobian(tp)


def test_jacobian_matches_finite_differences_spec_point():
    from cpflow.verify import fd_angle_jacobian, matrix_rel_error
    tp = TrianglePacking((1.0, 1.5, 2.0), (0.3, 0.7, 1.1))
    tp.require_star()
    J = angle_jacobian(tp)
    fd = fd_angle_jacobian(tp)
    assert matrix_rel_error(fd, J) < 1e-6


@given(st.integers(0, 10_000))
@settings(max_examples=150)
def test_pairwise_symmetry_and_sign(seed):
    rng = np.random.default_rng(seed)
    radii = tuple(np.exp(rng.uniform(math.log(1e-3), math.log(1e2), 3)))
    tp = TrianglePacking(radii, star_weights(seed))
    geom = triangle_geometry(tp)
    for a in range(3):
        for b in range(a + 1, 3):
            s1 = pair_derivative(tp, a, b, geom)
            s2 = pair_derivative(tp, b, a, geom)
            assert s1 >= 0.0
            assert abs(s1 - s2) <= 1e-12 * max(s1, s2, 1e-300)
            d = pair_derivative(tp, a, b, geom, use_delta=True)
            assert abs(d - s1) <= 1e-9 * max(s1, d, 1e-300)


def test_delta_invariant_matches_a_norm_square():
    # the discriminant equals the squared angle normalization
    tp = TrianglePacking((0.7, 1.3, 2.1), (0.2, 0.9, 1.4))
    geom = triangle_geometry(tp)
    assert delta_invariant(tp) == pytest.approx(geom.a_norm ** 2, rel=1e-12)


def test_chain_rule_diagonal_matches_row_identity_route():
    tp = TrianglePacking((0.4, 1.1, 3.0), (0.5, 0.25, 1.0))
    geom = triangle_geometry(tp)
    J = angle_jacobian(tp, geom)
    for a in range(3):
        assert chain_rule_diagonal(tp, a, geom) == pytest.approx(
            J[a, a], rel=1e-11, abs=1e-14
        )


# -- the array kernel against the scalar reference ---------------------------------

def test_batch_matches_scalar_reference():
    # one kernel call on 300 triangles against the `math` route of
    # `oracles`, triangle by triangle: the angles (each face's share of K),
    # the area (pi minus the angles, so relative to pi, as K is compared
    # relative to the cone angle), and the pair derivatives (its share of
    # B) with both denominators. numpy's sinh, log1p and arctan2 may differ
    # from libm's in the last digit, which the half excess of a thin
    # triangle magnifies by kappa = s / min(s - l_t), as in the mesh
    # kernel's test.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2024)
    n = 300
    radii = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), (3, n)))
    weights = rng.uniform(0.0, 0.5 * math.pi, (3, n))
    tp = TrianglePacking(radii, weights)
    geom = triangle_geometry(tp)
    J = angle_jacobian(tp, geom)
    lo, hi = np.array([0, 0, 1]), np.array([1, 2, 2])
    by_delta = pair_derivative(tp, lo, hi, geom, use_delta=True)
    assert np.array_equal(geom.cosh_l_minus_1, edge_terms(
        radii[[1, 2, 0]], radii[[2, 0, 1]], half_angles(weights))[0])
    for i in range(n):
        ref_tp = oracles.TrianglePacking(tuple(radii[:, i]), tuple(weights[:, i]))
        ref = oracles.triangle_geometry(ref_tp)
        s = 0.5 * sum(ref.lengths)
        tol = 1e-13 + 4.0 * s / min(s - x for x in ref.lengths) * eps
        assert abs(geom.area[i] - ref.area) <= tol * math.pi
        pairs = [(geom.lengths[:, i], ref.lengths), (geom.angles[:, i], ref.angles),
                 (J[:, :, i], oracles.angle_jacobian(ref_tp, ref)),
                 (by_delta[:, i], [oracles.pair_derivative(ref_tp, a, b, ref, use_delta=True)
                                   for a, b in zip(lo, hi)])]
        for got, want in pairs:
            want = np.asarray(want)
            assert np.all(np.abs(got - want) <= tol * np.abs(want)), i
