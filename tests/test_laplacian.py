import importlib.util
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cpflow import hypgeom, laplacian
from cpflow.errors import NumericalConsistencyError, RadiusOverflowError, StarConditionError
from cpflow.laplacian import (
    SPD_DENSE_MAX,
    apply_p_delta,
    assemble,
    calabi_energy,
    curvature,
    lanczos_min_eigenvalue,
    r_of_u,
    spd_check,
    u_of_r,
)
from cpflow.mesh import (
    Edge,
    Face,
    WeightedTriangulation,
    builtin_mesh,
    simplicial_from_faces,
)
from cpflow.verify import fd_curvature_jacobian
from oracles import (
    GENUS2_FLAT_RC, GENUS2_FLAT_RV, U_OF_R1, sample_rng, sample_star_mesh_weights,
    symmetry_residual)

TETRA = builtin_mesh("tetra")
GENUS2 = builtin_mesh("genus2_min")
OCTA = simplicial_from_faces(6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
                                 (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)])
MESHES = (TETRA, GENUS2, OCTA)
TORUS = oracles.torus_grid(24, 24)      # n = 576, above SPD_DENSE_MAX
EPS = np.finfo(float).eps


# -- coordinate transform ------------------------------------------------------

def test_u_of_r_closed_forms():
    r = 2.0 * math.atanh(0.5)
    assert u_of_r([r])[0] == pytest.approx(-math.log(2.0), rel=1e-15)
    assert u_of_r([1.0])[0] == pytest.approx(U_OF_R1, rel=1e-15)


@given(st.floats(1e-6, 700.0))
@settings(max_examples=300)
def test_u_r_round_trip(r):
    u = u_of_r([r])
    assert u[0] < 0.0
    back = r_of_u(u)[0]
    assert back == pytest.approx(r, rel=1e-14)


def test_u_domain_errors():
    with pytest.raises(ValueError):
        r_of_u([0.0])
    with pytest.raises(ValueError):
        r_of_u([0.5])
    with pytest.raises(RadiusOverflowError):
        u_of_r([0.0])
    with pytest.raises(RadiusOverflowError):
        u_of_r([701.0])


def test_error_messages_print_plain_floats(monkeypatch):
    for r, shown in ((math.nan, "nan"), (800.0, "800.0")):
        with pytest.raises(RadiusOverflowError) as err:
            assemble(TETRA, [1.0, r, 1.0, 1.0])
        assert str(err.value) == f"radius at vertex 1 = {shown} outside (0, 700.0]"
    asm = assemble(TETRA, [1.0, 2.0, 3.0, 4.0])
    monkeypatch.setattr(laplacian, "AB_CONSISTENCY_RTOL", -1.0)     # every vertex disagrees
    with pytest.raises(NumericalConsistencyError) as err:
        assemble(TETRA, [1.0, 2.0, 3.0, 4.0])
    # asm.A is the edge-sum route; the area-derivative route may differ from
    # it in the last digit, so its number is read back from the message
    direct = str(err.value).removeprefix("vertex 0: area-derivative route ").split(" ")[0]
    assert str(err.value) == (
        f"vertex 0: area-derivative route {float(direct)!r} vs edge-sum route "
        f"{float(asm.A[0])!r} disagree beyond 1e-9 relative")
    assert abs(float(direct) - asm.A[0]) <= 4 * np.spacing(asm.A[0])


def test_u_near_zero_matches_infinite_radius_limit():
    # u -> 0- corresponds to r -> infinity
    assert r_of_u([-1e-300])[0] > 690.0
    assert u_of_r([700.0])[0] < 0.0


# -- curvature -------------------------------------------------------------------

def test_large_radius_curvature_tends_to_2pi():
    K = curvature(TETRA, np.full(4, 20.0))
    assert np.max(np.abs(K - 2.0 * math.pi)) < 1e-6


def test_curvature_range_bounds():
    for name, mesh in (("tetra", TETRA), ("genus2_min", GENUS2)):
        counts = np.asarray(mesh.corner_counts(), dtype=float)
        for i in range(50):
            rng = sample_rng(7, i)
            m = sample_star_mesh_weights(mesh, rng)
            r = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), mesh.vertex_count))
            K = curvature(m, r)
            assert np.all(K < 2.0 * math.pi)
            assert np.all(K > (2.0 - counts) * math.pi)


def test_genus2_flat_metric_regression():
    r = np.array([GENUS2_FLAT_RC, GENUS2_FLAT_RV])
    K = curvature(GENUS2, r)
    assert np.max(np.abs(K)) < 1e-9


# -- assembly ---------------------------------------------------------------------

def test_assemble_tetra_symmetric_point():
    asm = assemble(TETRA, np.ones(4))
    assert np.allclose(asm.B, asm.B[0]) and np.allclose(asm.A, asm.A[0])
    # regression constants pinned by the finite-difference oracle below
    assert asm.B[0] == pytest.approx(0.22196254118829908, rel=1e-12)
    assert asm.A[0] == pytest.approx(1.839311924556878, rel=1e-12)
    fd = fd_curvature_jacobian(TETRA, np.ones(4))
    b_fd = -fd[0, 1]
    a_fd = fd[0, 0] - 3.0 * b_fd
    assert asm.B[0] == pytest.approx(b_fd, rel=1e-7)
    assert asm.A[0] == pytest.approx(a_fd, rel=1e-7)


def test_assemble_zero_weight_bounds():
    for mesh in (TETRA, GENUS2):
        deg = np.asarray(mesh.degrees(), dtype=float)
        for i in range(25):
            rng = sample_rng(11, i)
            r = np.exp(rng.uniform(math.log(1e-2), math.log(30.0), mesh.vertex_count))
            asm = assemble(mesh, r)
            assert np.all(asm.B > 0.0) and np.all(asm.B < 1.0)
            assert np.all(asm.A > 0.0)
            assert np.all(asm.A < deg * math.cosh(1.0))


def test_near_zero_edge_coefficient_at_equality_weights():
    # zero weight on one edge, orthogonal weights on the four flanking
    # edges: the analytic coefficient vanishes; floats bottom out ~1e-17
    m = TETRA
    eid = next(
        e for e in range(6)
        if set((m.edges[e].a, m.edges[e].b)) == {0, 1}
    )
    phis = [math.pi / 2] * 6
    phis[eid] = 0.0
    other = next(
        e for e in range(6)
        if set((m.edges[e].a, m.edges[e].b)) == {2, 3}
    )
    phis[other] = 0.0
    weighted = m.with_weights(phis)
    asm = assemble(weighted, np.array([1.0, 2.0, 0.5, 1.5]))
    scale = float(np.max(asm.B))
    assert abs(asm.B[eid]) <= 1e-15 * scale
    # the exact-zero flag tracks literal zeros only
    assert (eid in asm.zero_b_edges) == (asm.B[eid] == 0.0)


def test_row_sum_equals_A():
    for i in range(20):
        rng = sample_rng(13, i)
        m = sample_star_mesh_weights(GENUS2, rng)
        r = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2))
        asm = assemble(m, r)
        rows = np.sum(asm.L, axis=1)
        assert np.all(np.abs(rows - asm.A) <= 1e-10 * (1.0 + np.abs(asm.A)))


def test_genus2_offdiagonal_sums_spokes_only():
    asm = assemble(GENUS2, np.ones(2))
    spoke_B = asm.B[:8]
    assert asm.L[0, 1] == pytest.approx(-np.sum(spoke_B), rel=1e-14)
    # loop edges feed A (twice each) but never the off-diagonal
    assert asm.mesh.loop_edges == (8, 9, 10, 11)
    a_v = sum(
        asm.B[e] * asm.cosh_l_minus_1[e] * (2 if e >= 8 else 1)
        for e in range(12) if GENUS2.edges[e].b == 1
    )
    assert asm.A[1] == pytest.approx(a_v, rel=1e-14)


# -- operators ---------------------------------------------------------------------

def test_apply_delta_zero_and_constant():
    asm = assemble(TETRA, np.full(4, 1.3))
    assert np.all(apply_p_delta(asm, np.zeros(4), 2.0) == 0.0)
    c = 2.7
    out = apply_p_delta(asm, np.full(4, c), 2.0)
    assert np.allclose(out, -asm.A * c, rtol=1e-14)


def test_apply_delta_matches_dense_form():
    rng = sample_rng(17, 0)
    r = rng.uniform(0.5, 2.0, 4)
    asm = assemble(TETRA, r)
    for i in range(10):
        f = sample_rng(17, i + 1).normal(size=4)
        edge_sum = apply_p_delta(asm, f, 2.0)
        dense = -asm.L @ f
        assert np.max(np.abs(edge_sum - dense)) <= 1e-12 * (1.0 + np.max(np.abs(dense)))


def test_p_delta_reduces_to_delta():
    for i in range(100):
        rng = sample_rng(19, i)
        mesh = TETRA if i % 2 == 0 else GENUS2
        r = np.exp(rng.uniform(math.log(0.2), math.log(5.0), mesh.vertex_count))
        asm = assemble(mesh, r)
        f = rng.normal(size=mesh.vertex_count)
        d2 = apply_p_delta(asm, f, 2.0)
        d = -(asm.L @ f)
        assert np.max(np.abs(d2 - d)) <= 1e-12 * (1.0 + np.max(np.abs(d)))


def test_p_delta_constant_function():
    asm = assemble(TETRA, np.full(4, 0.8))
    f = np.full(4, -1.5)
    for p in (1.5, 2.0, 3.0, 7.0):
        out = apply_p_delta(asm, f, p)
        assert np.allclose(out, -asm.A * f, rtol=1e-14)


def test_p3_indicator_brute_force():
    asm = assemble(TETRA, np.ones(4))
    f = np.zeros(4)
    f[0] = 1.0
    got = apply_p_delta(asm, f, 3.0)
    want = np.zeros(4)
    for eid, e in enumerate(TETRA.edges):
        d = f[e.b] - f[e.a]
        w = asm.B[eid] * abs(d) * d
        want[e.a] += w
        want[e.b] -= w
    want -= asm.A * f
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_p_delta_domain_error():
    asm = assemble(TETRA, np.ones(4))
    with pytest.raises(ValueError):
        apply_p_delta(asm, np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        apply_p_delta(asm, np.zeros(4), 0.5)


def test_calabi_energy():
    assert calabi_energy(np.zeros(5)) == 0.0
    assert calabi_energy(np.array([math.pi, -math.pi])) == pytest.approx(
        2.0 * math.pi ** 2, rel=1e-15
    )
    K = curvature(TETRA, np.ones(4))
    assert calabi_energy(K) == pytest.approx(4.0 * K[0] ** 2, rel=1e-15)


def test_spd_check_tetra():
    asm = assemble(TETRA, np.ones(4))
    min_eig, sym = spd_check(asm)
    assert min_eig > 0.0
    assert sym == 0.0
    margin = np.diag(asm.L) - (np.sum(np.abs(asm.L), axis=1) - np.abs(np.diag(asm.L)))
    assert np.allclose(margin, asm.A, rtol=1e-12)


def test_reweighted_copy_shares_combinatorics_and_assembles_as_a_fresh_mesh():
    for base in MESHES:
        rng = np.random.default_rng(3)
        phis = rng.uniform(0.0, 0.5 * math.pi, base.edge_count)
        copy = base.with_weights(phis)
        fresh = WeightedTriangulation.from_arrays(
            base.vertex_count, base.ends, phis, base.corners, base.edge_ids)
        for name in ("corner_rows", "edge_rows", "nonloop", "links", "loop_edges",
                     "apply_index", "a_direct", "entry_pattern"):
            assert getattr(copy, name) is getattr(base, name)
        assert fresh.edge_rows is not base.edge_rows
        r = np.exp(rng.uniform(math.log(0.1), math.log(5.0), base.vertex_count))
        got, want = assemble(copy, r), assemble(fresh, r)
        for a, b in ((got.K, want.K), (got.B, want.B), (got.A, want.A),
                     *zip(got.entries, want.entries)):
            assert a.tobytes() == b.tobytes()
    assemble(TETRA, np.ones(4))     # the source's weight arrays are its own
    with pytest.raises(StarConditionError) as err:
        assemble(_star_violating_tetra(), np.ones(4))
    assert str(err.value) == "face 0 corner 0: corner condition fails, gamma -0.6180339887498947"


def test_dimension_mismatch():
    asm = assemble(TETRA, np.ones(4))
    with pytest.raises(ValueError):
        apply_p_delta(asm, np.zeros(3), 2.0)
    with pytest.raises(ValueError):
        curvature(TETRA, np.ones(3))


# -- the face kernel against the scalar loops ----------------------------------------

def _draw(base, rng, r_lo, r_hi):
    """Weights U[0, pi/2] (the corner condition holds) and log-uniform radii."""
    mesh = base.with_weights(rng.uniform(0.0, 0.5 * math.pi, base.edge_count))
    r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), mesh.vertex_count))
    return mesh, r


def _thinness(mesh, r):
    """max over faces of s / min(s - l_t): the factor by which the half
    excess l_b + l_c - l_a, which both routes form from the lengths,
    magnifies a last-digit difference in a length."""
    kappa = 1.0
    for fid in range(mesh.face_count):
        lengths = oracles.triangle_geometry(oracles.face_packing(mesh, r, fid)).lengths
        s = 0.5 * sum(lengths)
        kappa = max(kappa, s / min(s - x for x in lengths))
    return kappa


def test_kernel_matches_scalar_loops():
    # numpy's sinh, log1p and arctan2 may differ from libm's in the last
    # digit. On a thin face the half excess cancels, so two lengths one
    # digit apart move each of the two excess factors of a term by up to
    # 2 kappa eps relative. Entries are compared relative to themselves,
    # K = 2 pi - cone relative to the cone angle.
    for k, base in enumerate(MESHES):
        for i in range(25):
            mesh, r = _draw(base, np.random.default_rng([k, i]), 1e-6, 50.0)
            K, B, A, L = oracles.assemble_loop(mesh, r)
            asm = assemble(mesh, r)
            tol = 1e-13 + 4.0 * _thinness(mesh, r) * EPS
            for got, want in ((asm.B, B), (asm.A, A), (asm.L, L)):
                assert np.all(np.abs(got - want) <= tol * np.abs(want))
            cone = 2.0 * math.pi - K
            for got in (asm.K, curvature(mesh, r)):
                assert np.all(np.abs(got - K) <= tol * cone)
            assert np.array_equal(curvature(mesh, r), asm.K)


# radii where the `math` reference returns nan instead of raising (see
# test_kernel_raises_where_scalar_loops_give_nan)
_NAN_IN_REFERENCE = ([150.0] * 4, [200.0] * 4)


def _star_violating_tetra():
    phis = [0.0] * 6
    f = TETRA.faces[0]
    phis[f.edges[0]] = phis[f.edges[1]] = 0.6 * math.pi     # gamma < 0 at corner 2
    return TETRA.with_weights(phis)


@pytest.mark.parametrize("mesh, r, error", [
    (TETRA, [700.0, 12.0, 1.0, 1.0], RadiusOverflowError),      # cosh l - 1 overflows
    (TETRA, [700.0, 700.0, 1.0, 1.0], RadiusOverflowError),
    (TETRA, [300.0] * 4, RadiusOverflowError),                   # sinh of the half perimeter
    (TETRA, [1.0, 1.0, 0.0, 1.0], RadiusOverflowError),
    (TETRA, [1.0, -1.0, 1.0, 1.0], RadiusOverflowError),
    (TETRA, [1.0, math.nan, 1.0, 1.0], RadiusOverflowError),
    (TETRA, [1.0, 1.0, 1.0, 700.5], RadiusOverflowError),
    (_star_violating_tetra(), [1.0, 1.2, 0.8, 1.0], StarConditionError),
    (_star_violating_tetra(), [5.0] * 4, StarConditionError),
    (TETRA, [150.0] * 4, RadiusOverflowError),                   # pair derivatives inf / inf
    (TETRA, [200.0] * 4, RadiusOverflowError),                   # corner angles nan
])
def test_kernel_raises_what_the_scalar_loops_raise(mesh, r, error):
    r = np.array(r)
    with pytest.raises(error):
        assemble(mesh, r)
    with pytest.raises(error):      # the single-triangle route, face by face
        for fid, f in enumerate(mesh.faces):
            tp = hypgeom.TrianglePacking(r[list(f.corners)], mesh.face_weights(fid))
            hypgeom.angle_jacobian(tp)
    if r.tolist() in _NAN_IN_REFERENCE:
        return
    with pytest.raises(error):
        oracles.assemble_loop(mesh, r)


def test_star_violation_leaves_curvature_alone():
    mesh, r = _star_violating_tetra(), np.array([1.0, 1.2, 0.8, 1.0])
    K = oracles.curvature_loop(mesh, r)
    assert np.all(np.abs(curvature(mesh, r) - K) <= 1e-13 * (2.0 * math.pi - K))


def test_kernel_raises_where_scalar_loops_give_nan():
    for v in (150.0, 200.0):
        K, B, _, _ = oracles.assemble_loop(TETRA, np.full(4, v))
        assert np.isnan(B).any()
        with pytest.raises(RadiusOverflowError):
            assemble(TETRA, np.full(4, v))


def _relabel(mesh, r, rng):
    """Permute vertex, edge and face ids, flip edge ends and rotate each
    face's corners; returns the new mesh and radii and the permutations."""
    vp = rng.permutation(mesh.vertex_count)
    ep = rng.permutation(mesh.edge_count)
    fp = rng.permutation(mesh.face_count)
    edges = [None] * mesh.edge_count
    for eid, e in enumerate(mesh.edges):
        a, b = int(vp[e.a]), int(vp[e.b])
        edges[ep[eid]] = Edge(a, b, e.phi) if rng.random() < 0.5 else Edge(b, a, e.phi)
    faces = [None] * mesh.face_count
    for fid, f in enumerate(mesh.faces):
        k = int(rng.integers(3))
        faces[fp[fid]] = Face(
            tuple(int(vp[f.corners[(t + k) % 3]]) for t in range(3)),
            tuple(int(ep[f.edges[(t + k) % 3]]) for t in range(3)))
    r_new = np.empty_like(r)
    r_new[vp] = r
    return WeightedTriangulation(mesh.vertex_count, edges, faces), r_new, vp, ep


@given(st.sampled_from(range(len(MESHES))), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_relabelling_permutes_K_B_A(k, seed):
    rng = np.random.default_rng(seed)
    mesh, r = _draw(MESHES[k], rng, 0.05, 20.0)
    relabelled, r_new, vp, ep = _relabel(mesh, r, rng)
    asm, new = assemble(mesh, r), assemble(relabelled, r_new)
    for got, want in ((new.K[vp], asm.K), (new.B[ep], asm.B), (new.A[vp], asm.A)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# -- L on request and the edge-sum operators ------------------------------------------

def test_L_is_built_on_first_access():
    for k, base in enumerate(MESHES):
        mesh, r = _draw(base, np.random.default_rng([k, 99]), 0.1, 10.0)
        asm = assemble(mesh, r)
        assert "L" not in asm.__dict__
        L = asm.L
        assert asm.L is L
        assert np.array_equal(L, L.T)
        n = mesh.vertex_count
        rows = L @ np.ones(n)
        assert np.all(np.abs(rows - asm.A) <= n * EPS * np.sum(np.abs(L), axis=1))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_apply_p_delta_matches_edge_loop(p):
    for k, base in enumerate(MESHES):
        for i in range(10):
            rng = np.random.default_rng([k, i, 7])
            mesh, r = _draw(base, rng, 0.1, 10.0)
            asm = assemble(mesh, r)
            for f in (rng.normal(size=mesh.vertex_count), asm.K):
                want = oracles.apply_p_delta_loop(mesh, asm.B, asm.A, f, p)
                got = apply_p_delta(asm, f, p)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_zero_difference_contributes_zero_below_p2():
    asm = assemble(OCTA, np.linspace(0.5, 2.0, 6))
    f = np.array([1.0, 1.0, 1.0, -2.0, 0.5, 0.5])     # several edges with f_i = f_j
    for p in (1.1, 1.5, 1.9):
        out = apply_p_delta(asm, f, p)
        want = oracles.apply_p_delta_loop(OCTA, asm.B, asm.A, f, p)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))


# -- the smallest eigenvalue of L: dense and Lanczos ------------------------------------

def _spd_draws(base, seed):
    """Assemblies at weights U[0, pi/2] and radii log-uniform in [0.1, 10],
    then in [1e-3, 50]."""
    for k, (r_lo, r_hi) in enumerate(((0.1, 10.0), (1e-3, 50.0))):
        yield assemble(*_draw(base, np.random.default_rng([seed, k, 41]), r_lo, r_hi))


@pytest.mark.parametrize("base", [TETRA, GENUS2, OCTA, TORUS],
                         ids=["tetra", "genus2_min", "octa", "torus24x24"])
def test_min_eigenvalue_matches_eigvalsh(base):
    assert (base.vertex_count > SPD_DENSE_MAX) == (base is TORUS)
    for seed in range(4):
        for asm in _spd_draws(base, seed):
            eig = np.linalg.eigvalsh(asm.L)
            lam = lanczos_min_eigenvalue(asm)
            assert abs(lam - eig[0]) <= 1e-12 * eig[-1]
            # Weyl below, the Rayleigh quotient of 1 above
            for value in (lam, eig[0]):
                assert np.min(asm.A) <= value <= np.sum(asm.A) / base.vertex_count
            min_eig, sym = spd_check(asm)
            assert sym == 0.0
            if base.vertex_count <= SPD_DENSE_MAX:
                assert min_eig == eig[0]
            else:
                assert min_eig == lam


def test_spd_check_takes_no_lanczos_at_the_dense_threshold(monkeypatch):
    """A direct Lanczos call can refuse at n <= SPD_DENSE_MAX; spd_check
    takes eigvalsh there, up to n = SPD_DENSE_MAX itself."""
    def refuse(asm):
        raise AssertionError("spd_check called lanczos_min_eigenvalue")

    monkeypatch.setattr(laplacian, "lanczos_min_eigenvalue", refuse)
    base = GENUS2.copies(SPD_DENSE_MAX // 2)
    assert base.vertex_count == SPD_DENSE_MAX
    asm = assemble(*_draw(base, np.random.default_rng(53), 0.1, 10.0))
    assert spd_check(asm) == (np.linalg.eigvalsh(asm.L)[0], 0.0)


def test_lanczos_starts_from_ones(monkeypatch):
    """Where 1 is an eigenvector of L (uniform weights and radii on the
    vertex-transitive torus grid, so A is constant), the Perron start
    vector finds it with one matvec."""
    calls = []
    matvec = laplacian._matvec
    monkeypatch.setattr(laplacian, "_matvec",
                        lambda asm, x: calls.append(1) or matvec(asm, x))
    for phi in (0.0, 0.7):
        asm = assemble(TORUS.with_uniform_weight(phi), np.full(TORUS.vertex_count, 0.8))
        assert np.ptp(asm.A) == 0.0
        calls.clear()
        lam = lanczos_min_eigenvalue(asm)
        assert calls == [1]
        assert abs(lam - asm.A[0]) <= 8 * EPS * asm.A[0]


# n = 256 and 384 are the sizes just above SPD_DENSE_MAX, where spd_check
# switches from eigvalsh to Lanczos
SWEEP_BASES = [oracles.torus_grid(16, 16), oracles.torus_grid(16, 24),
               oracles.torus_grid(20, 20), oracles.torus_grid(32, 32),
               oracles.torus_grid(12, 40), oracles.torus_grid(16, 16).copies(2)]


@pytest.mark.parametrize("base", SWEEP_BASES, ids=[
    "torus16x16", "torus16x24", "torus20x20", "torus32x32", "torus12x40", "torus16x16x2"])
def test_lanczos_recurrence_matches_eigvalsh(base):
    """The three-term recurrence with no stored basis finds the smallest
    eigenvalue to the bound of the dense comparison, over radii
    log-uniform in [0.1, 10], [1e-3, 50] and [0.5, 0.6], on tori of
    256 to 1024 vertices and a disjoint union of two tori."""
    for seed in range(3):
        for r_lo, r_hi in ((0.1, 10.0), (1e-3, 50.0), (0.5, 0.6)):
            asm = assemble(*_draw(base, np.random.default_rng([seed, 43]), r_lo, r_hi))
            eig = np.linalg.eigvalsh(asm.L)
            assert abs(lanczos_min_eigenvalue(asm) - eig[0]) <= 1e-12 * eig[-1]


def _bench_genus2(level):
    """genus2_min subdivided level times by the benchmark's generator,
    bench/meshgen.py: level 4 is the mesh of its spd_check calls."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "meshgen.py"
    spec = importlib.util.spec_from_file_location("meshgen", path)
    meshgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(meshgen)
    return meshgen.genus2(level)


@pytest.mark.parametrize("base", [oracles.torus_grid(32, 32), _bench_genus2(4)],
                         ids=["torus32x32", "genus2_level4"])
def test_lanczos_ritz_checks(monkeypatch, base):
    """A call diagonalises T at steps 16 and 32, then where the residual is
    expected to pass: at most 4 times in all at the benchmark's radii,
    log-uniform in [0.1, 5] (every 16 steps, 6 to 8 times here). Radii
    in [1e-3, 50] need 140 to 420 steps, so, at most 64 steps apart, 5 to 8
    checks."""
    eigh, sizes = np.linalg.eigh, []
    monkeypatch.setattr(laplacian.np.linalg, "eigh", lambda T: sizes.append(len(T)) or eigh(T))
    for seed in range(3):
        asm = assemble(*_draw(base, np.random.default_rng([seed, 47]), 0.1, 5.0))
        sizes.clear()
        lam = lanczos_min_eigenvalue(asm)
        assert sizes[:2] == [16, 32] and len(sizes) <= 4
        eig = np.linalg.eigvalsh(asm.L)
        assert abs(lam - eig[0]) <= 1e-12 * eig[-1]


def test_lanczos_memory_at_n_4096():
    """The recurrence keeps two vectors of n, not a basis of k x n (17 MB
    traced at n = 4096 with the stored basis)."""
    asm = assemble(*_draw(oracles.torus_grid(64, 64), np.random.default_rng(7), 0.1, 10.0))
    asm.entries         # the O(E) entry list is the assembly's, read before tracing
    tracemalloc.start()
    try:
        lam = lanczos_min_eigenvalue(asm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    assert np.min(asm.A) <= lam <= np.mean(asm.A)


def test_lanczos_unconverged_after_n_steps_raises(monkeypatch):
    """In floating point the recurrence need not end at step n; a value
    whose residual test fails there is refused, not returned."""
    asm = assemble(*_draw(oracles.torus_grid(6, 6), np.random.default_rng(0), 0.1, 10.0))
    monkeypatch.setattr(laplacian, "LANCZOS_RTOL", -1.0)     # no residual meets it
    with pytest.raises(NumericalConsistencyError, match="did not converge in 36 steps"):
        lanczos_min_eigenvalue(asm)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_lanczos_bracket_guard(monkeypatch, sign):
    """A matvec shifted by s * I moves every eigenvalue by s; shifted
    below min A or above sum A / n, the result is refused."""
    asm = next(_spd_draws(TORUS, 0))
    lam = lanczos_min_eigenvalue(asm)
    shift = lam if sign > 0 else np.mean(asm.A) - lam + 1e-3 * np.min(asm.A)
    matvec = laplacian._matvec
    monkeypatch.setattr(laplacian, "_matvec",
                        lambda asm, x: matvec(asm, x) - sign * shift * x)
    with pytest.raises(NumericalConsistencyError, match="outside"):
        lanczos_min_eigenvalue(asm)
    with pytest.raises(NumericalConsistencyError):
        spd_check(asm)


# -- the entry list of L ---------------------------------------------------------------

ENTRY_BASES = pytest.mark.parametrize("base", [TETRA, GENUS2, OCTA, TORUS],
                                      ids=["tetra", "genus2_min", "octa", "torus24x24"])


def _dense_residual(rows, cols, vals, n):
    L = np.zeros((n, n))
    L[rows, cols] = vals
    return float(np.max(np.abs(L - L.T)))


@ENTRY_BASES
def test_entry_residual_equals_dense(base):
    """On L itself (0), on L with every entry scaled by its own noise, and
    with ~30 % of the entries dropped (a missing transpose counts as 0)."""
    n = base.vertex_count
    rng = np.random.default_rng(17)
    for seed in range(2):
        for asm in _spd_draws(base, seed):
            rows, cols, vals = asm.entries
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
            assert symmetry_residual(rows, cols, vals, n) == 0.0
            assert _dense_residual(rows, cols, vals, n) == 0.0
            noisy = vals * (1.0 + 1e-3 * rng.standard_normal(len(vals)))
            got = symmetry_residual(rows, cols, noisy, n)
            assert got > 0.0 and got == _dense_residual(rows, cols, noisy, n)
            keep = rng.random(len(vals)) < 0.7
            got = symmetry_residual(rows[keep], cols[keep], vals[keep], n)
            assert got == _dense_residual(rows[keep], cols[keep], vals[keep], n)


@ENTRY_BASES
def test_indexed_residual_equals_sorted(base):
    """spd_check reads max |L - L^T| by pairing each off-diagonal entry
    with the one a block of vertex pairs later; it equals the sorted
    reference on L and on L with every entry scaled by its own noise."""
    n = base.vertex_count
    rng = np.random.default_rng(19)
    for seed in range(2):
        for asm in _spd_draws(base, seed):
            rows, cols, vals = asm.entries
            assert spd_check(asm)[1] == symmetry_residual(rows, cols, vals, n) == 0.0
            for _ in range(3):
                noisy = vals * (1.0 + 1e-3 * rng.standard_normal(len(vals)))
                got = laplacian._symmetry_residual(asm.mesh, noisy)
                assert got > 0.0 and got == symmetry_residual(rows, cols, noisy, n)


def test_entry_residual_of_one_perturbed_entry():
    """delta added to one off-diagonal entry gives a residual of exactly
    delta: a power of two at most |v| / 8 added to v <= 0 is exact. On the
    diagonal it gives 0."""
    for base in (GENUS2, OCTA):
        asm = next(_spd_draws(base, 5))
        rows, cols, vals = asm.entries
        n = base.vertex_count
        for k in range(len(vals)):
            delta = float(np.ldexp(1.0, np.frexp(vals[k])[1] - 4))
            bad = vals.copy()
            bad[k] += delta
            want = 0.0 if rows[k] == cols[k] else delta
            assert symmetry_residual(rows, cols, bad, n) == want
            assert laplacian._symmetry_residual(asm.mesh, bad) == want
            assert _dense_residual(rows, cols, bad, n) == want


@ENTRY_BASES
def test_matvec_matches_dense_L(base):
    rng = np.random.default_rng(23)
    for asm in _spd_draws(base, 3):
        x = rng.standard_normal(base.vertex_count)
        want = asm.L @ x
        scale = np.abs(asm.L) @ np.abs(x)
        assert np.all(np.abs(laplacian._matvec(asm, x) - want) <= 1e-14 * scale)


def test_spd_check_above_the_dense_threshold_builds_no_dense_L():
    for asm in _spd_draws(TORUS, 2):
        min_eig, sym = spd_check(asm)
        assert "L" not in asm.__dict__
        assert sym == 0.0
        assert np.min(asm.A) <= min_eig <= np.mean(asm.A)


def test_spd_check_memory_at_n_4096():
    """The dense L alone would be 134 MB at n = 4096."""
    base = oracles.torus_grid(64, 64)
    mesh, r = _draw(base, np.random.default_rng(7), 0.1, 10.0)
    asm = assemble(mesh, r)
    tracemalloc.start()
    try:
        min_eig, sym = spd_check(asm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert sym == 0.0
    assert np.min(asm.A) <= min_eig <= np.mean(asm.A)
