"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances and sizes are pinned here, not in helper defaults, and each
suite setting that is a module constant is asserted equal to its value,
so a drive-by change to either cannot silently weaken the gate. Run with
`pytest -v tests/test_acceptance.py` (add -s to see the lines while
running).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cpflow import verify
from cpflow.flow import FlowConfig, r_lower_bound_curve, run_flow, step, velocity_bound
from cpflow.laplacian import (
    apply_p_delta,
    assemble,
    curvature,
    u_of_r,
)
from cpflow.mesh import builtin_mesh
from cpflow.verify import (
    run_identities,
    run_jacobians,
    run_prop24,
    run_prop31,
    run_spd,
    run_theorem1,
    run_theorem2,
    sample_rng,
    sample_star_mesh_weights,
)
from oracles import GENUS2_FLAT_RC, GENUS2_FLAT_RV

TETRA = builtin_mesh("tetra")
GENUS2 = builtin_mesh("genus2_min")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] {label}: FAIL")
        raise
    print(f"[acceptance {number:02d}] {label}: PASS")


def _fail_lines(report, limit=3):
    return "; ".join(str(v) for v in report.violations[:limit])


def test_01_identity_suite():
    with criterion(1, "row identity, 1e4 admissible triangles at 1e-9"):
        assert verify.IDENTITY_RADII == (1e-3, 1e2)
        rep = run_identities(samples=10_000, seed=42)
        assert rep.passed, _fail_lines(rep)
        assert rep.sups["row_identity_residual"] <= 1e-9
        assert rep.sups["pair_symmetry"] <= 1e-12
        assert rep.sups["denominator_equivalence"] <= 1e-9


def test_02_jacobian_suite():
    with criterion(2, "analytic vs finite-difference Jacobians"):
        assert verify.MESH_METRICS == 100 and verify.FD_STEP == 1e-5
        rep = run_jacobians(samples=1_000, seed=42)
        assert rep.passed, _fail_lines(rep)
        assert rep.sups["angle_fd_matrix_rel"] <= 1e-6
        assert rep.sups["curvature_fd_margin"] <= 0.0
        assert rep.sups["curvature_fd_symmetry"] <= 1e-6
        globals()["_JACOBIAN_REPORT"] = rep


def test_03_vertex_coefficient_identity():
    with criterion(3, "A equals the weighted edge sum at every vertex"):
        rep_j = globals().get("_JACOBIAN_REPORT") or run_jacobians(20, 42)
        assert rep_j.sups["ab_identity_residual"] <= 1e-9
        rep_t1 = globals().get("_THEOREM1_REPORT")
        if rep_t1 is None:
            rep_t1 = run_theorem1(200, 42)
            globals()["_THEOREM1_REPORT"] = rep_t1
        keys = [k for k in rep_t1.sups if k.startswith("ab_identity_residual")]
        assert keys and all(rep_t1.sups[k] <= 1e-9 for k in keys)


def test_04_spd_suite():
    with criterion(4, "positive definiteness on 100 random metrics per mesh"):
        rep = run_spd(samples=100, seed=42)
        assert rep.passed, _fail_lines(rep)
        assert rep.infs["min_eigenvalue"] > 0.0
        assert rep.infs["diag_dominance_margin"] > 0.0
        assert rep.sups["symmetry_residual"] == 0.0


def test_05_floor_bound_suite():
    with criterion(5, "explicit floor bounds over R in {0.25, 0.5, 1.0}"):
        assert verify.FLOORS == (0.25, 0.5, 1.0)
        rep = run_theorem1(samples=1_000, seed=42)
        assert rep.passed, _fail_lines(rep)
        globals()["_THEOREM1_REPORT"] = rep


def test_06_uniform_bound_suite():
    with criterion(6, "uniform bounds and polynomial cross-check, 20 triples"):
        rep = run_theorem2(samples=20, seed=42)
        assert rep.passed, _fail_lines(rep)
        assert rep.sups["poly_cross_check"] <= 1e-9
        assert rep.infs["t1_min"] >= 0.0
        assert rep.infs["t2_min"] >= 0.0
        assert rep.infs["face_A_contribution"] > 0.0


def test_07_cosine_inequality_bruteforce():
    with criterion(7, "constrained grid minima exceed 1 + c exactly"):
        assert verify.C_VALUES == (0.0, -0.3, -0.7, -0.99)
        rep = run_prop31(grid_n=50, seed=42)
        assert rep.passed, _fail_lines(rep)
        for c in (0.0, -0.3, -0.7, -0.99):
            assert rep.infs[f"min[c={c:g}]"] >= 1.0 + c


def test_08_zero_weight_bounds():
    with criterion(8, "tangency bounds 0<B<1 and 0<A<d cosh 1"):
        rep = run_prop24(samples=1_000, seed=42)
        assert rep.passed, _fail_lines(rep)
        assert 0.0 < rep.sups["B_max"] < 1.0
        assert rep.sups["A_over_degree_cosh1"] < 1.0


def test_09_flow_convergence():
    with criterion(9, "genus-2 flows reach the flat packing"):
        cfg = FlowConfig(p=2.0, dt=1e-2, t_max=1e3, k_tol=1e-6)
        start = time.perf_counter()
        trace2 = run_flow(GENUS2, np.ones(2), cfg)
        wall = time.perf_counter() - start
        assert trace2.termination == "converged"
        assert trace2.final_max_abs_K() <= 1e-6
        assert trace2.samples[-1].t <= 1e3
        assert trace2.energy_nonincreasing()
        assert wall <= 60.0
        assert trace2.samples[-1].r[0] == pytest.approx(GENUS2_FLAT_RC, abs=1e-5)
        assert trace2.samples[-1].r[1] == pytest.approx(GENUS2_FLAT_RV, abs=1e-5)
        cfg3 = FlowConfig(p=3.0, dt=1e-2, t_max=1e3, k_tol=1e-4)
        trace3 = run_flow(GENUS2, np.ones(2), cfg3)
        assert trace3.termination == "converged"
        assert trace3.final_max_abs_K() <= 1e-4
        globals()["_TRACES"] = [("genus2-p2", trace2, GENUS2), ("genus2-p3", trace3, GENUS2)]


def test_10_long_time_diagnostics():
    with criterion(10, "curvature range, radius envelope, velocity formula"):
        traces = globals().get("_TRACES", [])
        cfg = FlowConfig(p=2.0, dt=1e-2, t_max=5.0, k_tol=1e-8)
        traces = traces + [("tetra-horizon", run_flow(TETRA, np.ones(4), cfg), TETRA)]
        assert len(traces) >= 2
        for name, trace, mesh in traces:
            assert trace.k_range_ok(mesh), name
            r0 = trace.samples[0].min_r
            for s in trace.samples:
                assert s.min_r >= r_lower_bound_curve(r0, trace.c_emp, s.t), (
                    f"{name} at t={s.t}"
                )
            # observed velocity stays under the bound built from the run's
            # own coefficient sups
            assert trace.warnings == [], name
        assert velocity_bound(3, 1.0, 1.0, 2.0) == 14.0 * math.pi


def test_11_p_consistency_and_fixed_point():
    with criterion(11, "p=2 reduction and fixed-point stationarity"):
        for i in range(100):
            rng = sample_rng(2024, i)
            base = TETRA if i % 2 == 0 else GENUS2
            mesh = base if i % 3 == 0 else sample_star_mesh_weights(base, rng)
            r = np.exp(rng.uniform(math.log(0.2), math.log(5.0), mesh.vertex_count))
            asm = assemble(mesh, r)
            f = rng.normal(size=mesh.vertex_count)
            d2 = apply_p_delta(asm, f, 2.0)
            d1 = -(asm.L @ f)
            assert np.max(np.abs(d2 - d1)) <= 1e-12 * (1.0 + np.max(np.abs(d1)))
        flat = np.array([GENUS2_FLAT_RC, GENUS2_FLAT_RV])
        assert np.max(np.abs(curvature(GENUS2, flat))) <= 1e-12
        dt = 1e-2
        r_next, _ = step(GENUS2, flat, dt, 2.0)
        du = np.abs(u_of_r(r_next) - u_of_r(flat))
        assert np.max(du) <= dt * 1e-10
