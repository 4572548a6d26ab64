import math

import numpy as np
import pytest

from cpflow import laplacian
from cpflow.errors import StarConditionError, StepFailureError
from cpflow.flow import (
    FlowConfig,
    flow_rhs,
    r_lower_bound_curve,
    run_flow,
    step,
    velocity_bound,
)
from cpflow.laplacian import apply_p_delta, assemble, calabi_energy, curvature, u_of_r
from cpflow.mesh import builtin_mesh
from oracles import DECAY_CURVE_1_14PI_01, GENUS2_FLAT_RC, GENUS2_FLAT_RV

TETRA = builtin_mesh("tetra")
GENUS2 = builtin_mesh("genus2_min")
FLAT = np.array([GENUS2_FLAT_RC, GENUS2_FLAT_RV])


# -- closed forms -----------------------------------------------------------------

def test_velocity_bound_exact_reference_point():
    assert velocity_bound(3, 1.0, 1.0, 2.0) == 14.0 * math.pi


def test_velocity_bound_zeroes():
    assert velocity_bound(3, 0.0, 0.0, 2.0) == 0.0
    assert velocity_bound(16, 0.0, 1.0, 3.0) == 16.0 * (16.0 * math.pi) ** 2


def test_velocity_bound_beyond_double_range_is_infinite():
    # (3 pi)^999 overflows a double; the bound is then no bound at all
    assert velocity_bound(3, 1.0, 1.0, 1000.0) == math.inf


def test_decay_curve_identity_at_time_zero():
    for r0 in (0.01, 1.0, 5.0, 300.0):
        assert r_lower_bound_curve(r0, 14.0 * math.pi, 0.0) == r0


def test_decay_curve_monotone_to_zero():
    vals = [r_lower_bound_curve(1.0, 14.0 * math.pi, t) for t in
            (0.0, 0.01, 0.1, 1.0, 10.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0
    assert vals[-1] < 1e-100
    # far past the representable scale the bound underflows to exactly 0+
    assert r_lower_bound_curve(1.0, 14.0 * math.pi, 100.0) >= 0.0


def test_decay_curve_regression_value():
    got = r_lower_bound_curve(1.0, 14.0 * math.pi, 0.1)
    assert got == pytest.approx(DECAY_CURVE_1_14PI_01, rel=1e-14)


# -- right-hand side -----------------------------------------------------------------

def test_rhs_vanishes_at_flat_metric():
    rhs = flow_rhs(GENUS2, FLAT, 2.0)
    assert np.max(np.abs(rhs)) < 1e-12


def test_rhs_is_minus_L_K_at_p2():
    r = np.array([0.7, 1.1, 1.4, 0.9])
    asm = assemble(TETRA, r)
    rhs = flow_rhs(TETRA, r, 2.0)
    assert np.allclose(rhs, -asm.L @ asm.K, rtol=1e-12)
    assert np.allclose(rhs, apply_p_delta(asm, asm.K, 2.0), rtol=1e-14)


def test_rhs_symmetric_on_tetra():
    rhs = flow_rhs(TETRA, np.ones(4), 2.0)
    assert np.allclose(rhs, rhs[0], rtol=1e-13)
    # uniform curvature kills the difference terms, leaving -A K
    asm = assemble(TETRA, np.ones(4))
    assert rhs[0] == pytest.approx(-asm.A[0] * asm.K[0], rel=1e-13)


# -- single step ----------------------------------------------------------------------

def test_step_fixed_point_leaves_u_unchanged():
    dt = 1e-2
    r_next, diag = step(GENUS2, FLAT, dt, 2.0)
    u0 = u_of_r(FLAT)
    u1 = u_of_r(r_next)
    K = curvature(GENUS2, FLAT)
    assert np.max(np.abs(K)) <= 1e-12
    assert np.max(np.abs(u1 - u0)) <= dt * 1e-10


def test_step_energy_never_increases_at_p2():
    r = np.ones(2)
    e = calabi_energy(curvature(GENUS2, r))
    for _ in range(30):
        r, diag = step(GENUS2, r, 1e-2, 2.0)
        assert diag.energy_next <= e
        e = diag.energy_next


def test_tiny_step_matches_explicit_euler():
    from cpflow.laplacian import r_of_u
    dt = 1e-12
    r = np.ones(2)
    u0 = u_of_r(r)
    rhs = flow_rhs(GENUS2, r, 2.0)
    r_next, _ = step(GENUS2, r, dt, 2.0)
    r_euler = r_of_u(u0 + dt * rhs)
    increment = np.max(np.abs(r_euler - r))
    assert increment > 0.0
    # RK4 deviates from Euler at O(dt^2); allow a few ulps of r itself for
    # the round trip through u
    tol = 1e-8 * increment + 16.0 * np.max(np.spacing(np.abs(r)))
    assert np.max(np.abs(r_next - r_euler)) <= tol


def test_step_failure_carries_state():
    with pytest.raises(StepFailureError) as exc:
        step(GENUS2, np.ones(2), 1e12, 2.0, max_halvings=0)
    assert exc.value.dt > 0.0
    assert np.all(exc.value.r == 1.0)


def test_value_error_in_a_step_propagates_without_halving(monkeypatch):
    # a ValueError is a misuse, not an inadmissible stage: no halving retries it
    calls = []

    def broken(mesh, r):
        calls.append(r)
        raise ValueError("misuse")

    monkeypatch.setattr(laplacian, "curvature", broken)
    with pytest.raises(ValueError, match="misuse"):
        step(GENUS2, np.ones(2), 1e-2, 3.0)     # at p = 3 only the step calls curvature
    assert len(calls) == 1


# -- full runs ---------------------------------------------------------------------------

def test_genus2_flow_converges_to_flat_metric():
    cfg = FlowConfig(p=2.0, dt=1e-2, t_max=1e3, k_tol=1e-8)
    trace = run_flow(GENUS2, np.ones(2), cfg)
    assert trace.termination == "converged"
    assert trace.final_max_abs_K() <= 1e-8
    assert trace.energy_nonincreasing()
    final = trace.samples[-1].r
    assert final[0] == pytest.approx(GENUS2_FLAT_RC, abs=1e-6)
    assert final[1] == pytest.approx(GENUS2_FLAT_RV, abs=1e-6)


def test_tetra_flow_reaches_horizon_with_monotone_energy():
    cfg = FlowConfig(p=2.0, dt=1e-2, t_max=5.0, k_tol=1e-8)
    trace = run_flow(TETRA, np.ones(4), cfg)
    assert trace.termination == "horizon"
    assert trace.energy_nonincreasing()
    # the energy plateaus above the zero-curvature obstruction level
    assert trace.samples[-1].calabi_energy > 4.0 * math.pi ** 2


def test_genus2_p3_flow_converges():
    cfg = FlowConfig(p=3.0, dt=1e-2, t_max=1e3, k_tol=1e-4)
    trace = run_flow(GENUS2, np.ones(2), cfg)
    assert trace.termination == "converged"
    assert trace.final_max_abs_K() <= 1e-4


def test_flow_diagnostics_and_conformance():
    cfg = FlowConfig(p=2.0, dt=1e-2, t_max=2.0, k_tol=1e-10)
    trace = run_flow(GENUS2, np.ones(2), cfg)
    assert trace.k_range_ok(GENUS2)
    assert trace.r_lower_bound_conformant()
    assert trace.warnings == []
    bound = velocity_bound(GENUS2.max_degree(), trace.sup_A, trace.sup_B, 2.0)
    assert trace.c_emp <= bound
    ts = [s.t for s in trace.samples]
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_flow_rejects_star_violating_mesh():
    phis = [0.0] * 6
    f = TETRA.faces[0]
    phis[f.edges[0]] = 3 * math.pi / 4
    phis[f.edges[1]] = 3 * math.pi / 4
    bad = TETRA.with_weights(phis)
    with pytest.raises(StarConditionError):
        run_flow(bad, np.ones(4), FlowConfig())


def test_step_failure_termination_recorded():
    cfg = FlowConfig(p=2.0, dt=1e12, t_max=1e13, k_tol=1e-12, max_halvings=0)
    trace = run_flow(GENUS2, np.ones(2), cfg)
    assert trace.termination == "step_failure"
    assert trace.failure is not None
    assert trace.failure["t"] == 0.0


def test_trace_csv_format_and_determinism():
    cfg = FlowConfig(p=2.0, dt=1e-2, t_max=0.5, k_tol=1e-9, trace_stride=2)
    t1 = run_flow(GENUS2, np.ones(2), cfg)
    t2 = run_flow(GENUS2, np.ones(2), cfg)
    csv1, csv2 = t1.to_csv(), t2.to_csv()
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == "t,energy,max_abs_K,min_r,max_abs_u_vel,dt"
    doc = t1.to_dict()
    assert doc["termination"] == t1.termination
    assert len(doc["samples"]) == len(t1.samples)
    assert all("r" in s and "K" in s for s in doc["samples"])


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(p=1.0)
    with pytest.raises(ValueError):
        FlowConfig(dt=0.0)
    with pytest.raises(ValueError):
        FlowConfig(t_max=-1.0)
