import math

import numpy as np
import pytest

from cpflow import flow, laplacian
from cpflow.errors import (
    DegenerateFaceError, NumericalConsistencyError, StarConditionError, StepFailureError)
from cpflow.flow import (
    FlowConfig,
    flow_rhs,
    r_lower_bound_curve,
    run_flow,
    step,
    velocity_bound,
)
from cpflow.laplacian import apply_p_delta, assemble, calabi_energy, curvature, u_of_r
from cpflow.mesh import builtin_mesh, check_star_condition
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


def test_step_halves_on_an_energy_rise_at_p2(monkeypatch):
    # from r = 0.3 on genus2_min, dt = 5 takes 8 halvings: one of them for
    # an energy rise, the other 7 for points that leave the admissible set
    rises = []

    class Counted(flow._EnergyIncrease):
        def __init__(self):
            rises.append(1)

    monkeypatch.setattr(flow, "_EnergyIncrease", Counted)
    r0 = np.full(2, 0.3)
    _, diag = step(GENUS2, r0, 5.0, 2.0)
    assert (diag.halvings, len(rises)) == (8, 1)
    assert diag.energy_next <= calabi_energy(curvature(GENUS2, r0))


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


def test_standalone_step_is_run_flows_first_step():
    from cpflow.laplacian import r_of_u
    mesh, h = builtin_mesh("genus2_min", 0.3), 1e-2
    for i in range(20):
        r = np.random.default_rng(i).uniform(0.1, 5.0, 2)
        for p in (2.0, 3.0):
            trace = run_flow(mesh, r, FlowConfig(p=p, dt=h, t_max=h, k_tol=1e-300))
            r_next, diag = step(mesh, r, h, p)
            assert r_next.tobytes() == trace.samples[1].r.tobytes()
            assert diag.assembly.K.tobytes() == trace.samples[1].K.tobytes()
            # the RK4 formula at the accepted dt, its first stage at r itself,
            # not at r_of_u(u_of_r(r))
            u, dt = u_of_r(r), diag.dt_used
            k1 = flow_rhs(mesh, r, p)
            k2 = flow_rhs(mesh, r_of_u(u + 0.5 * dt * k1), p)
            k3 = flow_rhs(mesh, r_of_u(u + 0.5 * dt * k2), p)
            k4 = flow_rhs(mesh, r_of_u(u + dt * k3), p)
            want = r_of_u(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            assert r_next.tobytes() == want.tobytes()


def test_step_failure_carries_state(monkeypatch):
    monkeypatch.setattr(flow, "MAX_HALVINGS", 0)
    with pytest.raises(StepFailureError) as exc:
        step(GENUS2, np.ones(2), 1e12, 2.0)
    assert exc.value.dt > 0.0
    assert np.all(exc.value.r == 1.0)


def _assemble_failing_at_call(monkeypatch, error, at):
    """Patch laplacian.assemble to raise error on its call number `at`
    (1-based) and return the calls that raised."""
    calls, raised = [], []
    assemble_ = laplacian.assemble

    def failing(mesh, r):
        calls.append(r)
        if len(calls) == at:
            raised.append(r)
            raise error
        return assemble_(mesh, r)

    monkeypatch.setattr(laplacian, "assemble", failing)
    return raised


def test_value_error_in_a_step_propagates_without_halving(monkeypatch):
    # a ValueError is a misuse, not an inadmissible stage: no halving retries it;
    # call 1 is the assembly at r, calls 2-4 the stages, call 5 the step's end
    calls = _assemble_failing_at_call(monkeypatch, ValueError("misuse"), 5)
    with pytest.raises(ValueError, match="misuse"):
        step(GENUS2, np.ones(2), 1e-2, 3.0)
    assert len(calls) == 1


@pytest.mark.parametrize("error", [NumericalConsistencyError("A routes disagree"),
                                   DegenerateFaceError("degenerate")])
def test_an_error_assembling_at_the_step_end_halves_the_step(monkeypatch, error):
    want_r, want = step(GENUS2, np.ones(2), 5e-3, 2.0)
    assert want.halvings == 0
    raised = _assemble_failing_at_call(monkeypatch, error, 5)
    got_r, got = step(GENUS2, np.ones(2), 1e-2, 2.0)
    assert len(raised) == 1
    assert (got.halvings, got.dt_used) == (1, 5e-3)
    assert got_r.tolist() == want_r.tolist()
    assert got.assembly.K.tolist() == want.assembly.K.tolist() == curvature(GENUS2, got_r).tolist()
    assert got.energy_next == want.energy_next == calabi_energy(got.assembly.K)


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
    # every step is sampled: c_emp is the largest step velocity or |du/dt| at the end
    end = float(np.max(np.abs(flow_rhs(GENUS2, trace.samples[-1].r, 2.0))))
    assert trace.c_emp == max(max(s.max_abs_u_velocity for s in trace.samples), end)
    ts = [s.t for s in trace.samples]
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_flow_rejects_star_violating_mesh():
    phis = [0.0] * 6
    f = TETRA.faces[0]
    phis[f.edges[0]] = 3 * math.pi / 4
    phis[f.edges[1]] = 3 * math.pi / 4
    bad = TETRA.with_weights(phis)
    first = check_star_condition(bad).violations[0][:2]
    with pytest.raises(StarConditionError) as err:
        run_flow(bad, np.ones(4), FlowConfig())
    assert str(err.value) == f"corner condition fails at {first}"


def test_step_failure_termination_recorded(monkeypatch):
    monkeypatch.setattr(flow, "MAX_HALVINGS", 0)
    cfg = FlowConfig(p=2.0, dt=1e12, t_max=1e13, k_tol=1e-12)
    trace = run_flow(GENUS2, np.ones(2), cfg)
    assert trace.termination == "step_failure"
    assert trace.failure is not None
    assert trace.failure["t"] == 0.0


def test_step_failure_off_the_stride_closes_the_trace_with_a_sample(monkeypatch):
    # steps 1 and 2 are accepted and step 3 fails; at stride 5 neither was
    # sampled, so a sample at the last accepted metric closes the trace
    step_, calls = flow.step, []

    def failing_third(mesh, r, dt, p, asm=None):
        calls.append(dt)
        if len(calls) == 3:
            raise StepFailureError("no admissible step", r=r, dt=dt)
        return step_(mesh, r, dt, p, asm)

    monkeypatch.setattr(flow, "step", failing_third)
    trace = run_flow(GENUS2, np.ones(2), FlowConfig(k_tol=1e-12, trace_stride=5))
    assert (trace.termination, trace.steps, len(trace.samples)) == ("step_failure", 2, 2)
    last = trace.samples[-1]
    assert last.t == trace.failure["t"] == 0.01 + 0.01
    assert last.r.tolist() == trace.failure["r"].tolist() and last.dt_used == 0.0
    asm = assemble(GENUS2, last.r)
    assert last.K.tolist() == asm.K.tolist()
    assert last.max_abs_u_velocity == float(np.max(np.abs(apply_p_delta(asm, asm.K, 2.0))))


@pytest.mark.parametrize("stride", [2.5, math.nan, True, 0, -3], ids=repr)
def test_flow_config_refuses_a_stride_that_is_no_positive_integer(stride):
    # 2.5 once recorded every 5th step, and nan only the two ends
    with pytest.raises(ValueError, match="trace_stride"):
        FlowConfig(trace_stride=stride)


def test_flow_config_takes_a_numpy_integer_stride():
    cfg = FlowConfig(t_max=0.2, k_tol=1e-12, trace_stride=np.int64(5))
    plain = run_flow(GENUS2, np.ones(2), FlowConfig(t_max=0.2, k_tol=1e-12, trace_stride=5))
    assert [s.t for s in run_flow(GENUS2, np.ones(2), cfg).samples] == [s.t for s in plain.samples]


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
    # a flow is never stopped but by these: the paper's flows exist for all time
    with pytest.raises(ValueError):
        FlowConfig(t_max=math.inf)
    for k_tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            FlowConfig(k_tol=k_tol)
    with pytest.raises(ValueError):
        FlowConfig(dt=1e-9, t_max=1.0)      # 10^9 steps
