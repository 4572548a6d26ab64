"""Time integration of the curvature flows in u = ln tanh(r/2) coordinates.

Classical four-stage Runge-Kutta with halving on rejection. A step is
rejected when any stage leaves the admissible set, and additionally at
p = 2 when the energy sum(K^2) would increase, which keeps the discrete
trajectory a genuine descent path of the energy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import laplacian
from .errors import (
    DegenerateFaceError,
    NumericalConsistencyError,
    RadiusOverflowError,
    StarConditionError,
    StepFailureError,
)
from .mesh import WeightedTriangulation, check_star_condition


@dataclass(frozen=True)
class FlowConfig:
    p: float = 2.0
    dt: float = 1e-2
    t_max: float = 100.0
    k_tol: float = 1e-8
    max_halvings: int = 40
    trace_stride: int = 1

    def __post_init__(self):
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p!r}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (self.t_max > 0.0):
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if self.max_halvings < 0 or self.trace_stride < 1:
            raise ValueError("max_halvings must be >= 0 and trace_stride >= 1")


@dataclass(frozen=True)
class FlowSample:
    t: float
    r: np.ndarray
    K: np.ndarray
    calabi_energy: float
    max_abs_u_velocity: float
    min_r: float
    dt_used: float


@dataclass
class FlowTrace:
    samples: list
    termination: str            # converged | horizon | step_failure
    steps: int
    c_emp: float                # max |du/dt| seen at any stage of any accepted step
    sup_A: float
    sup_B: float
    warnings: list = field(default_factory=list)
    failure: dict = None

    def final_max_abs_K(self):
        return float(np.max(np.abs(self.samples[-1].K)))

    def energy_nonincreasing(self):
        e = [s.calabi_energy for s in self.samples]
        return all(e[i + 1] <= e[i] for i in range(len(e) - 1))

    def r_lower_bound_conformant(self):
        """min_r(t) >= the closed-form decay curve seeded with the run's
        own velocity sup; an a-posteriori admissibility certificate."""
        r0 = self.samples[0].min_r
        return all(
            s.min_r >= r_lower_bound_curve(r0, self.c_emp, s.t)
            for s in self.samples
        )

    def k_range_ok(self, mesh: WeightedTriangulation):
        counts = np.asarray(mesh.corner_counts(), dtype=float)
        lo = (2.0 - counts) * math.pi
        return all(
            np.all(s.K > lo) and np.all(s.K < 2.0 * math.pi)
            for s in self.samples
        )

    def to_csv(self) -> str:
        from .jsonio import format_float as ff
        lines = ["t,energy,max_abs_K,min_r,max_abs_u_vel,dt"]
        for s in self.samples:
            values = (s.t, s.calabi_energy, float(np.max(np.abs(s.K))),
                      s.min_r, s.max_abs_u_velocity, s.dt_used)
            lines.append(",".join(ff(v).strip('"') for v in values))
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "termination": self.termination,
            "steps": self.steps,
            "c_emp": self.c_emp,
            "sup_A": self.sup_A,
            "sup_B": self.sup_B,
            "warnings": list(self.warnings),
            "samples": [
                {
                    "t": s.t,
                    "r": s.r,
                    "K": s.K,
                    "energy": s.calabi_energy,
                    "max_abs_u_vel": s.max_abs_u_velocity,
                    "min_r": s.min_r,
                    "dt": s.dt_used,
                }
                for s in self.samples
            ],
        }


@dataclass(frozen=True)
class StepDiagnostics:
    dt_used: float
    halvings: int
    max_abs_u_velocity: float
    K_next: np.ndarray
    energy_next: float


def flow_rhs(mesh: WeightedTriangulation, r, p: float) -> np.ndarray:
    """du/dt at the given metric: the p-th Laplacian applied to K."""
    asm = laplacian.assemble(mesh, r)
    return laplacian.apply_p_delta(asm, asm.K, p)


def velocity_bound(d: float, c1: float, c2: float, p: float) -> float:
    """Explicit a-priori bound on |du/dt| from degree and coefficient sups."""
    try:
        return d * c2 * (d * math.pi) ** (p - 1.0) + c1 * (d + 2.0) * math.pi
    except OverflowError:       # (d pi)^(p - 1) leaves double range at large p
        return math.inf


def r_lower_bound_curve(r0_i: float, c: float, t: float) -> float:
    """Closed-form lower envelope for a radius whose u-velocity never
    exceeds c: ln((1 + w)/(1 - w)) with w = tanh(r0/2) e^(-c t)."""
    if t == 0.0:
        return r0_i
    w = math.tanh(0.5 * r0_i) * math.exp(-c * t)
    raw = math.log1p(w) - math.log1p(-w)
    return min(raw, r0_i)


def _rhs_at_u(mesh, u, p):
    """Evaluate the flow field at a stage point; raises if inadmissible."""
    if np.any(u >= 0.0) or not np.all(np.isfinite(u)):
        raise RadiusOverflowError("stage left the admissible set (u >= 0)")
    return flow_rhs(mesh, laplacian.r_of_u(u), p)


_REJECTABLE = (RadiusOverflowError, DegenerateFaceError, NumericalConsistencyError)


def step(mesh, r, dt, p, max_halvings=40, _k1=None, _energy0=None):
    """One accepted RK4 step from r; halves dt until acceptance.

    Returns (r_next, StepDiagnostics). Raises StepFailureError once the
    halving budget is spent.
    """
    r = laplacian.validate_radii(mesh, r)
    u = laplacian.u_of_r(r)
    if _k1 is None:
        _k1 = _rhs_at_u(mesh, u, p)
    if _energy0 is None and p == 2.0:
        _energy0 = laplacian.calabi_energy(laplacian.curvature(mesh, r))
    k1 = _k1
    h = float(dt)
    for halvings in range(max_halvings + 1):
        try:
            k2 = _rhs_at_u(mesh, u + 0.5 * h * k1, p)
            k3 = _rhs_at_u(mesh, u + 0.5 * h * k2, p)
            k4 = _rhs_at_u(mesh, u + h * k3, p)
            u_next = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if np.any(u_next >= 0.0) or not np.all(np.isfinite(u_next)):
                raise RadiusOverflowError("step left the admissible set")
            r_next = laplacian.r_of_u(u_next)
            r_next = laplacian.validate_radii(mesh, r_next)
            k_next = laplacian.curvature(mesh, r_next)
            energy_next = laplacian.calabi_energy(k_next)
            if p == 2.0 and energy_next > _energy0:
                raise _EnergyIncrease()
            vel = max(
                float(np.max(np.abs(k))) for k in (k1, k2, k3, k4)
            )
            return r_next, StepDiagnostics(h, halvings, vel, k_next, energy_next)
        except (_EnergyIncrease, *_REJECTABLE):
            h *= 0.5
    raise StepFailureError(
        f"no admissible step after {max_halvings} halvings", r=r, dt=h
    )


class _EnergyIncrease(Exception):
    pass


def run_flow(mesh: WeightedTriangulation, r0, cfg: FlowConfig) -> FlowTrace:
    """Integrate until max|K| <= k_tol, the horizon, or step failure."""
    report = check_star_condition(mesh)
    if not report.all_nonnegative:
        raise StarConditionError(
            f"corner condition fails at {report.violations[0][:2]}"
        )
    r = laplacian.validate_radii(mesh, np.array(r0, dtype=float, copy=True))
    asm = laplacian.assemble(mesh, r)
    K = asm.K
    energy = laplacian.calabi_energy(K)
    rhs_now = laplacian.apply_p_delta(asm, K, cfg.p)
    c_emp = float(np.max(np.abs(rhs_now)))
    sup_a = float(np.max(asm.A))
    sup_b = float(np.max(asm.B))
    t = 0.0

    def sample(velocity, dt_used):
        return FlowSample(t=t, r=r.copy(), K=K.copy(), calabi_energy=energy,
                          max_abs_u_velocity=velocity, min_r=float(np.min(r)), dt_used=dt_used)

    samples = [sample(c_emp, 0.0)]
    steps = 0
    termination = None
    failure = None
    while True:
        if float(np.max(np.abs(K))) <= cfg.k_tol:
            termination = "converged"
            break
        if t >= cfg.t_max:
            termination = "horizon"
            break
        dt_eff = min(cfg.dt, cfg.t_max - t)
        try:
            r_next, diag = step(
                mesh, r, dt_eff, cfg.p, cfg.max_halvings,
                _k1=rhs_now, _energy0=energy,
            )
        except StepFailureError as exc:
            termination = "step_failure"
            failure = {"t": t, "r": r.copy(), "dt": exc.dt}
            break
        t += diag.dt_used
        steps += 1
        r = r_next
        asm = laplacian.assemble(mesh, r)
        K = asm.K
        energy = diag.energy_next
        rhs_now = laplacian.apply_p_delta(asm, K, cfg.p)
        c_emp = max(c_emp, diag.max_abs_u_velocity, float(np.max(np.abs(rhs_now))))
        sup_a = max(sup_a, float(np.max(asm.A)))
        sup_b = max(sup_b, float(np.max(asm.B)))
        if steps % cfg.trace_stride == 0 or _terminal_next(K, t, cfg):
            samples.append(sample(diag.max_abs_u_velocity, diag.dt_used))
    if samples[-1].t != t:
        samples.append(sample(float(np.max(np.abs(rhs_now))), 0.0))
    trace = FlowTrace(
        samples=samples, termination=termination, steps=steps,
        c_emp=c_emp, sup_A=sup_a, sup_B=sup_b, failure=failure,
    )
    bound = velocity_bound(mesh.max_degree(), sup_a, sup_b, cfg.p)
    if c_emp > bound:
        trace.warnings.append(
            f"observed velocity {c_emp!r} exceeds the degree/sup bound {bound!r}"
        )
    return trace


def _terminal_next(K, t, cfg):
    return float(np.max(np.abs(K))) <= cfg.k_tol or t >= cfg.t_max
