"""Time integration of the curvature flows in u = ln tanh(r/2) coordinates.

Classical four-stage Runge-Kutta with halving on rejection. A step is
rejected when any stage leaves the admissible set, when the assembly at
the step's end raises (an inadmissible radius, a degenerate face or the
1e-9 A-route check), and additionally at p = 2 when the energy sum(K^2)
would increase, which keeps the discrete trajectory a genuine descent
path of the energy. The end-of-step assembly is handed to the next step:
it gives K, the energy, the next first stage and the sups of A and B, so
an accepted step costs four assemblies.
"""

import math
import numbers
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
from .mesh import WeightedTriangulation


# a run refuses a t_max / dt above this many full steps; at ~1 ms a step
# on `tetra` (x86-64, one thread) the cap is a quarter of an hour
MAX_STEPS = 10**6
# `step` halves dt at most this many times before it raises StepFailureError
MAX_HALVINGS = 40


@dataclass(frozen=True)
class FlowConfig:
    p: float = 2.0
    dt: float = 1e-2
    t_max: float = 100.0
    k_tol: float = 1e-8
    trace_stride: int = 1

    def __post_init__(self):
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p!r}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (0.0 < self.t_max < math.inf):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if self.t_max / self.dt > MAX_STEPS:
            raise ValueError(f"t_max / dt = {self.t_max / self.dt:g} exceeds {MAX_STEPS} steps")
        if not (self.k_tol > 0.0):
            raise ValueError(f"k_tol must be positive, got {self.k_tol!r}")
        stride = self.trace_stride      # a bool is no stride; a numpy integer is
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
            raise ValueError(f"trace_stride must be an integer of at least 1, got {stride!r}")


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
    assembly: laplacian.LaplacianAssembly      # at r_next
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


def _admissible_r(u):
    """r at a stage or step-end point u; a u that is not finite and
    negative raises RadiusOverflowError, which rejects the attempt."""
    try:
        return laplacian.r_of_u(u)
    except ValueError:
        raise RadiusOverflowError("step left the admissible set (u >= 0)") from None


_REJECTABLE = (RadiusOverflowError, DegenerateFaceError, NumericalConsistencyError)


def step(mesh, r, dt, p, asm=None):
    """One accepted RK4 step from r; halves dt until acceptance.

    asm is the assembly at r, which gives the first stage and the energy;
    it is assembled here when omitted. Returns (r_next, StepDiagnostics),
    whose `assembly` is the one at r_next; an error assembling there
    rejects the attempt, as at the stages. Raises StepFailureError once
    MAX_HALVINGS halvings are spent.
    """
    r = laplacian.validate_radii(mesh, r)
    if asm is None:
        asm = laplacian.assemble(mesh, r)
    u = laplacian.u_of_r(r)
    k1 = laplacian.apply_p_delta(asm, asm.K, p)
    energy0 = laplacian.calabi_energy(asm.K)
    h = float(dt)
    for halvings in range(MAX_HALVINGS + 1):
        try:
            k2 = flow_rhs(mesh, _admissible_r(u + 0.5 * h * k1), p)
            k3 = flow_rhs(mesh, _admissible_r(u + 0.5 * h * k2), p)
            k4 = flow_rhs(mesh, _admissible_r(u + h * k3), p)
            r_next = _admissible_r(u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            asm_next = laplacian.assemble(mesh, r_next)
            energy_next = laplacian.calabi_energy(asm_next.K)
            if p == 2.0 and energy_next > energy0:
                raise _EnergyIncrease()
            vel = max(float(np.max(np.abs(k))) for k in (k1, k2, k3, k4))
            return r_next, StepDiagnostics(h, halvings, vel, asm_next, energy_next)
        except (_EnergyIncrease, *_REJECTABLE):
            h *= 0.5
    raise StepFailureError(
        f"no admissible step after {MAX_HALVINGS} halvings", r=r, dt=h
    )


class _EnergyIncrease(Exception):
    pass


def run_flow(mesh: WeightedTriangulation, r0, cfg: FlowConfig) -> FlowTrace:
    """Integrate until max|K| <= k_tol, the horizon, or step failure."""
    if mesh.first_star_violation is not None:
        raise StarConditionError(f"corner condition fails at {mesh.first_star_violation}")
    r = laplacian.validate_radii(mesh, np.array(r0, dtype=float, copy=True))
    asm = laplacian.assemble(mesh, r)
    K = asm.K
    energy = laplacian.calabi_energy(K)
    c_emp = float(np.max(np.abs(laplacian.apply_p_delta(asm, K, cfg.p))))
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
            r_next, diag = step(mesh, r, dt_eff, cfg.p, asm)
        except StepFailureError as exc:
            termination = "step_failure"
            failure = {"t": t, "r": r.copy(), "dt": exc.dt}
            break
        t += diag.dt_used
        steps += 1
        r = r_next
        asm = diag.assembly
        K = asm.K
        energy = diag.energy_next
        # the step's velocity includes its first stage, |du/dt| at the r it left
        c_emp = max(c_emp, diag.max_abs_u_velocity)
        sup_a = max(sup_a, float(np.max(asm.A)))
        sup_b = max(sup_b, float(np.max(asm.B)))
        if steps % cfg.trace_stride == 0 or _terminal_next(K, t, cfg):
            samples.append(sample(diag.max_abs_u_velocity, diag.dt_used))
    velocity = float(np.max(np.abs(laplacian.apply_p_delta(asm, K, cfg.p))))    # at the last r
    c_emp = max(c_emp, velocity)
    if samples[-1].t != t:
        samples.append(sample(velocity, 0.0))
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
