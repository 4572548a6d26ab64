"""The three workloads: inputs, one round of operations, checks, metrics.

A workload's `build` makes every input from the seed through the public
API (mesh generation and validation, the save/load round trip, weight and
radius draws). `run_round` performs one round of operations, each timed on
its own and checked against `reference` or against a property the method
must have. Every round runs the same operations on the same inputs, so
attempted and failed counts are whole multiples of one round.

Timings are kept per kind of operation, in calibrated seconds (see
`calibration_s`) and as measured, and a metric is built from the median of
each kind over the run.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from cpflow import cli, flow, jsonio, laplacian, verify
from cpflow import mesh as meshmod

import meshgen
import reference


def rng_for(seed, *tag):
    return np.random.default_rng(np.random.SeedSequence([seed, *tag]))


def log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def seeded_mesh(base, rng):
    """Copy of base with weights uniform in [0, pi/2], round-tripped
    through the file format; the corner condition holds for such weights."""
    return weighted_mesh(base, rng.uniform(0.0, 0.5 * math.pi, base.edge_count))


def weighted_mesh(base, phi):
    """Copy of base with weights phi, checked and round-tripped."""
    m = base.with_weights(phi)
    if not meshmod.check_star_condition(m).all_nonnegative:
        raise RuntimeError("corner condition fails for weights in [0, pi/2]")
    text = meshmod.save_mesh(m)
    loaded = meshmod.load_mesh(text)
    if meshmod.save_mesh(loaded) != text:
        raise RuntimeError("mesh file round trip is not bit-exact")
    return loaded, text


# Calibrated seconds: wall seconds scaled to the speed at which one pass of
# `calibration_s` takes CAL_REF_S. The host's speed flips between states up
# to ~1.7x apart for seconds to minutes; a kernel that runs no cpflow code,
# timed just before and after each operation, tracks those states.
CAL_REF_S = 0.0025
_CAL_MESH = reference.MeshArrays(
    20, np.arange(96).reshape(32, 3) % 20, np.arange(96).reshape(32, 3),
    np.linspace(0.0, 0.5 * math.pi, 96))
_CAL_R = np.linspace(0.2, 3.0, 20)


def calibration_s():
    """Fastest of three passes of a fixed kernel of the two kinds of work
    the program spends its time on: small-array numpy (the reference
    curvature of 32 faces) and scalar Python arithmetic."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(25):
            reference.curvature(_CAL_MESH, _CAL_R)
        acc = 0.0
        for i in range(4000):
            x = 0.1 + 2e-4 * i
            acc += math.cosh(x) * math.sinh(x) / (1.0 + math.tanh(x))
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(fn):
    """Run fn; return (result, wall seconds, scale to calibrated seconds)."""
    before = calibration_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, CAL_REF_S / (0.5 * (before + calibration_s()))


class Record:
    """Operation outcomes and timings of one run.

    `times` holds calibrated seconds, `wall_times` the same timings as
    measured; both are lists per kind of timing.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.work_s = 0.0           # calibrated time inside operations, checks excluded
        self.times = defaultdict(list)
        self.wall_times = defaultdict(list)
        self.problems = []

    def op(self, fn, check, known_fault=False):
        """Run one operation; fn returns (result, timings dict).

        A raised exception or a non-empty list from check is a failure. A
        failure of an operation that exercises a known program fault does
        not make the run incorrect; any other failure does.
        """
        self.attempted += 1
        try:
            (result, timings), wall, scale = calibrated(fn)
            self.work_s += wall * scale
            problems = check(result)
        except Exception as exc:    # any escape is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if not known_fault:
                self.correct = False
            if len(self.problems) < 20:
                self.problems.extend(problems[:3])
            return None
        for key, value in timings.items():
            self.times[key].append(value * scale)
            self.wall_times[key].append(value)
        return result


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _close(a, b, rtol, atol=0.0):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


class Workload:
    min_rounds = 1

    def plan(self, seed):
        """Untimed preparation made with the reference only; none by default."""


# -- flow ---------------------------------------------------------------------

class FlowWorkload(Workload):
    """`cpflow flow` to the flat packing, a p = 3 flow to a horizon, and two
    malformed invocations.

    Part 1 runs on genus2_min (F = 8) because a converged run there takes
    ~0.1 s; on genus-2 subdivided once it takes 6-9 s. The steps to flat
    range from about 20 to 400 with the seeded weights, and the median over
    40 instances still spreads by 0.08 (IQR over median) across seeds, so
    part 1 takes the median over 100. Part 2 runs 12 instances on genus-2
    subdivided twice (F = 128), where the kernel dominates a step and large
    seeded radii make the first steps of most instances halve; many short
    calls rather than a few long ones let the calibration follow the host.

    Near the flat packing the p = 2 flow is linear with modes
    exp(-lambda^2 t), lambda the eigenvalues of L, and RK4 at a fixed dt
    damps a mode only while dt lambda^2 stays inside its stability interval,
    which ends at 2.785. On genus2_min, dt lambda_max^2 at the flat packing
    spreads over 1.9-3.05 at the default dt. Draws just inside 2.785 take
    thousands of steps, and about 1 draw in 1300 (all seen at 2.79-2.84)
    never converges: the iteration settles on a spurious fixed point of the
    RK4 map at max|K| ~ 0.07, whose steps the energy test accepts. `plan`
    therefore redraws an instance, using the reference alone, while
    dt lambda_max^2 >= STIFF_LIMIT.
    """

    name = "flow"
    FLAT_INSTANCES = 100
    FLAT_LEVEL = 0
    K_TOL = 1e-8
    DT = 1e-2               # the CLI's default, passed explicitly
    STIFF_LIMIT = 2.75
    HORIZON_INSTANCES = 12
    HORIZON_LEVEL = 2
    HORIZON_P = 3.0
    HORIZON_T_MAX = 0.2

    def __init__(self, workdir):
        self.workdir = workdir
        self.flat_draws = None
        self.horizon_steps = {}

    def plan(self, seed):
        """Draw the part 1 weights and r0, with the reference flat radii."""
        base = meshgen.genus2(self.FLAT_LEVEL)
        self.flat_draws = []
        for i in range(self.FLAT_INSTANCES):
            for attempt in itertools.count():
                rng = rng_for(seed, 1, i, attempt)
                phi = rng.uniform(0.0, 0.5 * math.pi, base.edge_count)
                r0 = log_uniform(rng, 0.1, 5.0, base.vertex_count)
                ma = reference.MeshArrays(base.vertex_count, [f.corners for f in base.faces],
                                          [f.edges for f in base.faces], phi)
                r_flat = reference.flat_radii(ma, r0)
                jac = reference.jacobian(ma, r_flat)
                lam_max = np.linalg.eigvalsh(0.5 * (jac + jac.T))[-1]
                if self.DT * lam_max ** 2 < self.STIFF_LIMIT:
                    break
            self.flat_draws.append((phi, r0, ma, r_flat))

    def build(self, seed):
        flat_base = meshgen.genus2(self.FLAT_LEVEL)
        horizon_base = meshgen.genus2(self.HORIZON_LEVEL)
        flat = []
        for i, (phi, r0, _, _) in enumerate(self.flat_draws):
            m, text = weighted_mesh(flat_base, phi)
            mesh_path = os.path.join(self.workdir, f"flat{i}.mesh.json")
            r0_path = os.path.join(self.workdir, f"flat{i}.r0.json")
            with open(mesh_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(r0_path, "w", encoding="utf-8") as fh:
                json.dump(r0.tolist(), fh)
            flat.append((i, m, r0, mesh_path, r0_path))
        horizon = []
        for i in range(self.HORIZON_INSTANCES):
            rng = rng_for(seed, 2, i)
            m, _ = seeded_mesh(horizon_base, rng)
            horizon.append((m, log_uniform(rng, 0.1, 5.0, m.vertex_count)))
        bad_r0 = os.path.join(self.workdir, "bad.r0.json")
        with open(bad_r0, "w", encoding="utf-8") as fh:
            fh.write('[1.0, "x"]\n')
        return {"flat": flat, "horizon": horizon, "bad_r0": bad_r0}

    def run_round(self, inputs, rec):
        # the p = 3 calls are spread among the flat calls, so that both kinds
        # sample the host's speed over the whole round
        flat, horizon = inputs["flat"], inputs["horizon"]
        every = len(flat) // len(horizon)
        for j, inst in enumerate(flat):
            rec.op(lambda: self._flat_call(inst), lambda res: self._check_flat(inst, res))
            i, pos = divmod(j, every)
            if pos == every - 1 and i < len(horizon):
                m, r0 = horizon[i]
                rec.op(lambda: self._horizon_call(i, m, r0), lambda tr: self._check_horizon(m, tr))
        mesh_path, r0_path = inputs["flat"][0][3], inputs["flat"][0][4]
        malformed = (
            ["flow", "--mesh", mesh_path, "--r0", r0_path, "--trace-stride", "0",
             "--out", os.path.join(self.workdir, "stride0")],
            ["flow", "--mesh", mesh_path, "--r0", inputs["bad_r0"],
             "--out", os.path.join(self.workdir, "badr0")],
        )
        for argv in malformed:
            rec.op(lambda: (self._cli(argv), {}), self._check_usage_error, known_fault=True)

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def _flat_call(self, inst):
        i, _, _, mesh_path, r0_path = inst
        base = os.path.join(self.workdir, f"flat{i}.run")
        argv = ["flow", "--mesh", mesh_path, "--r0", r0_path, "--p", "2", "--dt", repr(self.DT),
                "--k-tol", repr(self.K_TOL), "--out", base, "--trace-json", base + ".trace.json"]
        (code, err), elapsed = timed(self._cli, argv)
        return (code, err, base), {f"flat.{i}": elapsed}

    def _check_flat(self, inst, res):
        code, err, base = res
        if code != 0:
            return [f"cpflow flow exited {code}: {err.strip()[:200]}"]
        i = inst[0]
        with open(base + ".json", encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(base + ".trace.json", encoding="utf-8") as fh:
            trace = json.load(fh)
        with open(base + ".csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if summary["termination"] != "converged" or trace["termination"] != "converged":
            problems.append(f"termination {summary['termination']!r}, not converged")
        samples = trace["samples"]
        if summary["steps"] != trace["steps"] or len(rows) != len(samples):
            problems.append("summary, CSV and trace disagree on the step count")
        for row, s in zip(rows, samples):
            if (float(row["t"]) != s["t"] or float(row["energy"]) != s["energy"]
                    or float(row["max_abs_K"]) != max(abs(k) for k in s["K"])):
                problems.append(f"CSV row at t={row['t']} disagrees with the trace")
                break
        if summary["final_max_abs_K"] != float(rows[-1]["max_abs_K"]):
            problems.append("summary final_max_abs_K disagrees with the CSV")
        energy = [s["energy"] for s in samples]
        if any(b > a for a, b in zip(energy, energy[1:])):
            problems.append("energy increased along the p = 2 flow")
        _, _, ma, r_flat = self.flat_draws[i]
        r_end = np.asarray(samples[-1]["r"])
        if not _close(r_end, r_flat, 1e-6):
            problems.append(f"final radii {r_end} differ from the Newton flat radii {r_flat}")
        k_ref = np.max(np.abs(reference.curvature(ma, r_end)))
        if k_ref > 10.0 * self.K_TOL:
            problems.append(f"reference max|K| {k_ref!r} at the final radii exceeds 10 k_tol")
        return problems

    def _horizon_call(self, i, m, r0):
        cfg = flow.FlowConfig(p=self.HORIZON_P, t_max=self.HORIZON_T_MAX, k_tol=self.K_TOL)
        trace, elapsed = timed(flow.run_flow, m, r0, cfg)
        self.horizon_steps[i] = trace.steps
        return trace, {f"horizon.{i}": elapsed}

    def _check_horizon(self, m, trace):
        problems = []
        if trace.termination != "horizon":
            problems.append(f"p = 3 flow ended {trace.termination!r}, not at the horizon")
        if abs(trace.samples[-1].t - self.HORIZON_T_MAX) > 1e-12:
            problems.append(f"p = 3 flow stopped at t = {trace.samples[-1].t!r}")
        ma = reference.MeshArrays.from_mesh(m)
        for s in trace.samples:
            if not _close(s.K, reference.curvature(ma, s.r), 0.0, 1e-9):
                problems.append(f"K at t = {s.t!r} differs from the reference curvature")
                break
        if not trace.r_lower_bound_conformant():
            problems.append("radii fell below the closed-form lower bound curve")
        return problems

    @staticmethod
    def _check_usage_error(res):
        code, err = res
        if not (isinstance(code, int) and 1 <= code <= 5) or "Traceback" in err:
            return [f"malformed invocation gave exit {code!r}"]
        return []

    def metrics(self, times):
        # an instance whose every call failed is left out (the run is then
        # marked incorrect), so the figures of the others still print
        med = {key: statistics.median(v) for key, v in times.items()}
        flat = [v for key, v in med.items() if key.startswith("flat.")]
        horizon = [i for i in range(self.HORIZON_INSTANCES) if f"horizon.{i}" in med]
        return {
            "task_s": statistics.median(flat),
            "rate_per_s": sum(self.horizon_steps[i] for i in horizon)
            / sum(med[f"horizon.{i}"] for i in horizon),
        }


# -- operator -----------------------------------------------------------------

class OperatorWorkload(Workload):
    """assemble, curvature and apply_p_delta at p = 2, 3 on genus-2
    subdivided 4 and 5 times (F = 2048, 8192); spd_check at F = 2048 only,
    since the dense L at F = 8192 is 134 MB and eigvalsh out of reach."""

    name = "operator"
    LEVELS = (4, 5)
    SPD_LEVEL = 4
    METRICS = 3
    DIRECTIONS = 2

    def __init__(self, workdir):
        self.refs = {}

    def build(self, seed):
        meshes = []
        level = self.LEVELS[0]
        m = meshgen.genus2(level)
        for target in self.LEVELS:
            while level < target:
                m, level = meshgen.subdivide(m), level + 1
            rng = rng_for(seed, 3, level)
            seeded, _ = seeded_mesh(m, rng)
            radii = [log_uniform(rng, 0.1, 5.0, m.vertex_count) for _ in range(self.METRICS)]
            dirs = rng.standard_normal((self.DIRECTIONS, m.vertex_count))
            meshes.append((level, seeded, radii, dirs))
        return meshes

    def run_round(self, inputs, rec):
        for level, m, radii, dirs in inputs:
            for r in radii:
                rec.op(lambda: self._call(level, m, r),
                       lambda res: self._check(level, m, r, dirs, res))

    def _call(self, level, m, r):
        # the cost of a call does not depend on the radii, so the calls on
        # all metrics of a mesh are one kind of operation
        key = str(level)
        asm, t_asm = timed(laplacian.assemble, m, r)
        K, t_curv = timed(laplacian.curvature, m, r)
        d2, t_d2 = timed(laplacian.apply_p_delta, asm, asm.K, 2.0)
        d3, t_d3 = timed(laplacian.apply_p_delta, asm, asm.K, 3.0)
        timings = {f"assemble.{key}": t_asm, f"curvature.{key}": t_curv,
                   f"p2.{key}": t_d2, f"p3.{key}": t_d3}
        spd = None
        if level == self.SPD_LEVEL:
            spd, timings[f"spd.{key}"] = timed(laplacian.spd_check, asm)
        return (asm, K, d2, d3, spd), timings

    def _check(self, level, m, r, dirs, res):
        asm, K, d2, d3, spd = res
        if level not in self.refs:
            self.refs[level] = reference.MeshArrays.from_mesh(m)
        ma = self.refs[level]
        problems = []
        k_ref = reference.curvature(ma, r)
        if not _close(asm.K, k_ref, 0.0, 1e-10) or not _close(K, k_ref, 0.0, 1e-10):
            problems.append("K differs from the reference curvature")
        L = asm.L
        for v in dirs:
            fd = reference.directional_derivative(ma, r, v)
            if np.max(np.abs(L @ v - fd)) > 1e-6 * np.max(np.abs(fd)):
                problems.append("L v differs from central differences of the reference K")
        if not np.array_equal(L, L.T):
            problems.append("L is not exactly symmetric")
        scale = np.max(np.abs(L))
        if np.max(np.abs(L.sum(axis=1) - asm.A)) > 1e-12 * scale * m.vertex_count:
            problems.append("L 1 differs from A")
        lk = L @ asm.K
        if np.max(np.abs(d2 + lk)) > 1e-12 * (np.max(np.abs(lk)) + scale):
            problems.append("apply_p_delta(K, 2) differs from -L K")
        # edge terms cancel in pairs, so the p-Laplacian sums to -A . K
        if abs(np.sum(d3) + asm.A @ asm.K) > 1e-10 * (np.sum(np.abs(d3)) + 1.0):
            problems.append("apply_p_delta(K, 3) does not sum to -A . K")
        if spd is not None and not (spd[0] > 0.0 and spd[1] == 0.0):
            problems.append(f"spd_check gave {spd!r}")
        return problems

    def metrics(self, times):
        med = {key: statistics.median(v) for key, v in times.items()}
        faces = sum(8 * 4 ** level for level in self.LEVELS)
        t_asm = sum(med[f"assemble.{level}"] for level in self.LEVELS)
        return {"task_s": self.METRICS * sum(med.values()), "rate_per_s": faces / t_asm}


# -- certify ------------------------------------------------------------------

class CertifyWorkload(Workload):
    """All eight suites at their default sample counts through
    verify.run_suite with the suites' own fixed seed; thousands of calls on
    single triangles and on 4-8 face meshes."""

    name = "certify"
    min_rounds = 3          # a median of three; later rounds check byte-identical reports
    SUITE_SEED = 42
    IDENTITIES_SAMPLES = 10_000     # the suite's default

    def __init__(self, workdir):
        self.first_bytes = {}

    def build(self, seed):
        # the suites draw their own samples from SUITE_SEED; what is built
        # here is the pair of built-in meshes they run on, validated and
        # round-tripped like every other input
        out = []
        for name in meshmod.BUILTIN_NAMES:
            m = meshmod.builtin_mesh(name)
            text = meshmod.save_mesh(m)
            if meshmod.save_mesh(meshmod.load_mesh(text)) != text:
                raise RuntimeError(f"{name} round trip is not bit-exact")
            out.append(m)
        return out

    def run_round(self, inputs, rec):
        for suite in verify.SUITE_NAMES:
            rec.op(lambda: self._call(suite), lambda rep: self._check(suite, rep))

    def _call(self, suite):
        rep, elapsed = timed(verify.run_suite, suite, None, self.SUITE_SEED)
        return rep, {suite: elapsed}

    def _check(self, suite, rep):
        problems = []
        if not rep.passed:
            problems.append(f"suite {suite}: {len(rep.violations)} violations")
        if suite == "identities" and rep.samples != self.IDENTITIES_SAMPLES:
            problems.append(f"identities ran {rep.samples} samples, not the default")
        doc = rep.to_dict()
        doc.pop("wall_time")
        text = jsonio.dumps(doc, indent=1)
        if self.first_bytes.setdefault(suite, text) != text:
            problems.append(f"suite {suite}: report bytes differ between invocations")
        return problems

    def metrics(self, times):
        med = {key: statistics.median(v) for key, v in times.items()}
        return {"task_s": sum(med.values()),
                "rate_per_s": self.IDENTITIES_SAMPLES / med["identities"]}


WORKLOADS = {w.name: w for w in (FlowWorkload, OperatorWorkload, CertifyWorkload)}
