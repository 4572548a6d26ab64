"""Layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each cpflow module at
every attribute a caller looks them up by (`cpflow.flow.step` as well as
`cpflow.flow.check_star_condition`, which `flow` imports by name), and
`uninstall()` puts the originals back. Each wrapped call pushes a frame;
on return its duration is charged to the parent frame, so self time is
the span minus its children. Spans (id, name, start, end, parent id) are
kept in memory and written by `write_spans` when the run ends.

The per-face kernel functions of `hypgeom` run hundreds of thousands of
times per round; they are counted and timed into their parent frame but
get no span of their own, which keeps the trace small.
"""

import json
import sys
import time
from collections import defaultdict

from cpflow import cli, flow, hypgeom, jsonio, laplacian, mesh, verify

# (module, attribute, span name, per-call kernel without its own span)
TARGETS = (
    (mesh, "load_mesh", "mesh.load_mesh", False),
    (mesh, "save_mesh", "mesh.save_mesh", False),
    (mesh, "check_star_condition", "mesh.check_star_condition", False),
    (hypgeom, "triangle_geometry", "hypgeom.triangle_geometry", True),
    (hypgeom, "angle_jacobian", "hypgeom.angle_jacobian", True),
    (hypgeom, "pair_derivative", "hypgeom.pair_derivative", True),
    (laplacian, "assemble", "laplacian.assemble", False),
    (laplacian, "curvature", "laplacian.curvature", False),
    (laplacian, "apply_p_delta", "laplacian.apply_p_delta", False),
    (laplacian, "spd_check", "laplacian.spd_check", False),
    (flow, "step", "flow.step", False),
    (flow, "run_flow", "flow.run_flow", False),
    (verify, "run_suite", "verify.run_suite", False),
    (cli, "main", "cli.main", False),
    (jsonio, "dumps", "jsonio.dumps", False),
)


class Tracer:
    def __init__(self):
        self.stack = []                  # frames: [span id, name, start, child time]
        self.spans = []                  # (id, name, start, end, parent id)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)    # extra counters read off arguments and results
        self.suite_s = defaultdict(float)
        self._next_id = 0
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "cpflow" or name.startswith("cpflow."))]
        for owner, attr, name, kernel in TARGETS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, kernel)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        ctor = mesh.WeightedTriangulation.__init__
        self._saved.append((mesh.WeightedTriangulation, "__init__", ctor))
        mesh.WeightedTriangulation.__init__ = self._wrap(ctor, "mesh.build", False)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, name, kernel):
        tracer = self
        recursive = name == "jsonio.dumps"
        on_return = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if recursive and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)      # count the outermost call only
            if kernel:
                span_id = None
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                if name == "flow.step":
                    tracer.counts["flow.step_failures"] += 1
                raise
            tracer._close(frame)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame):
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if span_id is not None:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else None))

    def _in_flow(self):
        return any(f[1] == "flow.run_flow" for f in self.stack)

    def _after_laplacian_assemble(self, args, kwargs, result):
        n = result.mesh.vertex_count
        self.counts["laplacian.assemble_faces"] += result.mesh.face_count
        self.counts["laplacian.L_bytes"] += 8 * n * n
        if self._in_flow():
            self.counts["flow.evals"] += 1

    def _after_laplacian_curvature(self, args, kwargs, result):
        m = args[0] if args else kwargs["mesh"]
        self.counts["laplacian.curvature_faces"] += m.face_count
        if self._in_flow():
            self.counts["flow.evals"] += 1

    def _after_flow_step(self, args, kwargs, result):
        self.counts["flow.halvings"] += result[1].halvings

    def _after_verify_run_suite(self, args, kwargs, result):
        suite = args[0] if args else kwargs["name"]
        self.counts[f"verify.{suite}_samples"] += result.samples
        self.suite_s[suite] += self.spans[-1][3] - self.spans[-1][2]

    def _after_jsonio_dumps(self, args, kwargs, result):
        self.counts["jsonio.bytes"] += len(result)

    # -- output ------------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, suites):
        """Per-layer figures; a layer the workload does not reach reads 0."""
        c, tot, own, cnt = self.calls, self.total, self.self_time, self.counts

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        steps = c["flow.step"]
        # a step that returns made 1 accepted and `halvings` rejected attempts;
        # a StepFailureError ends max_halvings + 1 rejected ones (default 40)
        attempts = steps + cnt["flow.halvings"] + 41 * cnt["flow.step_failures"]
        out = {
            "mesh.build_s": (tot["mesh.build"], "s", "lower"),
            "mesh.load_s": (tot["mesh.load_mesh"], "s", "lower"),
            "mesh.star_check_s": (tot["mesh.check_star_condition"], "s", "lower"),
            "hypgeom.face_evals": (c["hypgeom.triangle_geometry"], "count", "lower"),
            "hypgeom.triangle_geometry_us": (
                per(tot["hypgeom.triangle_geometry"], c["hypgeom.triangle_geometry"], 1e6), "us", "lower"),
            "hypgeom.angle_jacobian_us": (
                per(tot["hypgeom.angle_jacobian"], c["hypgeom.angle_jacobian"], 1e6), "us", "lower"),
            "hypgeom.pair_derivative_calls": (c["hypgeom.pair_derivative"], "count", "lower"),
            "hypgeom.pair_derivative_us": (
                per(tot["hypgeom.pair_derivative"], c["hypgeom.pair_derivative"], 1e6), "us", "lower"),
            "laplacian.assemble_calls": (c["laplacian.assemble"], "count", "lower"),
            "laplacian.assemble_self_s": (own["laplacian.assemble"], "s", "lower"),
            "laplacian.assemble_us_per_face": (
                per(tot["laplacian.assemble"], cnt["laplacian.assemble_faces"], 1e6), "us", "lower"),
            "laplacian.curvature_calls": (c["laplacian.curvature"], "count", "lower"),
            "laplacian.curvature_us_per_face": (
                per(tot["laplacian.curvature"], cnt["laplacian.curvature_faces"], 1e6), "us", "lower"),
            "laplacian.apply_p_delta_s": (tot["laplacian.apply_p_delta"], "s", "lower"),
            "laplacian.spd_check_s": (tot["laplacian.spd_check"], "s", "lower"),
            "laplacian.L_bytes": (cnt["laplacian.L_bytes"], "bytes_computed", "lower"),
            "flow.steps": (steps, "count", "lower"),
            "flow.halvings": (cnt["flow.halvings"], "count", "lower"),
            "flow.step_accept_ratio": (per(steps, attempts), "ratio", "higher"),
            "flow.evals_per_step": (per(cnt["flow.evals"], steps), "count", "lower"),
            "flow.step_self_s": (own["flow.step"], "s", "lower"),
        }
        for suite in suites:
            out[f"verify.{suite}_s"] = (self.suite_s[suite], "s", "lower")
            out[f"verify.{suite}_samples"] = (cnt[f"verify.{suite}_samples"], "count", "higher")
        out["jsonio.dumps_s"] = (tot["jsonio.dumps"], "s", "lower")
        out["jsonio.bytes"] = (cnt["jsonio.bytes"], "bytes", "lower")
        out["cli.main_s"] = (tot["cli.main"], "s", "lower")
        return out
