"""Command-line surface.

Exit codes are a total function of the outcome class:
0 success, 1 validation failure or sweep violations, 2 corner-condition
violation, 3 I/O failure, 4 flow step failure, 5 usage error.
All emitted JSON is deterministic for fixed flags and seed, except the
wall_time fields, which necessarily vary between runs.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import flow, jsonio, laplacian, mesh as meshmod, verify
from .errors import CpflowError, MeshValidationError, StarConditionError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_STAR = 2
EXIT_IO = 3
EXIT_STEP_FAILURE = 4
EXIT_USAGE = 5

# `flow` refuses a --t-max / --dt above this many full steps; at ~1 ms a
# step on `tetra` (x86-64, one thread) the cap is a quarter of an hour
MAX_FLOW_STEPS = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_mesh_arg(value):
    """A built-in mesh name or a path to a mesh file."""
    if value in meshmod.BUILTIN_NAMES:
        return meshmod.builtin_mesh(value)
    if not os.path.exists(value):
        raise FileNotFoundError(f"mesh file not found: {value}")
    with open(value, "rb") as fh:       # load_mesh rejects bytes that are not JSON text
        return meshmod.load_mesh(fh.read())


def _load_r0(value, n):
    """Scalar text for a uniform metric, else a path to a JSON list of
    exactly n finite numbers (no booleans, strings, nulls or lists)."""
    try:
        return np.full(n, float(value))
    except ValueError:
        pass
    if not os.path.exists(value):
        raise FileNotFoundError(f"radius file not found: {value}")
    try:
        with open(value, "r", encoding="utf-8") as fh:
            # integers parse as floats, so an overlong one becomes inf
            data = json.load(fh, parse_int=float)
    except (ValueError, RecursionError) as exc:     # bad UTF-8 and deep nesting too
        raise MeshValidationError(f"radius file is not UTF-8 JSON: {exc}") from exc
    if not (isinstance(data, list) and len(data) == n
            and all(type(x) is float and math.isfinite(x) for x in data)):
        raise MeshValidationError(
            f"radius file must hold a list of {n} finite numbers"
        )
    return np.array(data)


def _emit(doc, out_path):
    text = jsonio.dumps(doc, indent=1) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args):
    mesh = _load_mesh_arg(args.mesh)
    report = meshmod.check_star_condition(mesh)
    doc = {
        "mesh": {
            "vertices": mesh.vertex_count,
            "edges": mesh.edge_count,
            "faces": mesh.face_count,
            "euler_characteristic": mesh.euler_characteristic(),
            "max_degree": mesh.max_degree(),
        },
        "star": report.to_dict(),
    }
    _emit(doc, args.out)
    return EXIT_OK if report.all_nonnegative else EXIT_STAR


def cmd_laplacian(args):
    mesh = _load_mesh_arg(args.mesh)
    r = laplacian.validate_radii(mesh, _load_r0(args.r0, mesh.vertex_count))
    asm = laplacian.assemble(mesh, r)
    min_eig, sym = laplacian.spd_check(asm)
    doc = {
        "K": asm.K,
        "A": asm.A,
        "B": asm.B,
        "min_eigenvalue": min_eig,
        "symmetry_residual": sym,
        "zero_b_edges": [
            {"edge": eid, "phi": float(mesh.phi[eid])}
            for eid in asm.zero_b_edges
        ],
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_flow(args):
    if not (args.p > 1.0):
        raise _Usage(f"--p must exceed 1, got {args.p}")
    if not (args.dt > 0.0):
        raise _Usage(f"--dt must be positive, got {args.dt}")
    if not (0.0 < args.t_max < math.inf):
        raise _Usage(f"--t-max must be positive and finite, got {args.t_max}")
    if args.t_max / args.dt > MAX_FLOW_STEPS:
        raise _Usage(f"--t-max / --dt = {args.t_max / args.dt:g} exceeds {MAX_FLOW_STEPS} steps")
    if not (args.k_tol > 0.0):
        raise _Usage(f"--k-tol must be positive, got {args.k_tol}")
    if args.trace_stride < 1:
        raise _Usage(f"--trace-stride must be at least 1, got {args.trace_stride}")
    mesh = _load_mesh_arg(args.mesh)
    r0 = _load_r0(args.r0, mesh.vertex_count)
    cfg = flow.FlowConfig(
        p=args.p, dt=args.dt, t_max=args.t_max, k_tol=args.k_tol,
        trace_stride=args.trace_stride,
    )
    start = time.perf_counter()
    trace = flow.run_flow(mesh, r0, cfg)
    wall = time.perf_counter() - start
    summary = {
        "termination": trace.termination,
        "final_max_abs_K": trace.final_max_abs_K(),
        "steps": trace.steps,
        "wall_time": wall,
    }
    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            fh.write(trace.to_csv())
    _emit(summary, args.out and args.out + ".json")
    if args.trace_json:
        _emit(trace.to_dict(), args.trace_json)
    return EXIT_STEP_FAILURE if trace.termination == "step_failure" else EXIT_OK


def cmd_verify(args):
    if args.suite not in verify.SUITE_NAMES:
        raise _Usage(f"unknown suite {args.suite!r}; choose from {verify.SUITE_NAMES}")
    if args.samples is not None and args.samples < 1:
        raise _Usage("--samples must be positive")
    if args.grid < 10:
        raise _Usage("--grid must be at least 10")
    if args.seed < 0:
        raise _Usage(f"--seed must be nonnegative, got {args.seed}")
    mesh = _load_mesh_arg(args.mesh) if args.mesh else None
    report = verify.run_suite(args.suite, args.samples, args.seed, args.grid, mesh)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_bounds(args):
    if not (args.R > 0.0):
        raise _Usage(f"--R must be positive, got {args.R}")
    mesh = _load_mesh_arg(args.mesh)
    try:
        consts = verify.floor_bound_constants(mesh, args.R)
    except ValueError as exc:       # a floor so small that a**14 underflows
        raise _Usage(str(exc)) from None
    _emit(consts.to_dict(), args.out)
    return EXIT_OK


class _Usage(Exception):
    pass


def build_parser():
    parser = _Parser(
        prog="cpflow",
        description="Hyperbolic circle packings: curvature, Laplacians, "
                    "flows, and certification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[], help="validate a mesh and its corner condition")
    p.add_argument("--mesh", required=True, help="built-in name or mesh file path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("laplacian", help="assemble K, A, B and the smallest eigenvalue")
    p.add_argument("--mesh", required=True)
    p.add_argument("--r0", default="1.0", help="uniform radius or JSON list file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("flow", help="integrate a curvature flow")
    p.add_argument("--mesh", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--k-tol", type=float, default=1e-8)
    p.add_argument("--r0", default="1.0")
    p.add_argument("--trace-stride", type=int, default=1)
    p.add_argument("--out", default=None, help="base path: writes .csv and .json")
    p.add_argument("--trace-json", default=None, help="write the full trace here")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("verify", help="run a certification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mesh", default=None,
                   help="replace the built-in targets of a mesh-specific suite")
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="explicit bound constants for a radius floor")
    p.add_argument("--mesh", required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _Usage as exc:
        return _fail(exc, EXIT_USAGE)
    except OSError as exc:          # FileNotFoundError included
        return _fail(exc, EXIT_IO)
    except StarConditionError as exc:
        return _fail(exc, EXIT_STAR)
    except CpflowError as exc:      # mesh format and validation errors included
        return _fail(exc, EXIT_VIOLATION)


def _fail(exc, code):
    sys.stderr.write(f"error: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
