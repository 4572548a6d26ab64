import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cpflow import cli
from cpflow.laplacian import SPD_DENSE_MAX, assemble
from cpflow.mesh import builtin_mesh, load_mesh, save_mesh


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_builtin_ok(capsys):
    code, out, _ = run_cli(capsys, "check", "--mesh", "tetra")
    assert code == 0
    doc = json.loads(out)
    assert doc["mesh"]["euler_characteristic"] == 2
    assert doc["star"]["all_nonnegative"] is True


def test_check_star_violation(capsys, tmp_path):
    m = builtin_mesh("tetra")
    phis = [0.0] * 6
    f = m.faces[0]
    phis[f.edges[0]] = 3 * math.pi / 4
    phis[f.edges[1]] = 3 * math.pi / 4
    path = tmp_path / "bad.json"
    path.write_text(save_mesh(m.with_weights(phis)))
    code, out, _ = run_cli(capsys, "check", "--mesh", str(path))
    assert code == 2
    doc = json.loads(out)
    gammas = [g for _, _, g in doc["star"]["violations"]]
    assert any(abs(g + math.sqrt(2)) < 1e-12 for g in gammas)


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "--mesh", "/no/such/file.json")
    assert code == 3
    assert "not found" in err


def test_check_invalid_mesh(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": 2, "edges": [[0,0,1,0.0]], "faces": []}')
    code, _, err = run_cli(capsys, "check", "--mesh", str(path))
    assert code == 1


def test_flow_converges(capsys, tmp_path):
    out_base = str(tmp_path / "run")
    code, out, _ = run_cli(
        capsys, "flow", "--mesh", "genus2_min", "--p", "2",
        "--r0", "1", "--k-tol", "1e-6", "--out", out_base,
    )
    assert code == 0
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["final_max_abs_K"] <= 1e-6
    csv = (tmp_path / "run.csv").read_text()
    assert csv.splitlines()[0] == "t,energy,max_abs_K,min_r,max_abs_u_vel,dt"


def test_flow_flag_validation(capsys):
    code, _, err = run_cli(capsys, "flow", "--mesh", "tetra", "--p", "0.5")
    assert code == 5
    code, _, _ = run_cli(capsys, "flow", "--mesh", "tetra", "--dt", "0")
    assert code == 5
    code, _, _ = run_cli(capsys, "flow", "--mesh", "tetra", "--k-tol", "-1")
    assert code == 5


def test_flow_trace_json(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, _, _ = run_cli(
        capsys, "flow", "--mesh", "genus2_min", "--t-max", "0.1",
        "--k-tol", "1e-12", "--trace-json", str(trace_path),
    )
    assert code == 0
    doc = json.loads(trace_path.read_text())
    assert doc["samples"][0]["t"] == 0
    assert len(doc["samples"][0]["r"]) == 2
    assert len(doc["samples"][0]["K"]) == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop31", "--grid", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    code, _, err = run_cli(capsys, "verify", "--suite", "nosuch")
    assert code == 5
    code, _, _ = run_cli(capsys, "verify", "--suite", "prop31", "--grid", "5")
    assert code == 5


def test_verify_identities_seeded(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "identities", "--samples", "200", "--seed", "42"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 42 and doc["samples"] == 200


def test_bounds_reference_values(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--mesh", "tetra", "--R", "0.6931471805599453"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == 0.25
    assert doc["a3"] == 20971520
    assert doc["a2"] == 83886080
    assert len(doc["m4_per_face"]) == 4


def test_bounds_flag_validation(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--mesh", "tetra", "--R", "-1")
    assert code == 5


def test_laplacian_report(capsys):
    code, out, _ = run_cli(capsys, "laplacian", "--mesh", "tetra", "--r0", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["K"]) == 4 and len(doc["B"]) == 6 and len(doc["A"]) == 4
    assert doc["min_eigenvalue"] > 0.0
    assert doc["symmetry_residual"] == 0


def test_laplacian_report_above_the_dense_threshold(capsys, tmp_path):
    """A mesh with more than SPD_DENSE_MAX vertices takes the Lanczos path."""
    rng = np.random.default_rng(5)
    base = oracles.torus_grid(24, 24)
    assert base.vertex_count > SPD_DENSE_MAX
    mesh_path, r_path = tmp_path / "torus.json", tmp_path / "r.json"
    mesh_path.write_text(save_mesh(base.with_weights(
        rng.uniform(0.0, 0.5 * math.pi, base.edge_count))))
    r = np.exp(rng.uniform(math.log(0.1), math.log(10.0), base.vertex_count))
    r_path.write_text(json.dumps(r.tolist()))
    code, out, _ = run_cli(capsys, "laplacian", "--mesh", str(mesh_path), "--r0", str(r_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetry_residual"] == 0.0
    eig = np.linalg.eigvalsh(assemble(load_mesh(mesh_path.read_text()), r).L)
    assert abs(doc["min_eigenvalue"] - eig[0]) <= 1e-12 * eig[-1]


def test_laplacian_report_at_4096_vertices(capsys, tmp_path):
    """The 64 x 64 torus: spd_check builds no dense L here (134 MB)."""
    rng = np.random.default_rng(6)
    base = oracles.torus_grid(64, 64)
    mesh_path, r_path = tmp_path / "torus.json", tmp_path / "r.json"
    mesh_path.write_text(save_mesh(base.with_weights(
        rng.uniform(0.0, 0.5 * math.pi, base.edge_count))))
    r_path.write_text(json.dumps(np.exp(rng.uniform(
        math.log(0.1), math.log(10.0), base.vertex_count)).tolist()))
    code, out, _ = run_cli(capsys, "laplacian", "--mesh", str(mesh_path), "--r0", str(r_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetry_residual"] == 0.0
    A = np.array(doc["A"])
    assert np.min(A) <= doc["min_eigenvalue"] <= np.sum(A) / base.vertex_count


def test_r0_file_input(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[1.0, 1.0, 1.0, 1.0]")
    code, out, _ = run_cli(capsys, "laplacian", "--mesh", "tetra", "--r0", str(path))
    assert code == 0
    path.write_text("[1.0, 1.0]")
    code, _, _ = run_cli(capsys, "laplacian", "--mesh", "tetra", "--r0", str(path))
    assert code == 1


def test_usage_error_exit_code(capsys):
    assert cli.main(["frobnicate"]) == 5
    assert cli.main([]) == 5


_WALL = re.compile(r'"wall_time": [0-9.eE+-]+')


def test_byte_identical_reports_modulo_wall_time(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "prop31", "--grid", "20")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "prop31", "--grid", "20")
    assert _WALL.sub("", out1) == _WALL.sub("", out2)
    _, b1, _ = run_cli(capsys, "bounds", "--mesh", "tetra", "--R", "0.5")
    _, b2, _ = run_cli(capsys, "bounds", "--mesh", "tetra", "--R", "0.5")
    assert b1 == b2


def test_flow_csv_deterministic(capsys, tmp_path):
    args = ["flow", "--mesh", "genus2_min", "--t-max", "0.2",
            "--k-tol", "1e-12", "--out"]
    run_cli(capsys, *args, str(tmp_path / "a"))
    run_cli(capsys, *args, str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_flow_trace_stride_below_one_is_usage_error(capsys):
    for stride in ("0", "-3"):
        code, _, err = run_cli(capsys, "flow", "--mesh", "genus2_min", "--trace-stride", stride)
        assert code == 5
        assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    b'[1.0, "x"]',
    b"[1.0, 1.",                 # truncated JSON
    b"[1.0, \xff\xfe]",          # not UTF-8
    b"[true, 1.0]",
    b"[null, 1.0]",
    b"[[1], [2]]",
    b"[1.0, NaN]",
    b"[1.0, 1e999]",
    b'{"r": [1.0, 1.0]}',
])
def test_malformed_r0_file_is_validation_error(capsys, tmp_path, content):
    path = tmp_path / "r.json"
    path.write_bytes(content)
    for cmd in ("flow", "laplacian"):
        code, _, err = run_cli(capsys, cmd, "--mesh", "genus2_min", "--r0", str(path))
        assert code == 1
        assert "Traceback" not in err
        assert "radius file" in err


def test_r0_file_accepts_integers(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[1, 2]")
    code, out, _ = run_cli(capsys, "laplacian", "--mesh", "genus2_min", "--r0", str(path))
    assert code == 0
    assert len(json.loads(out)["K"]) == 2


def test_non_utf8_mesh_file_is_validation_error(capsys, tmp_path):
    path = tmp_path / "mesh.json"
    path.write_bytes(b'{"vertices": \xff}')
    code, _, err = run_cli(capsys, "check", "--mesh", str(path))
    assert code == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--mesh", "tetra", "--R", "1e-300"],     # a**14 underflows to 0
    ["verify", "--suite", "identities", "--seed", "-1"],
    ["flow", "--mesh", "tetra", "--t-max", "inf"],     # tetra never converges
    ["flow", "--mesh", "tetra", "--dt", "1e-300", "--t-max", "0.05"],  # 5e298 steps
])
def test_out_of_range_input_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 5
    assert "Traceback" not in err


def _near_pi_mesh():
    # the largest double below pi has cosine -1, so 1 + phi_bar is 0
    m = builtin_mesh("genus2_min")
    return save_mesh(m.with_weights([math.nextafter(math.pi, 0.0)] + [0.0] * (m.edge_count - 1)))


def _tetra_doc(first_weight=0.0, **changes):
    doc = json.loads(save_mesh(builtin_mesh("tetra")))
    doc["edges"][0][3] = first_weight
    return json.dumps({**doc, **changes})


def _tetra_id(key, row, col, value):
    doc = json.loads(save_mesh(builtin_mesh("tetra")))
    doc[key][row][col] = value
    return json.dumps(doc)


@pytest.mark.parametrize("cmd, content", [
    ("check", _tetra_doc("x")),
    ("check", _tetra_doc(None)),
    ("check", _tetra_doc(10**400)),                     # beyond double range
    ("check", _tetra_doc(vertices=2**62)),              # no per-vertex list is allocated
    ("check", _tetra_id("faces", 0, 0, 2**70)),         # ids beyond int64
    ("check", _tetra_id("edges", 5, 1, -2**70)),
    ("check", "[" * 100_000),                           # nesting beyond the recursion limit
    ("check", '{"vertices": ' + "1" * 5000 + "}"),      # beyond int's digit limit
    ("laplacian", "[" * 100_000),                       # as a radius file
    ("verify", _near_pi_mesh()),
    ("bounds", _near_pi_mesh()),
], ids=["string_weight", "null_weight", "huge_integer_weight", "huge_vertex_count", "huge_face_corner",
        "huge_negative_edge_end", "deep_mesh", "long_int",
        "deep_r0", "verify_near_pi_weight", "bounds_near_pi_weight"])
def test_malformed_input_file_is_validation_error(capsys, tmp_path, cmd, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    argv = {"check": ["check", "--mesh", str(path)],
            "laplacian": ["laplacian", "--mesh", "tetra", "--r0", str(path)],
            "verify": ["verify", "--suite", "theorem1", "--samples", "2", "--mesh", str(path)],
            "bounds": ["bounds", "--mesh", str(path), "--R", "1"]}[cmd]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err


def test_flow_at_large_p_has_no_velocity_bound(capsys, tmp_path):
    # (d pi)^(p - 1) overflows at p = 1000; the bound is inf, not an OverflowError
    base = str(tmp_path / "run")
    code, _, err = run_cli(capsys, "flow", "--mesh", "tetra", "--p", "1000",
                           "--t-max", "0.05", "--out", base, "--trace-json", base + ".trace")
    assert code == 0
    assert json.loads((tmp_path / "run.trace").read_text())["warnings"] == []


# -- fuzzed invocations -----------------------------------------------------------------

_NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "-1", "1e-300", "5e-324", "1e308", "1e999", "-inf", "nan",
                     "x", "", "1_0", " 2 "]),
    st.floats().map(repr),
    st.integers(-10**30, 10**30).map(str),
)
# values that replace one entry of a valid mesh or radius file
_JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-2**70, 2**70), st.text(max_size=4),
    st.sampled_from([[], {}, [[1]], math.nextafter(math.pi, 0.0), 2**62, -1]),
)
_VALID = [json.loads(save_mesh(builtin_mesh(name))) for name in ("tetra", "genus2_min")]
_VALID += [[1.0, 1.0], [0.5, 1.0, 2.0, 3.0]]


def _file_bytes(data):
    kind = data.draw(st.sampled_from(["bytes", "mutated", "mutated", "valid", "extreme"]))
    if kind == "bytes":
        return data.draw(st.binary(max_size=64))
    if kind == "extreme":
        return data.draw(st.sampled_from([b"[" * 100_000, b"1" * 5000, b"[1e-300, 700]"]))
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_VALID))))
    if kind == "mutated":
        node = doc
        while True:     # walk down to one entry and replace it
            key = data.draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            if not (isinstance(node[key], (dict, list)) and node[key]) or data.draw(st.booleans()):
                break
            node = node[key]
        node[key] = data.draw(_JSON_VALUE)
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_invocations_exit_with_a_code(tmp_path_factory, data):
    """Any argv over the five subcommands, with malformed and extreme numbers
    and fuzzed --mesh and --r0 files, ends in an exit code, never a
    traceback. Flags that set the amount of work stay small: --t-max at
    most 0.05 with --dt at least 0.01, and a few samples."""
    folder = tmp_path_factory.mktemp("fuzz")

    def a_file(name):
        path = folder / name
        path.write_bytes(_file_bytes(data))
        return str(path)

    def mesh():
        pick = data.draw(st.sampled_from(["tetra", "genus2_min", "file", "file", "missing",
                                          "folder"]))
        if pick == "file":
            return a_file("mesh.json")
        return {"missing": str(folder / "none.json"), "folder": str(folder)}.get(pick, pick)

    def r0():
        return a_file("r0.json") if data.draw(st.booleans()) else data.draw(_NUMBER)

    def number():
        return data.draw(_NUMBER)

    def pick(*values):
        return lambda: data.draw(st.sampled_from(values))

    command = data.draw(st.sampled_from(["check", "laplacian", "flow", "verify", "bounds"]))
    flags = {
        "check": {"--mesh": mesh},
        "laplacian": {"--mesh": mesh, "--r0": r0},
        "flow": {"--mesh": mesh, "--r0": r0, "--p": number, "--k-tol": number,
                 "--dt": pick("0.01", "0.025", "1", "1e300", "0", "-1", "nan", "x"),
                 "--t-max": pick("0.05", "0.02", "1e-300", "0", "-1", "inf", "nan", "x"),
                 "--trace-stride": pick("1", "3", "0", "-2", "1000000000", "x")},
        "verify": {"--suite": pick("identities", "jacobians", "spd", "theorem1", "theorem2",
                                   "prop24", "prop31", "lemma52", "nosuch"),
                   "--samples": pick("1", "3", "0", "-2", "x", "1.5"),
                   "--seed": lambda: data.draw(st.integers(-2**70, 2**70).map(str) | _NUMBER),
                   "--grid": pick("10", "12", "9", "-5", "x"), "--mesh": mesh},
        "bounds": {"--mesh": mesh, "--R": number},
    }[command]
    argv = [command]
    for flag, value in flags.items():
        if data.draw(st.integers(0, 5)) > 0:
            argv += [flag, value()]
    # left out, these two would run a default-sized flow or suite
    small = {"flow": {"--t-max": "0.05"}, "verify": {"--samples": "2"}}.get(command, {})
    for flag, value in small.items():
        if flag not in argv:
            argv += [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
