import json
import math
import re

import pytest

from cpflow import cli
from cpflow.mesh import builtin_mesh, save_mesh


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
])
def test_out_of_range_input_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 5
    assert "Traceback" not in err
