import json

import numpy as np
import pytest

from pqelliptic.cli import main
from conftest import DP_DESCRIPTOR


PLAP3 = {"family": "p-laplacian", "p": 3,
         "domain": {"min": [0, 0], "max": [1, 1]}}
DEG4 = {"family": "p-laplacian-degenerate", "p": 4,
        "domain": {"min": [0, 0], "max": [1, 1]}}


@pytest.fixture
def opfile(tmp_path):
    def write(desc, name="op.json"):
        path = tmp_path / name
        path.write_text(json.dumps(desc))
        return str(path)
    return write


def test_check_pass(opfile, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["check", "--operator", opfile(PLAP3), "--samples", "2000",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    ids = {e["condition_id"] for e in report["entries"]}
    assert {"ellipticity", "monotonicity", "coercivity-lower",
            "qp-ratio"} <= ids


def test_check_degenerate_fails_with_origin_witness(opfile, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["check", "--operator", opfile(DEG4), "--samples", "2000",
               "--seed", "3", "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    ell = next(e for e in report["entries"]
               if e["condition_id"] == "ellipticity")
    assert not ell["passed"]
    assert np.allclose(ell["witness"]["xi"], 0.0)


def test_malformed_json_exits_3_no_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "report.json"
    rc = main(["check", "--operator", str(bad), "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_unknown_descriptor_key_exits_3(opfile, tmp_path):
    desc = dict(PLAP3)
    desc["surprise"] = True
    out = tmp_path / "report.json"
    rc = main(["check", "--operator", opfile(desc), "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_solve_writes_solution(opfile, tmp_path):
    out = tmp_path / "solution.json"
    rc = main(["solve", "--operator", opfile(PLAP3), "--rhs", "constant:-2",
               "--mesh", "2d:9x9", "--out", str(out)])
    assert rc == 0
    sol = json.loads(out.read_text())
    assert len(sol["values"]) == 81
    assert sol["stats"]["converged"]


def test_solve_bad_mesh_spec_exits_3(opfile, tmp_path):
    rc = main(["solve", "--operator", opfile(PLAP3), "--rhs", "constant:-2",
               "--mesh", "3d:9"])
    assert rc == 3


def test_continuation_estimates_report_pipeline(opfile, tmp_path):
    op = opfile(DP_DESCRIPTOR)
    trace = tmp_path / "trace.json"
    rc = main(["continuation", "--operator", op, "--rhs", "constant:-2",
               "--mesh", "2d:17x17", "--schedule",
               "eps0=0.2,ratio=0.5,steps=3", "--out", str(trace)])
    assert rc == 0
    assert trace.exists() and (tmp_path / "trace.csv").exists()

    csv_text = (tmp_path / "trace.csv").read_text().splitlines()
    assert csv_text[0].startswith("step,eps,newton_iterations")
    assert len(csv_text) == 4  # header + 3 steps

    est = tmp_path / "estimates.csv"
    rc = main(["estimates", "--trace", str(trace), "--rho", "0.25",
               "--R", "0.4", "--out", str(est)])
    assert rc == 0
    header = est.read_text().splitlines()[0]
    assert header == "eps,lp_grad,bracket,ratio,c_gradient,c_hessian,alpha,pstar"

    summary = tmp_path / "summary.json"
    rc = main(["report", "--trace", str(trace), "--estimates", str(est),
               "--out", str(summary)])
    assert rc == 0
    doc = json.loads(summary.read_text())
    assert doc["lp_gradient_ratio"] >= 1.0
    assert isinstance(doc["increments_strictly_decreasing"], bool)
    assert len(doc["estimates"]) == 3


def test_continuation_bad_schedule_exits_3(opfile, tmp_path, capsys):
    for schedule in ("eps0=2.0,steps=2", "eps0=0.2,steps=nan",
                     "eps0=0.2,steps=2.7"):
        rc = main(["continuation", "--operator", opfile(DP_DESCRIPTOR),
                   "--rhs", "constant:-2", "--mesh", "2d:9x9",
                   "--schedule", schedule])
        assert rc == 3, schedule
        err = capsys.readouterr().err.strip()
        assert err.startswith("configuration error") and "\n" not in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
@pytest.mark.parametrize("command", [
    ["solve", "--mesh", "2d:9x9", "--rhs", "constant:-2"],
    ["continuation", "--mesh", "2d:9x9", "--rhs", "constant:-2",
     "--schedule", "eps0=0.2,steps=2"],
    ["mms", "--case", "sine2d", "--grids", "9,17,33"]])
def test_bad_newton_tol_exits_3(opfile, tmp_path, capsys, command, tol):
    out = tmp_path / "out"
    rc = main(command + ["--operator", opfile(DP_DESCRIPTOR),
                         "--newton-tol", tol, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error") and "\n" not in err
    assert not out.exists()


def test_usage_errors_exit_3(opfile, capsys):
    for argv in (["check"],
                 ["check", "--operator", opfile(PLAP3), "--samples", "abc"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: pq check") and "pq check: error:" in err


def _one_step_trace(opfile, tmp_path):
    trace = tmp_path / "one-step.json"
    assert main(["continuation", "--operator", opfile(DP_DESCRIPTOR),
                 "--rhs", "constant:-2", "--mesh", "2d:9x9", "--schedule",
                 "eps0=0.2,steps=1", "--out", str(trace)]) == 0
    return ["estimates", "--trace", str(trace)]


MALFORMED = {
    "out-in-missing-directory": lambda opfile, tmp_path: [
        "continuation", "--operator", opfile(DP_DESCRIPTOR), "--rhs",
        "constant:-2", "--mesh", "2d:9x9", "--schedule", "eps0=0.2,steps=2"],
    "samples-0": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--samples", "0"],
    "p-not-a-number": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "p": "abc"})],
    "double-phase-without-weight": lambda opfile, tmp_path: [
        "check", "--operator",
        opfile({k: v for k, v in DP_DESCRIPTOR.items() if k != "params"})],
    "estimates-on-one-step-trace": _one_step_trace,
    "threads-0": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--threads", "0"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3(opfile, tmp_path, capsys, case):
    argv = MALFORMED[case](opfile, tmp_path)
    capsys.readouterr()
    out = tmp_path / ("missing" if case.startswith("out") else ".") / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error") and "\n" not in err
    assert "Traceback" not in err
    assert not out.exists()


def test_mms_subcommand(opfile, tmp_path):
    out = tmp_path / "mms.csv"
    rc = main(["mms", "--operator", opfile(PLAP3), "--case", "sine2d",
               "--grids", "9,17,33", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,h,l2_error,w12_error,l2_order,w12_order"
    assert len(lines) == 4


def test_rhs_table_and_manufactured(opfile, tmp_path):
    table = tmp_path / "rhs.json"
    table.write_text(json.dumps({"type": "table",
                                 "values": [-2.0] * (9 * 9)}))
    rc = main(["solve", "--operator", opfile(PLAP3),
               "--rhs", f"file:{table}", "--mesh", "2d:9x9",
               "--out", str(tmp_path / "s1.json")])
    assert rc == 0
    rc = main(["solve", "--operator", opfile(PLAP3),
               "--rhs", "manufactured:sine2d", "--mesh", "2d:9x9",
               "--out", str(tmp_path / "s2.json")])
    assert rc == 0


def test_reproducibility_across_threads(opfile, tmp_path):
    op = opfile(DP_DESCRIPTOR)
    outs = {}
    for threads in ("1", "3"):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        rc = main(["continuation", "--operator", op, "--rhs", "constant:-2",
                   "--mesh", "2d:17x17", "--schedule",
                   "eps0=0.2,ratio=0.5,steps=3", "--threads", threads,
                   "--out", str(d / "trace.json")])
        assert rc == 0
        rc = main(["check", "--operator", op, "--samples", "3000",
                   "--seed", "5", "--threads", threads,
                   "--out", str(d / "report.json")])
        assert rc == 0
        outs[threads] = d
    for name in ("trace.json", "trace.csv", "report.json"):
        a = (outs["1"] / name).read_bytes()
        b = (outs["3"] / name).read_bytes()
        assert a == b, f"{name} differs across thread counts"
