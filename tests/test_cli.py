import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


P1D = {"family": "p-laplacian", "p": 2.5, "domain": {"min": [0], "max": [1]}}


def _continuation(opfile, steps=2, op=DP_DESCRIPTOR):
    return ["continuation", "--operator", opfile(op), "--rhs",
            "constant:-2", "--mesh", "2d:9x9", "--schedule",
            f"eps0=0.2,steps={steps}"]


def _estimates(steps, *flags):
    def argv(opfile, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(_continuation(opfile, steps) + ["--out", str(trace)]) == 0
        return ["estimates", "--trace", str(trace), *flags]
    return argv


def _bad_trace(command, doc):
    def argv(opfile, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(doc))
        return [command, "--trace", str(trace)]
    return argv


MALFORMED = {
    "out-in-missing-directory": lambda opfile, tmp_path: _continuation(opfile),
    "samples-0": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--samples", "0"],
    "p-not-a-number": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "p": "abc"})],
    "double-phase-without-weight": lambda opfile, tmp_path: [
        "check", "--operator",
        opfile({k: v for k, v in DP_DESCRIPTOR.items() if k != "params"})],
    "estimates-on-one-step-trace": _estimates(1),
    "threads-0": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--threads", "0"],
    "check-L-nan": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--L", "nan"],
    "check-L-negative": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--L", "-5"],
    "check-seed-negative": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--seed", "-1"],
    "check-gamma-nan": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--gamma", "nan"],
    "check-s0-nan": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--s0", "nan"],
    "estimates-lp-bound-nan": _estimates(2, "--lp-bound", "nan"),
    "continuation-delta-nan": lambda opfile, tmp_path: _continuation(
        opfile) + ["--delta", "nan"],
    "continuation-delta-negative": lambda opfile, tmp_path: _continuation(
        opfile) + ["--delta", "-1"],
    "estimates-trace-list": _bad_trace("estimates", [1, 2]),
    "estimates-trace-string": _bad_trace("estimates", "s"),
    "report-trace-list": _bad_trace("report", [1, 2]),
    "report-trace-string": _bad_trace("report", "s"),
    "report-step-without-lp-gradient": _bad_trace(
        "report", {"steps": [{"eps": 0.2}]}),
    "report-trace-meta-list": _bad_trace("report", {"steps": [], "meta": [1]}),
    "estimates-trace-mesh-2x2": _bad_trace("estimates", {"mesh": {
        "dim": 2, "box": {"min": [0, 0], "max": [1, 1]},
        "nodes_per_axis": [2, 2]}}),
    "mesh-1d-0": lambda opfile, tmp_path: _continuation(
        opfile, op=P1D) + ["--mesh", "1d:0"],
    "mesh-2d-2x9": lambda opfile, tmp_path: _continuation(
        opfile) + ["--mesh", "2d:2x9"],
    "mesh-2d-9x9x9": lambda opfile, tmp_path: _continuation(
        opfile) + ["--mesh", "2d:9x9x9"],
    "descriptor-family-list": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "family": [1]})],
    "descriptor-params-number": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "params": -1})],
    "descriptor-param-mistyped": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "family": "anisotropic",
                                       "params": {"exponents": "ab"}})],
    "descriptor-domain-empty": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "domain": {}})],
    "descriptor-domain-nan": lambda opfile, tmp_path: [
        "check", "--operator",
        opfile({**PLAP3, "domain": {"min": [0, 0], "max": [1, "nan"]}})],
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


def test_zero_solution_passes_estimates_and_report(opfile, tmp_path):
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    assert main(["continuation", "--operator", opfile(P1D), "--rhs",
                 "constant:0", "--mesh", "1d:9", "--schedule",
                 "eps0=0.2,steps=2", "--out", str(trace)]) == 0
    assert main(["estimates", "--trace", str(trace)]) == 0
    assert main(["report", "--trace", str(trace), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["lp_gradient_ratio"] == 1.0


def test_scipy_loads_only_at_first_sparse_matrix(opfile, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(_continuation(opfile) + ["--out", str(trace)]) == 0
    script = (
        "import sys\n"
        "import pqelliptic, pqelliptic.cli\n"
        "from pqelliptic.cli import main\n"
        "op, trace = sys.argv[1:]\n"
        "assert main(['check', '--operator', op, '--samples', '1000']) == 0\n"
        "assert main(['estimates', '--trace', trace]) == 0\n"
        "assert main(['report', '--trace', trace]) == 0\n"
        "print('scipy.sparse' in sys.modules)\n"
        "assert main(['solve', '--operator', op, '--rhs', 'constant:-2',\n"
        "             '--mesh', '2d:9x9']) == 0\n"
        "print('scipy.sparse' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, opfile(DP_DESCRIPTOR), str(trace)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


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


def test_check_logs_timings_on_stderr_only_with_pq_log_info(opfile, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    op = opfile(PLAP3)
    runs = {}
    for level in ("info", None):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PQ_LOG", None)
        if level:
            env["PQ_LOG"] = level
        out = tmp_path / f"report-{level}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pqelliptic.cli", "check", "--operator",
             op, "--samples", "500", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[level] = (proc.stderr, out.read_bytes())
    logged = [ln for ln in runs["info"][0].splitlines()
              if ln.startswith("pq.check INFO: ")]
    assert len(logged) == 9 and "shared sample cloud" in logged[0]
    assert "pq.check" not in runs[None][0]
    assert runs["info"][1] == runs[None][1]


# -- property: the exit-code contract holds for any small input --------------

_OPERATORS = [DP_DESCRIPTOR, PLAP3, DEG4,
              {"family": "log", "p": 2, "q": 2.2,
               "domain": {"min": [0, 0], "max": [1, 1]}}, P1D]
_JUNK = st.one_of(
    st.sampled_from([0, -1, 1.5, 1e300, float("nan"), float("inf"), "", "x",
                     [1], {}, None, {"min": [0], "max": [0]},
                     {"weight": {"type": "constant", "value": -1}},
                     {"weight": {"type": "constant", "value": "x"}},
                     {"exponents": "ab"}]),
    st.floats(-5, 5), st.text(max_size=3))
_SOMETIMES = st.sampled_from([False, False, True])


@st.composite
def _continuation_argv(draw):
    """Mostly well-formed continuation arguments, each part sometimes junk."""
    desc = dict(draw(st.sampled_from(_OPERATORS)))
    dim = len(desc["domain"]["min"])
    if draw(_SOMETIMES):
        key = draw(st.sampled_from(["family", "p", "q", "m", "domain",
                                    "params", "extra"]))
        desc[key] = draw(_JUNK)
    sizes = draw(st.lists(st.integers(3, 9), min_size=dim, max_size=dim))
    mesh = f"{dim}d:" + "x".join(map(str, sizes))
    if draw(_SOMETIMES):
        mesh = draw(st.one_of(st.text(max_size=5), st.builds(
            lambda kind, sizes: f"{kind}:" + "x".join(map(str, sizes)),
            st.sampled_from(["1d", "2d", "3d", ""]),
            st.lists(st.integers(-1, 9), min_size=1, max_size=3))))
    schedule = "eps0={},ratio={},steps={}".format(
        draw(st.sampled_from([0.2, 0.05])), draw(st.sampled_from([0.5, 0.25])),
        draw(st.integers(1, 3)))
    if draw(_SOMETIMES):
        schedule = draw(st.one_of(st.text(max_size=5), st.builds(
            "eps0={},ratio={},steps={}".format, _JUNK, _JUNK, _JUNK)))
    rhs = draw(st.sampled_from(["constant:-2", "constant:0", "constant:3",
                                "manufactured:sine2d"]))
    if draw(_SOMETIMES):
        rhs = draw(st.one_of(st.text(max_size=5), st.builds(
            "{}:{}".format, st.sampled_from(["constant", "manufactured",
                                             "file"]), _JUNK)))
    return desc, [f"--mesh={mesh}", f"--schedule={schedule}", f"--rhs={rhs}"]


def _run(argv, out):
    """main's exit code; it prints no traceback, and a non-zero exit leaves
    no --out file."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv + [f"--out={out}"])
        except SystemExit as exc:  # argparse usage error
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        assert not os.path.exists(out), argv
    return rc


# on a failure, Hypothesis imports libcst, which warns about mypy_extensions
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=_continuation_argv())
def test_exit_code_contract_property(case):
    desc, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        op = os.path.join(tmp, "op.json")
        with open(op, "w") as fh:
            json.dump(desc, fh)
        trace = os.path.join(tmp, "trace.json")
        if _run(["continuation", f"--operator={op}", *flags], trace) != 0:
            assert not os.path.exists(os.path.join(tmp, "trace.csv"))
            return
        _run(["estimates", f"--trace={trace}"],
             os.path.join(tmp, "estimates.csv"))
        _run(["report", f"--trace={trace}"], os.path.join(tmp, "report.json"))
