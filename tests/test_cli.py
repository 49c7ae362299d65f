import contextlib
import csv
import hashlib
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

import pqelliptic.cli
import pqelliptic.solvers
from pqelliptic import NonConvergence
from pqelliptic.cli import main
from conftest import DP_DESCRIPTOR, assert_rhs_tiles_quad_points


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


def test_solve_evaluates_callable_rhs_once(opfile, tmp_path, monkeypatch):
    calls = []
    real_parse_rhs = pqelliptic.cli.parse_rhs

    def parse_rhs(spec, op, mesh):
        b = real_parse_rhs(spec, op, mesh)

        def counted(x):
            calls.append(np.array(x))
            return b(x)
        return counted

    monkeypatch.setattr(pqelliptic.cli, "parse_rhs", parse_rhs)
    mesh = pqelliptic.build_mesh(2, pqelliptic.Box.from_dict(PLAP3["domain"]),
                                 17)
    for start in ("presolve", "zero"):
        calls.clear()
        rc = main(["solve", "--operator", opfile(PLAP3), "--rhs",
                   "manufactured:sine2d", "--mesh", "2d:17x17", "--start",
                   start, "--out", str(tmp_path / f"{start}.json")])
        assert rc == 0
        assert_rhs_tiles_quad_points(calls, mesh)


def test_newton_failure_exits_2_naming_eps(opfile, tmp_path, capsys,
                                          monkeypatch):
    def failing_newton(mesh, op, b_field, U0, cfg=None, *, solves=None):
        raise NonConvergence("newton did not converge", best=U0)

    monkeypatch.setattr(pqelliptic.solvers, "newton_solve", failing_newton)
    out = tmp_path / "trace.json"
    capsys.readouterr()
    rc = main(_continuation(opfile) + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical failure: ") and "\n" not in err
    assert "eps=0.2" in err
    assert not out.exists() and not (tmp_path / "trace.csv").exists()


def test_out_of_memory_exits_2_with_one_line(opfile, tmp_path, capsys,
                                             monkeypatch):
    def cmd_check(args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(pqelliptic.cli, "cmd_check", cmd_check)
    out = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["check", "--operator", opfile(PLAP3), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err == ("numerical failure: out of memory: "
                   "Unable to allocate 8.00 TiB")
    assert not out.exists()


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


@pytest.mark.parametrize("op,note", [(DP_DESCRIPTOR, True), (PLAP3, False)],
                         ids=["q-above-p", "q-equals-p"])
def test_estimates_line_notes_an_extrapolated_alpha(opfile, tmp_path, capsys,
                                                    op, note):
    # n = 2 with q > p: the paper states alpha for n > 2 only
    trace = tmp_path / "trace.json"
    assert main(_continuation(opfile, op=op) + ["--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["estimates", "--trace", str(trace)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("estimates: lp ratio") and err.count("\n") == 1
    assert ("alpha 1.111 extrapolated to n = 2" in err) == note


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


def test_check_3d_double_phase_from_params_dim(opfile, tmp_path):
    out = tmp_path / "report.json"
    desc = {"family": "double-phase", "p": 2, "q": 2.2, "params": {
        "dim": 3, "weight": {"type": "affine", "coeffs": [1.0, 0.0, 0.5]}}}
    rc = main(["check", "--operator", opfile(desc), "--samples", "2000",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"]


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


def _rhs_table_with_nan(opfile, tmp_path):
    table = tmp_path / "rhs.json"
    table.write_text(json.dumps({"type": "table",
                                 "values": [-2.0] * 80 + [float("nan")]}))
    return _continuation(opfile) + ["--rhs", f"file:{table}"]


def _params_dim(dim):
    """pq check on a p-Laplacian whose box comes from params.dim alone."""
    return lambda opfile, tmp_path: [
        "check", "--operator",
        opfile({"family": "p-laplacian", "p": 3, "params": {"dim": dim}})]


def _rhs_table(values):
    def argv(opfile, tmp_path):
        table = tmp_path / "rhs.json"
        table.write_text(json.dumps({"type": "table", "values": values}))
        return _continuation(opfile) + ["--rhs", f"file:{table}"]
    return argv


#: JSON whose one string holds a Latin-1 byte, so the file is not UTF-8
NOT_UTF8 = b'{"family": "p-laplacian", "p": 3, "notes": "\xe9"}'


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(NOT_UTF8)
    return str(path)


def _huge_field(tmp_path):
    """A CSV whose one field exceeds the csv module's field size limit."""
    path = tmp_path / "huge.csv"
    path.write_text("eps\n" + "1" * (csv.field_size_limit() + 1) + "\n")
    return str(path)


def _deep(tmp_path):
    """JSON nested deeper than the decoder's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    return str(path)


def _traced(command, tamper):
    """``command`` on a 9x9 trace after ``tamper(trace, npy)``."""
    def argv(opfile, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(_continuation(opfile) + ["--out", str(trace)]) == 0
        tamper(trace, tmp_path / "trace.npy")
        return [command, "--trace", str(trace)]
    return argv


def _save_fields(change, digest=True):
    """A tamper that saves ``change(fields)`` as the trace's fields and,
    with ``digest``, names their sha256 in the trace."""
    def tamper(trace, npy):
        buf = io.BytesIO()
        np.save(buf, change(np.load(npy)))
        npy.write_bytes(buf.getvalue())
        if digest:
            doc = json.loads(trace.read_text())
            doc["meta"]["fields_sha256"] = hashlib.sha256(
                buf.getvalue()).hexdigest()
            trace.write_text(json.dumps(doc))
    return tamper


def _inline_values(trace, npy):
    """The steps carry their fields as "values", as an older pq wrote them."""
    doc = json.loads(trace.read_text())
    for s, values in zip(doc["steps"], np.load(npy)):
        s["values"] = values.tolist()
    trace.write_text(json.dumps(doc))


def _edit_trace(change):
    """A tamper that applies ``change`` to the trace's JSON document; the
    fields, and so their sha256, stay as they are."""
    def tamper(trace, npy):
        doc = json.loads(trace.read_text())
        change(doc)
        trace.write_text(json.dumps(doc))
    return tamper


def _dp_weight(command, coeffs):
    """``command`` on the double-phase descriptor whose affine weight has the
    coeffs ``coeffs``, JSON text in which 1e400 reads as inf."""
    def argv(opfile, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(DP_DESCRIPTOR).replace(
            "[1.0, 0.0]", f"[{coeffs}]"))
        if command == "check":
            return ["check", "--operator", str(path)]
        return _continuation(lambda desc: str(path))
    return argv


#: a box whose corners are finite but whose width 2e308 overflows
WIDE_BOX = {"min": [-1e308, 0], "max": [1e308, 1]}


def _descriptor_number(command, desc):
    """``command`` on the descriptor ``desc``."""
    def argv(opfile, tmp_path):
        if command == "check":
            return ["check", "--operator", opfile(desc)]
        return _continuation(opfile, op=desc)
    return argv


def _report_with_estimates(make_estimates):
    def argv(opfile, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(_continuation(opfile) + ["--out", str(trace)]) == 0
        return ["report", "--trace", str(trace), "--estimates",
                make_estimates(tmp_path)]
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
    "check-L-overflows": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--L", "1e308"],
    # seed 5 + 2**128 would draw seed 5's derivative-consistency plan
    "check-seed-2-128": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--seed", str(2 ** 128 + 5)],
    # the largest count is verify.MAX_SAMPLES = 10**9; no test runs a
    # check near it, whose base cloud alone would hold 72 GB
    "check-samples-above-max": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--samples", str(10 ** 9 + 1)],
    "check-samples-1e14": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--samples", str(10 ** 14)],
    "check-samples-1e18": lambda opfile, tmp_path: [
        "check", "--operator", opfile(PLAP3), "--samples", str(10 ** 18)],
    "solve-mesh-2d-1e7": lambda opfile, tmp_path: [
        "solve", "--operator", opfile(PLAP3), "--rhs", "constant:-2",
        "--mesh", "2d:10000000"],
    "continuation-mesh-2d-1e7": lambda opfile, tmp_path: _continuation(
        opfile) + ["--mesh", "2d:10000000"],
    "continuation-mesh-2d-1e19": lambda opfile, tmp_path: _continuation(
        opfile) + ["--mesh", "2d:10000000000000000000"],
    "mms-grid-1e7": lambda opfile, tmp_path: [
        "mms", "--operator", opfile(PLAP3), "--case", "sine2d",
        "--grids", "5,9,10000000"],
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
    "report-trace-without-steps": _bad_trace("report", {"p": 2}),
    "report-trace-steps-empty": _bad_trace("report", {"steps": []}),
    "report-trace-steps-not-objects": _bad_trace("report", {"steps": [1]}),
    "report-step-lp-gradient-string": _bad_trace(
        "report", {"steps": [{"lp_gradient": "1"}]}),
    "report-step-lp-gradient-nan": _bad_trace(
        "report", {"steps": [{"lp_gradient": float("nan")}]}),
    "report-step-lp-gradient-huge-int": _bad_trace(
        "report", {"steps": [{"lp_gradient": 10 ** 400}]}),
    "report-increments-not-comparable": _bad_trace("report", {"steps": [
        {"lp_gradient": 1, "cauchy_increment_w12": "a"},
        {"lp_gradient": 1, "cauchy_increment_w12": 1}]}),
    "continuation-schedule-underflows": lambda opfile, tmp_path:
        _continuation(opfile) + ["--schedule",
                                 "eps0=0.2,ratio=0.5,steps=2000"],
    "continuation-schedule-steps-1e15": lambda opfile, tmp_path:
        _continuation(opfile) + [
            "--schedule", "eps0=0.2,ratio=0.9999999999999999,steps=1e15"],
    "continuation-schedule-steps-100000": lambda opfile, tmp_path:
        _continuation(opfile) + ["--schedule",
                                 "eps0=0.2,ratio=0.999,steps=100000"],
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
    "descriptor-params-unknown-key": lambda opfile, tmp_path: [
        "check", "--operator", opfile({"family": "log", "p": 2, "q": 2.2,
                                       "params": {"surprise": 1}})],
    "descriptor-params-misspelt-weight-max": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**DP_DESCRIPTOR, "params": {
            **DP_DESCRIPTOR["params"], "wieght_max": 1.0}})],
    "descriptor-dim-3-two-coeffs": lambda opfile, tmp_path: [
        "check", "--operator", opfile({
            k: v for k, v in DP_DESCRIPTOR.items() if k != "domain"} | {
            "params": {**DP_DESCRIPTOR["params"], "dim": 3}})],
    "descriptor-dim-disagrees-with-domain": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**DP_DESCRIPTOR, "params": {
            **DP_DESCRIPTOR["params"], "dim": 3}})],
    "mesh-3d": lambda opfile, tmp_path: [
        "solve", "--operator", opfile({**PLAP3, "domain": {
            "min": [0, 0, 0], "max": [1, 1, 1]}}), "--rhs", "constant:-2",
        "--mesh", "3d:5"],
    "descriptor-dim-true": _params_dim(True),
    "descriptor-dim-float": _params_dim(2.0),
    "descriptor-dim-string": _params_dim("2"),
    "descriptor-dim-0": _params_dim(0),
    "descriptor-dim-negative": _params_dim(-1),
    "descriptor-domain-empty": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "domain": {}})],
    "rhs-constant-nan": lambda opfile, tmp_path: [
        "solve", "--operator", opfile(PLAP3), "--rhs", "constant:nan",
        "--mesh", "2d:9x9"],
    "rhs-constant-inf": lambda opfile, tmp_path: _continuation(
        opfile) + ["--rhs", "constant:inf"],
    "rhs-table-nan": _rhs_table_with_nan,
    "mms-case-unknown": lambda opfile, tmp_path: [
        "mms", "--operator", opfile(PLAP3), "--case", "nope",
        "--grids", "3,5,9"],
    "mms-case-of-other-dimension": lambda opfile, tmp_path: [
        "mms", "--operator", opfile(P1D), "--case", "sine2d",
        "--grids", "3,5,9"],
    "mms-grid-2": lambda opfile, tmp_path: [
        "mms", "--operator", opfile(PLAP3), "--case", "sine2d",
        "--grids", "2,5,9"],
    "continuation-mesh-too-coarse-for-delta": lambda opfile, tmp_path:
        _continuation(opfile) + ["--mesh", "2d:3x3"],
    "estimates-balls-without-elements": _estimates(
        2, "--rho", "0.01", "--R", "0.02"),
    "check-domain-width-overflows": lambda opfile, tmp_path: [
        "check", "--operator", opfile({**PLAP3, "domain": WIDE_BOX})],
    "continuation-domain-width-overflows": lambda opfile, tmp_path:
        _continuation(opfile, op={**DP_DESCRIPTOR, "domain": WIDE_BOX}),
    "check-weight-coeff-1e400": _dp_weight("check", "1e400, 0"),
    "continuation-weight-coeff-1e400": _dp_weight("continuation", "1e400, 0"),
    "check-weight-overflows": _dp_weight("check", "1e308, 1e308"),
    "continuation-weight-overflows": _dp_weight("continuation",
                                                "1e308, 1e308"),
    "check-pfun-overflows": lambda opfile, tmp_path: [
        "check", "--operator", opfile({
            "family": "variable-exponent",
            "params": {"pfun": {"type": "affine", "offset": 2.0,
                                "coeffs": [1e308, 1e308]},
                       "pmin": 2.0, "pmax": 2.2}})],
    # declared constants must be finite numbers, and m and M positive;
    # 1e400 reads as inf, and a bool is not a number
    **{f"{command}-{name}": _descriptor_number(command, desc)
       for command in ("check", "continuation")
       for name, desc in (
           ("M-inf", {**PLAP3, "M": 1e400}),
           ("m-inf", {**PLAP3, "m": 1e400}),
           ("m-negative", {**PLAP3, "m": -1}),
           ("m-0", {**PLAP3, "m": 0}),
           ("M-true", {**PLAP3, "M": True}),
           ("p-int-past-float", {**PLAP3, "p": 10 ** 400}),
           ("M-int-past-float", {**PLAP3, "M": 10 ** 400}),
           ("weight-max-inf", {**DP_DESCRIPTOR, "params": {
               **DP_DESCRIPTOR["params"], "weight_max": 1e400}}),
           ("weight-max-string", {**DP_DESCRIPTOR, "params": {
               **DP_DESCRIPTOR["params"], "weight_max": "1"}}))},
    "descriptor-domain-nan": lambda opfile, tmp_path: [
        "check", "--operator",
        opfile({**PLAP3, "domain": {"min": [0, 0], "max": [1, "nan"]}})],
    "continuation-newton-tol-inf": lambda opfile, tmp_path: _continuation(
        opfile) + ["--newton-tol", "inf"],
    "solve-newton-tol-inf": lambda opfile, tmp_path: [
        "solve", "--operator", opfile(PLAP3), "--rhs", "constant:-2",
        "--mesh", "2d:9x9", "--newton-tol", "inf"],
    "mms-newton-tol-inf": lambda opfile, tmp_path: [
        "mms", "--operator", opfile(PLAP3), "--case", "sine2d",
        "--grids", "9,17,33", "--newton-tol", "inf"],
    "estimates-R-inf": _estimates(2, "--R", "inf"),
    "estimates-R-1e308": _estimates(2, "--R", "1e308"),
    "estimates-R-half-width": _estimates(2, "--R", "0.5"),
    "operator-directory": lambda opfile, tmp_path: [
        "check", "--operator", str(tmp_path)],
    "operator-not-utf8": lambda opfile, tmp_path: [
        "check", "--operator", _not_utf8(tmp_path)],
    "rhs-file-not-utf8": lambda opfile, tmp_path: _continuation(
        opfile) + ["--rhs", f"file:{_not_utf8(tmp_path)}"],
    "rhs-table-values-string": _rhs_table("abc"),
    "rhs-table-values-mixed": _rhs_table([1, "a"]),
    "rhs-table-without-values": lambda opfile, tmp_path: _continuation(
        opfile) + ["--rhs", f"file:{opfile({'type': 'table'}, 'rhs.json')}"],
    "report-trace-not-utf8": lambda opfile, tmp_path: [
        "report", "--trace", _not_utf8(tmp_path)],
    "report-estimates-not-utf8": _report_with_estimates(_not_utf8),
    "report-estimates-field-too-large": _report_with_estimates(_huge_field),
    "continuation-out-is-its-csv": lambda opfile, tmp_path: _continuation(
        opfile),
    "continuation-out-is-its-npy": lambda opfile, tmp_path: _continuation(
        opfile),
    "operator-nested-too-deep": lambda opfile, tmp_path: [
        "check", "--operator", _deep(tmp_path)],
    "estimates-trace-nested-too-deep": lambda opfile, tmp_path: [
        "estimates", "--trace", _deep(tmp_path)],
    "report-trace-nested-too-deep": lambda opfile, tmp_path: [
        "report", "--trace", _deep(tmp_path)],
    "rhs-file-nested-too-deep": lambda opfile, tmp_path: _continuation(
        opfile) + ["--rhs", f"file:{_deep(tmp_path)}"],
    "estimates-fields-missing": _traced(
        "estimates", lambda trace, npy: npy.unlink()),
    "estimates-fields-wrong-shape": _traced(
        "estimates", _save_fields(lambda f: f[:, :-1])),
    "estimates-fields-wrong-dtype": _traced(
        "estimates", _save_fields(lambda f: f.astype(np.float32))),
    "estimates-fields-stale": _traced(
        "estimates", _save_fields(lambda f: f + 1.0, digest=False)),
    "estimates-trace-with-inline-values": _traced("estimates",
                                                  _inline_values),
    "report-trace-with-inline-values": _traced("report", _inline_values),
    "estimates-trace-p-string": _traced(
        "estimates", _edit_trace(lambda d: d.update(p="2"))),
    "estimates-trace-q-null": _traced(
        "estimates", _edit_trace(lambda d: d.update(q=None))),
    "estimates-trace-delta-string": _traced(
        "estimates", _edit_trace(lambda d: d.update(delta="x"))),
    "estimates-step-eps-string": _traced(
        "estimates", _edit_trace(lambda d: d["steps"][1].update(eps="x"))),
    "estimates-step-lp-gradient-null": _traced(
        "estimates",
        _edit_trace(lambda d: d["steps"][0].update(lp_gradient=None))),
    "report-trace-p-true": _traced(
        "report", _edit_trace(lambda d: d.update(p=True))),
    "report-step-h2-interior-inf": _traced(
        "report",
        _edit_trace(lambda d: d["steps"][1].update(h2_interior=float("inf")))),
}

#: cases whose --out is not the default name
OUT_NAMES = {"continuation-out-is-its-csv": "out.csv",
             "continuation-out-is-its-npy": "out.npy"}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3(opfile, tmp_path, capsys, case):
    argv = MALFORMED[case](opfile, tmp_path)
    capsys.readouterr()
    out = (tmp_path / ("missing" if case.startswith("out") else ".")
           / OUT_NAMES.get(case, "out"))
    files = sorted(tmp_path.rglob("*"))
    rc = main(argv + ["--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error") and "\n" not in err
    assert "Traceback" not in err
    assert not out.exists()
    assert sorted(tmp_path.rglob("*")) == files


TRACE_KEYS = {"p", "q", "delta", "schedule", "mesh", "meta", "steps"}


def test_trace_json_holds_the_steps_and_nothing_derived(opfile, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(_continuation(opfile, steps=3) + ["--out", str(trace)]) == 0
    assert set(json.loads(trace.read_text())) == TRACE_KEYS


def _keep_traces(monkeypatch) -> list:
    """The traces that pq continuation solves from now on."""
    traces = []
    run = pqelliptic.cli.continuation_solve

    def keep(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(pqelliptic.cli, "continuation_solve", keep)
    return traces


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_trace_json_equals_one_shot_encoding(opfile, tmp_path, monkeypatch,
                                             steps):
    traces = _keep_traces(monkeypatch)
    out = tmp_path / "trace.json"
    assert main(_continuation(opfile, steps) + ["--out", str(out)]) == 0
    assert out.read_bytes() == (json.dumps(traces[0].to_dict())
                                + "\n").encode()
    assert all("values" not in s for s in json.loads(out.read_text())["steps"])


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_trace_npy_rows_are_the_solved_fields(opfile, tmp_path, monkeypatch,
                                              steps):
    traces = _keep_traces(monkeypatch)
    out = tmp_path / "trace.json"
    assert main(_continuation(opfile, steps) + ["--out", str(out)]) == 0
    data = (tmp_path / "trace.npy").read_bytes()
    fields = np.load(io.BytesIO(data), allow_pickle=False)
    assert fields.dtype == np.float64 and fields.shape == (steps, 81)
    for row, s in zip(fields, traces[0].steps, strict=True):
        assert row.tobytes() == s.field.values.tobytes()
    doc = json.loads(out.read_text())
    assert doc["meta"]["fields_sha256"] == hashlib.sha256(data).hexdigest()


def test_trace_round_trips_through_json_and_npy(opfile, tmp_path,
                                                monkeypatch):
    traces = _keep_traces(monkeypatch)
    out = tmp_path / "trace.json"
    assert main(_continuation(opfile, 3) + ["--out", str(out)]) == 0
    back = pqelliptic.solvers.ContinuationTrace.from_dict(
        json.loads(out.read_text()), np.load(tmp_path / "trace.npy"))
    assert back.to_dict() == traces[0].to_dict()
    for a, b in zip(back.steps, traces[0].steps, strict=True):
        assert a.field.values.tobytes() == b.field.values.tobytes()


def test_trace_of_an_older_pq_exits_3(opfile, tmp_path, capsys):
    # the steps of an older trace carry their fields as "values" beside the
    # final_values and extrapolated_values keys: both readers refuse it
    # with one line and write nothing
    trace = tmp_path / "trace.json"
    assert main(_continuation(opfile, steps=3) + ["--out", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    fields = np.load(tmp_path / "trace.npy")
    (e_km1, u_km1), (e_k, u_k) = [(s["eps"], v) for s, v in zip(
        doc["steps"][-2:], fields[-2:])]
    old = tmp_path / "old" / "trace.json"
    old.parent.mkdir()
    old.write_text(json.dumps({
        **doc, "steps": [{**s, "values": v.tolist()}
                         for s, v in zip(doc["steps"], fields)],
        "final_values": u_k.tolist(),
        "extrapolated_values": (
            u_k + (u_k - u_km1) * (e_k / (e_km1 - e_k))).tolist()}) + "\n")
    capsys.readouterr()
    for command in ("estimates", "report"):
        out = old.parent / "out"
        assert main([command, "--trace", str(old), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip()
        assert err.endswith("written by an older pq; rerun continuation")
        assert "\n" not in err and not out.exists()


def test_report_never_reads_the_fields(opfile, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(_continuation(opfile, steps=3) + ["--out", str(trace)]) == 0
    reports = []
    for name in ("with.json", "without.json"):
        assert main(["report", "--trace", str(trace), "--out",
                     str(tmp_path / name)]) == 0
        reports.append((tmp_path / name).read_bytes())
        (tmp_path / "trace.npy").unlink(missing_ok=True)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_outputs_have_the_mode_of_a_plain_open(opfile, tmp_path, umask):
    trace = tmp_path / "trace.json"
    old = os.umask(umask)
    try:
        assert main(_continuation(opfile) + ["--out", str(trace)]) == 0
        assert main(["report", "--trace", str(trace), "--out",
                     str(tmp_path / "report.json")]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    mode = (tmp_path / "plain").stat().st_mode
    for name in ("trace.json", "trace.npy", "trace.csv", "report.json"):
        assert (tmp_path / name).stat().st_mode == mode, name


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


def test_identical_runs_in_one_process_give_identical_files(opfile,
                                                            tmp_path):
    # two identical runs in one process; the BLAS thread count is varied
    # across processes in test_trace_bits_do_not_depend_on_blas_threads
    op = opfile(DP_DESCRIPTOR)
    outs = {}
    for run in ("1", "2"):
        d = tmp_path / f"run{run}"
        d.mkdir()
        rc = main(["continuation", "--operator", op, "--rhs", "constant:-2",
                   "--mesh", "2d:17x17", "--schedule",
                   "eps0=0.2,ratio=0.5,steps=3",
                   "--out", str(d / "trace.json")])
        assert rc == 0
        rc = main(["check", "--operator", op, "--samples", "3000",
                   "--seed", "5", "--out", str(d / "report.json")])
        assert rc == 0
        outs[run] = d
    for name in ("trace.json", "trace.npy", "trace.csv", "report.json"):
        a = (outs["1"] / name).read_bytes()
        b = (outs["2"] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_trace_bits_do_not_depend_on_blas_threads(opfile, tmp_path):
    # at 129x129 the vectors are long enough for a threaded BLAS ddot to
    # split its sum; at 33x33 and 65x65 it did not
    src = Path(__file__).resolve().parents[1] / "src"
    op = opfile(DP_DESCRIPTOR)
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}" / "trace.json"
        out.parent.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "pqelliptic.cli", "continuation",
             "--operator", op, "--rhs", "constant:-2", "--mesh", "2d:129x129",
             "--schedule", "eps0=0.2", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[threads] = {
            name: hashlib.sha256((out.parent / name).read_bytes()).hexdigest()
            for name in ("trace.json", "trace.npy", "trace.csv")}
    for name, digest in digests["1"].items():
        assert digests["2"][name] == digest, \
            f"{name} differs between 1 and 2 BLAS threads"


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


def _junk_or(draw, well_formed, junk):
    """``well_formed``, or sometimes a draw from ``junk``."""
    return draw(junk) if draw(_SOMETIMES) else well_formed


def _grids(sizes):
    return ",".join(map(str, sizes))


@st.composite
def _argv(draw):
    """(command, descriptor, flags): mostly well-formed arguments of
    continuation (half the draws, as it chains estimates and report), solve,
    mms or check, each part sometimes junk."""
    command = draw(st.sampled_from(["continuation"] * 3
                                   + ["solve", "mms", "check"]))
    desc = dict(draw(st.sampled_from(_OPERATORS)))
    dim = len(desc["domain"]["min"])
    if draw(_SOMETIMES):
        key = draw(st.sampled_from(["family", "p", "q", "m", "domain",
                                    "params", "extra"]))
        desc[key] = draw(_JUNK)
    sizes = draw(st.lists(st.integers(3, 9), min_size=dim, max_size=dim))
    mesh = _junk_or(draw, f"{dim}d:" + "x".join(map(str, sizes)), st.one_of(
        st.text(max_size=5), st.builds(
            lambda kind, sizes: f"{kind}:" + "x".join(map(str, sizes)),
            st.sampled_from(["1d", "2d", "3d", ""]),
            st.lists(st.integers(-1, 9), min_size=1, max_size=3))))
    schedule = _junk_or(draw, "eps0={},ratio={},steps={}".format(
        draw(st.sampled_from([0.2, 0.05])), draw(st.sampled_from([0.5, 0.25])),
        draw(st.integers(1, 3))), st.one_of(st.text(max_size=5), st.builds(
            "eps0={},ratio={},steps={}".format, _JUNK, _JUNK, _JUNK)))
    rhs = _junk_or(draw, draw(st.sampled_from([
        "constant:-2", "constant:0", "constant:3", "manufactured:sine2d"])),
        st.one_of(st.text(max_size=5), st.builds(
            "{}:{}".format, st.sampled_from(["constant", "manufactured",
                                             "file"]), _JUNK)))
    if command == "continuation":
        flags = [f"--mesh={mesh}", f"--schedule={schedule}", f"--rhs={rhs}"]
    elif command == "solve":
        start = draw(st.sampled_from(["presolve", "zero"]))
        flags = [f"--mesh={mesh}", f"--rhs={rhs}", f"--start={start}"]
    elif command == "mms":
        case = _junk_or(draw, draw(st.sampled_from(
            ["sine2d", "bump2d", "quad1d"])), st.one_of(st.text(max_size=5),
                                                      _JUNK.map(str)))
        grids = _junk_or(draw, _grids(draw(st.sampled_from(
            [(3, 5, 9), (5, 9, 17), (3, 5, 9, 17)]))), st.one_of(
            st.text(max_size=5), st.lists(st.integers(-1, 17), min_size=1,
                                          max_size=4).map(_grids)))
        flags = [f"--case={case}", f"--grids={grids}"]
    else:
        flags = [f"--samples={draw(st.integers(1, 200))}"]
        if draw(_SOMETIMES):
            flag = draw(st.sampled_from(["--samples", "--seed", "--L",
                                         "--gamma", "--s0"]))
            flags.append(f"{flag}={draw(_JUNK)}")
    return command, desc, flags


def _run(argv, out):
    """main's exit code; it prints no traceback, and an exit of 2 or 3
    leaves no --out file (a failed verdict, 1, writes its full report)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv + [f"--out={out}"])
        except SystemExit as exc:  # argparse usage error
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc >= 2:
        assert not os.path.exists(out), argv
    return rc


# on a failure, Hypothesis imports libcst, which warns about mypy_extensions
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=_argv())
def test_exit_code_contract_property(case):
    command, desc, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        op = os.path.join(tmp, "op.json")
        with open(op, "w") as fh:
            json.dump(desc, fh)
        trace = os.path.join(tmp, "trace.json")
        rc = _run([command, f"--operator={op}", *flags], trace)
        if command != "continuation":
            return
        if rc != 0:
            assert not os.path.exists(os.path.join(tmp, "trace.csv"))
            return
        _run(["estimates", f"--trace={trace}"],
             os.path.join(tmp, "estimates.csv"))
        _run(["report", f"--trace={trace}"], os.path.join(tmp, "report.json"))
