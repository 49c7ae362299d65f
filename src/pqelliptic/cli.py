"""Command-line entry point.

Subcommands: check, solve, continuation, estimates, mms, report.  All data
goes to files (written atomically); diagnostics go to standard error.
Exit codes: 0 success, 1 verification failure, 2 numerical failure,
3 configuration error.  Outputs embed no timestamps or thread counts, so
identical configurations and seeds reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
import tempfile

import numpy as np

from .errors import (ConfigError, InvalidExponents, MeshError,
                     NonConvergence, NonnegativityViolation, PQError,
                     QuadratureFailure, SingularJacobian, Unsupported)
from .estimates import build_estimate_report, lp_ratio
from .fem import build_mesh, zero_field
from .mms import builtin_case, convergence_study
from .operators import operator_from_descriptor, validate_assumptions
from .solvers import (ContinuationTrace, EpsilonSchedule, NewtonConfig,
                      continuation_solve, newton_solve, p2_presolve)
from .verify import SampleConfig, run_structure_checks

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# atomic output helpers

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pq-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    # compact: with ``indent`` json falls back to its pure-Python encoder
    _atomic_write(path, json.dumps(payload) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % float(value)


def write_csv(path: str, columns: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    _atomic_write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# config parsing

def load_operator(path: str):
    try:
        with open(path) as fh:
            desc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"operator file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed operator JSON: {exc}") from exc
    return operator_from_descriptor(desc)


def parse_mesh_spec(spec: str, box):
    """'1d:N' or '2d:NXxNY' on the operator's domain box."""
    try:
        kind, _, sizes = spec.partition(":")
        if kind == "1d":
            nodes = (int(sizes),)
            dim = 1
        elif kind == "2d":
            parts = sizes.lower().split("x")
            nodes = tuple(int(p) for p in parts)
            if len(nodes) == 1:
                nodes = nodes * 2
            dim = 2
        else:
            raise ValueError(spec)
    except ValueError as exc:
        raise ConfigError(f"bad mesh spec {spec!r}; use '1d:N' or '2d:NxM'") from exc
    if box.dim != dim:
        raise ConfigError(
            f"mesh spec {spec!r} does not match operator domain (dim {box.dim})")
    try:
        return build_mesh(dim, box, nodes)
    except MeshError as exc:
        raise ConfigError(f"bad mesh spec {spec!r}: {exc}") from exc


def parse_schedule(spec: str) -> EpsilonSchedule:
    """'eps0=0.2,ratio=0.5,steps=5'."""
    fields = {}
    try:
        for part in spec.split(","):
            key, _, val = part.partition("=")
            fields[key.strip()] = float(val)
    except ValueError as exc:
        raise ConfigError(f"bad schedule spec {spec!r}") from exc
    extra = set(fields) - {"eps0", "ratio", "steps"}
    if extra or "eps0" not in fields:
        raise ConfigError(f"bad schedule spec {spec!r}")
    steps = fields.get("steps", 5)
    if not np.all(np.isfinite(list(fields.values()))) or steps != int(steps):
        raise ConfigError(f"bad schedule spec {spec!r}: values must be "
                          "finite and steps an integer")
    return EpsilonSchedule(eps0=fields["eps0"], ratio=fields.get("ratio", 0.5),
                           steps=int(steps))


def newton_config(tol: float) -> NewtonConfig:
    try:
        return NewtonConfig(abs_tol=tol)
    except ValueError as exc:
        raise ConfigError(f"bad --newton-tol {tol!r}: {exc}") from exc


def parse_rhs(spec: str, op, mesh):
    """'constant:V', 'manufactured:CASE', or 'file:PATH' (nodal table)."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        try:
            value = float(arg)
        except ValueError as exc:
            raise ConfigError(f"bad constant rhs {spec!r}") from exc

        def b(x):
            return np.full(np.shape(x)[:-1], value)
        return b
    if kind == "manufactured":
        try:
            return builtin_case(arg, op).b_field
        except PQError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "file":
        try:
            with open(arg) as fh:
                table = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad rhs table {arg!r}: {exc}") from exc
        extra = set(table) - {"type", "values"}
        if extra or table.get("type") != "table":
            raise ConfigError("rhs file must be {'type': 'table', 'values': [...]}")
        values = np.asarray(table["values"], float)
        if mesh is None or values.shape != (mesh.n_nodes,):
            raise ConfigError("rhs table length does not match the mesh")
        return values
    raise ConfigError(f"bad rhs spec {spec!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.L) and args.L > 0):
        raise ConfigError(f"--L must be a finite number > 0, got {args.L}")
    for flag, value in (("--gamma", args.gamma), ("--s0", args.s0)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    op = load_operator(args.operator)
    cfg = SampleConfig(seed=args.seed, count=args.samples,
                       threads=args.threads)
    report = validate_assumptions(op, n=op.dim, gamma=args.gamma, s0=args.s0)
    structural = run_structure_checks(op, cfg, L=args.L)
    report.extend(structural)
    report.meta.update(structural.meta)
    if args.out:
        write_json(args.out, report.to_dict())
    for entry in report.entries:
        status = "pass" if entry.passed else "FAIL"
        print(f"{entry.condition_id}: {status} "
              f"(margin {entry.worst_margin:.3e})", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _solution_payload(mesh, U, stats) -> dict:
    return {"mesh": mesh.to_dict(), "values": U.values.tolist(),
            "stats": stats.to_dict()}


def cmd_solve(args) -> int:
    op = load_operator(args.operator)
    mesh = parse_mesh_spec(args.mesh, op.domain)
    b = parse_rhs(args.rhs, op, mesh)
    cfg = newton_config(args.newton_tol)
    U0 = p2_presolve(mesh, b) if args.start == "presolve" else zero_field(mesh)
    U, stats = newton_solve(mesh, op, b, U0, cfg)
    if args.out:
        write_json(args.out, _solution_payload(mesh, U, stats))
    print(f"solve: {stats.iterations} iterations, residual "
          f"{stats.residual_norm:.3e}", file=sys.stderr)
    return EXIT_OK


TRACE_COLUMNS = ["step", "eps", "newton_iterations", "newton_residual",
                 "lp_gradient", "linf_u_interior", "linf_gradient_interior",
                 "h2_seminorm_interior", "cauchy_increment_w12"]


def trace_csv_rows(trace: ContinuationTrace) -> list:
    rows = []
    for k, s in enumerate(trace.steps):
        rows.append({"step": k, "eps": s.eps,
                     "newton_iterations": s.stats.iterations,
                     "newton_residual": s.stats.residual_norm,
                     "lp_gradient": s.lp_gradient,
                     "linf_u_interior": s.linf_u_interior,
                     "linf_gradient_interior": s.linf_gradient_interior,
                     "h2_seminorm_interior": s.h2_interior,
                     "cauchy_increment_w12": s.cauchy_increment})
    return rows


def cmd_continuation(args) -> int:
    if not 0.0 <= args.delta < 0.5:
        raise ConfigError(f"--delta must lie in [0, 0.5), got {args.delta}")
    op = load_operator(args.operator)
    if op.descriptor is None:
        raise ConfigError("continuation needs a descriptor-built operator")
    mesh = parse_mesh_spec(args.mesh, op.domain)
    b = parse_rhs(args.rhs, op, mesh)
    schedule = parse_schedule(args.schedule)
    cfg = newton_config(args.newton_tol)
    width = float(np.min(np.asarray(mesh.box.widths)))
    delta = args.delta * width if args.delta else None
    meta = {"operator": op.descriptor, "rhs": args.rhs}
    trace = continuation_solve(mesh, op, b, schedule, cfg, delta=delta,
                               meta=meta)
    if args.out:
        write_json(args.out, trace.to_dict())
        stem, _ = os.path.splitext(args.out)
        write_csv(stem + ".csv", TRACE_COLUMNS, trace_csv_rows(trace))
    last = trace.steps[-1]
    print(f"continuation: {len(trace.steps)} steps down to eps="
          f"{last.eps:.4g}, |Du|_p={last.lp_gradient:.6g}", file=sys.stderr)
    return EXIT_OK


ESTIMATE_COLUMNS = ["eps", "lp_grad", "bracket", "ratio", "c_gradient",
                    "c_hessian", "alpha", "pstar"]


def _read_trace(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad trace file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"bad trace file {path!r}: not a JSON object")
    return doc


def cmd_estimates(args) -> int:
    if not (math.isfinite(args.lp_bound) and args.lp_bound > 0):
        raise ConfigError(
            f"--lp-bound must be a finite number > 0, got {args.lp_bound}")
    try:
        trace = ContinuationTrace.from_dict(_read_trace(args.trace))
        opdesc, rhs = trace.meta.get("operator"), trace.meta.get("rhs")
    except (AttributeError, KeyError, TypeError, ValueError,
            MeshError) as exc:
        raise ConfigError(f"bad trace file {args.trace!r}: {exc}") from exc
    if not opdesc or not rhs:
        raise ConfigError("trace carries no operator/rhs descriptors")
    if len(trace.steps) < 2:
        raise ConfigError("estimates need a trace of at least two eps steps")
    op = operator_from_descriptor(opdesc)
    b = parse_rhs(rhs, op, trace.mesh)
    report = build_estimate_report(trace, op, b, rho_frac=args.rho,
                                   R_frac=args.R, lp_bound=args.lp_bound)
    rows = [{"eps": r["eps"], "lp_grad": r["lp_grad"],
             "bracket": r["bracket"], "ratio": r["ratio"],
             "c_gradient": r["c_gradient"], "c_hessian": r["c_hessian"],
             "alpha": r["alpha"], "pstar": r["pstar"]}
            for r in report.rows]
    if args.out:
        write_csv(args.out, ESTIMATE_COLUMNS, rows)
    uni = report.uniformity
    print(f"estimates: lp ratio {uni.ratio:.4g} "
          f"({'pass' if uni.verdict else 'FAIL'} at {uni.bound})",
          file=sys.stderr)
    return EXIT_OK if uni.verdict else EXIT_VERIFICATION


MMS_COLUMNS = ["n", "h", "l2_error", "w12_error", "l2_order", "w12_order"]


def cmd_mms(args) -> int:
    op = load_operator(args.operator)
    try:
        grids = [int(v) for v in args.grids.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad grid list {args.grids!r}") from exc
    cfg = newton_config(args.newton_tol)
    try:
        result = convergence_study(op, args.case, grids, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = result.to_dicts()
    if args.out:
        write_csv(args.out, MMS_COLUMNS, rows)
    for row in rows:
        print(f"n={row['n']} L2={row['l2_error']:.4e} "
              f"W12={row['w12_error']:.4e}", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    trace_doc = _read_trace(args.trace)
    estimates_rows = []
    if args.estimates:
        try:
            with open(args.estimates, newline="") as fh:
                estimates_rows = list(csv.DictReader(fh))
        except OSError as exc:
            raise ConfigError(f"bad estimates file: {exc}") from exc
    steps = trace_doc.get("steps", [])
    try:
        lp = [s["lp_gradient"] for s in steps]
        ratio = lp_ratio(lp) if lp else None
        operator = (trace_doc.get("meta") or {}).get("operator")
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad trace file {args.trace!r}: {exc}") from exc
    increments = [s.get("cauchy_increment_w12") for s in steps
                  if s.get("cauchy_increment_w12") is not None]
    summary = {
        "schedule": trace_doc.get("schedule"),
        "mesh": trace_doc.get("mesh"),
        "operator": operator,
        "steps": [{k: s[k] for k in s if k != "values"} for s in steps],
        "lp_gradient_ratio": ratio,
        "increments_strictly_decreasing": all(
            a > b for a, b in zip(increments, increments[1:])),
        "estimates": estimates_rows,
    }
    if args.out:
        write_json(args.out, summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pq",
        description="Workbench for divergence-form elliptic problems with "
                    "(p,q)-growth: structural verification, epsilon-"
                    "continuation solves and a priori estimate tracking.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads (outputs are identical for any N)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run structural assumption checks")
    p.add_argument("--operator", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--s0", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", parents=[common], help="single Newton solve")
    p.add_argument("--operator", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--start", choices=("presolve", "zero"), default="presolve")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("continuation", parents=[common], help="epsilon-continuation run")
    p.add_argument("--operator", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--delta", type=float, default=0.25,
                   help="interior margin as a fraction of the box width")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_continuation)

    p = sub.add_parser("estimates", parents=[common], help="estimate constants from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--rho", type=float, default=0.25,
                   help="inner ball radius / min box width")
    p.add_argument("--R", type=float, default=0.4,
                   help="outer ball radius / min box width")
    p.add_argument("--lp-bound", type=float, default=1.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimates)

    p = sub.add_parser("mms", parents=[common], help="manufactured-solution convergence study")
    p.add_argument("--operator", required=True)
    p.add_argument("--case", required=True)
    p.add_argument("--grids", required=True)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("report", parents=[common], help="merge a trace and estimates CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--estimates", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("PQ_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr,
                        level=levels.get(level, logging.WARNING),
                        format="%(name)s %(levelname)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigError(f"--out directory does not exist: {out}")
        return args.func(args)
    except (ConfigError, InvalidExponents, NonnegativityViolation) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, SingularJacobian, QuadratureFailure, MeshError,
            Unsupported) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
