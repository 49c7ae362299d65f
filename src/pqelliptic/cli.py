"""Command-line entry point.

Subcommands: check, solve, continuation, estimates, mms, report.  All data
goes to files (written atomically); diagnostics go to standard error.
``continuation --out trace.json`` writes the step fields to ``trace.npy``,
then ``trace.json`` naming its sha256, then ``trace.csv``.
Exit codes: 0 success, 1 verification failure, 2 numerical failure,
3 configuration error.  Outputs embed no timestamps, so identical
configurations and seeds reproduce byte-identical files.
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
from pathlib import Path

import numpy as np

from .errors import (ConfigError, InconsistentExactData, InvalidExponents,
                     MeshError, NonConvergence, NonnegativityViolation,
                     PQError, QuadratureFailure, SingularJacobian)
from .estimates import build_estimate_report, lp_ratio
from .fem import build_mesh, zero_field, _b_at_quad
from .mms import builtin_case, convergence_study
from .operators import operator_from_descriptor, validate_assumptions
from .solvers import (ContinuationTrace, EpsilonSchedule, NewtonConfig,
                      _LinearSolves, continuation_solve, interior_margin,
                      newton_solve, p2_presolve)
from .verify import SampleConfig, run_structure_checks

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# atomic output helpers

def _atomic_write(path: str, data) -> None:
    """Write the str or bytes ``data`` atomically, in open()'s file mode."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pq-tmp-")
    try:
        os.umask(umask := os.umask(0))  # read it, then put it back
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    """Compact JSON: with ``indent`` json takes its pure-Python encoder."""
    _atomic_write(path, json.dumps(payload) + "\n")


def _sha256(data: bytes) -> str:
    import hashlib  # here: its import takes 5 ms, and only traces hash
    return hashlib.sha256(data).hexdigest()


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

def _read_json(path: str, what: str):
    """The JSON document in ``path``.  Unreadable (OSError), non-UTF-8
    (ValueError) or too deeply nested JSON (RecursionError) is a config
    error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"bad {what} file {path!r}: {exc}") from exc


def load_operator(path: str):
    return operator_from_descriptor(_read_json(path, "operator"))


def parse_mesh_spec(spec: str, box):
    """'Nd:N0[xN1...]' on the operator's domain box; one size is used on
    every axis."""
    kind, _, sizes = spec.partition(":")
    try:
        if not kind.endswith("d"):
            raise ValueError(spec)
        dim = int(kind[:-1])
        nodes = tuple(int(p) for p in sizes.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad mesh spec {spec!r}; use 'Nd:N0[xN1...]', "
                          "e.g. '1d:33' or '2d:33x17'") from exc
    if box.dim != dim:
        raise ConfigError(
            f"mesh spec {spec!r} does not match operator domain (dim {box.dim})")
    try:
        return build_mesh(dim, box, nodes * dim if len(nodes) == 1 else nodes)
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
    """'constant:V', 'manufactured:CASE', or 'file:PATH' (nodal table); a
    constant or a table must be finite."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        try:
            value = float(arg)
        except ValueError as exc:
            raise ConfigError(f"bad constant rhs {spec!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"constant rhs must be finite, got {spec!r}")

        def b(x):
            return np.full(np.shape(x)[:-1], value)
        return b
    if kind == "manufactured":
        try:
            return builtin_case(arg, op).b_field
        except PQError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "file":
        table = _read_json(arg, "rhs table")
        if not (isinstance(table, dict) and set(table) == {"type", "values"}
                and table["type"] == "table"):
            raise ConfigError("rhs file must be {'type': 'table', 'values': [...]}")
        try:
            values = np.asarray(table["values"], float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"rhs table {arg!r} values must be numbers: "
                              f"{exc}") from exc
        if mesh is None or values.shape != (mesh.n_nodes,):
            raise ConfigError("rhs table length does not match the mesh")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"rhs table {arg!r} has non-finite values")
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
    cfg = SampleConfig(seed=args.seed, count=args.samples)
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


def cmd_solve(args) -> int:
    op = load_operator(args.operator)
    mesh = parse_mesh_spec(args.mesh, op.domain)
    b = parse_rhs(args.rhs, op, mesh)
    cfg = newton_config(args.newton_tol)
    solves = _LinearSolves(mesh)
    b = _b_at_quad(mesh, b)
    U0 = (p2_presolve(mesh, b, solves=solves) if args.start == "presolve"
          else zero_field(mesh))
    U, stats = newton_solve(mesh, op, b, U0, cfg, solves=solves)
    if args.out:
        write_json(args.out, {"mesh": mesh.to_dict(),
                              "values": U.values.tolist(),
                              "stats": stats.to_dict()})
    print(f"solve: {stats.iterations} iterations, residual "
          f"{stats.residual_norm:.3e}", file=sys.stderr)
    return EXIT_OK


TRACE_COLUMNS = ["step", "eps", "newton_iterations", "newton_residual",
                 "lp_gradient", "linf_u_interior", "linf_gradient_interior",
                 "h2_seminorm_interior", "cauchy_increment_w12"]


def trace_csv_rows(trace: ContinuationTrace) -> list:
    return [{"step": k, "eps": s.eps, "newton_iterations": s.stats.iterations,
             "newton_residual": s.stats.residual_norm,
             "lp_gradient": s.lp_gradient,
             "linf_u_interior": s.linf_u_interior,
             "linf_gradient_interior": s.linf_gradient_interior,
             "h2_seminorm_interior": s.h2_interior,
             "cauchy_increment_w12": s.cauchy_increment}
            for k, s in enumerate(trace.steps)]


def _beside_trace(path: str) -> tuple:
    """The step fields and the CSV written beside the trace ``path``."""
    stem, _ = os.path.splitext(path)
    return stem + ".npy", stem + ".csv"


def cmd_continuation(args) -> int:
    if not 0.0 <= args.delta < 0.5:
        raise ConfigError(f"--delta must lie in [0, 0.5), got {args.delta}")
    if args.out and args.out in _beside_trace(args.out):
        raise ConfigError(f"--out {args.out!r} names a file written beside "
                          "the trace; give it another extension, e.g. .json")
    op = load_operator(args.operator)
    if op.descriptor is None:
        raise ConfigError("continuation needs a descriptor-built operator")
    mesh = parse_mesh_spec(args.mesh, op.domain)
    b = parse_rhs(args.rhs, op, mesh)
    schedule = parse_schedule(args.schedule)
    cfg = newton_config(args.newton_tol)
    width = float(np.min(np.asarray(mesh.box.widths)))
    try:  # the tracked norms need it, so it is checked before any solve
        delta = interior_margin(mesh, args.delta * width if args.delta
                                else None)
    except MeshError as exc:
        raise ConfigError(f"mesh {args.mesh!r} too coarse for the interior "
                          f"margin: {exc}") from exc
    meta = {"operator": op.descriptor, "rhs": args.rhs}
    trace = continuation_solve(mesh, op, b, schedule, cfg, delta=delta,
                               meta=meta)
    if args.out:
        npy, csv_path = _beside_trace(args.out)
        buf = io.BytesIO()
        np.save(buf, np.stack([s.field.values for s in trace.steps]),
                allow_pickle=False)
        fields = buf.getvalue()
        trace.meta["fields_sha256"] = _sha256(fields)
        _atomic_write(npy, fields)
        write_json(args.out, trace.to_dict())
        write_csv(csv_path, TRACE_COLUMNS, trace_csv_rows(trace))
    last = trace.steps[-1]
    print(f"continuation: {len(trace.steps)} steps down to eps="
          f"{last.eps:.4g}, |Du|_p={last.lp_gradient:.6g}", file=sys.stderr)
    return EXIT_OK


ESTIMATE_COLUMNS = ["eps", "lp_grad", "bracket", "ratio", "c_gradient",
                    "c_hessian", "alpha", "pstar"]


def _read_trace(path: str) -> dict:
    """The trace in ``path``, refused if its steps carry inline fields."""
    doc = _read_json(path, "trace")
    if not isinstance(doc, dict):
        raise ConfigError(f"bad trace file {path!r}: not a JSON object")
    steps = doc.get("steps")
    if isinstance(steps, list) and any("values" in s for s in steps
                                       if isinstance(s, dict)):
        raise ConfigError(f"trace file {path!r} was written by an older pq; "
                          "rerun continuation")
    return doc


def cmd_estimates(args) -> int:
    if not (math.isfinite(args.lp_bound) and args.lp_bound > 0):
        raise ConfigError(
            f"--lp-bound must be a finite number > 0, got {args.lp_bound}")
    doc = _read_trace(args.trace)
    npy, _ = _beside_trace(args.trace)
    try:  # the fields: read once, checked against the trace's sha256
        data = Path(npy).read_bytes()
        if _sha256(data) != (doc.get("meta") or {}).get("fields_sha256"):
            raise ValueError(f"{npy!r} is stale: not the trace's sha256")
        fields = np.load(io.BytesIO(data), allow_pickle=False)
        trace = ContinuationTrace.from_dict(doc, fields)
        opdesc, rhs = trace.meta.get("operator"), trace.meta.get("rhs")
    except (OSError, EOFError, AttributeError, KeyError, TypeError,
            ValueError, MeshError) as exc:
        raise ConfigError(f"bad trace file {args.trace!r}: {exc}") from exc
    if not opdesc or not rhs:
        raise ConfigError("trace carries no operator/rhs descriptors")
    if len(trace.steps) < 2:
        raise ConfigError("estimates need a trace of at least two eps steps")
    op = operator_from_descriptor(opdesc)
    b = parse_rhs(rhs, op, trace.mesh)
    try:  # the mesh is valid, so a MeshError means a ball selects nothing
        report = build_estimate_report(trace, op, b, rho_frac=args.rho,
                                       R_frac=args.R, lp_bound=args.lp_bound)
    except MeshError as exc:
        raise ConfigError(f"--rho {args.rho}, --R {args.R}: {exc}") from exc
    if args.out:
        write_csv(args.out, ESTIMATE_COLUMNS, report.rows)
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
    except (ValueError, InconsistentExactData, MeshError) as exc:
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
            with open(args.estimates, newline="", encoding="utf-8") as fh:
                estimates_rows = list(csv.DictReader(fh))
        except (OSError, ValueError, csv.Error) as exc:
            raise ConfigError(f"bad estimates file: {exc}") from exc
    steps = trace_doc.get("steps")
    try:  # steps: a non-empty list of objects, each with a finite lp_gradient
        lp = [s["lp_gradient"] for s in steps]
        if not lp or not all(type(v) in (int, float) and math.isfinite(v)
                             for v in lp):
            raise ValueError("needs steps, each with a finite lp_gradient")
        increments = [s.get("cauchy_increment_w12") for s in steps
                      if s.get("cauchy_increment_w12") is not None]
        decreasing = all(a > b for a, b in zip(increments, increments[1:]))
        operator = (trace_doc.get("meta") or {}).get("operator")
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"bad trace file {args.trace!r}: {exc}") from exc
    summary = {
        "schedule": trace_doc.get("schedule"),
        "mesh": trace_doc.get("mesh"),
        "operator": operator,
        "steps": steps,
        "lp_gradient_ratio": lp_ratio(lp),
        "increments_strictly_decreasing": decreasing,
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run structural assumption checks")
    p.add_argument("--operator", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--s0", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="single Newton solve")
    p.add_argument("--operator", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--start", choices=("presolve", "zero"), default="presolve")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("continuation", help="epsilon-continuation run")
    p.add_argument("--operator", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--delta", type=float, default=0.25,
                   help="interior margin as a fraction of the box width")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_continuation)

    p = sub.add_parser("estimates", help="estimate constants from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--rho", type=float, default=0.25,
                   help="inner ball radius / min box width")
    p.add_argument("--R", type=float, default=0.4,
                   help="outer ball radius / min box width")
    p.add_argument("--lp-bound", type=float, default=1.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimates)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--operator", required=True)
    p.add_argument("--case", required=True)
    p.add_argument("--grids", required=True)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("report", help="merge a trace and estimates CSV")
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
    args, unknown = parser.parse_known_args(argv)
    out = getattr(args, "out", None)
    try:
        if unknown:
            raise ConfigError(f"unrecognized arguments: {' '.join(unknown)}")
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigError(f"--out directory does not exist: {out}")
        return args.func(args)
    except (ConfigError, InvalidExponents, NonnegativityViolation) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, SingularJacobian, QuadratureFailure,
            MeshError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
