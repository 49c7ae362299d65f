"""Per-layer spans recorded from outside the package.

The recorder wraps the module attributes that callers use (for example
``pqelliptic.solvers.assemble_jacobian`` and ``scipy.sparse.linalg.splu``)
for the time it is installed, and restores them afterwards.  Nothing under
``src/`` is changed.

Each span accumulates self time (its duration minus the duration of the
spans it opened in the same thread) and a call count.  A span entered again
directly inside itself -- the regularized flux calling its base flux, one
tracked norm calling another -- is counted once.  Spans opened in worker
threads (``pq check`` evaluates its margins on a thread pool) have no parent
in that thread: their self time is counted in full, so on ``check-zoo`` the
self times of ``verify.check_*`` and ``operators.*`` overlap.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

CHECKS = ("derivative_consistency", "ellipticity", "growth_xi", "growth_u",
          "local_conditions", "monotonicity", "coercivity_lower",
          "lemma_lower_bound")

SPANS = (
    "cli.continuation", "cli.estimates", "cli.report", "cli.check",
    "cli.mms", "cli.write_json", "cli.write_csv", "solvers.trace_from_dict",
    "fem.build_mesh", "fem.assemble_jacobian", "fem.assemble_residual",
    "fem.norms", "operators.flux", "operators.dflux_dxi",
    "operators.validate_assumptions",
    "solvers.newton_solve", "solvers.fixed_point_solve",
    "solvers.p2_presolve", "linalg.splu", "linalg.lu_solve",
    "verify.draw_samples", *(f"verify.check_{c}" for c in CHECKS),
    "estimates.build_estimate_report", "estimates.global_lp_rhs",
    "mms.builtin_case", "mms.convergence_study",
)

# (span, module of pqelliptic, function): the span times the function
# wherever a pqelliptic module binds it.  The flux callables of operators,
# ContinuationTrace.from_dict and scipy's splu are wrapped in install().
FUNCTIONS = (
    ("cli.continuation", "cli", "cmd_continuation"),
    ("cli.estimates", "cli", "cmd_estimates"),
    ("cli.report", "cli", "cmd_report"),
    ("cli.check", "cli", "cmd_check"),
    ("cli.mms", "cli", "cmd_mms"),
    ("cli.write_json", "cli", "write_json"),
    ("cli.write_csv", "cli", "write_csv"),
    ("fem.build_mesh", "fem", "build_mesh"),
    ("fem.assemble_jacobian", "fem", "assemble_jacobian"),
    ("fem.assemble_residual", "fem", "assemble_residual"),
    *(("fem.norms", "fem", f) for f in (
        "lp_gradient_norm", "linf_norm_interior", "linf_gradient_interior",
        "h2_seminorm_interior", "w12_distance")),
    ("operators.validate_assumptions", "operators", "validate_assumptions"),
    ("solvers.newton_solve", "solvers", "newton_solve"),
    ("solvers.fixed_point_solve", "solvers", "fixed_point_solve"),
    ("solvers.p2_presolve", "solvers", "p2_presolve"),
    ("verify.draw_samples", "verify", "draw_samples"),
    *((f"verify.check_{c}", "verify", f"check_{c}") for c in CHECKS),
    ("estimates.build_estimate_report", "estimates",
     "build_estimate_report"),
    ("estimates.global_lp_rhs", "estimates", "global_lp_rhs"),
    ("mms.builtin_case", "mms", "builtin_case"),
    ("mms.convergence_study", "mms", "convergence_study"),
)

# Solver spans and the counter of their iterations.
ITERATIONS = {"solvers.newton_solve": "solvers.newton_iterations",
              "solvers.fixed_point_solve": "solvers.fixed_point_iterations"}

# Exact work counts, summed over the calls of one repetition.
COUNTS = ("cli.write_json.bytes", "fem.jacobian_nnz", "linalg.lu_fill_nnz",
          "solvers.newton_iterations", "solvers.fixed_point_iterations",
          "solvers.backtracks", "solvers.residual_evals", "verify.samples")


def _whole(count):
    """A count averaged over repetitions, as an int when it is whole."""
    return int(count) if float(count).is_integer() else count


class Recorder:
    """Self time, calls and work counts per span, summed over the
    intervals during which it was installed."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, names) -> bool:
        return any(frame[0] in names for frame in self._stack())

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result)`` records counts."""
        def timed(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    self.seconds[name] += dt - frame[1]
                    self.calls[name] += 1
            if after is not None:
                after(result, *args, **kwargs)
            return result

        timed.perfbench_span = name
        return timed

    # -- installation -----------------------------------------------------

    def _setattr(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` wherever a pqelliptic module binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pqelliptic"
                                   or modname.startswith("pqelliptic.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every span's function.  One that no longer exists is left
        out, and the coverage guard reports its span as missing."""
        import importlib

        import scipy.sparse.linalg as spla

        hooks = {
            "cli.write_json": lambda _r, path, *a, **k: self.add(
                "cli.write_json.bytes", os.path.getsize(path)),
            "fem.assemble_jacobian": lambda J, *a, **k: self.add(
                "fem.jacobian_nnz", J.nnz),
            "fem.assemble_residual": self._count_residual,
            "verify.draw_samples": lambda S, *a, **k: self.add(
                "verify.samples", len(S)),
        }
        for span, module, attr in FUNCTIONS:
            mod = importlib.import_module(f"pqelliptic.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            if span in ITERATIONS:
                self._rebind(fn, self._solver(span, fn))
            else:
                self._rebind(fn, self.wrap(span, fn, hooks.get(span)))

        solvers = importlib.import_module("pqelliptic.solvers")
        operators = importlib.import_module("pqelliptic.operators")
        trace_cls = getattr(solvers, "ContinuationTrace", None)
        if trace_cls is not None and "from_dict" in trace_cls.__dict__:
            raw = trace_cls.__dict__["from_dict"].__func__
            self._setattr(trace_cls, "from_dict", classmethod(
                self.wrap("solvers.trace_from_dict", raw)))
        self._setattr(spla, "splu", self.wrap("linalg.splu", self._splu(
            spla.splu)))
        for name in ("OperatorSpec", "RegularizedOperator"):
            cls = getattr(operators, name, None)
            if cls is not None:
                self._setattr(cls, "__init__", self._operator_init(
                    cls.__dict__["__init__"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers with counts ---------------------------------------------

    def _count_residual(self, _result, *args, **kwargs) -> None:
        if self.inside(ITERATIONS):
            self.add("solvers.residual_evals", 1)

    def _solver(self, name, fn):
        from pqelliptic.errors import NonConvergence

        iterations = ITERATIONS[name]

        def counted(*args, **kwargs):
            try:
                U, stats = fn(*args, **kwargs)
            except NonConvergence as exc:
                if exc.stats is not None:
                    self._count_stats(exc.stats, iterations)
                raise
            self._count_stats(stats, iterations)
            return U, stats

        return self.wrap(name, counted)

    def _count_stats(self, stats, iterations) -> None:
        self.add(iterations, stats.iterations)
        self.add("solvers.backtracks", stats.backtracks)
        self.add("solvers.accepted_steps", stats.iterations)
        self.add("solvers.solves", 1)

    def _splu(self, splu):
        recorder = self

        class TimedLU:
            """SuperLU factor whose triangular solves are a span."""

            def __init__(self, lu):
                self._lu = lu
                self.solve = recorder.wrap("linalg.lu_solve", lu.solve)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        def factor(*args, **kwargs):
            lu = splu(*args, **kwargs)
            self.add("linalg.lu_fill_nnz", lu.nnz)
            return TimedLU(lu)

        return factor

    def _operator_init(self, init):
        fields = (("flux", "operators.flux"),
                  ("dflux_dxi", "operators.dflux_dxi"))

        def __init__(op, *args, **kwargs):
            init(op, *args, **kwargs)
            for attr, name in fields:
                fn = getattr(op, attr)
                if fn is not None and not hasattr(fn, "perfbench_span"):
                    object.__setattr__(op, attr, self.wrap(name, fn))

        return __init__

    # -- results ----------------------------------------------------------

    def merge(self, other: "Recorder", scale: float = 1.0) -> None:
        """Add ``other``'s seconds, calls and counts, times ``scale``."""
        for name, value in other.seconds.items():
            self.seconds[name] += scale * value
        for name, value in other.calls.items():
            self.calls[name] += scale * value
        for name, value in other.counts.items():
            self.counts[name] += scale * value

    def metrics(self, expected) -> tuple:
        """(values by metric name, expected spans that recorded no call).

        Every span gives its self time and calls; BENCHMARK.json picks the
        metrics a result reports."""
        missing = sorted(s for s in expected if self.calls[s] == 0)
        values = {}
        for span in SPANS:
            if span in missing:
                continue
            values[f"{span}.s"] = self.seconds[span]
            values[f"{span}.calls"] = _whole(self.calls[span])
        for name in COUNTS:
            values[name] = _whole(self.counts[name])
        line_search = (self.counts["solvers.residual_evals"]
                       - self.counts["solvers.solves"])
        values["solvers.step_accept_ratio"] = (
            self.counts["solvers.accepted_steps"] / line_search
            if line_search > 0 else 0.0)
        return values, missing
