"""The benchmark's workloads.

Each workload drives the package only through its public entry point, the
``pq`` CLI, in-process (``pqelliptic.cli.main``).  ``setup()`` holds the work
the benchmark does not time beyond ``setup_s``, ``run()`` is the timed
section of one repetition, and ``check()`` verifies that repetition's
outputs outside the timed section.

Every operation (one CLI call) is attempted once per repetition.  It fails
on an unexpected exit code, an exception, or a failed check of its outputs:
the acceptance bands of the test suite, outputs that are not byte-identical
to the first repetition of the run, or values that differ from
``reference.json`` by more than REL_TOL.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Relative tolerance against the stored reference: pytest.approx's default,
#: the tolerance of the test suite's value comparisons.  Reordered float sums
#: and solver paths that meet the same Newton tolerance stay far inside it.
REL_TOL = 1e-6

DOUBLE_PHASE = {
    "family": "double-phase", "p": 2, "q": 2.2,
    "params": {"weight": {"type": "affine", "coeffs": [1.0, 0.0],
                          "offset": 0.0}},
    "domain": {"min": [0, 0], "max": [1, 1]},
}
UNIT_SQUARE = {"min": [0, 0], "max": [1, 1]}

TRACE_VALUES = ("lp_gradient", "linf_u_interior", "linf_gradient_interior",
                "h2_seminorm_interior", "cauchy_increment_w12")


def rhs_value(seed: int) -> float:
    """Constant right-hand side: -2 at seed 0 (the baseline problem), else
    drawn from a narrow band around -2."""
    if seed == 0:
        return -2.0
    draw = np.random.default_rng(seed).uniform(-1.0, 1.0)
    return float(-2.0 * (1.0 + 0.05 * draw))


@dataclass
class Outcome:
    """Operations attempted and failed over a run, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, op: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]


def _call(fn, *args):
    """Result of ``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # reported as a failed operation
        exc.formatted = traceback.format_exc()
        return exc


def _exit_problems(result, expected: int) -> list:
    if isinstance(result, Exception):
        return [f"raised {result.formatted.strip()}"]
    if result != expected:
        return [f"exit code {result}, expected {expected}"]
    return []


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def compare(values, reference, where: str = "") -> list:
    """Mismatches between nested values and their reference."""
    if isinstance(reference, dict):
        if not isinstance(values, dict) or set(values) != set(reference):
            return [f"{where or 'values'}: keys differ from the reference"]
        return [m for k in reference
                for m in compare(values[k], reference[k], f"{where}.{k}")]
    if isinstance(reference, list):
        if not isinstance(values, list) or len(values) != len(reference):
            return [f"{where}: length differs from the reference"]
        return [m for i, (v, r) in enumerate(zip(values, reference))
                for m in compare(v, r, f"{where}[{i}]")]
    if not math.isclose(values, reference, rel_tol=REL_TOL):
        return [f"{where}: {values!r} != reference {reference!r}"]
    return []


class Workload:
    name = ""
    #: spans the workload must record; one with zero calls is missing
    expected = ()
    #: whether the seed changes the problem; if not, the reference applies
    #: at every seed, else at seed 0 only
    seeded = True

    def __init__(self, pq, seed: int, workdir: Path, reference):
        self.pq = pq
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.digests = {}

    def write_descriptor(self, name: str, desc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(desc))
        return str(path)

    def cli(self, *argv):
        return _call(self.pq.cli.main, [str(a) for a in argv])

    def same_bytes(self, files) -> list:
        """``files`` that differ from the run's first repetition."""
        problems = []
        for f in files:
            digest = _digest(self.workdir / f)
            if self.digests.setdefault(f, digest) != digest:
                problems.append(f"{f} is not byte-identical to the first "
                                "repetition")
        return problems

    def against_reference(self, values) -> list:
        if self.reference is None:
            return []
        return compare(values, self.reference, self.name)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, result, outcome: Outcome) -> None:
        raise NotImplementedError

    def values(self, result):
        """The values compared with the stored reference."""
        raise NotImplementedError


class ContinuationPipeline(Workload):
    name = "continuation-257"
    expected = ("cli.continuation", "cli.estimates", "cli.report",
                "cli.write_json", "cli.write_csv", "solvers.trace_from_dict",
                "fem.build_mesh", "fem.assemble_jacobian",
                "fem.assemble_residual", "fem.norms", "operators.flux",
                "operators.dflux_dxi", "solvers.newton_solve",
                "solvers.p2_presolve", "linalg.splu", "linalg.lu_solve",
                "estimates.build_estimate_report", "estimates.global_lp_rhs")
    mesh = "2d:257x257"
    schedule = "eps0=0.2,ratio=0.5,steps=5"
    steps = 5

    def setup(self) -> None:
        self.operator = self.write_descriptor("dp.json", DOUBLE_PHASE)
        self.rhs = f"constant:{rhs_value(self.seed)!r}"

    def run(self):
        out = self.workdir
        return {
            "continuation": self.cli(
                "continuation", "--operator", self.operator, "--rhs",
                self.rhs, "--mesh", self.mesh, "--schedule", self.schedule,
                "--out", out / "trace.json"),
            "estimates": self.cli("estimates", "--trace", out / "trace.json",
                                  "--out", out / "estimates.csv"),
            "report": self.cli("report", "--trace", out / "trace.json",
                               "--estimates", out / "estimates.csv",
                               "--out", out / "report.json"),
        }

    def check(self, result, outcome: Outcome) -> None:
        out = self.workdir
        problems = _exit_problems(result["continuation"], 0)
        if not problems:
            summary = json.loads((out / "report.json").read_text())
            converged = [s["stats"]["converged"] for s in summary["steps"]]
            if len(converged) != self.steps or not all(converged):
                problems.append(f"steps converged: {converged}")
            rows = _read_csv(out / "trace.csv")
            incs = [float(r["cauchy_increment_w12"]) for r in rows[1:]]
            if not all(a > b for a, b in zip(incs, incs[1:])):
                problems.append(f"W12 increments not decreasing: {incs}")
            problems += self.same_bytes(["trace.json", "trace.csv"])
            problems += self.against_reference(self.values(result))
        outcome.record("continuation", problems)

        # exit 1 would mean the eps-uniformity verdict failed
        problems = _exit_problems(result["estimates"], 0)
        if not problems:
            problems += self.same_bytes(["estimates.csv"])
        outcome.record("estimates", problems)

        problems = _exit_problems(result["report"], 0)
        if not problems:
            summary = json.loads((out / "report.json").read_text())
            if summary["increments_strictly_decreasing"] is not True:
                problems.append("report: increments not strictly decreasing")
            problems += self.same_bytes(["report.json"])
        outcome.record("report", problems)

    def values(self, result):
        rows = _read_csv(self.workdir / "trace.csv")
        return {"trace": [{k: float(r[k]) for k in TRACE_VALUES if r[k]}
                          for r in rows]}


class MmsRefinement(Workload):
    name = "mms-refine"
    expected = ("cli.mms", "cli.write_csv", "mms.convergence_study",
                "mms.builtin_case", "fem.build_mesh", "fem.assemble_jacobian",
                "fem.assemble_residual", "operators.flux",
                "operators.dflux_dxi", "solvers.newton_solve",
                "solvers.p2_presolve", "linalg.splu", "linalg.lu_solve")
    grids = "17,33,65,129"
    seeded = False

    def setup(self) -> None:
        self.operator = self.write_descriptor("dp.json", DOUBLE_PHASE)

    def run(self):
        return self.cli("mms", "--operator", self.operator, "--case",
                        "sine2d", "--grids", self.grids, "--out",
                        self.workdir / "mms.csv")

    def check(self, result, outcome: Outcome) -> None:
        problems = _exit_problems(result, 0)
        if not problems:
            rows = _read_csv(self.workdir / "mms.csv")
            l2 = [float(r["l2_order"]) for r in rows[1:]]
            w12 = [float(r["w12_order"]) for r in rows[1:]]
            # the acceptance bands of the test suite's criterion 4
            if min(l2) < 1.9 or min(w12) < 0.95:
                problems.append(f"orders L2 {l2}, W12 {w12} below 1.9/0.95")
            problems += self.same_bytes(["mms.csv"])
            problems += self.against_reference(self.values(result))
        outcome.record("mms", problems)

    def values(self, result):
        rows = _read_csv(self.workdir / "mms.csv")
        return {"errors": [{"l2_error": float(r["l2_error"]),
                            "w12_error": float(r["w12_error"])}
                           for r in rows]}


class CheckZoo(Workload):
    name = "check-zoo"
    expected = ("cli.check", "cli.write_json",
                "operators.validate_assumptions", "verify.draw_samples",
                "operators.flux", "operators.dflux_dxi",
                *(f"verify.check_{c}" for c in (
                    "derivative_consistency", "ellipticity", "growth_xi",
                    "growth_u", "local_conditions", "monotonicity",
                    "coercivity_lower", "lemma_lower_bound")))
    samples = 100000
    # name -> (descriptor, expected exit code); the degenerate p-Laplacian
    # is the negative control and must fail ellipticity at xi = 0
    families = {
        "double-phase": (DOUBLE_PHASE, 0),
        "log": ({"family": "log", "p": 2, "q": 2.2,
                 "domain": UNIT_SQUARE}, 0),
        "variable-exponent": ({
            "family": "variable-exponent",
            "params": {"pfun": {"type": "affine", "offset": 2.0,
                                "coeffs": [0.2, 0.0]},
                       "pmin": 2.0, "pmax": 2.2},
            "domain": UNIT_SQUARE}, 0),
        "anisotropic": ({"family": "anisotropic",
                         "params": {"exponents": [2, 2.5]},
                         "domain": UNIT_SQUARE}, 0),
        "p-laplacian-degenerate": ({"family": "p-laplacian-degenerate",
                                    "p": 4, "domain": UNIT_SQUARE}, 1),
    }

    def setup(self) -> None:
        self.operators = {name: self.write_descriptor(f"{name}.json", desc)
                          for name, (desc, _) in self.families.items()}

    def run(self):
        return {name: self.cli("check", "--operator", path, "--samples",
                               self.samples, "--seed", self.seed, "--out",
                               self.workdir / f"{name}.report.json")
                for name, path in self.operators.items()}

    def check(self, result, outcome: Outcome) -> None:
        for name, (_, code) in self.families.items():
            problems = _exit_problems(result[name], code)
            if not problems:
                report_file = f"{name}.report.json"
                report = json.loads((self.workdir / report_file).read_text())
                if code == 1:
                    ell = [e for e in report["entries"]
                           if e["condition_id"] == "ellipticity"]
                    if (len(ell) != 1 or ell[0]["passed"]
                            or not np.allclose(ell[0]["witness"]["xi"], 0.0)):
                        problems.append("no failing ellipticity entry with "
                                        "its witness at xi = 0")
                problems += self.same_bytes([report_file])
            outcome.record(f"check {name}", problems)

    def values(self, result):
        return None


WORKLOADS = {w.name: w for w in (ContinuationPipeline, MmsRefinement,
                                 CheckZoo)}
