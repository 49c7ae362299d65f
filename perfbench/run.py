"""Benchmark of the pqelliptic workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: it imports ``pqelliptic`` from
``src/`` next to this directory, and exits with an error and no result
when that is missing.  One process runs one workload (workloads.py).
After SETUP_REPS set-ups it repeats the workload's timed section while the
next repetition is expected to end within ``--seconds``, and at least
MIN_REPS times, checking the outputs of every repetition.  Every time is
wall time, as measured.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are end to end: ``wall_s`` (the median
repetition), ``setup_s`` (the median import plus the median set-up) and
``peak_rss_mb``.  With ``--trace 1`` every second repetition and the first
set-up run with per-layer spans installed (spans.py); the metrics are those
BENCHMARK.json lists under ``per_layer``, for one set-up plus one
repetition, and the tracing overhead.  The line before the result holds the
run's facts: every time, the machine, the versions and the git revision.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: Set-ups, and imports of the package, per run; setup_s takes the median
#: of each.
SETUP_REPS = 5
#: Repetitions of the timed section at least, whatever --seconds says: two
#: are needed to compare outputs byte for byte, and a traced run needs one
#: traced and one untraced repetition.
MIN_REPS = 2


def import_package():
    """Import pqelliptic, and its CLI, from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "pqelliptic" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pqelliptic sources under {src}")
    sys.path.insert(0, str(src))
    import pqelliptic
    import pqelliptic.cli  # noqa: F401  (the package does not import it)
    if Path(pqelliptic.__file__).resolve().parent != src / "pqelliptic":
        sys.exit(f"perfbench: imported pqelliptic from {pqelliptic.__file__}")
    return pqelliptic


# Run in a fresh interpreter with numpy loaded, as it is in this process
# when it imports the package.
IMPORT_TIMER = (
    "import sys, time\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import pqelliptic, pqelliptic.cli\n"
    "print(time.perf_counter() - t0)\n")


def import_seconds() -> float:
    """Seconds ``import pqelliptic`` takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine_facts(pq) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_revision(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "pqelliptic": pq.__version__, "blas_threads": blas_threads()}


def per_layer_metrics() -> list:
    """The per-layer metrics BENCHMARK.json lists, with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def load_reference(workload, seed: int):
    """The workload's reference values, when they apply at ``seed``."""
    if workload.seeded and seed != 0:
        return None
    return json.loads((HERE / "reference.json").read_text())[workload.name]


class Run:
    """One run's times and spans."""

    def __init__(self):
        self.times = {"import": [], "setup": [], "wall": [],
                      "traced_wall": []}
        self.setup_layers = Recorder()
        self.rep_layers = Recorder()

    def timed(self, kind: str, fn, traced: bool = False):
        """``fn()`` timed under ``kind``; spans recorded when ``traced``."""
        recorder = Recorder() if traced else None
        if recorder:
            recorder.install()
        try:
            t0 = perf_counter()
            result = fn()
            t1 = perf_counter()
        finally:
            if recorder:
                recorder.uninstall()
        self.times[kind].append(t1 - t0)
        if recorder:
            (self.setup_layers if kind == "setup"
             else self.rep_layers).merge(recorder)
        return result

    def layers(self) -> Recorder:
        """One traced set-up plus the mean traced repetition."""
        out = Recorder()
        out.merge(self.setup_layers)
        out.merge(self.rep_layers, 1.0 / len(self.times["traced_wall"]))
        return out


def measure(workload, seconds: float, trace: bool):
    """Set up and repeat the workload, checking every repetition."""
    outcome = Outcome()
    run = Run()
    for i in range(SETUP_REPS):
        run.times["import"].append(import_seconds())
        run.timed("setup", workload.setup, traced=trace and i == 0)
    start = perf_counter()
    reps = 0
    while True:
        gc.collect()
        traced = trace and reps % 2 == 1
        result = run.timed("traced_wall" if traced else "wall", workload.run,
                           traced)
        try:
            workload.check(result, outcome)
        except (OSError, ValueError, KeyError) as exc:  # missing or bad output
            outcome.record("outputs", [repr(exc)])
        reps += 1
        typical = statistics.median(run.times["wall"]
                                    + run.times["traced_wall"])
        if reps >= MIN_REPS and perf_counter() - start + typical > seconds:
            return outcome, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        pq = import_package()
        workdir.mkdir(parents=True)
        cls = WORKLOADS[args.workload]
        workload = cls(pq, args.seed, workdir,
                       load_reference(cls, args.seed))
        outcome, run = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    times = run.times
    if args.trace:
        values, missing = run.layers().metrics(workload.expected)
        values["bench.trace_overhead_s"] = (
            statistics.median(times["traced_wall"])
            - statistics.median(times["wall"]))
        outcome.attempted += 1
        if missing:
            outcome.failed += 1
            outcome.problems.append(f"expected spans with no call: {missing}")
        per_layer = per_layer_metrics()
        # a listed metric the recorder does not make, from no missing span
        unknown = [m["name"] for m in per_layer if m["name"] not in values
                   and m["name"].rsplit(".", 1)[0] not in missing]
        if unknown:
            outcome.failed += 1
            outcome.problems.append(f"metrics spans.py does not make: "
                                    f"{unknown}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in per_layer if m["name"] in values}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(times["wall"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(times["import"])
                        + statistics.median(times["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    for problem in outcome.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    facts = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "times_s": times, **machine_facts(pq)}
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
