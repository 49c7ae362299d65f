"""Write reference.json: the values each workload's outputs are compared
with, from one repetition at seed 0.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose results are known to be right,
and only when a workload's problem changes.
"""

import json
import os
import shutil
import sys

from run import HERE, ROOT, import_package
from workloads import WORKLOADS, Outcome


def main() -> int:
    pq = import_package()
    workdir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    refs = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(pq, 0, workdir, None)
            workload.setup()
            result = workload.run()
            outcome = Outcome()
            workload.check(result, outcome)
            if outcome.failed:
                sys.exit(f"{name}: {outcome.problems}")
            refs[name] = workload.values(result)
    finally:
        shutil.rmtree(workdir)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
