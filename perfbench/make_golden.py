"""Write the golden outputs from the current program.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs each workload once at seed 42 and writes `golden/<workload>/`.
Only run this at a commit whose outputs are trusted: afterwards the
benchmark counts any departure from them as a failed run.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import outputs  # noqa: E402
import workloads  # noqa: E402
from worker import WORK_DIR, run_iteration  # noqa: E402

GOLDEN_SEED = 42


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        prep = workloads.Prepared(workloads.WORKLOADS[name], GOLDEN_SEED,
                                  os.path.join(WORK_DIR, name))
        _, outs = run_iteration(prep)
        for sid, out in outs.items():
            if out.error or out.exit_code != 0:
                print(f"{name}/{sid}: refusing to record a failed run "
                      f"({out.error or out.exit_code})", file=sys.stderr)
                return 1
            outputs.write_golden(name, sid, out.csv, out.verdicts)
        print(f"wrote golden/{name}/ ({len(outs)} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
