"""Compare two saved benchmark records metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Records are the files run.py writes to `.perfbench_out/results/`.  The
comparison is refused (exit 2) when the two records differ in workload,
in trace mode or in compute mode (compiled kernels or numpy, the
CHEEGERDEF_NO_JIT setting, BLAS threads): numbers from different code
paths say nothing about a change.
"""

from __future__ import annotations

import json
import sys

from run import compute_mode


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing: {key} differs ({base[key]!r} vs {new[key]!r})", file=sys.stderr)
            return 2
    if compute_mode(base["facts"]) != compute_mode(new["facts"]):
        print(f"refusing: compute modes differ: {compute_mode(base['facts'])} "
              f"vs {compute_mode(new['facts'])}", file=sys.stderr)
        return 2
    print(f"{'metric':<52} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        ratio = f"{n / b:9.3f}" if b and n is not None else f"{'-':>9}"
        print(f"{name:<52} {b!s:>14.14} {n!s:>14.14} {ratio} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
