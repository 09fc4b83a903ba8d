"""Output check against golden files.

Golden files live in `golden/<workload>/<scenario>.csv` and
`golden/<workload>/<scenario>.verdicts.json`.  They were taken at seed
42 and hold for every seed: the seed moves only cells at roundoff level
(invariance, kappa and oracle residuals near 1e-15), which sit far
inside the absolute tolerance below.

A scenario run passes when it exits 0, its verdict list matches the
golden one (same criteria in the same order, same pass flags, notes and
thresholds, measured values within tolerance), and every CSV cell is
within tolerance of the golden cell.  This is the numerical-rewrite rule
of the roadmap: verdicts unchanged, values within a stated relative
tolerance.
"""

from __future__ import annotations

import json
import math
import os

# |value - golden| <= RTOL * |golden| + ATOL
RTOL = 1e-6
ATOL = 1e-9

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def close(value, golden) -> bool:
    if value is None or golden is None:
        return value is None and golden is None
    value, golden = float(value), float(golden)
    if math.isnan(value) or math.isnan(golden):
        return math.isnan(value) and math.isnan(golden)
    return abs(value - golden) <= RTOL * abs(golden) + ATOL


def compare_csv(text: str, golden: str) -> list[str]:
    rows = text.splitlines()
    grows = golden.splitlines()
    if not rows or rows[0] != grows[0]:
        return ["CSV header differs"]
    if len(rows) != len(grows):
        return [f"CSV has {len(rows) - 1} rows, golden {len(grows) - 1}"]
    header = grows[0].split(",")
    problems = []
    for r, (row, grow) in enumerate(zip(rows[1:], grows[1:]), start=1):
        cells, gcells = row.split(","), grow.split(",")
        if len(cells) != len(gcells):
            problems.append(f"CSV row {r} has {len(cells)} cells")
            continue
        for col, cell, gcell in zip(header, cells, gcells):
            try:
                ok = close(float(cell), float(gcell))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"CSV row {r} {col}: {cell} vs golden {gcell}")
    return problems


def compare_verdicts(verdicts: list[dict], golden: list[dict]) -> list[str]:
    names = [v.get("criterion") for v in verdicts]
    gnames = [v["criterion"] for v in golden]
    if names != gnames:
        return [f"criteria {names} vs golden {gnames}"]
    problems = []
    for v, g in zip(verdicts, golden):
        name = g["criterion"]
        for key in ("passed", "threshold", "note"):
            if v.get(key) != g.get(key):
                problems.append(f"{name} {key}: {v.get(key)!r} vs golden {g.get(key)!r}")
        if not close(v.get("measured"), g.get("measured")):
            problems.append(f"{name} measured: {v.get('measured')!r} "
                            f"vs golden {g.get('measured')!r}")
    return problems


def load_golden(workload: str, scenario_id: str,
                golden_dir: str = GOLDEN_DIR) -> tuple[str, list[dict]]:
    base = os.path.join(golden_dir, workload, scenario_id)
    with open(base + ".csv", encoding="utf-8") as fh:
        csv = fh.read()
    with open(base + ".verdicts.json", encoding="utf-8") as fh:
        verdicts = json.load(fh)
    return csv, verdicts


def write_golden(workload: str, scenario_id: str, csv: str,
                 verdicts: list[dict], golden_dir: str = GOLDEN_DIR) -> None:
    base = os.path.join(golden_dir, workload, scenario_id)
    os.makedirs(os.path.dirname(base), exist_ok=True)
    with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(csv)
    with open(base + ".verdicts.json", "w", encoding="utf-8") as fh:
        json.dump(verdicts, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check(workload: str, scenario_id: str, output,
          golden_dir: str = GOLDEN_DIR) -> list[str]:
    """Problems of one scenario run (a workloads.ScenarioOutput); empty
    when it passes."""
    if output.error:
        return [output.error]
    problems = [] if output.exit_code == 0 else [f"exit code {output.exit_code}"]
    gcsv, gverdicts = load_golden(workload, scenario_id, golden_dir)
    return (problems + compare_verdicts(output.verdicts, gverdicts)
            + compare_csv(output.csv, gcsv))
