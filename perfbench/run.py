"""Benchmark entry point: one workload, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this
directory.  Child interpreters run one at a time, with BLAS pinned to
one thread.

--trace 0 prints the end-to-end metrics, all measured untraced:
  wall_norm_s  wall time of one workload iteration in reference seconds.
               A fixed reference computation is timed before each
               scenario run and after the last one.  Each scenario run's
               wall time is divided by the mean of the two reference times
               around it; the medians of that ratio over the iterations
               that fit in --seconds are summed over the scenarios and
               scaled by REFERENCE_NOMINAL_S.  This cancels most of the
               machine-speed swings of a shared host (see README.md);
  setup_s      median, over SETUP_SAMPLES fresh interpreters, of the time
               from starting the interpreter to ready (import, scenario
               construction, sample plans, one call per kernel block);
  peak_rss_mb  peak resident memory of the process that ran the
               iterations.
The raw wall times, their median and the sample counts are saved in the
record and printed on the line before the result.

--trace 1 prints the per-layer metrics: one untraced iteration, then two
traced iterations in fresh processes.  It checks that call counts repeat
exactly, that traced outputs equal untraced ones and that the stage spans
cover the traced wall time; --seconds does not apply.

Every scenario run is checked against the golden outputs; `failed`
counts the runs that fail the check.  The record of the invocation,
with the machine and compute-mode facts, is saved under
`.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("fiber_geodesics", "sample_norms", "default_suite")

SETUP_SAMPLES = 7
# the reference computation's time on an unloaded 2-core Xeon VM; it
# only fixes the unit of wall_norm_s
REFERENCE_NOMINAL_S = 0.075
# a whole invocation ends within this many seconds or fails
DEADLINE_S = 170.0
# traced iterations must spend at least this share of their wall time
# inside the verify stage spans
MIN_STAGE_COVERAGE = 0.95
# per-call figures of the roadmap state line (seconds).  They depend on
# the machine and the traced figures carry the tracing overhead, so a
# figure outside the band is reported, not failed.
ROADMAP_PER_CALL = {
    "christoffel_limit": {"s2_band": 1.0e-3, "s3_hopf": 3.2e-3},
    "variant_metric_limit": {"s2_band": 62e-6, "s3_hopf": 130e-6},
}
ROADMAP_BAND = (0.5, 2.5)


class BenchError(RuntimeError):
    pass


def compute_mode(facts: dict) -> dict:
    """The facts that decide which code path ran; results are comparable
    only when these agree."""
    return {k: facts[k] for k in ("jit_enabled", "CHEEGERDEF_NO_JIT", "blas_threads")}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode: str, args, deadline: float, seconds: float = 0.0,
              spans: str | None = None) -> dict:
    out = os.path.join(OUT_DIR, f"child-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--out", out]
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def same_mode(children: list[dict]) -> dict:
    """The children's facts, after refusing a mix of compute modes."""
    modes = {json.dumps(compute_mode(c["facts"]), sort_keys=True) for c in children}
    if len(modes) != 1:
        raise BenchError(f"children ran in different compute modes: {sorted(modes)}")
    return children[0]["facts"]


def iteration_wall(child: dict, i: int = 0) -> float:
    return sum(child["walls"][i].values())


def normalized_wall(walls: list[dict], refs: list[list]) -> float:
    """REFERENCE_NOMINAL_S times the sum over scenarios of the median,
    over iterations, of the scenario's wall time divided by the mean of
    the reference slices timed just before and just after it."""
    return REFERENCE_NOMINAL_S * sum(
        statistics.median(w[sid] / (0.5 * (r[k] + r[k + 1]))
                          for w, r in zip(walls, refs))
        for k, sid in enumerate(walls[0]))


def timed(args, deadline):
    main = run_child("time", args, deadline, seconds=args.seconds)
    children = [main] + [run_child("setup", args, deadline)
                         for _ in range(SETUP_SAMPLES - 1)]
    facts = same_mode(children)
    setups = [c["setup_s"] for c in children]
    metrics = {
        "wall_norm_s": metric(normalized_wall(main["walls"], main["refs"]), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
    }
    raw = [iteration_wall(main, i) for i in range(len(main["walls"]))]
    detail = {"samples": {"wall_norm_s": len(raw), "setup_s": len(setups)},
              "wall_s_median": statistics.median(raw), "wall_s": raw,
              "setup_s": setups, "scenario_walls": main["walls"],
              "reference_s": main["refs"]}
    return main["runs"], metrics, facts, detail, []


def traced(args, deadline):
    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    spans = os.path.join(OUT_DIR, "traces", f"{args.workload}.jsonl")
    plain = run_child("time", args, deadline, seconds=0.0)
    a = run_child("trace", args, deadline, spans=spans)
    b = run_child("trace", args, deadline)
    facts = same_mode([plain, a, b])
    runs = plain["runs"] + a["runs"] + b["runs"]
    problems = []
    if a["counts"] != b["counts"]:
        diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                      if a["counts"].get(k) != b["counts"].get(k))
        problems.append(f"call counts differ between traced runs: {diff}")
    coverage = [c["stage_total_s"] / iteration_wall(c) for c in (a, b)]
    for child, cov in zip((a, b), coverage):
        if child["fingerprints"] != plain["fingerprints"]:
            problems.append("traced outputs differ from untraced outputs")
        if cov < MIN_STAGE_COVERAGE:
            problems.append(f"stage spans cover {cov:.3f} of the traced wall time")
    # normalised like wall_norm_s, so machine-speed swings between the
    # three processes largely cancel
    traced_wall = statistics.median(normalized_wall(c["walls"], c["refs"]) for c in (a, b))
    overhead = traced_wall / normalized_wall(plain["walls"], plain["refs"]) - 1.0
    metrics = {name: metric(v, u) for name, (v, u) in a["layer"].items()}
    metrics["trace_overhead_share"] = metric(overhead, "share")
    metrics["failed_share"] = metric(
        sum(1 for r in runs if r["problems"]) / len(runs), "share")
    roadmap = {}
    for fig, by_sid in ROADMAP_PER_CALL.items():
        for sid, expected in by_sid.items():
            got = a["per_call"][fig].get(sid)
            if got is None:
                continue
            ratio = got / expected
            roadmap[f"{fig}.{sid}"] = {"measured_s": got, "roadmap_s": expected,
                                       "ratio": ratio}
            if not ROADMAP_BAND[0] <= ratio <= ROADMAP_BAND[1]:
                print(f"note: traced {fig} on {sid} is {ratio:.2f}x the roadmap figure",
                      file=sys.stderr)
    detail = {"untraced_wall_s": iteration_wall(plain),
              "traced_wall_s": [iteration_wall(a), iteration_wall(b)],
              "stage_coverage": coverage, "n_spans": a["n_spans"],
              "counts": a["counts"], "roadmap": roadmap,
              "spans_file": os.path.relpath(spans, ROOT)}
    return runs, metrics, facts, detail, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cheegerdef", "__init__.py")):
        print("error: no package source at src/cheegerdef", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: seed must fit an unsigned 64-bit integer", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        runs, metrics, facts, detail, problems = (traced if args.trace else timed)(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for r in runs if r["problems"])
    for r in runs:
        for p in r["problems"][:5]:
            print(f"check failed: {r['scenario']}: {p}", file=sys.stderr)
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    line = {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts, "problems": problems,
              **line, "detail": detail}
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {"facts": facts}
    if not args.trace:
        summary.update(samples=detail["samples"], wall_s_median=detail["wall_s_median"])
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
