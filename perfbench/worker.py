"""One benchmark child process; run.py starts these one at a time.

    python3 perfbench/worker.py MODE --workload W --seed N --out PATH
        [--seconds S] [--t0 T] [--spans PATH]

MODE is one of
  setup  set up and report the time from interpreter start to ready;
  time   set up, then run workload iterations until --seconds is spent
         (at least one), checking every scenario run;
  trace  set up, install the layer wrappers, run one iteration (with the
         reference slices around its scenarios), remove the wrappers and
         report the per-layer metrics; --spans writes the span list.
--t0 is the parent's time.monotonic() just before it started this
process, so set-up time includes interpreter start.  The result is
written as JSON to --out.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import layertrace
import outputs
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_out", "work")
# about 75 ms on a 2-core Xeon VM: long enough to average over the
# sub-100 ms speed swings of a shared host
REFERENCE_LOOPS = 4000


def machine_facts() -> dict:
    """Machine and compute-mode facts recorded with every result."""
    import scipy

    import cheegerdef

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jit_enabled": bool(cheegerdef.JIT_ENABLED),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "CHEEGERDEF_NO_JIT": os.environ.get("CHEEGERDEF_NO_JIT"),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def reference_slice() -> float:
    """A fixed computation in the style of the kernels (a hand-rolled
    Cholesky factor of a 3x3 numpy matrix, element by element) that no
    change to the package can speed up.  Timed next to each scenario run,
    it measures how fast the shared machine is at that moment."""
    acc = 0.0
    for it in range(REFERENCE_LOOPS):
        x = 0.3 + 1e-4 * (it % 7)
        G = np.zeros((3, 3))
        G[0, 0] = 2.0 + np.cos(x) ** 2
        G[1, 1] = 2.0 + np.sin(x) ** 2
        G[2, 2] = 1.5
        G[0, 1] = G[1, 0] = 0.1 * np.sin(2.0 * x)
        L = np.zeros((3, 3))
        for i in range(3):
            for j in range(i + 1):
                t = G[i, j]
                for k in range(j):
                    t -= L[i, k] * L[j, k]
                L[i, j] = np.sqrt(t) if i == j else t / L[j, j]
        acc += float(np.max(np.abs(L @ L.T - G)))
    return acc


def _timed_reference() -> float:
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


def run_iteration(prep: workloads.Prepared, on_scenario=None, refs=None):
    """One workload run, scenarios in sequence.  Returns ({scenario: wall
    seconds}, {scenario: ScenarioOutput}).  With a refs list, the
    reference slice is timed before each scenario and after the last one,
    and the times are appended to refs."""
    prep.clear_outputs()
    raws = {}
    walls = {}
    for sid in prep.workload.scenarios:
        if on_scenario is not None:
            on_scenario(sid)
        if refs is not None:
            refs.append(_timed_reference())
        t0 = time.perf_counter()
        try:
            raws[sid] = prep.run_scenario(sid)
        except Exception as exc:  # a failed run is counted, not fatal
            raws[sid] = exc
        walls[sid] = time.perf_counter() - t0
    if refs is not None:
        refs.append(_timed_reference())
    outs = {}
    for sid, raw in raws.items():
        if isinstance(raw, Exception):
            outs[sid] = workloads.ScenarioOutput(
                exit_code=-1, error=f"{type(raw).__name__}: {raw}")
            continue
        try:
            outs[sid] = prep.collect(sid, raw)
        except (OSError, ValueError, KeyError) as exc:
            outs[sid] = workloads.ScenarioOutput(
                exit_code=-1, error=f"unreadable output: {exc}")
    return walls, outs


def check_iteration(workload: str, outs: dict, first: dict | None) -> list[dict]:
    """Per-scenario verdict of one iteration: golden check plus byte
    identity with the first iteration of this process."""
    runs = []
    for sid, out in outs.items():
        problems = outputs.check(workload, sid, out)
        if first is not None and out.fingerprint() != first[sid].fingerprint():
            problems.append("output differs from the first run of this process")
        runs.append({"scenario": sid, "problems": problems})
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "time", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    workload = workloads.WORKLOADS[args.workload]
    prep = workloads.Prepared(workload, args.seed,
                              os.path.join(WORK_DIR, args.workload))
    setup_s = time.monotonic() - t0
    result = {"facts": machine_facts(), "setup_s": setup_s}

    if args.mode == "time":
        walls, refs, runs, first = [], [], [], None
        start = time.perf_counter()
        while True:
            ref = []
            wall, outs = run_iteration(prep, refs=ref)
            walls.append(wall)
            refs.append(ref)
            runs += check_iteration(args.workload, outs, first)
            first = first or outs
            spent = time.perf_counter() - start
            if spent + max(sum(w.values()) for w in walls) > args.seconds:
                break
        result.update(walls=walls, refs=refs, runs=runs, fingerprints={
            sid: out.fingerprint() for sid, out in first.items()})
    elif args.mode == "trace":
        kernels = not result["facts"]["jit_enabled"]
        tracer = layertrace.Tracer()
        with tracer:
            layertrace.install(tracer, kernels=kernels)

            def on_scenario(sid):
                tracer.scenario = sid

            ref = []
            wall, outs = run_iteration(prep, on_scenario, refs=ref)
        spans = tracer.spans
        layer = layertrace.layer_metrics(spans, tracer.counts, kernels=kernels)
        lim = layertrace.VARIANT_TAGS.index("limit")
        result.update(
            walls=[wall],
            refs=[ref],
            runs=check_iteration(args.workload, outs, None),
            fingerprints={sid: out.fingerprint() for sid, out in outs.items()},
            counts=dict(tracer.counts),
            layer=layer,
            stage_total_s=layertrace.stage_total(spans),
            n_spans=len(spans),
            per_call={
                "christoffel_limit": layertrace.per_call_by_scenario(
                    spans, "kernels.christoffel", extra=lim),
                "variant_metric_limit": layertrace.per_call_by_scenario(
                    spans, "kernels.variant_metric.limit"),
            },
        )
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed,
                                      "facts": result["facts"]})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
