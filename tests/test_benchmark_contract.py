"""The package keeps what the benchmark in perfbench/ calls on it.

Setting up a workload calls every kernel block and geodesic_rk4 with
their pinned signatures; one run of each workload scenario matches the
benchmark's golden outputs; and the benchmark's layer tracing leaves a
run's output unchanged.  The benchmark modules are imported from
perfbench/ and only read.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import layertrace  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402

SEED = 42


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_match_the_golden_outputs(name, tmp_path):
    # set-up makes the pinned warm-up call of every block
    prep = workloads.Prepared(workloads.WORKLOADS[name], SEED, str(tmp_path))
    for sid in prep.workload.scenarios:
        out = prep.collect(sid, prep.run_scenario(sid))
        assert outputs.check(name, sid, out) == [], sid


# a kernel span that each workload's traced run must record: the
# tracer labels Christoffel spans with int() of the tag argument, so a
# per-row tag array reaching it would fail the geodesic workloads
TRACED_KERNEL = {"fiber_geodesics": "kernels.christoffel",
                 "sample_norms": "kernels.c0_block",
                 "default_suite": "kernels.christoffel"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_equals_untraced(name, tmp_path):
    prep = workloads.Prepared(workloads.WORKLOADS[name], SEED, str(tmp_path))
    sid = prep.workload.scenarios[0]
    untraced = prep.collect(sid, prep.run_scenario(sid)).fingerprint()
    tracer = layertrace.Tracer()
    with tracer:
        layertrace.install(tracer)
        traced = prep.collect(sid, prep.run_scenario(sid)).fingerprint()
    assert tracer.counts[TRACED_KERNEL[name]] > 0
    assert traced == untraced
