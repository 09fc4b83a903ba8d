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


# a kernel span that each workload's traced run must record.  The
# geodesic flow reads no Christoffel symbols; default_suite still reaches
# them through the finite-difference T-tensor norm
TRACED_KERNEL = {"fiber_geodesics": "kernels.orbit_data",
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


def test_t_scaling_makes_one_block_call_per_l_grid():
    # one t_pair_block call per plan, and one base-metric T-tensor norm
    # per plan point: N (L + 1) norms where one call per l made 2 N L
    from cheegerdef import cli  # noqa: F401  (the tracer wraps the CLI too)
    from cheegerdef.scenarios import get_scenario
    from cheegerdef.verify import SweepConfig, build_plan, run_suite

    scenario = get_scenario("s2_band")
    cfg = SweepConfig(n_points=9, enabled=("t_scaling",))
    n, n_l = len(build_plan(scenario, cfg).points), len(cfg.l_grid)
    tracer = layertrace.Tracer()
    with tracer:
        layertrace.install(tracer)
        run_suite(scenario, cfg)
    assert tracer.counts["kernels.t_pair_block"] == 1
    assert tracer.counts["kernels.t_tensor_norm"] == n * (n_l + 1)


def test_c0_block_ignores_the_warm_up_direction_pairs():
    # the warm-up still draws direction pairs and passes them to c0_block,
    # whose sup is exact without them: the pinned call equals the same
    # call with None in their place, bit for bit
    import numpy as np

    from cheegerdef import _kernels as k
    from cheegerdef import scenarios

    sc = scenarios.get_scenario(workloads.ALL_SCENARIOS[0])
    code, par = sc.code, sc.params
    pts = scenarios.sample_grid(sc, 4)[:2]
    dirs = scenarios.direction_pairs(sc, len(pts), 2, SEED)
    pinned = k.c0_block(code, par, k.RESCALED, 0.1, k.LIMIT, 0.0, pts, dirs, 1e-8)
    assert pinned.shape == (2,) and np.isfinite(pinned).all()
    np.testing.assert_array_equal(
        pinned, k.c0_block(code, par, k.RESCALED, 0.1, k.LIMIT, 0.0, pts, None, 1e-8))
