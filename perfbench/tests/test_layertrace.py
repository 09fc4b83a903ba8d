"""Span arithmetic, patch and restore, and tag bucketing of the tracer."""

import json
import os
import sys
import types

import numpy as np
import pytest

import layertrace
from layertrace import Tracer, layer_metrics, nearest_ancestor, self_times


def span(sid, parent, name, start, end, extra=0):
    return (sid, parent, name, start, end, "s", extra)


def test_self_time_subtracts_children_once():
    spans = [
        span(2, 1, "grandchild", 2.0, 2.5),
        span(1, 0, "child", 1.0, 3.0),
        span(3, 0, "child", 2.0, 5.0),  # overlaps the first child by 1
        span(4, 0, "child", 9.0, 12.0),  # runs past the parent's end
        span(0, -1, "root", 0.0, 10.0),
    ]
    st = self_times(spans)
    # children cover [1, 5] and [9, 10] of the root's [0, 10]
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(2.0 - 0.5)
    assert st[2] == pytest.approx(0.5)
    assert st[4] == pytest.approx(3.0)


def test_nearest_ancestor_skips_other_names():
    spans = [
        span(3, 2, "leaf", 0.2, 0.3),
        span(2, 1, "middle", 0.1, 0.4),
        span(1, 0, "block", 0.0, 0.5),
        span(0, -1, "root", 0.0, 1.0),
    ]
    anc = nearest_ancestor(spans, {"block"})
    assert anc == {3: "block", 2: "block"}


def test_tracer_records_nesting_and_restores_patches():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer

    class Thing:
        def method(self):
            return 7

    original_method = vars(Thing)["method"]
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer:
        tracer.patch_everywhere(inner, tracer.span("fake.inner", inner), [mod])
        tracer.patch_everywhere(outer, tracer.span("fake.outer", outer), [mod])
        tracer.patch(Thing, "method", tracer.span("fake.Thing.method", original_method))
        assert mod.outer(1) == 4
        assert Thing().method() == 7
    assert mod.inner is inner and mod.outer is outer
    assert vars(Thing)["method"] is original_method
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["fake.inner"][1] == by_name["fake.outer"][0]
    assert by_name["fake.outer"][1] == -1
    assert dict(tracer.counts) == {"fake.inner": 1, "fake.outer": 1, "fake.Thing.method": 1}


def _package_state():
    import cheegerdef  # noqa: F401
    from cheegerdef import cheeger, cli, scenarios, tensor_calc, verify  # noqa: F401

    state = {}
    for name, mod in sys.modules.items():
        if name == "cheegerdef" or name.startswith("cheegerdef."):
            state[name] = dict(vars(mod))
    state["MetricVariant"] = dict(vars(cheeger.MetricVariant))
    state["Scenario"] = dict(vars(scenarios.Scenario))
    return state


def test_install_restores_every_package_name():
    before = _package_state()
    tracer = Tracer()
    with tracer:
        layertrace.install(tracer)
        from cheegerdef import _kernels, cli
        assert _kernels.variant_metric is not before["cheegerdef._kernels"]["variant_metric"]
        # names imported by name are patched where they are looked up
        assert cli.run_suite is not before["cheegerdef.cli"]["run_suite"]
    after = _package_state()
    for key, names in before.items():
        for attr, value in names.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


def test_variant_metric_spans_are_bucketed_by_tag():
    from cheegerdef import _kernels as k
    from cheegerdef.scenarios import get_scenario

    sc = get_scenario("s2_band")
    x = np.array([0.3, 1.0])
    tracer = Tracer()
    with tracer:
        layertrace.install(tracer)
        for tag in (k.ORIGINAL, k.CHEEGER, k.RESCALED, k.LIMIT, k.CHEEGER_CLOSED):
            k.variant_metric(sc.code, sc.params, tag, 0.1, x, 1e-8)
        k.variant_metric_dx(sc.code, sc.params, k.LIMIT, 0.0, x, 1e-4, False, 1e-8)
    counts = tracer.counts
    for tag in ("original", "cheeger", "rescaled", "cheeger_closed"):
        assert counts[f"kernels.variant_metric.{tag}"] == 1
    # one direct call plus a 12-point stencil in two dimensions
    assert counts["kernels.variant_metric.limit"] == 13
    m = layer_metrics(tracer.spans, tracer.counts)
    # 12 of the 16 frame-pipeline calls sit inside the stencil
    assert m["kernels.variant_metric.fd_share"][0] == pytest.approx(12 / 16)
    assert m["kernels.variant_metric_dx.calls"][0] == 1


def test_layer_metric_names_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in layer_metrics([], {}).items()}
    emitted.update(trace_overhead_share="share", failed_share="share")
    assert declared == emitted
