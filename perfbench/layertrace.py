"""Span tracing of the package's layers from outside the package.

The traced run replaces functions with recording wrappers, from the
benchmark's own files, and puts the originals back afterwards.  Each
name is patched where it is looked up: a function imported by name into
another module (`from .verify import run_suite` in `cli`) is replaced in
that module too.  On the numpy path `_kernels` resolves its internal
calls through module globals, so patching `_kernels.<fn>` also catches
nested kernel calls.  Compiled kernels call each other directly, so with
numba active the kernels are not patched at all and their metrics are
reported as unavailable.

A span is (id, parent id, name, start, end, scenario, extra).  Spans are
kept in memory, appended when they close, and written out at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# short layer names, used as span-name prefixes
MODULES = {
    "cli": "cheegerdef.cli",
    "verify": "cheegerdef.verify",
    "tensor_calc": "cheegerdef.tensor_calc",
    "cheeger": "cheegerdef.cheeger",
    "scenarios": "cheegerdef.scenarios",
    "gmanifold": "cheegerdef.gmanifold",
}
KERNEL_MODULE = "cheegerdef._kernels"
METHODS = (
    ("cheeger", "MetricVariant", ("matrix", "reference_matrix")),
    ("scenarios", "Scenario", ("act", "action_jacobian")),
)

STAGES = ("build_plan", "convergence_series", "t_scaling_series",
          "geodesic_results", "invariance_results", "large_l_series",
          "oracle_results")
BLOCKS = ("c0_block", "c1_block", "gap_block", "t_pair_block", "oracle_block")
KERNEL_FNS = ("christoffel", "variant_metric_dx", "t_tensor_norm",
              "variant_vertical_frame", "orbit_data", "adapted_frame",
              "gm_metric")
# variant_metric spans are named by the tag in their third argument
VARIANT_TAGS = ("original", "cheeger", "rescaled", "limit", "cheeger_closed")
# helpers counted but not timed, to keep the traced run light
COUNTED = ("solve_lin", "chol_lower", "inv_mat")


def _first_plan_size(args):
    """Points handed to a block: rows of its first 2-D array argument."""
    for a in args:
        if getattr(a, "ndim", 0) == 2:
            return int(a.shape[0])
    return 0


class Tracer:
    """Records spans and call counts; patches are undone by restore()."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.scenario: str | None = None
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name, fn, label=None, annotate=None):
        """Wrapper of fn that records one span per call.  label(args)
        overrides the name; annotate(args, result) gives the extra field."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            nm = label(args) if label else name
            counts[nm] += 1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = annotate(args, result) if annotate and result is not None else 0
                spans.append((sid, parent, nm, start, end, self.scenario, extra))

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, wrapper) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, original, wrapper, modules) -> None:
        """Replace every module-level reference to original."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path: str, header: dict) -> None:
        """Write the spans as JSON lines: a header, then one
        [id, parent, name, start, end, scenario, extra] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "counts": dict(self.counts)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tracer: Tracer, kernels: bool = True) -> None:
    """Wrap the public functions of the package's layers."""
    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "cheegerdef" or name.startswith("cheegerdef."))]
    for short, modname in MODULES.items():
        mod = sys.modules[modname]
        for name, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__ == modname
                    and not name.startswith("_")):
                annotate = None
                if short == "tensor_calc" and name == "geodesic_integrate":
                    annotate = lambda args, res: int(res.status == "left_domain")
                tracer.patch_everywhere(fn, tracer.span(f"{short}.{name}", fn,
                                                        annotate=annotate), package)
    for short, cls_name, methods in METHODS:
        cls = getattr(sys.modules[MODULES[short]], cls_name)
        for m in methods:
            tracer.patch(cls, m, tracer.span(f"{short}.{cls_name}.{m}", vars(cls)[m]))
    if not kernels:
        return
    k = sys.modules[KERNEL_MODULE]

    def patch_kernel(name, **how):
        fn = getattr(k, name)
        wrapper = (tracer.counter(f"kernels.{name}", fn) if how.pop("count", False)
                   else tracer.span(f"kernels.{name}", fn, **how))
        tracer.patch_everywhere(fn, wrapper, package)

    for name in BLOCKS:
        patch_kernel(name, annotate=lambda args, res: _first_plan_size(args))
    patch_kernel("geodesic_rk4", annotate=lambda args, res: int(res[2]))
    for name in KERNEL_FNS:
        patch_kernel(name, annotate=(lambda args, res: int(args[2]))
                     if name == "christoffel" else None)
    patch_kernel("variant_metric", label=lambda args:
                 f"kernels.variant_metric.{VARIANT_TAGS[int(args[2])]}")
    for name in COUNTED:
        patch_kernel(name, count=True)


# --------------------------------------------------------------------------
# aggregation

def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval covered by its children (overlaps counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s[1] >= 0:
            children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(s[0], ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[s[0]] = (end - start) - covered
    return out


def nearest_ancestor(spans, targets) -> dict[int, str]:
    """Name of each span's nearest ancestor whose name is in targets.

    Spans close children-first, so in reverse order every parent comes
    before its children."""
    name_of = {s[0]: s[2] for s in spans}
    out: dict[int, str] = {}
    for s in reversed(spans):
        parent = s[1]
        if parent < 0:
            continue
        if name_of[parent] in targets:
            out[s[0]] = name_of[parent]
        elif parent in out:
            out[s[0]] = out[parent]
    return out


class Layers:
    """Per-name totals of a span list: calls, inclusive time, self time
    and the sum of the extra field."""

    def __init__(self, spans):
        self.self_s = self_times(spans)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.extra = defaultdict(int)
        for s in spans:
            self.calls[s[2]] += 1
            self.total[s[2]] += s[4] - s[3]
            self.own[s[2]] += self.self_s[s[0]]
            self.extra[s[2]] += s[6]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans, counts, kernels: bool = True) -> dict[str, tuple]:
    """Per-layer metrics of one traced workload iteration, as
    {name: (value, unit)}.  Ratios with a zero base read 0.  Without
    kernel spans (compiled kernels) kernel metrics are None."""
    L = Layers(spans)
    m: dict[str, tuple] = {}
    for st in STAGES:
        m[f"verify.{st}.total_s"] = (L.total[f"verify.{st}"], "s")
    for st in ("convergence_series", "geodesic_results", "invariance_results",
               "oracle_results"):
        m[f"verify.{st}.self_s"] = (L.own[f"verify.{st}"], "s")
    m["cli.parse_s"] = (L.total["cli.parse_config"] + L.total["cli.build_run_config"], "s")
    m["cli.render_s"] = (L.total["cli.render_csv"] + L.total["cli.render_report"], "s")
    m["cli.main.self_s"] = (L.own["cli.main"], "s")
    gi = "tensor_calc.geodesic_integrate"
    m[f"{gi}.calls"] = (L.calls[gi], "count")
    m[f"{gi}.total_s"] = (L.total[gi], "s")
    m[f"{gi}.left_domain_share"] = (_ratio(L.extra[gi], L.calls[gi]), "share")
    for fn in ("speed_drift", "orbit_invariant_drift"):
        m[f"tensor_calc.{fn}.total_s"] = (L.total[f"tensor_calc.{fn}"], "s")
    mv = "cheeger.MetricVariant"
    m[f"{mv}.matrix.calls"] = (L.calls[f"{mv}.matrix"], "count")
    m[f"{mv}.matrix.total_s"] = (L.total[f"{mv}.matrix"], "s")
    m[f"{mv}.reference_matrix.total_s"] = (L.total[f"{mv}.reference_matrix"], "s")
    act = ("scenarios.Scenario.act", "scenarios.Scenario.action_jacobian")
    m["scenarios.act.calls"] = (sum(L.calls[a] for a in act), "count")
    m["scenarios.act.total_s"] = (sum(L.total[a] for a in act), "s")
    for fn in ("sample_grid", "direction_pairs"):
        m[f"scenarios.{fn}.total_s"] = (L.total[f"scenarios.{fn}"], "s")
    m["gmanifold.killing_data.calls"] = (L.calls["gmanifold.killing_data"], "count")
    m["gmanifold.killing_data.total_s"] = (L.total["gmanifold.killing_data"], "s")

    kern: dict[str, tuple] = {}
    block_names = {f"kernels.{b}" for b in BLOCKS}
    in_block = nearest_ancestor(spans, block_names)
    frames = defaultdict(int)
    for s in spans:
        if s[2] == "kernels.adapted_frame" and s[0] in in_block:
            frames[in_block[s[0]]] += 1
    for b in BLOCKS:
        name = f"kernels.{b}"
        kern[f"{name}.calls"] = (L.calls[name], "count")
        kern[f"{name}.self_s"] = (L.own[name], "s")
        kern[f"{name}.us_per_point"] = (_ratio(L.total[name], L.extra[name], 1e6), "us")
        kern[f"{name}.frames_per_point"] = (_ratio(frames[name], L.extra[name]), "count")
    rk = "kernels.geodesic_rk4"
    kern[f"{rk}.steps"] = (L.extra[rk], "count")
    kern[f"{rk}.us_per_step"] = (_ratio(L.total[rk], L.extra[rk], 1e6), "us")
    fns = [f"kernels.{f}" for f in KERNEL_FNS]
    fns += [f"kernels.variant_metric.{t}" for t in VARIANT_TAGS]
    for name in fns:
        kern[f"{name}.calls"] = (L.calls[name], "count")
        kern[f"{name}.self_s"] = (L.own[name], "s")
        kern[f"{name}.us_per_call"] = (_ratio(L.total[name], L.calls[name], 1e6), "us")
    for name in COUNTED:
        kern[f"kernels.{name}.calls"] = (counts.get(f"kernels.{name}", 0), "count")
    # share of the frame-pipeline variant_metric calls (every tag but
    # original, which is the base metric itself) made inside a
    # finite-difference stencil
    in_stencil = nearest_ancestor(spans, {"kernels.variant_metric_dx",
                                          "kernels.t_tensor_norm"})
    pipeline = [s for s in spans if s[2].startswith("kernels.variant_metric.")
                and s[2] != "kernels.variant_metric.original"]
    kern["kernels.variant_metric.fd_share"] = (
        _ratio(sum(1 for s in pipeline if s[0] in in_stencil), len(pipeline)), "share")
    points = sum(L.extra[b] for b in block_names)
    kern["kernels.adapted_frame.per_point"] = (_ratio(sum(frames.values()), points), "count")
    if not kernels:
        kern = {name: (None, unit) for name, (_, unit) in kern.items()}
    m.update(kern)
    return m


def stage_total(spans) -> float:
    """Time covered by the verify stage spans."""
    names = {f"verify.{st}" for st in STAGES}
    return sum(s[4] - s[3] for s in spans if s[2] in names)


def per_call_by_scenario(spans, name, extra=None) -> dict[str, float]:
    """Mean seconds per call of one span name, per scenario."""
    tot = defaultdict(float)
    n = defaultdict(int)
    for s in spans:
        if s[2] == name and (extra is None or s[6] == extra):
            tot[s[5]] += s[4] - s[3]
            n[s[5]] += 1
    return {sid: tot[sid] / n[sid] for sid in n}
