"""Geodesics of metric variants and the sample plans of the norm stages.

Geodesics are integrated with classical fourth-order Runge-Kutta, all
starts as one stacked state, which may mix the base metric with one
other variant; each start keeps its own variant, status and step count.
The state is (position, covector p = g_v v), and the flow is Hamilton's
for the cometric g_v^{-1} = G^{-1} + A M_v A^T, exact for every variant
(both deformed routes share it): one product rule for every group, on
the catalogued derivatives of the base metric and of the Killing
operator, with no Christoffel symbols.  integrate_geodesics checks what
a stack holds, forms each start's covector from its variant's metric and
hands the kernel one tag and the mask of its base-metric rows.
A sample plan carries its points and the geometry of its points (the
kernels' OrbitData record and adapted frame), computed on first use, and
the verification stages pass them to every C^0, C^1 and gap block they
evaluate on the plan.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels as _k
from ._kernels import GEODESIC_CHART_MARGIN, H_FD
from .cheeger import MetricVariant
from .gmanifold import SIGMA_TOL, NumericalFailure
from .scenarios import Scenario

__all__ = [
    "GEODESIC_CHART_MARGIN",
    "GeodesicResult",
    "H_FD",
    "SamplePlan",
    "integrate_geodesics",
    "orbit_invariant_drift",
    "speed_drift",
]

@dataclass(frozen=True)
class GeodesicResult:
    """Sampled geodesic states: row t is (position, covector) after t
    integration steps."""

    variant: MetricVariant
    states: np.ndarray
    status: str
    steps: int

    @property
    def positions(self) -> np.ndarray:
        d = self.states.shape[1] // 2
        return self.states[: self.steps + 1, :d]

    @property
    def covectors(self) -> np.ndarray:
        d = self.states.shape[1] // 2
        return self.states[: self.steps + 1, d:]


_GEO_STATUS = {_k.OK: "ok", _k.LEFT_DOMAIN: "left_domain", _k.NUMERIC_FAIL: "numerical"}


def integrate_geodesics(v: MetricVariant | Sequence[MetricVariant],
                        x0s: np.ndarray, v0s: np.ndarray,
                        length: float, step: float,
                        unit_speed: bool = True) -> list[GeodesicResult]:
    """Integrate the geodesic equation from each start (x0s[s], v0s[s])
    as one stacked RK4 state; one result per start.

    v is one variant for every start, or one variant per start.  A
    per-start list may mix the base metric with one other variant, and
    each row then equals its start integrated under its own variant
    alone; the kernel takes that variant's tag and a mask of the
    base-metric rows.  Any other mix raises ValueError.  Each start's
    covector is p0 = g_v v0, divided by the variant speed sqrt(p0 . v0)
    unless unit_speed is False.  A start outside the chart box shrunk by
    GEODESIC_CHART_MARGIN raises DomainError.  A start stops
    alone at that margin (status left_domain); numerical breakdown of any
    start raises NumericalFailure naming the first failing start by its
    variant, its index among that variant's starts and the step.
    """
    x0s = np.asarray(x0s, dtype=float)
    variants = [v] * len(x0s) if isinstance(v, MetricVariant) else list(v)
    if len(variants) != len(x0s):
        raise ValueError(f"{len(variants)} variants for {len(x0s)} geodesic starts")
    # the starts of each variant, in order of first appearance
    starts: dict[tuple, list[int]] = {}
    for s, var in enumerate(variants):
        starts.setdefault((var.tag, var.l), []).append(s)
    # the variant whose tag and l the stack takes: the one that is not
    # the base metric, if any
    main = next((var for var in variants if var.tag != "original"), variants[0])
    if sum(tag != "original" for tag, _ in starts) > 1:
        raise ValueError("a mixed geodesic stack holds the base metric "
                         "and one other variant")
    scenario = main.scenario
    x0s = np.stack([scenario.chart.require_inside(x, GEODESIC_CHART_MARGIN)
                    for x in x0s])
    v0s = np.asarray(v0s, dtype=float)
    if step <= 0 or length <= 0:
        raise ValueError("geodesic step and length must be positive")
    # each start's covector p0 = g_v v0, from its own variant's metric
    p0s = np.empty_like(v0s)
    for rows in starts.values():
        var = variants[rows[0]]
        G = _k.variant_metric(scenario, scenario.params, var.tag_code, float(var.l),
                              x0s[rows], SIGMA_TOL)
        p0s[rows] = (G @ v0s[rows][:, :, None])[:, :, 0]
    if unit_speed:
        speed = np.sqrt((p0s * v0s).sum(axis=-1))
        if np.any(speed <= 0):
            raise ValueError("initial velocity must be nonzero")
        p0s = p0s / speed[:, None]
    base = np.array([var.tag == "original" for var in variants])
    n_steps = int(round(length / step))
    traj, status, _, done = _k.geodesic_rk4(
        scenario, scenario.params, main.tag_code, float(main.l), x0s, p0s,
        n_steps, float(step), None, None,  # h and analytic: ignored
        scenario.chart.lo, scenario.chart.hi,
        scenario.chart.periodic.astype(np.int64), SIGMA_TOL,
        base=base if base.any() and not base.all() else None)
    failed = np.flatnonzero(status == _k.NUMERIC_FAIL)
    if failed.size:
        s = failed[0]
        var = variants[s]
        raise NumericalFailure(
            f"geodesic integration of {var.label} from start "
            f"{starts[var.tag, var.l].index(s)} at "
            f"{x0s[s].tolist()} broke down at step {done[s]}")
    return [GeodesicResult(variant=variants[s], states=traj[s],
                           status=_GEO_STATUS[int(status[s])], steps=int(done[s]))
            for s in range(len(x0s))]


def speed_drift(res: GeodesicResult, stride: int = 50) -> float:
    """Max deviation of the squared variant speed p^T g_v^{-1} p (twice
    the Hamiltonian) from its initial value along the trajectory, sampled
    every stride steps and at the last completed step, so no tail of the
    run goes unchecked."""
    # the last multiple of the stride at or past the end becomes the end
    idx = np.arange(0, res.steps + stride, stride)
    idx[-1] = res.steps
    var, p = res.variant, res.covectors[idx]
    C = _k.variant_cometric(var.scenario, var.scenario.params, var.tag_code, float(var.l),
                            res.positions[idx], SIGMA_TOL)
    speeds = (p[:, None, :] @ C @ p[:, :, None])[:, 0, 0]
    return float(np.max(np.abs(speeds - speeds[0])))


def orbit_invariant_drift(res: GeodesicResult) -> float:
    """Max drift of the scenario's orbit invariants along the
    trajectory; 0 for transitive actions (no invariants)."""
    vals = res.variant.scenario.orbit_invariants(res.positions)
    if vals.shape[-1] == 0:
        return 0.0
    return float(np.max(np.abs(vals - vals[0])))


class SamplePlan:
    """Fixed evaluation plan for sup-norm estimates: the grid points and
    their geometry.  The geometry is computed on first read, so a stage
    that does not read it does not pay for it."""

    def __init__(self, scenario: Scenario, points: np.ndarray):
        self.scenario = scenario
        self.points = points

    @cached_property
    def geometry(self) -> tuple:
        """The OrbitData record and adapted frame at the plan points
        (_kernels.plan_geometry), computed once per plan."""
        sc = self.scenario
        return _k.plan_geometry(sc, sc.params, self.points, SIGMA_TOL)
