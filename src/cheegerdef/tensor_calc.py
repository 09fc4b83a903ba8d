"""Differential operators on metric variants.

Metric derivatives are exact for every variant but the deformed metric
of the reparametrisation route: the catalogued derivative for the base
metric, the product rule of the closed rank update for the closed-form,
rescaled and limit variants.  The reparametrisation route, the T-tensor
frame field and the test oracle use fourth-order central differences
with one Richardson extrapolation level (step h_fd).  Geodesics are
integrated with classical fourth-order Runge-Kutta, all starts as one
stacked state, which may mix the base metric with one rank-update
variant; each start keeps its own variant, status and step count.
Tensor norms and C^p distances are suprema over explicit sample plans,
measured against the base metric.  A plan carries its seeded direction
pairs and the orbit data and adapted frame of its points, each computed
on first use, and the verification stages pass them to every C^0 and gap
block they evaluate on the plan.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels as _k
from .cheeger import MetricVariant
from .gmanifold import SIGMA_TOL, DomainError, NumericalFailure
from .scenarios import Scenario, direction_pairs, sample_grid

__all__ = [
    "GeodesicResult",
    "H_FD",
    "SamplePlan",
    "TTensorSample",
    "UnsupportedOrderError",
    "christoffel",
    "cp_norm",
    "cp_norm_callable",
    "geodesic_integrate",
    "integrate_geodesics",
    "metric_derivatives",
    "orbit_invariant_drift",
    "speed_drift",
    "t_tensor",
]

# FD step for metric derivatives (coordinate units)
H_FD = 1e-4


class UnsupportedOrderError(ValueError):
    """C^p norms are implemented for p in {0, 1} only."""


def _use_analytic(v: MetricVariant) -> bool:
    """Every tag but cheeger has exact derivatives: the catalogued one
    for the base metric, the product rule of the rank update for the
    rest.  The reparametrisation route stays on finite differences."""
    return v.tag != "cheeger"


def metric_derivatives(v: MetricVariant, x: np.ndarray,
                       h: float = H_FD) -> np.ndarray:
    """First chart derivatives dG[m, i, j] of the variant at x."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(_k.variant_metric_dx(
        v.scenario, v.scenario.params, v.tag_code, float(v.l), x, h,
        _use_analytic(v), SIGMA_TOL))
    if np.any(np.isnan(out)):
        raise NumericalFailure(f"metric derivatives of {v.label} failed at {x.tolist()}")
    return out


def christoffel(v: MetricVariant, x: np.ndarray, h: float = H_FD) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the variant at x."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(_k.christoffel(
        v.scenario, v.scenario.params, v.tag_code, float(v.l), x, h,
        _use_analytic(v), SIGMA_TOL))
    if np.any(np.isnan(out)):
        raise NumericalFailure(f"christoffel of {v.label} failed at {x.tolist()}")
    return out


@dataclass(frozen=True)
class GeodesicResult:
    """Sampled geodesic states: row t is (position, velocity) after t
    steps of size dt."""

    variant: MetricVariant
    states: np.ndarray
    dt: float
    status: str
    steps: int

    @property
    def positions(self) -> np.ndarray:
        d = self.states.shape[1] // 2
        return self.states[: self.steps + 1, :d]

    @property
    def velocities(self) -> np.ndarray:
        d = self.states.shape[1] // 2
        return self.states[: self.steps + 1, d:]

    @property
    def arc_length(self) -> float:
        return self.steps * self.dt


_GEO_STATUS = {_k.OK: "ok", _k.LEFT_DOMAIN: "left_domain", _k.NUMERIC_FAIL: "numerical"}


def integrate_geodesics(v: MetricVariant | Sequence[MetricVariant],
                        x0s: np.ndarray, v0s: np.ndarray,
                        length: float = 3.0, step: float = 1e-3,
                        unit_speed: bool = True,
                        h: float = H_FD) -> list[GeodesicResult]:
    """Integrate the geodesic equation from each start (x0s[s], v0s[s])
    as one stacked RK4 state; one result per start.

    v is one variant for every start, or one variant per start.  A
    per-start list may mix the base metric with one variant of exact
    derivatives (limit, rescaled or the closed form), and each row then
    equals its start integrated under its own variant alone.  Each v0 is
    normalised to unit variant speed unless unit_speed is False.  A start
    outside the chart box shrunk by the integration margin
    (GEODESIC_MARGIN FD steps h) raises DomainError.  A start stops
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
    # the variant whose l and derivative path the stack takes: the one
    # that is not the base metric, if any
    main = next((var for var in variants if var.tag != "original"), variants[0])
    if sum(tag != "original" for tag, _ in starts) > 1:
        raise ValueError("a mixed geodesic stack holds the base metric "
                         "and one other variant")
    scenario = main.scenario
    x0s = np.stack([scenario.chart.require_inside(x, _k.GEODESIC_MARGIN * h)
                    for x in x0s])
    v0s = np.asarray(v0s, dtype=float)
    if step <= 0 or length <= 0:
        raise ValueError("geodesic step and length must be positive")
    if unit_speed:
        speed = np.empty(len(x0s))
        for rows in starts.values():
            G = variants[rows[0]].matrix(x0s[rows])
            w = v0s[rows]
            speed[rows] = np.sqrt((w[:, None, :] @ G @ w[:, :, None])[:, 0, 0])
        if np.any(speed <= 0):
            raise ValueError("initial velocity must be nonzero")
        v0s = v0s / speed[:, None]
    tag = (main.tag_code if len(starts) == 1
           else np.array([var.tag_code for var in variants]))
    n_steps = int(round(length / step))
    traj, status, _, done = _k.geodesic_rk4(
        scenario, scenario.params, tag, float(main.l), x0s, v0s,
        n_steps, float(step), h, _use_analytic(main),
        scenario.chart.lo, scenario.chart.hi,
        scenario.chart.periodic.astype(np.int64), SIGMA_TOL)
    failed = np.flatnonzero(status == _k.NUMERIC_FAIL)
    if failed.size:
        s = failed[0]
        var = variants[s]
        raise NumericalFailure(
            f"geodesic integration of {var.label} from start "
            f"{starts[var.tag, var.l].index(s)} at "
            f"{x0s[s].tolist()} broke down at step {done[s]}")
    return [GeodesicResult(variant=variants[s], states=traj[s], dt=float(step),
                           status=_GEO_STATUS[int(status[s])], steps=int(done[s]))
            for s in range(len(x0s))]


def geodesic_integrate(v: MetricVariant, x0: np.ndarray, v0: np.ndarray,
                       length: float = 3.0, step: float = 1e-3,
                       unit_speed: bool = True, h: float = H_FD) -> GeodesicResult:
    """Integrate the geodesic equation of the variant from one start
    (x0, v0); see integrate_geodesics."""
    return integrate_geodesics(v, [x0], [v0], length, step, unit_speed, h)[0]


def speed_drift(res: GeodesicResult, stride: int = 50) -> float:
    """Max deviation of the variant speed from its initial value along
    the trajectory, sampled every stride steps and at the last completed
    step, so no tail of the run goes unchecked."""
    # the last multiple of the stride at or past the end becomes the end
    idx = np.arange(0, res.steps + stride, stride)
    idx[-1] = res.steps
    pos = res.positions[idx]
    vel = res.velocities[idx]
    G = res.variant.matrix(pos)
    speeds = (vel[:, None, :] @ G @ vel[:, :, None])[:, 0, 0]
    return float(np.max(np.abs(speeds - speeds[0])))


def orbit_invariant_drift(res: GeodesicResult) -> float:
    """Max drift of the scenario's orbit invariants along the
    trajectory; 0 for transitive actions (no invariants)."""
    vals = res.variant.scenario.orbit_invariants(res.positions)
    if vals.shape[-1] == 0:
        return 0.0
    return float(np.max(np.abs(vals - vals[0])))


@dataclass(frozen=True)
class TTensorSample:
    """Norm of the second fundamental tensor of the orbit at a point."""

    x: np.ndarray
    value: float
    vacuous: bool


def t_tensor(v: MetricVariant, x: np.ndarray, h: float = H_FD) -> TTensorSample:
    """Max variant norm of (nabla_{V_a} V_b)^perp over unit vertical
    pairs at x, with the vertical frame orthonormal in the variant.

    Vacuous (exact 0) when the orbit fills the manifold.
    """
    x = np.asarray(x, dtype=float)
    scenario = v.scenario
    val = float(_k.t_tensor_norm(
        scenario, scenario.params, v.tag_code, float(v.l), x, h, SIGMA_TOL))
    if np.isnan(val):
        raise NumericalFailure(f"T-tensor of {v.label} failed at {x.tolist()}")
    vacuous = scenario.transitive
    return TTensorSample(x=x, value=val, vacuous=vacuous)


class SamplePlan:
    """Fixed evaluation plan for sup-norm estimates: grid points plus a
    batch of seeded direction pairs per point.

    The pairs are drawn on first read, from their own stream of the seed,
    unless the plan is given them; a stage that reads neither the pairs
    nor the geometry pays for neither.
    """

    def __init__(self, scenario: Scenario, points: np.ndarray,
                 dirs: np.ndarray | None = None, n_dirs: int = 50, seed: int = 42):
        self.scenario = scenario
        self.points = points
        self.n_dirs = n_dirs
        self.seed = seed
        if dirs is not None:
            # a given batch takes the place of the cached draw
            vars(self)["dirs"] = dirs

    @classmethod
    def build(cls, scenario: Scenario, n_points: int = 200, n_dirs: int = 50,
              seed: int = 42, margin: float | None = None) -> "SamplePlan":
        """The plan on the sample grid; its direction pairs and geometry
        are computed by the first stage that reads them."""
        return cls(scenario, sample_grid(scenario, n_points, margin),
                   n_dirs=n_dirs, seed=seed)

    @cached_property
    def dirs(self) -> np.ndarray:
        """Seeded direction pairs, (points, n_dirs, 2, dim)."""
        return direction_pairs(self.scenario, len(self.points), self.n_dirs, self.seed)

    @cached_property
    def geometry(self) -> tuple:
        """Orbit data and adapted frame at the plan points
        (_kernels.plan_geometry), computed once per plan."""
        sc = self.scenario
        return _k.plan_geometry(sc, sc.params, self.points, SIGMA_TOL)

    @property
    def realized_points(self) -> int:
        return len(self.points)


def cp_norm(va: MetricVariant, vb: MetricVariant, plan: SamplePlan,
            p: int, h: float = H_FD) -> float:
    """C^p distance of two metric variants over the plan.

    C^0 is the sup over plan points and base-metric-unit direction pairs
    of |(g_a - g_b)(u, v)|; the pairs range over the orbit-adapted frame
    and the plan's seeded directions.  C^1 is the max of the C^0 value
    and the sup of first chart derivatives of the component difference.
    A failure raises NumericalFailure naming the first failing plan point.
    """
    if p not in (0, 1):
        raise UnsupportedOrderError(
            f"C^p norms support p in {{0, 1}}, got p = {p}")
    scenario = va.scenario
    if vb.scenario.scenario_id != scenario.scenario_id:
        raise ValueError("variants must live on the same scenario")

    def sup(what, vals):
        failed = np.flatnonzero(np.isnan(vals))
        if failed.size:
            i = failed[0]
            raise NumericalFailure(f"{what} norm of {va.label} - {vb.label} failed at "
                                   f"plan point {i} {plan.points[i].tolist()}")
        return float(np.max(vals))

    c0 = sup("C^0", _k.c0_block(
        scenario, scenario.params, va.tag_code, float(va.l),
        vb.tag_code, float(vb.l), plan.points, plan.dirs, SIGMA_TOL))
    if p == 0:
        return c0
    c1 = sup("C^1", _k.c1_block(
        scenario, scenario.params, va.tag_code, float(va.l),
        vb.tag_code, float(vb.l), plan.points, h, SIGMA_TOL))
    return max(c0, c1)


def cp_norm_callable(delta_fn, plan: SamplePlan, p: int, h: float = H_FD) -> float:
    """C^p distance for an arbitrary difference evaluator (plain numpy
    reference path; the kernel blocks above must agree with it).

    delta_fn maps a chart point to the component difference matrix.
    """
    if p not in (0, 1):
        raise UnsupportedOrderError(
            f"C^p norms support p in {{0, 1}}, got p = {p}")
    scenario = plan.scenario
    best = 0.0
    d = scenario.dim
    for n, x in enumerate(plan.points):
        delta = delta_fn(x)
        G = scenario.metric_matrix(x)
        _G, _K, _mb, _iso, A, _P, status = _k.orbit_data(
            scenario, scenario.params, x, SIGMA_TOL)
        F, _L, fstatus = _k.adapted_frame(np.asarray(G), np.asarray(A))
        if status != _k.OK or fstatus != _k.OK:
            raise NumericalFailure(f"adapted frame failed at {x.tolist()}")
        best = max(best, float(_k._pair_sup(np.asarray(G), np.asarray(F),
                                            np.asarray(delta), plan.dirs[n])))
    if p == 0:
        return best
    for x in plan.points:
        for m in range(d):
            e = np.zeros(d)
            e[m] = 1.0
            d1 = (delta_fn(x - 2 * h * e) - 8 * delta_fn(x - h * e)
                  + 8 * delta_fn(x + h * e) - delta_fn(x + 2 * h * e)) / (12 * h)
            d2 = (delta_fn(x - h * e) - 8 * delta_fn(x - 0.5 * h * e)
                  + 8 * delta_fn(x + 0.5 * h * e) - delta_fn(x + h * e)) / (6 * h)
            deriv = (16.0 * d2 - d1) / 15.0
            best = max(best, float(np.max(np.abs(deriv))))
    return best
