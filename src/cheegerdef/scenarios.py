"""Catalogue of group actions on model manifolds.

Each scenario packages a chart, an isometric action of a catalogued
group, the invariant base metric, a sampling region for the verification
sweeps, and catalogued defaults (geodesic starts, sampling margin).

Catalogued scenarios:

- s2_band: circle acting by rotation on a band of the round 2-sphere.
- warped_s2: the same action, warped fiber length sin(phi)^2(1+A sin(phi)).
- s3_hopf: circle acting along the Hopf fibers of the round 3-sphere.
- su2_s2: the rank-one special unitary group acting transitively on the
  round 2-sphere (isotropy a circle at every point).
- t2_flat: circle acting on the first factor of a flat 2-torus with
  orbit length parameter a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels as _k
from .gmanifold import Chart
from .lie_core import GroupElement, LieGroupModel, get_group

__all__ = [
    "ActionModel",
    "InvariantMetricField",
    "Scenario",
    "direction_pairs",
    "get_scenario",
    "invariance_elements",
    "list_scenarios",
    "oracle_samples",
    "rng_for",
    "sample_grid",
    "sampling_box",
]

# catalogued scenario parameters
DEFAULT_WARP_AMPLITUDE = 0.3
DEFAULT_ORBIT_LENGTH = 1.0

# sub-streams of the run seed for the counter-based generator
_STREAM_DIRECTIONS = 1
_STREAM_ELEMENTS = 2
_STREAM_ORACLE = 3


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic generator for (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + stream))


@dataclass(frozen=True)
class ActionModel:
    """Chart expression of a group action with its derivative."""

    group: LieGroupModel
    act: Callable[[GroupElement, np.ndarray], np.ndarray]
    jacobian: Callable[[GroupElement, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InvariantMetricField:
    """Metric components in chart coordinates."""

    matrix: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    code: int
    group: LieGroupModel
    chart: Chart
    params: np.ndarray
    region_lo: np.ndarray
    region_hi: np.ndarray
    action: ActionModel
    metric: InvariantMetricField
    sample_margin: float
    geodesic_transverse: tuple[float, ...]
    start_from_transverse: Callable[[float], np.ndarray]
    # invariants (..., k) of a point or of a stack (..., dim) of points
    orbit_invariants: Callable[[np.ndarray], np.ndarray]
    element_scale: float | None
    transitive: bool
    # orbits fail to be geodesic in the base metric, so the base-metric
    # drift check has discriminating power
    expect_base_drift: bool

    def act(self, g: GroupElement, x: np.ndarray) -> np.ndarray:
        """Image of a chart point, or of a stack (..., dim) of them, under g."""
        return self.action.act(g, x)

    def action_jacobian(self, g: GroupElement, x: np.ndarray) -> np.ndarray:
        """Chart Jacobian of g at a point, or (..., dim, dim) at a stack."""
        return self.action.jacobian(g, x)

    def metric_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.metric.matrix(x)

    @property
    def dim(self) -> int:
        return self.chart.dim

    def geodesic_starts(self) -> tuple[np.ndarray, ...]:
        return tuple(self.start_from_transverse(c) for c in self.geodesic_transverse)


def _so2_angle(M: np.ndarray) -> float:
    return float(np.arctan2(M[1, 0], M[0, 0]))


def _quat_to_rotation(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _sphere_embed(x: np.ndarray) -> np.ndarray:
    th, ph = x[..., 0], x[..., 1]
    sp = np.sin(ph)
    return np.stack([sp * np.cos(th), sp * np.sin(th), np.cos(ph)], axis=-1)


def _sphere_coord_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embedded coordinate fields (d_theta p, d_phi p) at chart points."""
    th, ph = x[..., 0], x[..., 1]
    sp = np.sin(ph)
    cp = np.cos(ph)
    d_th = np.stack([-sp * np.sin(th), sp * np.cos(th), np.zeros_like(th)], axis=-1)
    d_ph = np.stack([cp * np.cos(th), cp * np.sin(th), -sp], axis=-1)
    return d_th, d_ph


def _su2_act(g: GroupElement, x: np.ndarray) -> np.ndarray:
    R = _quat_to_rotation(g.matrix[:, 0])
    p = _sphere_embed(x) @ R.T
    ph = np.arccos(np.clip(p[..., 2], -1.0, 1.0))
    th = np.arctan2(p[..., 1], p[..., 0])
    # keep the angle on the branch nearest the input for continuity
    th = th + 2 * np.pi * np.round((x[..., 0] - th) / (2 * np.pi))
    return np.stack([th, ph], axis=-1)


def _su2_jacobian(g: GroupElement, x: np.ndarray) -> np.ndarray:
    R = _quat_to_rotation(g.matrix[:, 0])
    y = _su2_act(g, x)
    d_th_x, d_ph_x = _sphere_coord_fields(x)
    d_th_y, d_ph_y = _sphere_coord_fields(y)
    w_th = d_th_x @ R.T
    w_ph = d_ph_x @ R.T
    s2 = np.sin(y[..., 1]) ** 2

    def dot(a, b):
        return (a * b).sum(axis=-1)

    return np.stack([
        np.stack([dot(d_th_y, w_th) / s2, dot(d_th_y, w_ph) / s2], axis=-1),
        np.stack([dot(d_ph_y, w_th), dot(d_ph_y, w_ph)], axis=-1),
    ], axis=-2)


def _shift_action(group: LieGroupModel, shifted: tuple[int, ...], dim: int) -> ActionModel:
    """Circle action shifting the listed periodic coordinates in step."""

    def act(g: GroupElement, x: np.ndarray) -> np.ndarray:
        a = _so2_angle(g.matrix)
        y = np.array(x, dtype=float)
        for m in shifted:
            y[..., m] = y[..., m] + a
        return y

    def jacobian(g: GroupElement, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.eye(dim), np.shape(x)[:-1] + (dim, dim)).copy()

    return ActionModel(group=group, act=act, jacobian=jacobian)


def _kernel_metric(code: int, params: np.ndarray) -> InvariantMetricField:
    def matrix(x: np.ndarray) -> np.ndarray:
        return np.asarray(_k.gm_metric(code, params, np.asarray(x, dtype=float)))

    return InvariantMetricField(matrix=matrix)


_TWO_PI = 2 * np.pi


def _build_s2_like(scenario_id: str, code: int, params: np.ndarray,
                   sample_margin: float) -> Scenario:
    group = get_group("u1")
    chart = Chart(labels=("theta", "phi"),
                  lo=np.array([0.0, 0.2]), hi=np.array([_TWO_PI, np.pi - 0.2]),
                  periodic=np.array([True, False]))
    return Scenario(
        scenario_id=scenario_id,
        code=code,
        group=group,
        chart=chart,
        params=params,
        region_lo=np.array([0.0, 0.4]),
        region_hi=np.array([_TWO_PI, np.pi - 0.4]),
        action=_shift_action(group, (0,), 2),
        metric=_kernel_metric(code, params),
        sample_margin=sample_margin,
        geodesic_transverse=(0.6, 0.9, 1.2),
        start_from_transverse=lambda c: np.array([0.3, float(c)]),
        orbit_invariants=lambda x: x[..., 1:2],
        element_scale=None,
        transitive=False,
        expect_base_drift=True,
    )


def _build_s3_hopf(sample_margin: float) -> Scenario:
    group = get_group("u1")
    params = np.array([0.0])
    chart = Chart(labels=("xi1", "xi2", "eta"),
                  lo=np.array([0.0, 0.0, 0.15]),
                  hi=np.array([_TWO_PI, _TWO_PI, np.pi / 2 - 0.15]),
                  periodic=np.array([True, True, False]))
    return Scenario(
        scenario_id="s3_hopf",
        code=_k.S3_HOPF,
        group=group,
        chart=chart,
        params=params,
        region_lo=np.array([0.0, 0.0, 0.3]),
        region_hi=np.array([_TWO_PI, _TWO_PI, np.pi / 2 - 0.3]),
        action=_shift_action(group, (0, 1), 3),
        metric=_kernel_metric(_k.S3_HOPF, params),
        sample_margin=sample_margin,
        geodesic_transverse=(0.5, 0.8, 1.1),
        start_from_transverse=lambda c: np.array([0.5, 1.7, float(c)]),
        orbit_invariants=lambda x: np.stack([x[..., 0] - x[..., 1], x[..., 2]],
                                            axis=-1),
        element_scale=None,
        transitive=False,
        expect_base_drift=False,
    )


def _build_su2_s2(sample_margin: float) -> Scenario:
    group = get_group("su2")
    params = np.array([0.0])
    chart = Chart(labels=("theta", "phi"),
                  lo=np.array([0.0, 0.25]), hi=np.array([_TWO_PI, np.pi - 0.25]),
                  periodic=np.array([True, False]))
    return Scenario(
        scenario_id="su2_s2",
        code=_k.SU2_S2,
        group=group,
        chart=chart,
        params=params,
        region_lo=np.array([0.0, 0.9]),
        region_hi=np.array([_TWO_PI, np.pi - 0.9]),
        action=ActionModel(group=group, act=_su2_act, jacobian=_su2_jacobian),
        metric=_kernel_metric(_k.SU2_S2, params),
        sample_margin=sample_margin,
        geodesic_transverse=(1.2, 1.6, 2.0),
        start_from_transverse=lambda c: np.array([0.3, float(c)]),
        orbit_invariants=lambda x: np.zeros(np.shape(x)[:-1] + (0,)),
        # bounded rotations keep transformed sample points inside the chart
        element_scale=0.6,
        transitive=True,
        expect_base_drift=False,
    )


def _build_t2_flat(orbit_length: float, sample_margin: float) -> Scenario:
    group = get_group("u1")
    params = np.array([float(orbit_length)])
    chart = Chart(labels=("x1", "x2"),
                  lo=np.array([0.0, 0.0]), hi=np.array([_TWO_PI, _TWO_PI]),
                  periodic=np.array([True, True]))
    return Scenario(
        scenario_id="t2_flat",
        code=_k.T2_FLAT,
        group=group,
        chart=chart,
        params=params,
        region_lo=np.array([0.0, 0.0]),
        region_hi=np.array([_TWO_PI, _TWO_PI]),
        action=_shift_action(group, (0,), 2),
        metric=_kernel_metric(_k.T2_FLAT, params),
        sample_margin=sample_margin,
        geodesic_transverse=(1.0, 3.0, 5.0),
        start_from_transverse=lambda c: np.array([0.7, float(c)]),
        orbit_invariants=lambda x: x[..., 1:2],
        element_scale=None,
        transitive=False,
        expect_base_drift=False,
    )


_SCENARIO_IDS = ("s2_band", "warped_s2", "s3_hopf", "su2_s2", "t2_flat")


def list_scenarios() -> tuple[str, ...]:
    return _SCENARIO_IDS


def get_scenario(scenario_id: str, warp_amplitude: float = DEFAULT_WARP_AMPLITUDE,
                 orbit_length: float = DEFAULT_ORBIT_LENGTH,
                 sample_margin: float = 0.1) -> Scenario:
    """Build a catalogued scenario.

    warp_amplitude applies to warped_s2 only, orbit_length to t2_flat
    only; both are ignored elsewhere.  sample_margin shrinks the sampling
    region away from non-periodic boundaries.
    """
    if sample_margin < 0:
        raise ValueError("sample_margin must be nonnegative")
    if scenario_id == "s2_band":
        return _build_s2_like("s2_band", _k.S2_BAND, np.array([0.0]), sample_margin)
    if scenario_id == "warped_s2":
        if not -0.9 < warp_amplitude < 0.9:
            raise ValueError("warp_amplitude must lie in (-0.9, 0.9)")
        return _build_s2_like("warped_s2", _k.WARPED_S2,
                              np.array([float(warp_amplitude)]), sample_margin)
    if scenario_id == "s3_hopf":
        return _build_s3_hopf(sample_margin)
    if scenario_id == "su2_s2":
        return _build_su2_s2(sample_margin)
    if scenario_id == "t2_flat":
        if not 0 < orbit_length < np.inf:
            raise ValueError("orbit_length must be positive and finite")
        return _build_t2_flat(orbit_length, sample_margin)
    raise KeyError(f"unknown scenario '{scenario_id}'")


def sampling_box(scenario: Scenario,
                 margin: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) of the sampling region with the non-periodic axes
    shrunk by the margin (default: the scenario's).  Raises ValueError
    naming the first coordinate whose interval the margin empties."""
    if margin is None:
        margin = scenario.sample_margin
    shrink = np.where(scenario.chart.periodic, 0.0, margin)
    lo, hi = scenario.region_lo + shrink, scenario.region_hi - shrink
    empty = np.flatnonzero(lo >= hi)
    if empty.size:
        raise ValueError(
            f"margin {margin} empties the sampling interval of "
            f"coordinate {scenario.chart.labels[empty[0]]}")
    return lo, hi


def sample_grid(scenario: Scenario, n_points: int,
                margin: float | None = None) -> np.ndarray:
    """Deterministic product grid over the sampling region.

    Periodic axes get evenly spaced open intervals, non-periodic axes
    closed intervals shrunk by the margin, so region boundary values are
    attained exactly.  The realized count is the nearest per-axis power
    at or around n_points and is echoed in run reports.
    """
    lo, hi = sampling_box(scenario, margin)
    per_axis = max(2, int(round(n_points ** (1.0 / scenario.dim))))
    axes = [np.linspace(a, b, per_axis, endpoint=not periodic)
            for a, b, periodic in zip(lo, hi, scenario.chart.periodic)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    return np.ascontiguousarray(pts)


def direction_pairs(scenario: Scenario, n_points: int, n_pairs: int,
                    seed: int) -> np.ndarray:
    """Seeded direction pairs for the sup-norm plan, one batch per point.

    Raw (unnormalised) directions; consumers normalise in the metric they
    measure with.
    """
    rng = rng_for(seed, _STREAM_DIRECTIONS)
    dirs = rng.standard_normal((n_points, n_pairs, 2, scenario.dim))
    return np.ascontiguousarray(dirs)


def invariance_elements(scenario: Scenario, count: int,
                        seed: int) -> list[GroupElement]:
    rng = rng_for(seed, _STREAM_ELEMENTS)
    return [scenario.group.random_element(rng, scenario.element_scale)
            for _ in range(count)]


def oracle_samples(scenario: Scenario, count: int, seed: int,
                   margin: float | None = None,
                   l_range: tuple[float, float] = (0.05, 5.0)) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (points, deformation parameters) for route-agreement checks,
    drawn from the sampling region shrunk by the margin (default: the
    scenario's) on non-periodic axes."""
    lo, hi = sampling_box(scenario, margin)
    rng = rng_for(seed, _STREAM_ORACLE)
    # drawn axis by axis; the draw order fixes which samples a seed gives
    pts = rng.uniform(lo[:, None], hi[:, None], size=(scenario.dim, count)).T
    ls = np.exp(rng.uniform(np.log(l_range[0]), np.log(l_range[1]), size=count))
    return np.ascontiguousarray(pts), ls
