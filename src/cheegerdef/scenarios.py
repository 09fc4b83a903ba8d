"""Catalogue of group actions on model manifolds.

Each catalogued scenario is one Scenario record: a chart, a group with
its action and the action's chart Jacobian, the invariant base metric
g_M and the Killing operator K with their first chart derivatives, the
orbit rank, the orbit invariants, a sampling region for the
verification sweeps and the catalogued geodesic starts.  The kernels
take the record as their scenario argument and call its functions, so
adding a scenario is one entry of _CATALOGUE.

Catalogued scenarios:

- s2_band: circle acting by rotation on a band of the round 2-sphere.
- warped_s2: the same action, warped fiber length sin(phi)^2(1+A sin(phi)).
- s3_hopf: circle acting along the Hopf fibers of the round 3-sphere.
- su2_s2: the rank-one special unitary group acting transitively on the
  round 2-sphere (isotropy a circle at every point).
- t2_flat: circle acting on the first factor of a flat 2-torus with
  orbit length parameter a.

The seeded draws (direction pairs, invariance elements, oracle samples)
come from counter-based streams of the run seed (uniform_draws): each
entry is a pure function of (seed, stream, index), so reruns repeat
them, and each draw is prefix-stable, a smaller count giving the first
rows of a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .gmanifold import Chart
from .lie_core import (GroupElement, LieGroupModel, box_muller, closed_form_exp,
                       get_group)

__all__ = [
    "Scenario",
    "direction_pairs",
    "get_scenario",
    "invariance_elements",
    "list_scenarios",
    "oracle_samples",
    "sample_grid",
    "sampling_box",
    "uniform_draws",
]

# catalogued scenario parameters
DEFAULT_WARP_AMPLITUDE = 0.3
DEFAULT_ORBIT_LENGTH = 1.0
DEFAULT_SAMPLE_MARGIN = 0.1
# range of the log-uniform deformation parameters of the oracle samples
_ORACLE_L_RANGE = (0.05, 5.0)

# sub-streams of the run seed for the counter-based generator
_STREAM_DIRECTIONS = 1
_STREAM_ELEMENTS = 2
_STREAM_ORACLE = 3

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the counter increment
# and the two multipliers of its finaliser.  All arithmetic runs on uint64
# arrays, which wrap modulo 2**64 without a warning (numpy scalars warn).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of a uint64 array, a bijection of 2**64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def uniform_draws(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic uniforms in [0, 1) for (seed, stream), of the given
    shape.

    Counter-based: row-major entry i is the top 53 bits of the SplitMix64
    finaliser of key + (i + 1) * gamma, with key the finaliser of the
    seed's finaliser plus the stream, so every entry depends on its index
    alone and a block of n entries is the first n of any longer block.
    """
    key = _mix64(_mix64(np.array([seed], dtype=np.uint64)) + np.uint64(stream))
    counter = np.arange(1, int(np.prod(shape)) + 1, dtype=np.uint64)
    bits = _mix64(key + counter * _GAMMA)
    return ((bits >> np.uint64(11)) * 2.0 ** -53).reshape(shape)


@dataclass(frozen=True)
class Scenario:
    """One catalogued action.

    metric, metric_dx, killing and killing_dx map (params, x), with x a
    chart point or a stack (..., dim) of points, to g_ij, d_m g_ij
    [..., m, i, j], K_ik and d_m K_ik [..., m, i, k]; column k of K is
    the action field of the k-th orthonormal algebra basis element.
    action and jacobian map (g, x) to the image of x under g and its
    chart Jacobian.  g is one element, or a stack of E elements whose
    matrix is an (E, n, n) stack; the element axis then goes in front of
    the point axes, giving (E, ..., dim) images and (E, ..., dim, dim)
    Jacobians.
    """

    scenario_id: str
    group: LieGroupModel
    chart: Chart
    action: Callable[[GroupElement, np.ndarray], np.ndarray]
    jacobian: Callable[[GroupElement, np.ndarray], np.ndarray]
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray]
    metric_dx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    killing: Callable[[np.ndarray, np.ndarray], np.ndarray]
    killing_dx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # dimension of every orbit
    rank: int
    # invariants (..., k) of a point or of a stack (..., dim) of points
    orbit_invariants: Callable[[np.ndarray], np.ndarray]
    region_lo: np.ndarray
    region_hi: np.ndarray
    geodesic_transverse: tuple[float, ...]
    start_from_transverse: Callable[[float], np.ndarray]
    element_scale: float | None
    # orbits fail to be geodesic in the base metric, so the base-metric
    # drift check has discriminating power
    expect_base_drift: bool
    # the get_scenario keyword that sets params[0], if any
    parameter: str | None = None
    params: np.ndarray = field(default_factory=lambda: np.array([0.0]))

    def act(self, g: GroupElement, x: np.ndarray) -> np.ndarray:
        """Image of a chart point, or of a stack (..., dim) of them, under g
        (or under each element of a stack g, element axis first)."""
        return self.action(g, x)

    def action_jacobian(self, g: GroupElement, x: np.ndarray) -> np.ndarray:
        """Chart Jacobian of g at a point, or (..., dim, dim) at a stack
        (element axis first for a stack g)."""
        return self.jacobian(g, x)

    @property
    def code(self) -> Scenario:
        """The record itself, the kernels' scenario argument: kernel calls
        written as k.<fn>(sc.code, sc.params, ...) pass the record."""
        return self

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def transitive(self) -> bool:
        return self.rank == self.dim


def _filled(x, shape, entries):
    """Array (..., *shape) over the points x, zero but for the given
    {index: value} entries."""
    M = np.zeros(x.shape[:-1] + shape)
    for index, value in entries.items():
        M[(...,) + index] = value
    return M


def _round_sphere_metric(par, x):
    s = np.sin(x[..., 1])
    return _filled(x, (2, 2), {(0, 0): s * s, (1, 1): 1.0})


def _round_sphere_metric_dx(par, x):
    return _filled(x, (2, 2, 2), {(1, 0, 0): np.sin(2.0 * x[..., 1])})


def _warped_metric(par, x):
    s = np.sin(x[..., 1])
    return _filled(x, (2, 2), {(0, 0): s * s * (1.0 + par[0] * s), (1, 1): 1.0})


def _warped_metric_dx(par, x):
    s = np.sin(x[..., 1])
    c = np.cos(x[..., 1])
    amp = par[0]
    return _filled(x, (2, 2, 2),
                   {(1, 0, 0): 2.0 * s * c * (1.0 + amp * s) + s * s * amp * c})


def _hopf_metric(par, x):
    c = np.cos(x[..., 2])
    s = np.sin(x[..., 2])
    return _filled(x, (3, 3), {(0, 0): c * c, (1, 1): s * s, (2, 2): 1.0})


def _hopf_metric_dx(par, x):
    return _filled(x, (3, 3, 3), {(2, 0, 0): -np.sin(2.0 * x[..., 2]),
                                  (2, 1, 1): np.sin(2.0 * x[..., 2])})


def _flat_metric(par, x):
    a = par[0]
    return _filled(x, (2, 2), {(0, 0): a * a, (1, 1): 1.0})


def _flat_metric_dx(par, x):
    return _filled(x, (2, 2, 2), {})


def _elements(g: GroupElement) -> tuple[int, ...]:
    """Element axes of g: () for one element, (E,) for a stack."""
    return g.matrix.shape[:-2]


def _so2_angle(M: np.ndarray) -> np.ndarray:
    """Rotation angle of an SO(2) matrix, or of each in a stack."""
    return np.arctan2(M[..., 1, 0], M[..., 0, 0])


def _circle_shift(dim: int, shifted: tuple[int, ...]) -> dict:
    """Group, action, Jacobian, Killing operator (with its zero
    derivative) and rank of the circle shifting the listed periodic
    coordinates in step."""

    def action(g: GroupElement, x: np.ndarray) -> np.ndarray:
        # one angle per element, broadcast over the point axes of x
        a = np.reshape(_so2_angle(g.matrix), _elements(g) + (1,) * (np.ndim(x) - 1))
        y = np.array(np.broadcast_to(x, _elements(g) + np.shape(x)), dtype=float)
        for m in shifted:
            y[..., m] = y[..., m] + a
        return y

    def jacobian(g: GroupElement, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.eye(dim),
                               _elements(g) + np.shape(x)[:-1] + (dim, dim)).copy()

    def killing(par, x):
        return _filled(x, (dim, 1), {(m, 0): 1.0 for m in shifted})

    def killing_dx(par, x):
        return _filled(x, (dim, dim, 1), {})

    return dict(group=get_group("u1"), action=action, jacobian=jacobian,
                killing=killing, killing_dx=killing_dx, rank=1)


def _quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z), or (..., 3, 3)
    for a stack (..., 4)."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


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


def _su2_rotation(g: GroupElement, x: np.ndarray) -> np.ndarray:
    """Rotation of the embedded sphere by g, with unit axes between the
    element axes and the matrix so that the rotation of a row vector
    stack (..., 3) at the points x is v @ R.mT."""
    R = _quat_to_rotation(g.matrix[..., :, 0])
    return np.reshape(R, _elements(g) + (1,) * max(np.ndim(x) - 2, 0) + (3, 3))


def _su2_act(g: GroupElement, x: np.ndarray) -> np.ndarray:
    R = _su2_rotation(g, x)
    p = _sphere_embed(x) @ R.mT
    ph = np.arccos(np.clip(p[..., 2], -1.0, 1.0))
    th = np.arctan2(p[..., 1], p[..., 0])
    # keep the angle on the branch nearest the input for continuity
    th = th + 2 * np.pi * np.round((x[..., 0] - th) / (2 * np.pi))
    return np.stack([th, ph], axis=-1)


def _su2_jacobian(g: GroupElement, x: np.ndarray) -> np.ndarray:
    R = _su2_rotation(g, x)
    y = _su2_act(g, x)
    d_th_x, d_ph_x = _sphere_coord_fields(x)
    d_th_y, d_ph_y = _sphere_coord_fields(y)
    w_th = d_th_x @ R.mT
    w_ph = d_ph_x @ R.mT
    s2 = np.sin(y[..., 1]) ** 2

    def dot(a, b):
        return (a * b).sum(axis=-1)

    return np.stack([
        np.stack([dot(d_th_y, w_th) / s2, dot(d_th_y, w_ph) / s2], axis=-1),
        np.stack([dot(d_ph_y, w_th), dot(d_ph_y, w_ph)], axis=-1),
    ], axis=-2)


def _rotation_killing(par, x):
    """The three rotation fields of the sphere in polar coordinates."""
    ct = np.cos(x[..., 0])
    st = np.sin(x[..., 0])
    cot = np.cos(x[..., 1]) / np.sin(x[..., 1])
    return _filled(x, (2, 3), {(0, 0): -ct * cot, (1, 0): -st, (0, 1): -st * cot,
                               (1, 1): ct, (0, 2): 1.0})


def _rotation_killing_dx(par, x):
    ct = np.cos(x[..., 0])
    st = np.sin(x[..., 0])
    cot = np.cos(x[..., 1]) / np.sin(x[..., 1])
    csc2 = 1.0 / (np.sin(x[..., 1]) * np.sin(x[..., 1]))
    return _filled(x, (2, 2, 3), {(0, 0, 0): st * cot, (0, 1, 0): -ct,
                                  (0, 0, 1): -ct * cot, (0, 1, 1): -st,
                                  (1, 0, 0): ct * csc2, (1, 0, 1): st * csc2})


_TWO_PI = 2 * np.pi


def _sphere_chart(margin: float) -> Chart:
    return Chart(labels=("theta", "phi"),
                 lo=np.array([0.0, margin]), hi=np.array([_TWO_PI, np.pi - margin]),
                 periodic=np.array([True, False]))


def _s2_band_like(scenario_id: str, **geometry) -> Scenario:
    """A circle rotating a band of a rotationally symmetric sphere."""
    return Scenario(
        scenario_id=scenario_id,
        chart=_sphere_chart(0.2),
        **_circle_shift(2, (0,)),
        **geometry,
        orbit_invariants=lambda x: x[..., 1:2],
        region_lo=np.array([0.0, 0.4]),
        region_hi=np.array([_TWO_PI, np.pi - 0.4]),
        geodesic_transverse=(0.6, 0.9, 1.2),
        start_from_transverse=lambda c: np.array([0.3, float(c)]),
        element_scale=None,
        expect_base_drift=True,
    )


_CATALOGUE = {s.scenario_id: s for s in (
    _s2_band_like("s2_band", metric=_round_sphere_metric,
                  metric_dx=_round_sphere_metric_dx),
    _s2_band_like("warped_s2", metric=_warped_metric, metric_dx=_warped_metric_dx,
                  parameter="warp_amplitude"),
    Scenario(
        scenario_id="s3_hopf",
        chart=Chart(labels=("xi1", "xi2", "eta"),
                    lo=np.array([0.0, 0.0, 0.15]),
                    hi=np.array([_TWO_PI, _TWO_PI, np.pi / 2 - 0.15]),
                    periodic=np.array([True, True, False])),
        **_circle_shift(3, (0, 1)),
        metric=_hopf_metric,
        metric_dx=_hopf_metric_dx,
        orbit_invariants=lambda x: np.stack([x[..., 0] - x[..., 1], x[..., 2]],
                                            axis=-1),
        region_lo=np.array([0.0, 0.0, 0.3]),
        region_hi=np.array([_TWO_PI, _TWO_PI, np.pi / 2 - 0.3]),
        geodesic_transverse=(0.5, 0.8, 1.1),
        start_from_transverse=lambda c: np.array([0.5, 1.7, float(c)]),
        element_scale=None,
        expect_base_drift=False,
    ),
    Scenario(
        scenario_id="su2_s2",
        group=get_group("su2"),
        chart=_sphere_chart(0.25),
        action=_su2_act,
        jacobian=_su2_jacobian,
        metric=_round_sphere_metric,
        metric_dx=_round_sphere_metric_dx,
        killing=_rotation_killing,
        killing_dx=_rotation_killing_dx,
        rank=2,
        orbit_invariants=lambda x: np.zeros(np.shape(x)[:-1] + (0,)),
        region_lo=np.array([0.0, 0.9]),
        region_hi=np.array([_TWO_PI, np.pi - 0.9]),
        geodesic_transverse=(1.2, 1.6, 2.0),
        start_from_transverse=lambda c: np.array([0.3, float(c)]),
        # bounded rotations keep transformed sample points inside the chart
        element_scale=0.6,
        expect_base_drift=False,
    ),
    Scenario(
        scenario_id="t2_flat",
        chart=Chart(labels=("x1", "x2"),
                    lo=np.array([0.0, 0.0]), hi=np.array([_TWO_PI, _TWO_PI]),
                    periodic=np.array([True, True])),
        **_circle_shift(2, (0,)),
        metric=_flat_metric,
        metric_dx=_flat_metric_dx,
        orbit_invariants=lambda x: x[..., 1:2],
        region_lo=np.array([0.0, 0.0]),
        region_hi=np.array([_TWO_PI, _TWO_PI]),
        geodesic_transverse=(1.0, 3.0, 5.0),
        start_from_transverse=lambda c: np.array([0.7, float(c)]),
        element_scale=None,
        expect_base_drift=False,
        parameter="orbit_length",
    ),
)}

# admitted values of the scenario parameters, by get_scenario keyword
_PARAMETER_RANGES = {
    "warp_amplitude": (lambda a: -0.9 < a < 0.9, "must lie in (-0.9, 0.9)"),
    "orbit_length": (lambda a: 0 < a < np.inf, "must be positive and finite"),
}


def list_scenarios() -> tuple[str, ...]:
    return tuple(_CATALOGUE)


def get_scenario(scenario_id: str, warp_amplitude: float = DEFAULT_WARP_AMPLITUDE,
                 orbit_length: float = DEFAULT_ORBIT_LENGTH) -> Scenario:
    """A catalogued scenario with its parameter set.

    warp_amplitude applies to warped_s2 only, orbit_length to t2_flat
    only; both are ignored elsewhere.
    """
    if scenario_id not in _CATALOGUE:
        raise KeyError(f"unknown scenario '{scenario_id}'")
    record = _CATALOGUE[scenario_id]
    if record.parameter is None:
        return record
    value = {"warp_amplitude": warp_amplitude, "orbit_length": orbit_length}[record.parameter]
    admitted, problem = _PARAMETER_RANGES[record.parameter]
    if not admitted(value):
        raise ValueError(f"{record.parameter} {problem}")
    return replace(record, params=np.array([float(value)]))


def sampling_box(scenario: Scenario,
                 margin: float = DEFAULT_SAMPLE_MARGIN) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) of the sampling region with the non-periodic axes
    shrunk by the margin.  Raises ValueError naming the first coordinate
    whose interval the margin empties."""
    shrink = np.where(scenario.chart.periodic, 0.0, margin)
    lo, hi = scenario.region_lo + shrink, scenario.region_hi - shrink
    empty = np.flatnonzero(lo >= hi)
    if empty.size:
        raise ValueError(
            f"margin {margin} empties the sampling interval of "
            f"coordinate {scenario.chart.labels[empty[0]]}")
    return lo, hi


def sample_grid(scenario: Scenario, n_points: int,
                margin: float = DEFAULT_SAMPLE_MARGIN) -> np.ndarray:
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
    """Seeded raw (unnormalised) direction pairs, (n_points, n_pairs, 2,
    dim), standard normal entries.  The invariance stage's kappa duality
    check reads the first vector of one pair per point; the benchmark's
    warm-up draws pairs to pass to c0_block, which ignores them.
    """
    u = uniform_draws(seed, _STREAM_DIRECTIONS, (n_points, n_pairs, 2, scenario.dim, 2))
    return box_muller(u[..., 0], u[..., 1])


def invariance_elements(scenario: Scenario, count: int, seed: int) -> GroupElement:
    """Seeded group elements as one stacked element, its matrix (count,
    n, n): the exponentials of random algebra vectors, one row of
    uniforms each, all mapped and exponentiated in one stacked call."""
    group = scenario.group
    u = uniform_draws(seed, _STREAM_ELEMENTS, (count, group.draws_per_vector))
    vecs = group.algebra_vectors(u, scenario.element_scale)
    return GroupElement(group.group_id, closed_form_exp(group.algebra.element(vecs)))


def oracle_samples(scenario: Scenario, count: int, seed: int,
                   margin: float = DEFAULT_SAMPLE_MARGIN) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (points, deformation parameters) for route-agreement checks,
    drawn from the sampling region shrunk by the margin on non-periodic
    axes, l log-uniform over _ORACLE_L_RANGE.  Each sample is one row of
    uniforms, point coordinates first, so a smaller count draws a prefix
    of a larger one."""
    lo, hi = sampling_box(scenario, margin)
    u = uniform_draws(seed, _STREAM_ORACLE, (count, scenario.dim + 1))
    pts = lo + (hi - lo) * u[:, :-1]
    log_lo, log_hi = np.log(_ORACLE_L_RANGE)
    ls = np.exp(log_lo + (log_hi - log_lo) * u[:, -1])
    return pts, ls
