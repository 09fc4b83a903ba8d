"""Verification suite: convergence rates, fiber geometry, invariance.

All checks work over explicit deterministic sample plans and report
plain dicts ready for serialization.  The measured quantities:

- C^0/C^1 distance of the rescaled family to its limit across the l
  grid, with log-log rate fits (expected order 2);
- the pullback gap to the bi-invariant form on the orbit, with the
  boundedness ratio of gap / l^2 across the grid;
- the ratio of fundamental-tensor norms of the rescaled family against
  the base metric (expected order 2), skipping points where the base
  norm sits below the vacuous floor;
- geodesic drift of orbit invariants under the limit metric (orbits
  totally geodesic) against the base metric (drift expected where
  catalogued);
- isometry invariance of every family member under sampled group
  elements, the static horizontal block, and the duality identity of
  the orbit projection;
- agreement of the three deformation routes: reparametrisation and
  rank update in the kernels, and Cheeger's definition;
- the large-l return of the deformed metric to the base metric
  (expected order -2).

One loop of run_suite turns the rows of CRITERIA into verdicts.  A NaN
in any stage raises NumericalFailure (_first_nan) naming the series, l,
group element, point and scenario; no NaN becomes a verdict.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels as _k
from .cheeger import definition_metric, kappa, variant
from .config import (THRESHOLDS, at_least, bound, knob, parse_float_list,
                     parse_int, positive, validate)
from .gmanifold import SIGMA_TOL, NumericalFailure
from .scenarios import (DEFAULT_SAMPLE_MARGIN, Scenario, direction_pairs,
                        invariance_elements, oracle_samples, sample_grid)
from .tensor_calc import (H_FD, SamplePlan, integrate_geodesics,
                          orbit_invariant_drift, speed_drift)

__all__ = [
    "ALL_TESTS",
    "CRITERIA",
    "MIN_L",
    "RateFit",
    "SweepConfig",
    "build_plan",
    "convergence_series",
    "geodesic_results",
    "invariance_results",
    "large_l_series",
    "oracle_results",
    "rate_fit",
    "run_suite",
    "t_scaling_series",
]

ALL_TESTS = ("convergence", "t_scaling", "geodesic", "invariance",
             "large_l", "oracle")

DEFAULT_L_GRID = (0.2, 0.1, 0.05, 0.025)

# smallest deformation parameter the double-precision pipeline supports
MIN_L = 1e-3


def _grid(min_len: int, decreasing: bool):
    def check(ls) -> str | None:
        if len(ls) < min_len:
            return f"needs at least {min_len} values"
        if not all(MIN_L <= l < math.inf for l in ls):
            return f"needs finite values of at least MIN_L = {MIN_L}"
        if decreasing and any(a <= b for a, b in zip(ls, ls[1:])):
            return "must be strictly decreasing"
        return None
    return check


_window = bound(lambda w: w[0] < w[1], "needs its lower bound below its upper bound")


def _parse_tests(raw: str) -> tuple[str, ...]:
    """Test names in canonical order without repeats; unknown names are
    kept for the check to refuse."""
    names = raw.replace(",", " ").split()
    return (tuple(t for t in ALL_TESTS if t in names)
            + tuple(sorted(set(names) - set(ALL_TESTS))))


def _tests(enabled) -> str | None:
    unknown = sorted(set(enabled) - set(ALL_TESTS))
    if unknown:
        return f"names unknown tests {unknown} (choices: {', '.join(ALL_TESTS)})"
    return None if enabled else "is an empty test selection"


@dataclass(frozen=True)
class SweepConfig:
    """Knobs of the verification suite: the single table of their
    config keys, parsers, catalogued defaults and bounds."""

    l_grid: tuple[float, ...] = knob(DEFAULT_L_GRID, "l_grid", parse=parse_float_list,
                                     check=_grid(2, True))
    large_l_grid: tuple[float, ...] = knob((10.0, 30.0, 100.0), "large_l_grid",
                                           parse=parse_float_list, check=_grid(2, False))
    n_points: int = knob(200, "samples.points", parse=parse_int, check=at_least(4))
    margin: float = knob(DEFAULT_SAMPLE_MARGIN, "samples.margin",
                         check=bound(lambda m: m >= 0, "must be nonnegative"))
    seed: int = knob(42, "seed", parse=parse_int,
                     check=bound(lambda s: 0 <= s < 2**64,
                                 "must fit an unsigned 64-bit integer"))
    geodesic_step: float = knob(1e-3, "geodesic.step", check=positive)
    geodesic_length: float = knob(3.0, "geodesic.length", check=positive)
    # None: the scenario's catalogued starts
    geodesic_transverse: tuple[float, ...] | None = knob(
        None, "geodesic.starts", parse=parse_float_list, fallback="geodesic_transverse",
        check=bound(lambda c: c is None or len(c) > 0, "needs at least one start"))
    invariance_points: int = knob(30, "invariance.points", parse=parse_int,
                                  check=at_least(1))
    invariance_elements: int = knob(20, "invariance.elements", parse=parse_int,
                                    check=at_least(1))
    oracle_count: int = knob(120, "oracle.samples", parse=parse_int, check=at_least(1))
    cp_order: int = knob(1, "cp.order", parse=parse_int,
                         check=bound(lambda p: p in (0, 1),
                                     "names an unsupported C^p order (p must be 0 or 1)"))
    enabled: tuple[str, ...] = knob(ALL_TESTS, "only", parse=_parse_tests,
                                    check=_tests, echo="enabled")
    # verdict thresholds
    c0_slope_window: tuple[float, float] = knob(
        (1.9, 2.1), "tol.c0_slope_lo", "tol.c0_slope_hi", check=_window)
    c1_slope_window: tuple[float, float] = knob(
        (1.8, 2.2), "tol.c1_slope_lo", "tol.c1_slope_hi", check=_window)
    t_slope_window: tuple[float, float] = knob(
        (1.8, 2.2), "tol.t_slope_lo", "tol.t_slope_hi", check=_window)
    large_l_slope_window: tuple[float, float] = knob(
        (-2.2, -1.8), "tol.large_l_slope_lo", "tol.large_l_slope_hi", check=_window)
    gap_ratio_max: float = knob(3.0, "tol.gap_ratio")
    geo_limit_drift_max: float = knob(1e-6, "tol.geo_limit_drift")
    geo_base_drift_min: float = knob(1e-3, "tol.geo_base_drift")
    speed_drift_max: float = knob(1e-8, "tol.speed_drift")
    invariance_max: float = knob(1e-8, "tol.invariance")
    horizontal_max: float = knob(1e-10, "tol.horizontal")
    kappa_max: float = knob(1e-10, "tol.kappa")
    oracle_max: float = knob(1e-10, "tol.oracle")
    t_floor: float = knob(1e-8, echo=THRESHOLDS)

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log10(value) against log10(l)."""

    slope: float
    intercept: float
    max_log_residual: float
    n_used: int
    status: str  # ok | exact | degenerate


def rate_fit(ls, values, floor: float = 1e-15) -> RateFit:
    """Fit a power law to a series, ignoring values at the noise floor.

    Values below floor are treated as exactly converged; with fewer than
    two usable points the fit is flagged instead of extrapolated.
    """
    ls = np.asarray(ls, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.isfinite(values) & (values > floor)
    if np.count_nonzero(keep) < 2:
        status = "exact" if np.all(values[np.isfinite(values)] <= floor) else "degenerate"
        return RateFit(slope=float("nan"), intercept=float("nan"),
                       max_log_residual=float("nan"),
                       n_used=int(np.count_nonzero(keep)), status=status)
    lx = np.log10(ls[keep])
    ly = np.log10(values[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(slope * lx + intercept - ly)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   max_log_residual=resid, n_used=int(np.count_nonzero(keep)),
                   status="ok")


def build_plan(scenario: Scenario, cfg: SweepConfig) -> SamplePlan:
    return SamplePlan(scenario, sample_grid(scenario, cfg.n_points, cfg.margin))


def _first_nan(scenario: Scenario, maxima, series, place) -> None:
    """Raise NumericalFailure at the first NaN of series, in series order
    and then in index order.  series holds (what, at, values): what names
    the series or variant, at its l, and values has the point axis last,
    after an optional group-element axis; place(n) names point n.

    maxima are the stage's maxima over those values.  np.max propagates
    NaN, so the series are scanned only when one of maxima is NaN; series
    may be a generator, which is then never built."""
    if not np.isnan(maxima).any():
        return
    for what, at, values in series:
        bad = np.argwhere(np.isnan(values))
        if bad.size:
            *element, n = bad[0]
            under = f" for group element {element[0]}" if element else ""
            raise NumericalFailure(f"{what} failed{at}{under} at {place(n)} "
                                   f"on {scenario.scenario_id}")


def _sup_over_plan(scenario: Scenario, l_grid, points: np.ndarray,
                   series) -> list[np.ndarray]:
    """Per-l maxima over the plan of per-point series (what, values), values
    of shape (L, N); a NaN is located in grid order, then series order."""
    maxima = [np.max(values, axis=-1) for _, values in series]
    _first_nan(scenario, maxima, ((what, f" at l={l}", values[j])
                                  for j, l in enumerate(l_grid) for what, values in series),
               lambda n: f"plan point {n} {points[n].tolist()}")
    return maxima


def convergence_series(scenario: Scenario, cfg: SweepConfig,
                       plan: SamplePlan) -> dict:
    """C^0/C^1 distances of the rescaled family to the limit and the
    pullback gap, per l, with rate fits.  Each block evaluates the whole
    l grid in one call."""
    par = scenario.params
    pts = plan.points
    ls = np.asarray(cfg.l_grid)
    series = [
        ("convergence series (C^0)",
         _k.c0_block(scenario, par, _k.RESCALED, ls, _k.LIMIT, 0.0, pts, None,
                     SIGMA_TOL, plan.geometry)),
        ("convergence series (gap)",
         _k.gap_block(scenario, par, ls, pts, SIGMA_TOL, plan.geometry)),
    ]
    if cfg.cp_order >= 1:
        series.append(("C^1 series", _k.c1_block(scenario, par, _k.RESCALED, ls, _k.LIMIT,
                                                 0.0, pts, H_FD, SIGMA_TOL,
                                                 plan.geometry)))
    c0, gap, *c1d = _sup_over_plan(scenario, cfg.l_grid, pts, series)
    c0s, gaps = c0.tolist(), gap.tolist()
    if cfg.cp_order >= 1:
        c1s = [max(a, b) for a, b in zip(c0s, c1d[0].tolist())]
    else:
        c1s = [float("nan")] * len(ls)
    ratios = np.asarray(gaps) / ls**2
    finite = ratios[np.isfinite(ratios) & (ratios > 0)]
    ratio_spread = float(np.max(finite) / np.min(finite)) if finite.size else float("nan")
    return {
        "l_grid": list(cfg.l_grid),
        "c0": c0s,
        "c1": c1s,
        "gap": gaps,
        "c0_fit": asdict(rate_fit(ls, c0s)),
        "c1_fit": asdict(rate_fit(ls, c1s)) if cfg.cp_order >= 1 else None,
        "gap_over_l2": [float(r) for r in ratios],
        "gap_ratio_spread": ratio_spread,
    }


def t_scaling_series(scenario: Scenario, cfg: SweepConfig,
                     plan: SamplePlan) -> dict:
    """Max ratio of fundamental-tensor norms (rescaled over base) per l.

    Points where the base norm is below the floor carry no information
    about the ratio and are excluded but counted.  Scenarios whose base
    norm vanishes everywhere report a vacuous series.  A NaN norm is a
    numerical failure, never an excluded point.  One block call covers
    the l grid and computes the base norms, which do not depend on l,
    once per point.
    """
    ls = np.asarray(cfg.l_grid)
    # (L, N) norms of the rescaled metric, (N,) norms of the base metric
    rescaled, base = _k.t_pair_block(scenario, scenario.params, _k.RESCALED, ls,
                                     plan.points, H_FD, SIGMA_TOL)
    # the base norms repeat at every l, so a NaN is named at the first l
    _sup_over_plan(scenario, cfg.l_grid, plan.points,
                   [("T-tensor series (rescaled)", rescaled),
                    ("T-tensor series (base)", np.broadcast_to(base, rescaled.shape))])
    keep = base > cfg.t_floor
    vacuous = scenario.transitive or not np.any(keep)
    if np.any(keep):
        ratios = np.max(rescaled[:, keep] / base[keep], axis=-1).tolist()
    else:
        ratios = [float("nan")] * len(ls)
    fit = rate_fit(ls, ratios) if not vacuous else None
    return {
        "l_grid": list(cfg.l_grid),
        "t_ratio_max": ratios,
        "excluded_points": [int(np.count_nonzero(~keep))] * len(ls),
        "vacuous": vacuous,
        "t_fit": asdict(fit) if fit is not None else None,
    }


def geodesic_results(scenario: Scenario, cfg: SweepConfig) -> dict:
    """Orbit-invariant drift of vertical geodesics under the limit and
    base metrics, per catalogued start."""
    if scenario.transitive:
        return {"vacuous": True, "starts": []}
    transverse = cfg.geodesic_transverse or scenario.geodesic_transverse
    x0s = np.stack([scenario.start_from_transverse(c) for c in transverse])
    # each start moves along its first orbit field; a degenerate start's
    # NaN field fails the integration (NumericalFailure)
    v0s = _k.orbit_data(scenario, scenario.params, x0s, SIGMA_TOL).A[:, :, 0]
    # one stack: the limit starts, then the same starts under the base metric
    n = len(x0s)
    res = integrate_geodesics(
        [variant(scenario, "limit")] * n + [variant(scenario, "original")] * n,
        np.vstack([x0s, x0s]), np.vstack([v0s, v0s]),
        length=cfg.geodesic_length, step=cfg.geodesic_step)
    starts = []
    for c, res_lim, res_base in zip(transverse, res[:n], res[n:]):
        starts.append({
            "transverse": float(c),
            "limit_drift": orbit_invariant_drift(res_lim),
            "limit_speed_drift": speed_drift(res_lim),
            "limit_status": res_lim.status,
            "base_drift": orbit_invariant_drift(res_base),
            "base_speed_drift": speed_drift(res_base),
            "base_status": res_base.status,
        })
    return {"vacuous": False, "starts": starts}


def invariance_results(scenario: Scenario, cfg: SweepConfig,
                       plan: SamplePlan) -> dict:
    """Isometry-invariance residuals for the whole family, plus the
    static horizontal block and the orbit duality identity.

    The invariance residual of a variant is the sup over sampled group
    elements and plan points of the max-abs difference between the
    pulled-back and local metric components (analytic action Jacobians).
    The invariance points are a stride slice of the plan, so their orbit
    data and frame are rows of the plan's geometry.  All sampled
    elements act in one stacked call, and the points and their images
    get one orbit_data record, on which each variant is evaluated once.
    The limit metric is the rescaled family at l = 0 (the entries of
    _TABLE agree there bit for bit), so it is the first row of the
    rescaled call.  A NaN residual or frame row is a numerical
    breakdown: NumericalFailure names the variant, l, group element and
    plan point, read from the residuals themselves.
    """
    stride = max(1, len(plan.points) // cfg.invariance_points)
    plan_orbit, plan_frame = plan.geometry
    orbit = plan_orbit.rows(slice(None, None, stride))
    F = plan_frame[::stride]
    pts = orbit.x
    stack = invariance_elements(scenario, cfg.invariance_elements, cfg.seed)
    par = scenario.params
    jac = scenario.action_jacobian(stack, pts)
    # (E + 1, N): the points, then their images under each element
    both = _k.orbit_data(scenario, par, np.concatenate([pts[None], scenario.act(stack, pts)]),
                         SIGMA_TOL)

    local = []

    def residuals(tag_code: int, l) -> np.ndarray:
        """Residual of one variant per element and point, (E, N): l is
        one value, or an l column (L, 1, 1), which gives (L, E, N)."""
        Gv = _k.variant_metric(scenario, par, tag_code, l, both, SIGMA_TOL)
        if tag_code != _k.ORIGINAL:
            local.append(Gv[..., 0, :, :, :])
        pulled = jac.mT @ Gv[..., 1:, :, :, :] @ jac
        return np.max(np.abs(pulled - Gv[..., :1, :, :, :]), axis=(-2, -1))

    original = residuals(_k.ORIGINAL, 0.0)
    cheeger = residuals(_k.CHEEGER, np.asarray(cfg.l_grid)[:, None, None])
    # row 0 is the limit metric
    rescaled = residuals(_k.RESCALED, np.asarray((0.0, *cfg.l_grid))[:, None, None])
    res_static = {"original": original, "limit": rescaled[0]}
    res_l = {"cheeger": cheeger, "rescaled": rescaled[1:]}
    static = {tag: float(np.max(r)) for tag, r in res_static.items()}
    per_l = {tag: np.max(r, axis=(-2, -1)) for tag, r in res_l.items()}

    def series():
        # static tags, then per l, then the frame, whose failed points are NaN rows
        for tag, r in res_static.items():
            yield f"invariance residual of {tag}", " at every l", r
        for j, l in enumerate(cfg.l_grid):
            for tag, r in res_l.items():
                yield f"invariance residual of {tag}", f" at l={l}", r[j]
        yield "invariance adapted frame", "", np.max(F, axis=(-2, -1))

    _first_nan(scenario, [*static.values(), *per_l["cheeger"], *per_l["rescaled"], np.max(F)],
               series(), lambda n: f"plan point {n * stride} {pts[n].tolist()}")
    by_l = [{"l": float(l), **{tag: float(m[j]) for tag, m in per_l.items()}}
            for j, l in enumerate(cfg.l_grid)]

    # horizontal block of the deformed family versus the base metric
    H = F[..., :, orbit.A.shape[-1]:]
    horiz_worst = 0.0
    if H.size:
        horiz_worst = max(float(np.max(np.abs((Gv - orbit.G).mT @ H))) for Gv in local)
    # duality identity of the orbit projection against the raw pairing,
    # at one seeded vector per point
    v = direction_pairs(scenario, len(pts), 1, cfg.seed)[:, 0, 0]
    raw = (orbit.K.mT @ (orbit.G @ v[..., None]))[..., 0]
    kappa_worst = float(np.max(np.abs(kappa(orbit, v) - raw)))
    # the solved vector must carry no isotropy component
    kappa_iso_worst = 0.0
    if orbit.iso.size:
        kappa_iso_worst = float(np.max(np.abs((orbit.iso.mT @ raw[..., None])[..., 0])))

    return {
        "static": static,
        "by_l": by_l,
        "max_residual": max(*static.values(),
                            *(row[tag] for row in by_l for tag in ("cheeger", "rescaled"))),
        "horizontal_residual": horiz_worst,
        "kappa_residual": kappa_worst,
        "kappa_iso_residual": kappa_iso_worst,
        "n_points": int(len(pts)),
        "n_elements": int(len(stack.matrix)),
    }


def large_l_series(scenario: Scenario, cfg: SweepConfig,
                   plan: SamplePlan) -> dict:
    """C^0 distance of the deformed metric to the base metric for large
    l, with the rate fit of the decay."""
    par = scenario.params
    c0 = _k.c0_block(scenario, par, _k.CHEEGER, np.asarray(cfg.large_l_grid), _k.ORIGINAL,
                     0.0, plan.points, None, SIGMA_TOL, plan.geometry)
    c0s = _sup_over_plan(scenario, cfg.large_l_grid, plan.points,
                         [("large-l series", c0)])[0].tolist()
    return {
        "l_grid": list(cfg.large_l_grid),
        "c0": c0s,
        "fit": asdict(rate_fit(np.asarray(cfg.large_l_grid), c0s)),
    }


def oracle_results(scenario: Scenario, cfg: SweepConfig) -> dict:
    """Agreement of the three deformation routes on seeded samples.

    kernel_max_diff compares the reparametrisation and rank-update
    kernel routes; definition_max_diff compares both against Cheeger's
    definition (definition_metric), all on one stack of samples.  A NaN
    metric of any route is a numerical breakdown: NumericalFailure names
    the route, the sample and its l.
    """
    pts, ls = oracle_samples(scenario, cfg.oracle_count, cfg.seed, cfg.margin)
    par = scenario.params
    # each kernel route is evaluated once, on shared orbit data, and
    # compared both ways
    orbit = _k.orbit_data(scenario, par, pts, SIGMA_TOL)
    reparam, closed = (_k.variant_metric(scenario, par, tag, ls, orbit, SIGMA_TOL)
                       for tag in (_k.CHEEGER, _k.CHEEGER_CLOSED))
    ref = definition_metric(scenario, "cheeger", ls, pts)
    routes = {"reparametrisation": reparam, "rank update": closed, "definition": ref}
    # every route enters two of the differences
    diffs = [np.max(np.abs(a - b)) for a, b in ((reparam, closed), (reparam, ref),
                                                (closed, ref))]
    _first_nan(scenario, diffs, ((f"oracle {what} route", "", np.max(g, axis=(-2, -1)))
                                 for what, g in routes.items()),
               lambda n: f"oracle sample {n} {pts[n].tolist()} at l={float(ls[n])}")
    return {
        "n_samples": int(len(pts)),
        "kernel_max_diff": float(diffs[0]),
        "definition_max_diff": float(max(diffs[1], diffs[2])),
    }


# the reading of a criterion that the run does not report
_ABSENT = object()


def _fit(fit: dict | None) -> tuple | None:
    return None if fit is None else (fit["slope"], fit["status"])


def _value(*keys: str):
    return lambda res, scenario: (max(res[key] for key in keys), "ok")


def _over_starts(geo: dict, *keys: str) -> list:
    return [s[key] for s in geo["starts"] for key in keys]


@dataclass(frozen=True)
class Criterion:
    """One verdict: the stage result it reads, its kind (window, cap or
    floor) and the SweepConfig field of its threshold.  read(stage
    result, scenario) gives (measured, status), None (vacuous, a pass) or
    _ABSENT (not reported).  A status other than "ok" passes only when
    "exact": a series below the noise floor has nothing to rate-fit."""

    name: str
    stage: str
    kind: str
    threshold: str
    read: Callable[[dict, Scenario], object]


_PASSES = {
    "window": lambda measured, window: window[0] <= measured <= window[1],
    "cap": lambda measured, cap: measured < cap,
    "floor": lambda measured, floor: measured > floor,
}

# the verdicts in report order
CRITERIA = (
    Criterion("c0_rate_window", "convergence", "window", "c0_slope_window",
              lambda conv, sc: _fit(conv["c0_fit"])),
    # cp.order 0 computes no C^1 series
    Criterion("c1_rate_window", "convergence", "window", "c1_slope_window",
              lambda conv, sc: _ABSENT if conv["c1_fit"] is None else _fit(conv["c1_fit"])),
    # the spread must be finite: it is NaN where no gap ratio is positive
    Criterion("gap_ratio_bounded", "convergence", "cap", "gap_ratio_max",
              _value("gap_ratio_spread")),
    Criterion("t_rate_window", "t_scaling", "window", "t_slope_window",
              lambda tsc, sc: _fit(tsc["t_fit"])),
    # a limit start that stops before its full length fails with its status
    Criterion("geodesic_limit_drift", "geodesic", "cap", "geo_limit_drift_max",
              lambda geo, sc: None if geo["vacuous"] else (
                  max(_over_starts(geo, "limit_drift")),
                  next((st for st in _over_starts(geo, "limit_status") if st != "ok"), "ok"))),
    # speed and base drift are not reported where the geodesic stage is vacuous
    Criterion("geodesic_speed_conservation", "geodesic", "cap", "speed_drift_max",
              lambda geo, sc: _ABSENT if geo["vacuous"] else (
                  max(_over_starts(geo, "limit_speed_drift", "base_speed_drift")), "ok")),
    Criterion("geodesic_base_drift_discriminates", "geodesic", "floor", "geo_base_drift_min",
              lambda geo, sc: _ABSENT if geo["vacuous"] or not sc.expect_base_drift
              else (min(_over_starts(geo, "base_drift")), "ok")),
    Criterion("invariance_residual", "invariance", "cap", "invariance_max",
              _value("max_residual")),
    Criterion("horizontal_block_static", "invariance", "cap", "horizontal_max",
              _value("horizontal_residual")),
    Criterion("kappa_identity", "invariance", "cap", "kappa_max", _value("kappa_residual")),
    Criterion("kappa_isotropy", "invariance", "cap", "kappa_max",
              _value("kappa_iso_residual")),
    Criterion("large_l_rate_window", "large_l", "window", "large_l_slope_window",
              lambda lrg, sc: _fit(lrg["fit"])),
    Criterion("oracle_equivalence", "oracle", "cap", "oracle_max",
              _value("kernel_max_diff", "definition_max_diff")),
)


def _verdict(c: Criterion, reading: tuple | None, cfg: SweepConfig) -> dict:
    measured, status = reading or (None, "vacuous")
    threshold = getattr(cfg, c.threshold)
    threshold = list(threshold) if c.kind == "window" else threshold
    passed = (_PASSES[c.kind](measured, threshold) if status == "ok"
              else status in ("exact", "vacuous"))
    out = {"criterion": c.name, "passed": passed, "measured": measured, "threshold": threshold}
    return out if status == "ok" else {**out, "note": status}


def run_suite(scenario: Scenario, cfg: SweepConfig) -> dict:
    """Run the enabled verification tests and assemble rows, fits and
    verdicts for reporting."""
    t_start = time.perf_counter()
    plan = build_plan(scenario, cfg)
    results: dict = {
        "scenario": scenario.scenario_id,
        "plan_points": len(plan.points),
    }
    timings: dict[str, float] = {}
    # built per call, so the stage functions are looked up as module
    # globals when the suite runs
    stages = {
        "convergence": lambda: convergence_series(scenario, cfg, plan),
        "t_scaling": lambda: t_scaling_series(scenario, cfg, plan),
        "geodesic": lambda: geodesic_results(scenario, cfg),
        "invariance": lambda: invariance_results(scenario, cfg, plan),
        "large_l": lambda: large_l_series(scenario, cfg, plan),
        "oracle": lambda: oracle_results(scenario, cfg),
    }
    for name, stage in stages.items():
        if name in cfg.enabled:
            t0 = time.perf_counter()
            results[name] = stage()
            timings[name] = time.perf_counter() - t0
    conv, tsc, inv = (results.get(name) for name in ("convergence", "t_scaling", "invariance"))

    # per-l rows in the fixed CSV column order
    nan = [float("nan")] * len(cfg.l_grid)
    columns = {
        "l": [float(l) for l in cfg.l_grid],
        "c0_diff": conv["c0"] if conv else nan,
        "c1_diff": conv["c1"] if conv else nan,
        "t_ratio_max": tsc["t_ratio_max"] if tsc else nan,
        "gap_residual": conv["gap"] if conv else nan,
        "invariance_residual": [max(*inv["static"].values(), row["cheeger"], row["rescaled"])
                                for row in inv["by_l"]] if inv else nan,
    }
    results["rows"] = [dict(zip(columns, row)) for row in zip(*columns.values())]

    readings = ((c, c.read(results[c.stage], scenario)) for c in CRITERIA
                if c.stage in results)
    results["verdicts"] = [_verdict(c, r, cfg) for c, r in readings if r is not _ABSENT]
    results["passed"] = all(v["passed"] for v in results["verdicts"])
    timings["total"] = time.perf_counter() - t_start
    # timings stay out of serialized reports to keep them byte-stable
    results["_timings"] = timings
    return results
