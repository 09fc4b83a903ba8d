"""The l axis of the metric pipeline: a block called on a whole l grid
equals the same block called once per l, bit for bit, and a failure at
one l of the grid stays in that entry."""

import re

import numpy as np
import pytest
from oracles import each_element, pulled_back_ids

from cheegerdef import _kernels as _k
from cheegerdef import verify
from cheegerdef.gmanifold import NumericalFailure
from cheegerdef.scenarios import get_scenario, invariance_elements, list_scenarios
from cheegerdef.tensor_calc import H_FD
from cheegerdef.verify import SweepConfig, build_plan, invariance_results, large_l_series

TOL = 1e-8
CFG = SweepConfig()


@pytest.fixture(scope="module", params=list_scenarios())
def planned(request):
    scenario = get_scenario(request.param)
    return scenario, build_plan(scenario, CFG)


def _per_l(block, ls, n):
    vals = [block(l) for l in ls]
    assert all(np.shape(v) == (n,) for v in vals)
    return np.array(vals)


def _assert_grid_equals_per_l(block, ls, n):
    """A block on the grid gives one row of n per-point values per l,
    equal to the block called at that l."""
    grid = block(np.asarray(ls))
    assert grid.shape == (len(ls), n)
    np.testing.assert_array_equal(grid, _per_l(block, ls, n))


def test_c0_grid_equals_per_l_calls(planned):
    scenario, plan = planned
    par, pts = scenario.params, plan.points
    _assert_grid_equals_per_l(
        lambda l: _k.c0_block(scenario, par, _k.RESCALED, l, _k.LIMIT, 0.0,
                              pts, None, TOL), CFG.l_grid, len(pts))
    _assert_grid_equals_per_l(
        lambda l: _k.c0_block(scenario, par, _k.CHEEGER, l, _k.ORIGINAL, 0.0,
                              pts, None, TOL), CFG.large_l_grid, len(pts))


def test_gap_and_c1_grids_equal_per_l_calls(planned):
    scenario, plan = planned
    par, pts = scenario.params, plan.points
    _assert_grid_equals_per_l(
        lambda l: _k.gap_block(scenario, par, l, pts, TOL), CFG.l_grid, len(pts))
    _assert_grid_equals_per_l(
        lambda l: _k.c1_block(scenario, par, _k.RESCALED, l, _k.LIMIT, 0.0,
                              pts, H_FD, TOL), CFG.l_grid, len(pts))


def test_t_pair_grid_equals_per_l_calls(planned):
    # every twelfth plan point keeps the finite-difference T-tensor cheap
    scenario, plan = planned
    par, pts = scenario.params, plan.points[::12]
    rescaled, base = _k.t_pair_block(scenario, par, _k.RESCALED, np.asarray(CFG.l_grid),
                                     pts, H_FD, TOL)
    assert rescaled.shape == (len(CFG.l_grid), len(pts))
    assert base.shape == (len(pts),)
    for row, l in zip(rescaled, CFG.l_grid):
        resc_l, base_l = _k.t_pair_block(scenario, par, _k.RESCALED, l, pts, H_FD, TOL)
        assert resc_l.shape == base_l.shape == (len(pts),)
        np.testing.assert_array_equal(row, resc_l)
        np.testing.assert_array_equal(base, base_l)


@pytest.mark.parametrize("reverse", (False, True))
def test_t_scaling_names_a_base_nan_at_the_first_l(s2_band, monkeypatch, reverse):
    cfg = SweepConfig(n_points=16, enabled=("t_scaling",))
    pts = build_plan(s2_band, cfg).points
    bad, other = 5, 9
    real_norm, real_sup = _k.t_tensor_norm, verify._sup_over_plan

    def norm(scen, par, tag, l, x, h, sigma_tol, rescaled_nan=False):
        if tag == _k.ORIGINAL and np.array_equal(x, pts[bad]):
            return np.nan
        if (rescaled_nan and tag == _k.RESCALED and l == cfg.l_grid[0]
                and np.array_equal(x, pts[other])):
            return np.nan
        return real_norm(scen, par, tag, l, x, h, sigma_tol)

    def message(what, i):
        return re.escape(f"T-tensor series ({what}) failed at l={cfg.l_grid[0]} "
                         f"at plan point {i} {pts[i].tolist()} on s2_band")

    if reverse:
        # the negative control scans the base series before the rescaled one
        monkeypatch.setattr(verify, "_sup_over_plan",
                            lambda sc, ls, points, series: real_sup(sc, ls, points,
                                                                    series[::-1]))
    # a base norm is the same at every l, so its NaN is named at the first l
    monkeypatch.setattr(_k, "t_tensor_norm", norm)
    with pytest.raises(NumericalFailure, match=f"^{message('base', bad)}$"):
        verify.run_suite(s2_band, cfg)
    # with a rescaled NaN at the same l, the scan order decides the name
    monkeypatch.setattr(_k, "t_tensor_norm",
                        lambda *args: norm(*args, rescaled_nan=True))
    expected = message("base", bad) if reverse else message("rescaled", other)
    with pytest.raises(NumericalFailure, match=f"^{expected}$"):
        verify.run_suite(s2_band, cfg)


def test_invariance_residuals_equal_per_l_evaluation(planned):
    scenario, plan = planned
    par = scenario.params
    stride = max(1, len(plan.points) // CFG.invariance_points)
    pts = plan.points[::stride]
    elements = each_element(invariance_elements(scenario, CFG.invariance_elements, CFG.seed))
    moved = np.stack([scenario.act(g, pts) for g in elements])
    jac = np.stack([scenario.action_jacobian(g, pts) for g in elements])

    def residual(tag, l):
        here = _k.variant_metric(scenario, par, tag, l, pts, TOL)
        there = _k.variant_metric(scenario, par, tag, l, moved, TOL)
        return float(np.max(np.abs(jac.mT @ there @ jac - here)))

    inv = invariance_results(scenario, CFG, plan)
    assert [row["l"] for row in inv["by_l"]] == list(CFG.l_grid)
    for row in inv["by_l"]:
        assert row["cheeger"] == residual(_k.CHEEGER, row["l"])
        assert row["rescaled"] == residual(_k.RESCALED, row["l"])
    assert inv["static"] == {"original": residual(_k.ORIGINAL, 0.0),
                             "limit": residual(_k.LIMIT, 0.0)}


@pytest.mark.parametrize("sid", list_scenarios() + pulled_back_ids(list_scenarios())
                         + ("t2_turning",))
def test_rescaled_entries_at_l_zero_are_the_limit_bit_for_bit(record, sid):
    """The invariance stage reads the limit metric as the l = 0 row of
    its rescaled call.  At l = 0 the rescaled entries of _TABLE are the
    limit ones in exact arithmetic and in floating point: mu = 1 / (lam +
    0) is pi, so Y = pi - mu pi is pi - pi pi, and M = (0 - 1) pi + 1 is
    1 - pi.  So variant_metric (the "Y" entries) and variant_cometric
    (the "M" entries) agree bit for bit, at l = 0 alone and in the first
    row of an l column, on every plan, on the sheared records and on the
    turning torus, whose eigenvalues cross.  The divided differences are
    not bitwise equal (they differ by some 1e-15 on s2_band: the two
    dY formulas round differently), so c1_block keeps its LIMIT call."""
    scenario = record(sid)
    par = scenario.params
    orbit = _k.orbit_data(scenario, par, build_plan(scenario, CFG).points, TOL)
    column = np.asarray((0.0, *CFG.l_grid))[:, None]
    for kernel in (_k.variant_metric, _k.variant_cometric):
        limit = kernel(scenario, par, _k.LIMIT, 0.0, orbit, TOL)
        assert np.isfinite(limit).all()
        np.testing.assert_array_equal(kernel(scenario, par, _k.RESCALED, 0.0, orbit, TOL),
                                      limit)
        np.testing.assert_array_equal(kernel(scenario, par, _k.RESCALED, column, orbit, TOL)[0],
                                      limit)


def test_l_column_adds_a_leading_axis(s2_band):
    plan = build_plan(s2_band, SweepConfig(n_points=16))
    column = np.array([[0.2], [0.05]])
    for tag in (_k.CHEEGER, _k.RESCALED, _k.CHEEGER_CLOSED):
        G = _k.variant_metric(s2_band, s2_band.params, tag, column, plan.points, TOL)
        assert G.shape == (2,) + plan.points.shape + (2,)
        for row, l in zip(G, column[:, 0]):
            np.testing.assert_array_equal(
                row, _k.variant_metric(s2_band, s2_band.params, tag, l, plan.points, TOL))
    dG = _k.variant_metric_dx(s2_band, s2_band.params, _k.CHEEGER, column,
                              plan.points, 1e-4, True, TOL)
    np.testing.assert_array_equal(
        dG[1], _k.variant_metric_dx(s2_band, s2_band.params, _k.CHEEGER, 0.05,
                                    plan.points, 1e-4, True, TOL))


def test_conditioning_failure_at_the_smallest_l_stays_in_its_entry(s2_band, monkeypatch):
    # the reparametrisation route refuses a condition number of 1e12 or
    # more, which an orbit tensor of order one reaches at l = 1e-7
    par = s2_band.params
    grid = (10.0, 1.0, 1e-7)
    cfg = SweepConfig(n_points=16)
    plan = build_plan(s2_band, cfg)
    c0 = _k.c0_block(s2_band, par, _k.CHEEGER, np.asarray(grid), _k.ORIGINAL, 0.0,
                     plan.points, None, TOL)
    assert c0.shape == (3, len(plan.points))
    assert np.isfinite(c0[:2]).all() and np.isnan(c0[2]).any()
    for j in range(2):
        np.testing.assert_array_equal(
            c0[j], _k.c0_block(s2_band, par, _k.CHEEGER, grid[j], _k.ORIGINAL, 0.0,
                               plan.points, None, TOL))
    # the failing rows, found without the blocks, are the NaN entries
    failing = np.isnan(_k.variant_metric(s2_band, par, _k.CHEEGER, grid[2], plan.points,
                                         TOL)).any(axis=(-2, -1))
    np.testing.assert_array_equal(np.isnan(c0[2]), failing)
    first = int(np.flatnonzero(failing)[0])
    # the config refuses l below MIN_L, so lower it to reach the series
    monkeypatch.setattr(verify, "MIN_L", 1e-9)
    cfg = SweepConfig(n_points=16, large_l_grid=grid)
    where = re.escape(f"l=1e-07 at plan point {first} {plan.points[first].tolist()}")
    with pytest.raises(NumericalFailure, match=rf"large-l series failed at {where} on s2_band"):
        large_l_series(s2_band, cfg, plan)
