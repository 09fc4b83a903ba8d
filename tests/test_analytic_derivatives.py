"""Exact derivatives of the rank-update variants against their oracles.

The analytic route (product rule on G - W Y(P) W^T) must agree with the
Richardson finite differences over the whole pipeline, the limit metric
must reproduce the exact geodesics where it is flat in the chart, and a
degenerate orbit must still poison every route.
"""

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef.cheeger import variant
from cheegerdef.scenarios import get_scenario, list_scenarios
from cheegerdef.tensor_calc import H_FD, integrate_geodesics
from cheegerdef.verify import DEFAULT_L_GRID, SweepConfig, build_plan

RANK_UPDATE_TAGS = (_k.RESCALED, _k.LIMIT, _k.CHEEGER_CLOSED)


def _geodesic_starts(scenario):
    return [scenario.start_from_transverse(c) for c in scenario.geodesic_transverse]
# the limit metric is the identity in these charts
FLAT_LIMIT = ("s2_band", "warped_s2", "t2_flat")


def _rel_err(exact, fd):
    """Worst point of the max deviation relative to the larger of 1 and
    the FD values at that point.

    The catalogue's metrics are O(1), and the FD side carries rounding
    noise of about eps / h times the metric, so components that vanish
    are measured against the metric's scale.  The last three axes are
    one point's components; the leading axes index the points (and the
    l values).
    """
    axes = (-3, -2, -1)
    scale = np.maximum(1.0, np.max(np.abs(fd), axis=axes))
    return float(np.max(np.max(np.abs(exact - fd), axis=axes) / scale))


@pytest.mark.parametrize("sid", list_scenarios())
def test_analytic_derivatives_match_fd_oracle(sid):
    # one call per tag on the whole plan: the derivatives take the l grid
    # as an (L, 1) column, the symbols one l at a time on the (N, d) stack
    scenario = get_scenario(sid)
    code, par = scenario.code, scenario.params
    pts = build_plan(scenario, SweepConfig()).points
    column = np.reshape(DEFAULT_L_GRID, (-1, 1))
    worst_dx = worst_gam = 0.0
    for tag in RANK_UPDATE_TAGS:
        exact = _k.variant_metric_dx(code, par, tag, column, pts, H_FD, True, 1e-8)
        fd = _k.variant_metric_dx(code, par, tag, column, pts, H_FD, False, 1e-8)
        assert exact.shape == fd.shape
        worst_dx = max(worst_dx, _rel_err(exact, fd))
        for l in DEFAULT_L_GRID:
            exact = _k.christoffel(code, par, tag, l, pts, H_FD, True, 1e-8)
            fd = _k.christoffel(code, par, tag, l, pts, H_FD, False, 1e-8)
            worst_gam = max(worst_gam, _rel_err(exact, fd))
    assert worst_dx <= 1e-8
    # the FD side of the symbols is amplified by the inverse metric,
    # about 1/l^2 on the vertical block of the deformed metric
    assert worst_gam <= 1e-8


def test_christoffel_matches_index_loop(all_scenarios):
    # the kernel raises the index with one matrix product; the textbook
    # loop sums in another order, so the two agree to rounding
    for scenario in all_scenarios:
        code, par, d = scenario.code, scenario.params, scenario.dim
        for tag in (_k.ORIGINAL, _k.CHEEGER, _k.RESCALED, _k.LIMIT):
            for x in _geodesic_starts(scenario):
                G = _k.variant_metric(code, par, tag, 0.1, x, 1e-8)
                dG = _k.variant_metric_dx(code, par, tag, 0.1, x, H_FD, True, 1e-8)
                Gi = np.linalg.inv(G)
                ref = np.zeros((d, d, d))
                for k in range(d):
                    for i in range(d):
                        for j in range(d):
                            for n in range(d):
                                ref[k, i, j] += 0.5 * Gi[k, n] * (
                                    dG[i, n, j] + dG[j, n, i] - dG[n, i, j])
                gam = _k.christoffel(code, par, tag, 0.1, x, H_FD, True, 1e-8)
                np.testing.assert_allclose(gam, ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("sid", list_scenarios())
def test_killing_dx_matches_fd(sid):
    scenario = get_scenario(sid)
    par = scenario.params
    h = 1e-5
    for x in build_plan(scenario, SweepConfig(n_points=36)).points:
        exact = np.asarray(scenario.killing_dx(par, x))
        for m in range(scenario.dim):
            e = np.zeros(scenario.dim)
            e[m] = h
            K = lambda y: np.asarray(scenario.killing(par, y))
            fd = (K(x - 2 * e) - 8 * K(x - e) + 8 * K(x + e) - K(x + 2 * e)) / (12 * h)
            np.testing.assert_allclose(exact[m], fd, atol=1e-9)


def test_killing_dx_nonzero_only_on_rotation_action(all_scenarios):
    for scenario in all_scenarios:
        dK = scenario.killing_dx(scenario.params, _geodesic_starts(scenario)[0])
        assert bool(np.any(dK)) == (scenario.scenario_id == "su2_s2")


@pytest.mark.parametrize("sid", FLAT_LIMIT)
def test_limit_metric_derivative_vanishes_where_flat(sid, request):
    scenario = request.getfixturevalue(sid)
    for x in build_plan(scenario, SweepConfig()).points:
        dG = _k.variant_metric_dx(scenario.code, scenario.params, _k.LIMIT, 0.0,
                                  x, H_FD, True, 1e-8)
        assert np.max(np.abs(dG)) < 1e-14


@pytest.mark.parametrize("sid", FLAT_LIMIT)
def test_limit_geodesics_are_straight_lines(sid, request):
    # the limit metric is the identity in the chart, so limit geodesics
    # are x0 + t v0; RK4 is exact on them at any step, so a coarse step
    # checks the same thing as the default one
    scenario = request.getfixturevalue(sid)
    lim = variant(scenario, "limit")
    for x0 in _geodesic_starts(scenario):
        v0 = _k.orbit_data(scenario.code, scenario.params, x0, 1e-8).A[:, 0]
        v0 = v0 / np.linalg.norm(v0)
        (res,) = integrate_geodesics(lim, [x0], [v0], step=1e-2,
                                     length=SweepConfig().geodesic_length)
        assert res.status == "ok"
        t = np.arange(res.steps + 1) * res.dt
        line = x0 + t[:, None] * v0
        assert np.max(np.abs(res.positions - line)) < 1e-12


def test_degenerate_orbit_poisons_rank_update(s2_band):
    # on the pole the orbit tensor P = sin^2(phi) vanishes and fails the
    # Cholesky gate
    code, par = s2_band.code, s2_band.params
    x = np.array([0.3, 0.0])
    for tag in RANK_UPDATE_TAGS:
        assert np.all(np.isnan(_k.variant_metric(code, par, tag, 0.1, x, 1e-8)))
        assert np.all(np.isnan(_k.variant_metric_dx(code, par, tag, 0.1, x, H_FD,
                                                    True, 1e-8)))
        assert np.all(np.isnan(_k.christoffel(code, par, tag, 0.1, x, H_FD, True, 1e-8)))
