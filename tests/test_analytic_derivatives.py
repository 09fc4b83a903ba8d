"""Exact derivatives of the rank-update variants against their oracles.

The analytic route (product rule on G - W Y(P) W^T, with dY from the
divided differences of Y's scalar function on the eigenvalues of P)
must agree with the Richardson finite differences over the whole
pipeline, in the catalogued charts, in the sheared charts of the
pulled-back records, where the orbit fields vary and no action is a
coordinate shift, and on the turning torus, whose rank-2 orbit tensor
turns and has crossing eigenvalues; there the off-diagonal divided
differences carry the derivative, and dropping them must break it.  The
limit metric must reproduce the exact geodesics where it is flat in the
chart, and a degenerate orbit must still poison every route.
"""

import numpy as np
import pytest
from oracles import (fd_action_jacobian, fd_relative_error, killing_operator,
                     pulled_back_ids, richardson_dx)

from cheegerdef import _kernels as _k
from cheegerdef.cheeger import variant
from cheegerdef.scenarios import get_scenario, invariance_elements, list_scenarios
from cheegerdef.tensor_calc import H_FD, integrate_geodesics
from cheegerdef.verify import DEFAULT_L_GRID, SweepConfig, build_plan

RANK_UPDATE_TAGS = (_k.RESCALED, _k.LIMIT, _k.CHEEGER_CLOSED)


def _geodesic_starts(scenario):
    return [scenario.start_from_transverse(c) for c in scenario.geodesic_transverse]
# the limit metric is the identity in these charts
FLAT_LIMIT = ("s2_band", "warped_s2", "t2_flat")


def _dx_errors(record):
    """Per tag, the fd_relative_error of the analytic metric derivatives
    against the Richardson ones on the record's default plan, one call
    per tag with the default l grid as an (L, 1) column."""
    code, par = record.code, record.params
    pts = build_plan(record, SweepConfig()).points
    column = np.reshape(DEFAULT_L_GRID, (-1, 1))
    errors = []
    for tag in RANK_UPDATE_TAGS:
        exact = _k.variant_metric_dx(code, par, tag, column, pts, H_FD, True, 1e-8)
        fd = _k.variant_metric_dx(code, par, tag, column, pts, H_FD, False, 1e-8)
        assert exact.shape == fd.shape
        errors.append(fd_relative_error(exact, fd))
    return errors


@pytest.mark.parametrize("sid", list_scenarios() + pulled_back_ids(list_scenarios())
                         + ("t2_turning",))
def test_analytic_derivatives_match_fd_oracle(sid, record):
    # one call per tag on the whole plan: the derivatives take the l grid
    # as an (L, 1) column, the symbols one l at a time on the (N, d) stack
    scenario = record(sid)
    code, par = scenario.code, scenario.params
    pts = build_plan(scenario, SweepConfig()).points
    worst_dx = max(_dx_errors(scenario))
    worst_gam = 0.0
    for tag in RANK_UPDATE_TAGS:
        for l in DEFAULT_L_GRID:
            exact = _k.christoffel(code, par, tag, l, pts, H_FD, True, 1e-8)
            fd = _k.christoffel(code, par, tag, l, pts, H_FD, False, 1e-8)
            worst_gam = max(worst_gam, fd_relative_error(exact, fd))
    assert worst_dx <= 1e-8
    # the FD side of the symbols is amplified by the inverse metric,
    # about 1/l^2 on the vertical block of the deformed metric
    assert worst_gam <= 1e-8


def test_turning_torus_record_matches_finite_differences(record):
    """The turning torus record itself: its metric derivative, its
    Killing operator (the action differentiated along the algebra basis)
    and its action Jacobian against finite differences."""
    scenario = record("t2_turning")
    par = scenario.params
    for x in build_plan(scenario, SweepConfig(n_points=27)).points:
        np.testing.assert_allclose(scenario.metric_dx(par, x),
                                   richardson_dx(lambda y: scenario.metric(par, y), x),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(scenario.killing(par, x), killing_operator(scenario, x),
                                   rtol=0.0, atol=1e-8)
        for g in invariance_elements(scenario, 2, seed=5):
            np.testing.assert_allclose(scenario.action_jacobian(g, x),
                                       fd_action_jacobian(scenario, g, x),
                                       rtol=0.0, atol=1e-8)


def test_diagonal_divided_differences_break_the_turning_derivative(record, monkeypatch):
    """Negative control: with only the diagonal y'(lam_i) of the divided
    differences, dY misses the part of dP that turns the eigenbasis, so
    every tag's derivative on the turning torus leaves its FD oracle."""
    for tag in RANK_UPDATE_TAGS:
        y, dy = _k._TABLE["Y", tag]
        monkeypatch.setitem(_k._TABLE, ("Y", tag),
                            (y, lambda pi, mu, dy=dy: dy(pi, mu) * np.eye(pi.shape[-1])))
    errors = _dx_errors(record("t2_turning"))
    assert min(errors) > 0.1


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
        t = np.arange(res.steps + 1) * 1e-2
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
