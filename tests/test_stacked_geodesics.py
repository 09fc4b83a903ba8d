"""Stacked geodesic integration: a stack of starts advances as one RK4
state of positions and covectors, each start keeps its own status and
step count, and every row equals the same start integrated alone.  A
stack may mix the base metric with one other variant; each of its rows
equals the same start in a stack of its own variant.  The
catalogue-wide tests also run on the pulled-back records, whose sheared
charts make every orbit field vary, and the mixed flow call runs on the
turning torus, whose rank-2 orbit tensor turns and has crossing
eigenvalues."""

import dataclasses

import numpy as np
import pytest
from oracles import pulled_back_ids

from cheegerdef import _kernels as _k
from cheegerdef.cheeger import variant
from cheegerdef.gmanifold import Chart, DomainError, NumericalFailure
from cheegerdef.tensor_calc import (GEODESIC_CHART_MARGIN, H_FD, GeodesicResult,
                                    integrate_geodesics, orbit_invariant_drift,
                                    speed_drift)

NON_TRANSITIVE = ("s2_band", "warped_s2", "s3_hopf", "t2_flat")
IN_EVERY_CHART = NON_TRANSITIVE + pulled_back_ids(NON_TRANSITIVE)
TOL = 1e-8
H = 1e-4


def _geodesic_starts(scenario):
    return np.stack([scenario.start_from_transverse(c)
                     for c in scenario.geodesic_transverse])


def _starts(scenario):
    x0s = _geodesic_starts(scenario)
    return x0s, _k.orbit_data(scenario.code, scenario.params, x0s, TOL).A[:, :, 0]


def _rk4(scenario, tag, x0, p0, n_steps, dt, chart=None, base=None, l=0.0):
    chart = chart or scenario.chart
    return _k.geodesic_rk4(scenario.code, scenario.params, tag, l, x0, p0,
                           n_steps, dt, H, True, chart.lo, chart.hi,
                           chart.periodic.astype(np.int64), TOL, base=base)


def _failing_gate(monkeypatch):
    """Make every orbit tensor fail the Cholesky gate of the rank update:
    _eigh reports the negated eigenvalues."""
    eigh = _k._eigh

    def negated(P):
        lam, U = eigh(P)
        return -lam, U

    monkeypatch.setattr(_k, "_eigh", negated)


def _wide(s2_band):
    """The s2_band chart box opened past both poles."""
    return Chart(labels=s2_band.chart.labels, lo=np.array([0.0, -1.0]),
                 hi=np.array([2 * np.pi, np.pi + 1.0]),
                 periodic=s2_band.chart.periodic)


def _cometric(res, x):
    """The inverse metric of res's variant at x."""
    v = res.variant
    return _k.variant_cometric(v.scenario, v.scenario.params, v.tag_code, v.l, x, TOL)


def _assert_same(stacked, single):
    assert stacked.status == single.status
    assert stacked.steps == single.steps
    np.testing.assert_array_equal(stacked.states, single.states)


# the base metric's symbols do not read the orbit fields, and the mixed
# stacks below run its rows on the pulled-back records
@pytest.mark.parametrize("sid, tag", (
    *((sid, tag) for tag in ("limit", "original") for sid in NON_TRANSITIVE),
    *((sid, "limit") for sid in pulled_back_ids(NON_TRANSITIVE))))
def test_stacked_geodesics_equal_single_starts(sid, tag, record):
    scenario = record(sid)
    v = variant(scenario, tag)
    x0s, v0s = _starts(scenario)
    stacked = integrate_geodesics(v, x0s, v0s, length=3.0, step=1e-2)
    assert len(stacked) == len(x0s)
    for res, x0, v0 in zip(stacked, x0s, v0s):
        _assert_same(res, integrate_geodesics(v, [x0], [v0], length=3.0, step=1e-2)[0])
        assert res.status == "ok"
        assert res.steps == 300


def test_meridian_rows_leave_chart_alone(s2_band):
    # the meridian starts run into the phi boundaries of the chart after
    # about two units of arc length; the latitude starts run to the end.
    # Meridians are straight in the chart, and these starts put one state
    # between the chart edge and the box shrunk by the stencil margin 3 h
    v = variant(s2_band, "original")
    x0s, v0s = _starts(s2_band)
    x0s = np.vstack([x0s[:1], [[0.3, 0.9015]], x0s[1:], [[0.3, 2.20015]]])
    v0s = np.vstack([v0s[:1], [[0.0, 1.0]], v0s[1:], [[0.0, -1.0]]])
    results = integrate_geodesics(v, x0s, v0s, length=3.0, step=1e-2)
    assert [r.status for r in results] == ["ok", "left_domain", "ok", "ok", "left_domain"]
    assert [results[s].steps for s in (0, 2, 3)] == [300, 300, 300]
    lo, hi = s2_band.chart.lo[1], s2_band.chart.hi[1]
    up, down = results[1], results[4]
    assert up.steps == 204 and down.steps == 200
    assert hi - 3.0 * H < up.positions[-1, 1] < hi
    assert lo < down.positions[-1, 1] < lo + 3.0 * H
    for res in (up, down):
        np.testing.assert_array_equal(res.states[res.steps + 1:], 0.0)
    for res, x0, v0 in zip(results, x0s, v0s):
        _assert_same(res, integrate_geodesics(v, [x0], [v0], length=3.0, step=1e-2)[0])


def test_degenerate_row_fails_alone(s2_band):
    # with the chart box opened past the pole, the pole start reaches the
    # kernel and its flow is NaN at the first step
    wide = _wide(s2_band)
    x0s, v0s = _starts(s2_band)
    x0s = np.vstack([x0s[:2], [[0.3, 0.0]], x0s[2:]])
    v0s = np.vstack([v0s[:2], [[1.0, 0.0]], v0s[2:]])
    for tag in (_k.LIMIT, _k.ORIGINAL):
        traj, status, steps, done = _rk4(s2_band, tag, x0s, v0s, 50, 1e-2, wide)
        np.testing.assert_array_equal(status, [_k.OK, _k.OK, _k.NUMERIC_FAIL, _k.OK])
        np.testing.assert_array_equal(done, [50, 50, 0, 50])
        assert steps == 50
        np.testing.assert_array_equal(traj[2, 1:], 0.0)
        for s in (0, 1, 3):
            one = _rk4(s2_band, tag, x0s[s], v0s[s], 50, 1e-2, wide)
            np.testing.assert_array_equal(traj[s], one[0])


def test_failure_names_variant_start_and_step(s2_band):
    scenario = dataclasses.replace(s2_band, chart=_wide(s2_band))
    v = variant(scenario, "limit")
    x0s = np.array([[0.3, 0.9], [0.3, 0.0]])
    v0s = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NumericalFailure,
                       match=r"of limit from start 1 at \[0\.3, 0\.0\] "
                             r"broke down at step 0"):
        integrate_geodesics(v, x0s, v0s, length=0.5, step=1e-2, unit_speed=False)


def _mixed(scenario, x0s_lim, v0s_lim, x0s_base, v0s_base, **kw):
    """One mixed stack (limit starts, then base starts) and the two
    one-variant stacks of the same starts."""
    lim, base = variant(scenario, "limit"), variant(scenario, "original")
    mixed = integrate_geodesics([lim] * len(x0s_lim) + [base] * len(x0s_base),
                                np.vstack([x0s_lim, x0s_base]),
                                np.vstack([v0s_lim, v0s_base]), **kw)
    alone = (integrate_geodesics(lim, x0s_lim, v0s_lim, **kw)
             + integrate_geodesics(base, x0s_base, v0s_base, **kw))
    return mixed, alone


@pytest.mark.parametrize("sid", IN_EVERY_CHART)
def test_mixed_stack_rows_equal_their_one_variant_stacks(sid, record):
    scenario = record(sid)
    x0s, v0s = _starts(scenario)
    mixed, alone = _mixed(scenario, x0s, v0s, x0s, v0s, length=3.0, step=1e-2)
    assert [r.variant.tag for r in mixed] == ["limit"] * 3 + ["original"] * 3
    for res, one in zip(mixed, alone):
        _assert_same(res, one)
        assert res.status == "ok"


def test_mixed_stack_limit_row_fails_alone_at_the_pole(s2_band):
    # the limit metric degenerates at the pole (P = 0), so its pole row
    # is NaN at the first step; the base rows beside it carry on
    wide = _wide(s2_band)
    x0s, v0s = _starts(s2_band)
    x_lim = np.vstack([x0s[:1], [[0.3, 0.0]], x0s[1:]])
    v_lim = np.vstack([v0s[:1], [[1.0, 0.0]], v0s[1:]])
    base = np.array([False] * 4 + [True] * 3)
    traj, status, steps, done = _rk4(s2_band, _k.LIMIT, np.vstack([x_lim, x0s]),
                                     np.vstack([v_lim, v0s]), 50, 1e-2, wide, base)
    np.testing.assert_array_equal(status, [_k.OK, _k.NUMERIC_FAIL] + [_k.OK] * 5)
    np.testing.assert_array_equal(done, [50, 0] + [50] * 5)
    assert steps == 50
    for rows, tag, x, v in ((slice(0, 4), _k.LIMIT, x_lim, v_lim),
                            (slice(4, 7), _k.ORIGINAL, x0s, v0s)):
        one = _rk4(s2_band, tag, x, v, 50, 1e-2, wide)
        np.testing.assert_array_equal(traj[rows], one[0])
        np.testing.assert_array_equal(status[rows], one[1])
        np.testing.assert_array_equal(done[rows], one[3])


def test_mixed_stack_base_meridian_row_leaves_chart_alone(s2_band):
    # a base meridian start runs into the chart edge after 204 steps;
    # the limit rows and the other base rows run to the end
    x0s, v0s = _starts(s2_band)
    x_base = np.vstack([x0s, [[0.3, 0.9015]]])
    v_base = np.vstack([v0s, [[0.0, 1.0]]])
    mixed, alone = _mixed(s2_band, x0s, v0s, x_base, v_base, length=3.0, step=1e-2)
    assert [r.status for r in mixed] == ["ok"] * 6 + ["left_domain"]
    assert [r.steps for r in mixed] == [300] * 6 + [204]
    for res, one in zip(mixed, alone):
        _assert_same(res, one)


def _christoffel_flow(scenario, tag, x, v):
    """States (x, p) with p = g v and their derivatives (v, p') from the
    variant's exact Christoffel symbols at l = 0.1:
    p' = d/dt (g v) = (d_k g v^k) v - g Gamma(v, v)."""
    code, par = scenario.code, scenario.params
    G = _k.variant_metric(code, par, tag, 0.1, x, TOL)
    dG = _k.variant_metric_dx(code, par, tag, 0.1, x, H, True, TOL)
    acc = -np.einsum("nkij,ni,nj->nk", _k.christoffel(code, par, tag, 0.1, x, H, True, TOL),
                     v, v)
    p = (G @ v[:, :, None])[:, :, 0]
    pdot = np.einsum("nkij,nk,nj->ni", dG, v, v) + (G @ acc[:, :, None])[:, :, 0]
    return np.hstack([x, p]), np.hstack([v, pdot])


@pytest.mark.parametrize("sid", IN_EVERY_CHART + ("t2_turning",))
def test_mixed_christoffel_rows_equal_their_one_variant_calls(sid, record, monkeypatch):
    # a mixed flow call gives its base rows M = dM = 0 in the cometric,
    # which must leave them the base metric's flow exactly; the other rows
    # equal a call of their own tag, and every row the geodesic equation
    # of its own variant's Christoffel symbols, from an oblique velocity.
    # The turning torus runs the rank-2 cometric, with its eigenvalues
    # crossing at the middle start.  With every orbit tensor failing the
    # Cholesky gate, the other rows turn NaN and the base rows keep their
    # flow.
    scenario = record(sid)
    code, par = scenario.code, scenario.params
    x = _geodesic_starts(scenario)
    v = np.broadcast_to(np.linspace(0.7, 0.2, scenario.dim), x.shape)
    base = np.array([False] * len(x) + [True] * len(x))
    y_base, want_base = _christoffel_flow(scenario, _k.ORIGINAL, x, v)
    original = _k._geodesic_flow(code, par, _k.ORIGINAL, 0.1, y_base, TOL, None)
    for tag in (_k.LIMIT, _k.RESCALED, _k.CHEEGER_CLOSED):
        y_var, want_var = _christoffel_flow(scenario, tag, x, v)
        mixed = _k._geodesic_flow(code, par, tag, 0.1, np.vstack([y_var, y_base]), TOL,
                                  base)
        np.testing.assert_array_equal(mixed[base], original)
        np.testing.assert_array_equal(
            mixed[~base], _k._geodesic_flow(code, par, tag, 0.1, y_var, TOL, None))
        want = np.vstack([want_var, want_base])
        np.testing.assert_allclose(mixed, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    _failing_gate(monkeypatch)
    for tag in (_k.LIMIT, _k.RESCALED, _k.CHEEGER_CLOSED):
        mixed = _k._geodesic_flow(code, par, tag, 0.1, np.vstack([y_base, y_base]), TOL,
                                  base)
        np.testing.assert_array_equal(mixed[base], original)
        assert np.isnan(mixed[~base]).all()


def test_mixed_stack_keeps_the_gate_of_p_off_the_base_rows(s2_band, monkeypatch):
    # with every orbit tensor failing the Cholesky gate, the limit rows
    # are NaN at the first step and the base rows still equal their
    # base-only run, which never evaluates the gate
    x0s, v0s = _starts(s2_band)
    _failing_gate(monkeypatch)
    base = np.array([False] * 3 + [True] * 3)
    traj, status, steps, done = _rk4(s2_band, _k.LIMIT, np.vstack([x0s, x0s]),
                                     np.vstack([v0s, v0s]), 30, 1e-2, base=base)
    np.testing.assert_array_equal(status, [_k.NUMERIC_FAIL] * 3 + [_k.OK] * 3)
    np.testing.assert_array_equal(done, [0] * 3 + [30] * 3)
    one = _rk4(s2_band, _k.ORIGINAL, x0s, v0s, 30, 1e-2)
    np.testing.assert_array_equal(traj[3:], one[0])


@pytest.mark.parametrize("x_lim, x_base, named", (
    ([[0.3, 0.9], [0.3, 0.5]], [[0.3, 0.9], [0.3, 0.0]], r"of original from start 1"),
    ([[0.3, 0.9], [0.3, 0.0]], [[0.3, 0.0], [0.3, 0.9]], r"of limit from start 1"),
))
def test_mixed_failure_names_the_first_failing_row(s2_band, x_lim, x_base, named):
    # rows in limit-then-base order; the first failing row is named by its
    # variant and its index among that variant's starts
    scenario = dataclasses.replace(s2_band, chart=_wide(s2_band))
    lim, base = variant(scenario, "limit"), variant(scenario, "original")
    v0s = np.array([[1.0, 0.0]] * 4)
    with pytest.raises(NumericalFailure,
                       match=named + r" at \[0\.3, 0\.0\] broke down at step 0"):
        integrate_geodesics([lim, lim, base, base], np.vstack([x_lim, x_base]), v0s,
                            length=0.5, step=1e-2, unit_speed=False)


def test_stacks_that_cannot_mix_are_refused(s2_band):
    # two variants that are not the base metric do not share one stack
    x0s, v0s = _starts(s2_band)
    x0s, v0s = x0s[:2], v0s[:2]
    for pair in ([variant(s2_band, "limit"), variant(s2_band, "rescaled", 0.1)],
                 [variant(s2_band, "rescaled", 0.1), variant(s2_band, "rescaled", 0.2)]):
        with pytest.raises(ValueError, match="mixed geodesic stack"):
            integrate_geodesics(pair, x0s, v0s, length=0.05, step=1e-2)


@pytest.mark.parametrize("name", ("original", "cheeger", "rescaled", "limit",
                                  "cheeger_closed"))
def test_mixed_stack_of_every_tag_equals_its_one_variant_stacks(s2_band, name):
    # base rows take M = 0 under any tag, so a stack of any tag with a base
    # mask equals, row for row and bit for bit, the stack of that tag and
    # the base-metric stack of the same starts
    tag = getattr(_k, name.upper())
    x0s, p0s = _starts(s2_band)
    base = np.array([False] * 3 + [True] * 3)
    mixed = _rk4(s2_band, tag, np.vstack([x0s, x0s]), np.vstack([p0s, p0s]), 30, 1e-2,
                 base=base, l=0.3)
    for rows, one in ((~base, _rk4(s2_band, tag, x0s, p0s, 30, 1e-2, l=0.3)),
                      (base, _rk4(s2_band, _k.ORIGINAL, x0s, p0s, 30, 1e-2))):
        for got, want in zip(mixed, one):
            np.testing.assert_array_equal(got if np.ndim(got) == 0 else got[rows], want)


@pytest.mark.parametrize("name", ("original", "cheeger", "rescaled", "limit",
                                  "cheeger_closed"))
def test_geodesic_rk4_ignores_the_warm_up_step_and_flag(s2_band, name):
    # the benchmark's warm-up passes an FD step of 1e-4 and analytic
    # unset; the kernel reads neither, so that call equals the same call
    # with analytic set and another step, bit for bit
    x0 = s2_band.start_from_transverse(s2_band.geodesic_transverse[0])
    v0 = np.array([1.0, 0.0])
    chart = s2_band.chart

    def call(h, analytic):
        return _k.geodesic_rk4(s2_band.code, s2_band.params, getattr(_k, name.upper()),
                               0.1, x0, v0, 2, 1e-3, h, analytic, chart.lo, chart.hi,
                               chart.periodic.astype(np.int64), 1e-8)

    pinned = call(1e-4, False)
    assert int(pinned[1]) == _k.OK and int(pinned[2]) == 2
    for got, want in zip(call(1e-2, True), pinned):
        np.testing.assert_array_equal(got, want)


def test_kernel_keeps_the_single_start_shapes(s2_band):
    # a (d,) start is the zero-batch case: one trajectory, int-able status
    # and step count; the third value counts stacked steps as an int
    x0s, v0s = _starts(s2_band)
    traj, status, steps, done = _rk4(s2_band, _k.LIMIT, x0s[0], v0s[0], 20, 1e-2)
    assert traj.shape == (21, 4)
    assert int(status) == _k.OK
    assert steps == int(done) == 20
    stacked = _rk4(s2_band, _k.LIMIT, x0s, v0s, 20, 1e-2)
    assert stacked[0].shape == (3, 21, 4)
    assert isinstance(stacked[2], int) and stacked[2] == 20
    np.testing.assert_array_equal(stacked[0][0], traj)


def test_stacked_steps_count_the_longest_row(s2_band):
    x0s = np.array([[0.3, 0.9], [0.3, 2.9]])
    v0s = np.array([[1.0, 0.0], [0.0, 1.0]])
    traj, status, steps, done = _rk4(s2_band, _k.ORIGINAL, x0s, v0s, 40, 1e-2)
    np.testing.assert_array_equal(status, [_k.OK, _k.LEFT_DOMAIN])
    assert done[1] < 40
    assert steps == 40


def test_geodesic_integrate_returns_one_result(s2_band):
    results = integrate_geodesics(variant(s2_band, "limit"), [[0.3, 0.9]], [[1.0, 0.0]],
                                  length=0.5, step=1e-2)
    assert len(results) == 1 and isinstance(results[0], GeodesicResult)
    assert results[0].states.shape == (51, 4)


def test_rk4_is_fourth_order_on_great_circles(s2_band):
    # a latitude launch from (theta0, phi0) follows the great circle
    # cos(t) p0 + sin(t) e_theta; halving the step divides the endpoint
    # error by about 2^4
    th0, phi0, T = 0.3, 0.9, 3.0
    p0 = np.array([np.sin(phi0) * np.cos(th0), np.sin(phi0) * np.sin(th0),
                   np.cos(phi0)])
    e_th = np.array([-np.sin(th0), np.cos(th0), 0.0])
    p = np.cos(T) * p0 + np.sin(T) * e_th
    exact = np.array([np.arctan2(p[1], p[0]) % (2 * np.pi), np.arccos(p[2])])
    v = variant(s2_band, "original")
    errs = []
    for dt in (0.025, 0.0125, 0.00625):
        (res,) = integrate_geodesics(v, [[th0, phi0]], [[1.0, 0.0]], length=T, step=dt)
        assert res.status == "ok"
        errs.append(np.max(np.abs(res.positions[-1] - exact)))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 15.0) & (ratios < 17.0)), ratios


@pytest.mark.parametrize("sid, expected", (
    ("s2_band", [[0.6], [0.9], [1.2]]),
    ("s3_hopf", [[-1.2, 0.5], [-1.2, 0.8], [-1.2, 1.1]]),
    ("su2_s2", np.zeros((3, 0))),
    ("t2_flat", [[1.0], [3.0], [5.0]]),
))
def test_orbit_invariants_on_stacks(sid, expected, request):
    scenario = request.getfixturevalue(sid)
    x0s = _geodesic_starts(scenario)
    stacked = scenario.orbit_invariants(x0s)
    np.testing.assert_allclose(stacked, expected, rtol=0.0, atol=1e-15)
    for x, row in zip(x0s, stacked):
        np.testing.assert_array_equal(scenario.orbit_invariants(x), row)


@pytest.mark.parametrize("tag", ("limit", "original"))
def test_drifts_match_pointwise_loops(warped_s2, tag):
    x0s, v0s = _starts(warped_s2)
    (res,) = integrate_geodesics(variant(warped_s2, tag), x0s[:1], v0s[:1],
                                 length=1.0, step=1e-2)
    speeds = [p @ _cometric(res, x) @ p
              for x, p in zip(res.positions[::5], res.covectors[::5])]
    assert speed_drift(res, stride=5) == np.max(np.abs(np.array(speeds) - speeds[0]))
    inv = [warped_s2.orbit_invariants(x) for x in res.positions]
    assert orbit_invariant_drift(res) == np.max(np.abs(np.array(inv) - inv[0]))


def test_start_inside_the_integration_margin_is_refused(s2_band):
    # the chart's lo is 0.2 and RK4 stops a row within 3e-4 of it, so a
    # start at 0.2001 would stop at step 0 with nothing measured
    lim = variant(s2_band, "limit")
    v0 = np.array([1.0, 0.0])
    assert GEODESIC_CHART_MARGIN == 3.0 * H_FD == pytest.approx(3e-4)
    with pytest.raises(DomainError, match="margin"):
        integrate_geodesics(lim, [[0.3, 0.9], [0.3, 0.2001]], [v0, v0], length=3.0,
                            step=1e-3)
    (res,) = integrate_geodesics(lim, [[0.3, 0.2 + GEODESIC_CHART_MARGIN]], [v0],
                                 length=0.01, step=1e-3)
    assert res.status == "ok" and res.steps == 10


@pytest.mark.parametrize("sid", ("s2_band", "s3_hopf", "t2_flat"))
def test_cheeger_stack_equals_the_closed_form_stack(sid, request):
    """Both deformed routes have the cometric G^-1 + l^-2 A A^T, so a
    deformed-metric stack on the reparametrisation route gives the
    trajectories, statuses and step counts of the closed-form route bit
    for bit, integrate_geodesics returns the kernel's rows, and the route
    mixes with the base metric like any other variant."""
    scenario = request.getfixturevalue(sid)
    cheeger = variant(scenario, "cheeger", 0.5)
    x0s, v0s = _starts(scenario)
    results = integrate_geodesics(cheeger, x0s, v0s, length=0.2, step=1e-2,
                                  unit_speed=False)
    p0s = np.stack([res.covectors[0] for res in results])
    traj, status, _, done = _rk4(scenario, _k.CHEEGER, x0s, p0s, 20, 1e-2, l=0.5)
    closed = _rk4(scenario, _k.CHEEGER_CLOSED, x0s, p0s, 20, 1e-2, l=0.5)
    for got, want in zip((traj, status, done), (closed[0], closed[1], closed[3])):
        np.testing.assert_array_equal(got, want)
    for s, res in enumerate(results):
        assert res.status == "ok" and int(status[s]) == _k.OK
        assert res.steps == done[s] == 20
        np.testing.assert_array_equal(res.states, traj[s])
    mixed = integrate_geodesics([cheeger, variant(scenario, "original")], x0s[:2], v0s[:2],
                                length=0.05, step=1e-2)
    alone = (integrate_geodesics(cheeger, x0s[:1], v0s[:1], length=0.05, step=1e-2)
             + integrate_geodesics(variant(scenario, "original"), x0s[1:2], v0s[1:2],
                                   length=0.05, step=1e-2))
    for res, one in zip(mixed, alone):
        _assert_same(res, one)


def _speed(res, k):
    p = res.covectors[k]
    return p @ _cometric(res, res.positions[k]) @ p


@pytest.mark.parametrize("tag", ("limit", "original"))
def test_speed_drift_of_a_short_run_compares_its_last_state(s2_band, tag):
    # 20 steps, fewer than the default stride of 50: the first and last
    # states are compared instead of the first state with itself
    x0s, v0s = _starts(s2_band)
    (res,) = integrate_geodesics(variant(s2_band, tag), x0s[:1], v0s[:1],
                                 length=0.02, step=1e-3)
    assert res.steps == 20
    assert speed_drift(res) == abs(_speed(res, 20) - _speed(res, 0))
    if tag == "original":
        assert speed_drift(res) > 0.0


def test_speed_drift_of_a_long_run_keeps_its_stride(s2_band):
    # 70 steps: sampled at steps 0 and 50 on the stride and at step 70,
    # the last completed state, whose drift is the largest
    x0s, v0s = _starts(s2_band)
    (res,) = integrate_geodesics(variant(s2_band, "original"), x0s[:1], v0s[:1],
                                 length=0.07, step=1e-3)
    assert res.steps == 70
    drifts = [abs(_speed(res, k) - _speed(res, 0)) for k in (50, 70)]
    assert drifts[1] > drifts[0]
    assert speed_drift(res) == max(drifts)
