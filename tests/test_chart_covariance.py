"""Chart covariance: the deformation, its vertical rescaling and their
limit are built from the action alone, so every value and verdict must
come out the same in any chart.

Each catalogued scenario is pulled back through a sheared chart
(oracles.SHEARS, oracles.pulled_back), in which no action is a
coordinate shift and the orbit fields vary.  The pulled-back record's
derivatives, action Jacobian and Killing operator must match finite
differences; the C0, gap and large-l blocks must equal the catalogued
record's at the mapped points; and a reduced-config suite must reach
the catalogued verdicts, with the base drift of the mapped invariants
unchanged.  Negative controls: a Killing derivative of zero (the
assumption that a circle shifts chart coordinates) breaks the
derivative check, and a metric term that the action does not preserve
fails the limit drift and the invariance verdict.
"""

import dataclasses

import numpy as np
import pytest
from oracles import (SHEARS, each_element, fd_action_jacobian, fd_relative_error, killing_operator,
                     non_invariant_metric, richardson_dx, zero_killing_derivative)

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import get_scenario, invariance_elements, list_scenarios
from cheegerdef.tensor_calc import H_FD
from cheegerdef.verify import SweepConfig, build_plan, run_suite

CFG = SweepConfig()
# 50 RK4 steps: long enough that the base drift discriminates and the
# shortcut's limit drift shows, short enough for every scenario in both
# charts
REDUCED = SweepConfig(n_points=36, invariance_points=8, invariance_elements=5,
                      oracle_count=30, geodesic_length=0.5, geodesic_step=1e-2)
CIRCLES = ("s2_band", "warped_s2", "s3_hopf", "t2_flat")


def test_every_scenario_has_a_sheared_chart():
    assert tuple(SHEARS) == list_scenarios()


@pytest.mark.parametrize("sid", list_scenarios())
def test_pulled_back_record_matches_finite_differences(sid, pulled_back_records):
    """The harness itself: the chain-rule derivatives of the metric and
    of the Killing operator, the action Jacobian and the Killing
    operator of the pulled-back action against finite differences."""
    scenario = pulled_back_records[sid]
    par = scenario.params
    for x in build_plan(scenario, SweepConfig(n_points=9)).points:
        np.testing.assert_allclose(scenario.metric_dx(par, x),
                                   richardson_dx(lambda y: scenario.metric(par, y), x),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(scenario.killing_dx(par, x),
                                   richardson_dx(lambda y: scenario.killing(par, y), x),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(scenario.killing(par, x), killing_operator(scenario, x),
                                   rtol=0.0, atol=1e-8)
        for g in each_element(invariance_elements(scenario, 2, seed=5)):
            np.testing.assert_allclose(scenario.action_jacobian(g, x),
                                       fd_action_jacobian(scenario, g, x),
                                       rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("sid", list_scenarios())
def test_sample_blocks_are_chart_invariant(sid, pulled_back_records):
    """Each C0, gap and large-l value is a sup that no chart changes, so
    the pulled-back plan reads the catalogued values at its mapped
    points.  Measured: at most 8.9e-16 apart, 8.8e-12 relative (large l,
    where the value is about 1e-4 and the rounding of O(1) metric
    entries dominates)."""
    pulled, scenario = pulled_back_records[sid], get_scenario(sid)
    pts = build_plan(pulled, CFG).points
    ls, large = np.asarray(CFG.l_grid), np.asarray(CFG.large_l_grid)

    def blocks(rec, x):
        par = rec.params
        return (_k.c0_block(rec, par, _k.RESCALED, ls, _k.LIMIT, 0.0, x, None, SIGMA_TOL),
                _k.gap_block(rec, par, ls, x, SIGMA_TOL),
                _k.c0_block(rec, par, _k.CHEEGER, large, _k.ORIGINAL, 0.0, x, None,
                            SIGMA_TOL))

    for there, here in zip(blocks(pulled, pts), blocks(scenario, SHEARS[sid].inverse(pts))):
        assert np.max(np.abs(there - here)) <= 1e-12
        np.testing.assert_allclose(there, here, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("sid", ("s2_band", "warped_s2"))
def test_t_block_is_chart_invariant(sid, pulled_back_records):
    """The T-tensor norms are chart-invariant too, up to the error of
    their finite differences; the two scenarios whose base norm is not
    zero.  Measured: at most 3.1e-12 apart on a 9-point plan."""
    pulled, scenario = pulled_back_records[sid], get_scenario(sid)
    pts = build_plan(pulled, SweepConfig(n_points=9)).points
    ls = np.asarray(CFG.l_grid)
    there = _k.t_pair_block(pulled, pulled.params, _k.RESCALED, ls, pts, H_FD, SIGMA_TOL)
    here = _k.t_pair_block(scenario, scenario.params, _k.RESCALED, ls,
                           SHEARS[sid].inverse(pts), H_FD, SIGMA_TOL)
    for a, b in zip(there, here):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("sid", list_scenarios())
def test_pulled_back_suite_reaches_the_catalogued_verdicts(sid, pulled_back_records):
    """Every verdict of a reduced-config suite is the same in both charts
    (all of them pass), and the geodesics of the pulled-back record are
    the images of the catalogued ones, so the base drift of the mapped
    invariants agrees to the integration error (6.4e-10 relative on
    s2_band; 1.5e-11 absolute on s3_hopf, where it is 4.7e-15)."""
    there = run_suite(pulled_back_records[sid], REDUCED)
    here = run_suite(get_scenario(sid), REDUCED)
    assert ([(v["criterion"], v["passed"]) for v in there["verdicts"]]
            == [(v["criterion"], v["passed"]) for v in here["verdicts"]])
    assert there["passed"] and here["passed"]
    for a, b in zip(there["geodesic"]["starts"], here["geodesic"]["starts"]):
        np.testing.assert_allclose(a["base_drift"], b["base_drift"], rtol=1e-8, atol=1e-10)


def _verdict(scenario, cfg, criterion):
    (v,) = [v for v in run_suite(scenario, cfg)["verdicts"] if v["criterion"] == criterion]
    return v


@pytest.mark.parametrize("sid", CIRCLES)
def test_zero_killing_derivative_fails_the_derivative_check(sid, pulled_back_records):
    """Negative control of test_analytic_derivatives_match_fd_oracle on
    the pulled-back records: measured 0.07 (s3_hopf) to 0.48 (s2_band)
    against the 1e-8 bound."""
    scenario = zero_killing_derivative(pulled_back_records[sid])
    par = scenario.params
    pts = build_plan(scenario, REDUCED).points
    column = np.reshape(CFG.l_grid, (-1, 1))
    worst = max(fd_relative_error(
        _k.variant_metric_dx(scenario, par, tag, column, pts, H_FD, True, SIGMA_TOL),
        _k.variant_metric_dx(scenario, par, tag, column, pts, H_FD, False, SIGMA_TOL))
        for tag in (_k.RESCALED, _k.LIMIT, _k.CHEEGER_CLOSED))
    assert worst > 1e-2


def test_non_invariant_metric_fails_the_limit_drift(pulled_back_records):
    """The orbits stay totally geodesic in the limit metric in every
    chart; with eps sin(y_1) added to g_22 (eps = 1e-2) the metric is not
    invariant and the limit geodesics leave them (3.4e-4), while speed is
    still conserved.  A zero Killing derivative cannot serve here: in
    cometric form its terms cancel exactly on a vertical covector, so
    the limit drift reads 2.2e-13 with it and without it."""
    pulled = pulled_back_records["s2_band"]
    cfg = dataclasses.replace(REDUCED, enabled=("geodesic",))
    assert _verdict(pulled, cfg, "geodesic_limit_drift")["passed"]
    perturbed = non_invariant_metric(pulled, 1e-2)
    wrong = _verdict(perturbed, cfg, "geodesic_limit_drift")
    assert not wrong["passed"] and wrong["measured"] > 1e-4
    assert _verdict(perturbed, cfg, "geodesic_speed_conservation")["passed"]


def test_non_invariant_metric_fails_the_invariance_verdict(pulled_back_records):
    """eps sin(y_1) added to g_22 of the pulled-back s2_band: the action
    moves y_1, so the term is not invariant and the residual reads about
    eps.  The unperturbed record passes (4.4e-16)."""
    pulled, eps = pulled_back_records["s2_band"], 1e-3
    perturbed = non_invariant_metric(pulled, eps)
    cfg = dataclasses.replace(REDUCED, enabled=("invariance",))
    assert _verdict(pulled, cfg, "invariance_residual")["passed"]
    failed = _verdict(perturbed, cfg, "invariance_residual")
    assert not failed["passed"] and failed["measured"] > 0.1 * eps

