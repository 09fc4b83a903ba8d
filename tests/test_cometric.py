"""The deformed family is linear in the cometric: on every scenario's
default plan each variant's inverse is a closed form in G^-1 and the
orbit fields, which the kernels' cometric G^-1 + A M_v A^T must equal,
and the rescaled family's cometric distance to its limit is exactly l^2.
An l in place of l^2 breaks each identity.

The kernels integrate geodesics in this form, as the Hamiltonian flow of
(x, p): RK4 on it must follow RK4 on the geodesic equation with the
exact Christoffel symbols, for every variant and record, and a Killing
derivative of zero must make it miss.

So the Hamiltonian of g_l is the base one plus |J|^2 / (2 l^2), J = K^T p
the momentum, and the two flows commute: the g_l-geodesic with initial
covector p0 is exp(t xi / l^2) . gamma(t), gamma the base geodesic with
the same covector and xi = J(p0).  Where gamma is a great circle or a
line, RK4 on the closed-form route must follow it, with a fourth-order
error, in the catalogued chart and in a sheared one; a shift of t xi / l
breaks it.
"""

from functools import lru_cache

import numpy as np
import pytest
from oracles import (SHEARS, cheeger_geodesic, christoffel_geodesic, cometric,
                     cometric_distance, pulled_back, pulled_back_ids,
                     zero_killing_derivative)

from cheegerdef import _kernels as _k
from cheegerdef.cheeger import variant
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import get_scenario, list_scenarios
from cheegerdef.tensor_calc import integrate_geodesics
from cheegerdef.verify import SweepConfig, build_plan

# the default grid, the point where the rescaling is the identity, and a
# large l
L_VALUES = SweepConfig().l_grid + (1.0, 10.0)
DEFORMED = (_k.CHEEGER, _k.CHEEGER_CLOSED)


@pytest.fixture(scope="module", params=list_scenarios())
def planned(request):
    scenario = get_scenario(request.param)
    pts = build_plan(scenario, SweepConfig()).points
    return scenario, _k.orbit_data(scenario, scenario.params, pts, SIGMA_TOL)


def _metric(scenario, tag, l, orbit):
    return _k.variant_metric(scenario, scenario.params, tag, l, orbit, SIGMA_TOL)


def _residual(scenario, orbit, tag, l, power=2):
    """max |G_v C_v - I| over the plan, C_v the closed-form cometric."""
    Gv = _metric(scenario, tag, l, orbit)
    return float(np.max(np.abs(Gv @ cometric(orbit, tag, l, power) - np.eye(scenario.dim))))


@pytest.mark.parametrize("l", L_VALUES)
def test_each_variant_inverts_its_closed_form_cometric(planned, l):
    scenario, orbit = planned
    for tag in (*DEFORMED, _k.RESCALED, _k.LIMIT):
        assert _residual(scenario, orbit, tag, l) < 1e-11, tag


def _kernel_residual(scenario, orbit, tag, l):
    """max |kernel cometric - closed form| / max |closed form| over the
    plan; the base metric's closed form is G^-1."""
    got = _k.variant_cometric(scenario, scenario.params, tag, l, orbit, SIGMA_TOL)
    want = np.linalg.inv(orbit.G) if tag == _k.ORIGINAL else cometric(orbit, tag, l)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("l", L_VALUES)
def test_kernel_cometric_equals_its_closed_form(planned, l, monkeypatch):
    """M_v from the eigenvalues of P (measured at most 7.1e-16 relative,
    on su2_s2); with l for l^2 in the kernels the deformed and rescaled
    cometrics miss (by 3.7e-3 or more; the least is rescaled on s3_hopf
    at l = 0.025)."""
    scenario, orbit = planned
    for tag in (_k.ORIGINAL, *DEFORMED, _k.RESCALED, _k.LIMIT):
        assert _kernel_residual(scenario, orbit, tag, l) <= 1e-14, tag
    if l != 1.0:
        monkeypatch.setattr(_k, "_sq", lambda l: l)
        for tag in (*DEFORMED, _k.RESCALED):
            assert _kernel_residual(scenario, orbit, tag, l) > 1e-3, tag


@pytest.mark.parametrize("l", L_VALUES)
def test_cometric_distance_to_the_limit_is_l_squared(planned, l):
    scenario, orbit = planned
    dist = cometric_distance(orbit.G, _metric(scenario, _k.RESCALED, l, orbit),
                             _metric(scenario, _k.LIMIT, 0.0, orbit), l)
    np.testing.assert_allclose(dist, 1.0, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("l", [l for l in L_VALUES if l != 1.0])
def test_l_for_l_squared_breaks_the_identities(planned, l):
    """Negative control: l in place of l^2 in the closed forms."""
    scenario, orbit = planned
    for tag in (*DEFORMED, _k.RESCALED):
        assert _residual(scenario, orbit, tag, l, power=1) > 1e-2, tag
    dist = cometric_distance(orbit.G, _metric(scenario, _k.RESCALED, l, orbit),
                             _metric(scenario, _k.LIMIT, 0.0, orbit), l, power=1)
    assert np.min(np.abs(dist - 1.0)) > 0.5


# a start (x0, v0) off the fibers and off the orbit directions, per
# scenario whose base geodesics are closed-form
OBLIQUE = {
    "s2_band": ((0.3, 1.2), (0.7, 0.25)),
    "s3_hopf": ((0.5, 1.7, 0.8), (0.7, 0.2, 0.25)),
    "t2_flat": ((0.7, 3.0), (0.7, 0.25)),
}
LENGTH = 3.0
# RK4 at step 1e-2 over length 3; measured at most 6.6e-11 (s3_hopf,
# l = 0.2), 3.5e-13 on s2_band in both charts and 1.6e-14 on t2_flat,
# where the base geodesics are lines and RK4 is exact
GEODESIC_BOUND = 1e-10


@lru_cache(maxsize=None)
def _rk4(sid, l, step, sheared):
    """The RK4 geodesic of the closed-form deformed metric from the
    oblique start, over LENGTH; sheared runs on the pulled-back record
    from the image of the start."""
    scenario = get_scenario(sid)
    x0, v0 = (np.array(a) for a in OBLIQUE[sid])
    if sheared:
        psi = SHEARS[sid]
        scenario = pulled_back(scenario, psi)
        x0, v0 = psi(x0), psi.jac(x0) @ v0
    (res,) = integrate_geodesics(variant(scenario, "cheeger_closed_form", l), [x0], [v0],
                                 length=LENGTH, step=step, unit_speed=False)
    assert res.status == "ok"
    return res


def _deviation(sid, l, step, sheared=False, power=2):
    """Chart deviation (periodic axes modulo 2 pi) of _rk4's run from
    the closed form, whose fiber shift takes l to the given power: the
    max over the run and the max at the last state.  A sheared run is
    compared with the image of the closed form."""
    res = _rk4(sid, l, step, sheared)
    scenario = res.variant.scenario
    x0, v0 = (np.array(a) for a in OBLIQUE[sid])
    closed = cheeger_geodesic(get_scenario(sid), x0, v0, l,
                              np.arange(res.steps + 1) * step, power)
    if sheared:
        closed = SHEARS[sid](closed)
    dev = res.positions - closed
    dev = np.abs(np.where(scenario.chart.periodic, (dev + np.pi) % (2 * np.pi) - np.pi, dev))
    return float(np.max(dev)), float(np.max(dev[-1]))


@pytest.mark.parametrize("l", (0.5, 0.2))
@pytest.mark.parametrize("sid, sheared", (*((sid, False) for sid in OBLIQUE),
                                          ("s2_band", True)))
def test_deformed_geodesics_follow_their_closed_form(sid, sheared, l):
    assert _deviation(sid, l, 1e-2, sheared)[0] <= GEODESIC_BOUND


@pytest.mark.parametrize("sid", OBLIQUE)
def test_fiber_shift_with_l_for_l_squared_breaks_the_closed_form(sid):
    """Negative control: the closed form shifted by t xi / l."""
    assert _deviation(sid, 0.5, 1e-2, power=1)[0] > 0.1


def test_rk4_error_on_the_closed_form_falls_sixteenfold_per_halving():
    """On s2_band at l = 0.5 the last-state errors are 1.26e-9, 7.7e-11,
    4.8e-12 and 3.0e-13 at steps 0.08 to 0.01 (ratios 16.3, 16.0, 16.2):
    fourth order."""
    errors = np.array([_deviation("s2_band", 0.5, step)[1]
                       for step in (0.08, 0.04, 0.02, 0.01)])
    ratios = errors[:-1] / errors[1:]
    assert np.all(np.abs(ratios - 16.0) <= 1.0), ratios


# every variant, every record, from oblique starts: the catalogued
# transverse values with one chart velocity off the orbits
FLOW_RECORDS = (*list_scenarios(), *pulled_back_ids(list_scenarios()), "t2_turning")
VARIANTS = ("original", "cheeger", "rescaled", "limit", "cheeger_closed_form")
# 50 steps of 2e-3, the workloads' geodesic size
FLOW_STEPS, FLOW_STEP = 50, 2e-3


def _flow_miss(scenario, truth, name):
    """Max deviation, relative to the largest entry, of the (position,
    velocity) rows of RK4 on the cometric flow of scenario from those of
    RK4 on truth's geodesic equation (oracles.christoffel_geodesic), per
    start; the velocities are g_v^-1 p."""
    x0s = np.stack([scenario.start_from_transverse(c) for c in scenario.geodesic_transverse])
    v0s = np.broadcast_to(np.linspace(0.7, 0.2, scenario.dim), x0s.shape)
    v = variant(scenario, name, 0.3)
    results = integrate_geodesics(v, x0s, v0s, length=FLOW_STEPS * FLOW_STEP,
                                  step=FLOW_STEP, unit_speed=False)
    want = christoffel_geodesic(truth, v.tag_code, 0.3, x0s, v0s, FLOW_STEPS, FLOW_STEP)
    misses = []
    for res, rows in zip(results, want):
        assert res.status == "ok" and res.steps == FLOW_STEPS
        C = _k.variant_cometric(scenario, scenario.params, v.tag_code, 0.3, res.positions,
                                SIGMA_TOL)
        vel = (C @ res.covectors[:, :, None])[:, :, 0]
        got = np.concatenate([res.positions, vel], axis=-1)
        misses.append(float(np.max(np.abs(got - rows)) / np.max(np.abs(rows))))
    return misses


@pytest.mark.parametrize("name", VARIANTS)
@pytest.mark.parametrize("sid", FLOW_RECORDS)
def test_cometric_flow_follows_the_christoffel_route(sid, name, record):
    """Measured at most 4.5e-14 relative; the two forms differ by RK4's
    truncation error, which at step 1e-2 reaches 5.3e-11."""
    scenario = record(sid)
    assert max(_flow_miss(scenario, scenario, name)) <= 1e-12


@pytest.mark.parametrize("name", ("rescaled", "limit", "cheeger_closed_form"))
def test_zero_killing_derivative_misses_the_christoffel_route(name, record):
    """Negative control: with d_m A = 0 on the pulled-back s2_band, whose
    orbit fields vary, each oblique start leaves the true Christoffel
    route by 1.2e-5 to 5.4e-3 relative."""
    pulled = record("s2_band.pulled_back")
    assert min(_flow_miss(zero_killing_derivative(pulled), pulled, name)) > 1e-6
