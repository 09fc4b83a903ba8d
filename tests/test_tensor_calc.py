"""Derivatives, connection coefficients, geodesics, the T tensor, norms.

Derivatives, connection coefficients and the T tensor are read from the
kernels a run calls, geodesics from integrate_geodesics and norms from
the plan blocks, each checked against a closed form or against the
oracles of tests/oracles.py.
"""

import numpy as np
import pytest
from oracles import central_difference, richardson_dx, spectral_sup

from cheegerdef import _kernels as _k
from cheegerdef.cheeger import definition_metric, variant
from cheegerdef.gmanifold import SIGMA_TOL, DomainError
from cheegerdef.scenarios import get_scenario, list_scenarios, sample_grid
from cheegerdef.tensor_calc import (
    H_FD,
    SamplePlan,
    integrate_geodesics,
    orbit_invariant_drift,
    speed_drift,
)
from cheegerdef.verify import SweepConfig, build_plan, convergence_series


def test_round_sphere_connection_coefficients(s2_band):
    phi = 1.1
    gam = _k.christoffel(s2_band, s2_band.params, _k.ORIGINAL, 0.0, np.array([0.4, phi]),
                         H_FD, True, SIGMA_TOL)
    assert gam[1, 0, 0] == pytest.approx(-np.sin(phi) * np.cos(phi), abs=1e-12)
    assert gam[0, 0, 1] == pytest.approx(1.0 / np.tan(phi), abs=1e-12)
    assert gam[0, 1, 0] == pytest.approx(1.0 / np.tan(phi), abs=1e-12)
    assert gam[1, 1, 1] == pytest.approx(0.0, abs=1e-12)


def test_warped_connection_coefficient():
    amp = 0.3
    scenario = get_scenario("warped_s2", warp_amplitude=amp)
    phi = 0.9
    gam = _k.christoffel(scenario, scenario.params, _k.ORIGINAL, 0.0, np.array([0.7, phi]),
                         H_FD, True, SIGMA_TOL)
    s, c = np.sin(phi), np.cos(phi)
    fp = 2 * s * c * (1 + amp * s) + s * s * amp * c
    assert gam[1, 0, 0] == pytest.approx(-fp / 2.0, abs=1e-12)


def test_flat_torus_connection_vanishes(t2_flat):
    gam = _k.christoffel(t2_flat, t2_flat.params, _k.ORIGINAL, 0.0, np.array([1.0, 4.0]),
                         H_FD, True, SIGMA_TOL)
    np.testing.assert_allclose(gam, 0.0, atol=1e-14)


def test_metric_derivatives_fd_matches_closed_form(s2_band):
    # the rescaled family derivative has the closed form
    # d/dphi [sin^2 / (l^2 + sin^2)] = 2 sin cos l^2 / (l^2 + sin^2)^2
    l = 0.3
    phi = 1.3
    dG = _k.variant_metric_dx(s2_band, s2_band.params, _k.RESCALED, l, np.array([0.6, phi]),
                              H_FD, True, SIGMA_TOL)
    s, c = np.sin(phi), np.cos(phi)
    expected = 2 * s * c * l * l / (l * l + s * s) ** 2
    assert dG[1, 0, 0] == pytest.approx(expected, abs=1e-9)
    np.testing.assert_allclose(dG[0], 0.0, atol=1e-9)


def test_analytic_derivatives_match_fd_reference(warped_s2):
    v = variant(warped_s2, "original")
    x = np.array([0.8, 1.0])
    dG = _k.variant_metric_dx(warped_s2, warped_s2.params, _k.ORIGINAL, 0.0, x, H_FD, True,
                              SIGMA_TOL)
    for m, e in enumerate(np.eye(2)):
        fd = central_difference(lambda s: v.matrix(x + s * e), 1e-5)
        np.testing.assert_allclose(dG[m], fd, atol=1e-9)


def test_geodesic_great_circle_oracle(s2_band):
    # vertical launch from phi0: the polar angle along the great circle
    # reaches arccos(cos(phi0) cos(t)) after arc length t
    phi0 = 0.9
    v = variant(s2_band, "original")
    x0 = np.array([0.3, phi0])
    (res,) = integrate_geodesics(v, [x0], [[1.0, 0.0]], length=3.0, step=1e-3)
    assert res.status == "ok"
    drift = orbit_invariant_drift(res)
    oracle = np.arccos(np.cos(phi0) * np.cos(3.0)) - phi0
    assert drift == pytest.approx(oracle, abs=1e-10)


def test_geodesic_meridian_leaves_chart(s2_band):
    v = variant(s2_band, "original")
    (res,) = integrate_geodesics(v, [[0.3, 0.9]], [[0.0, 1.0]], length=3.0, step=1e-3)
    assert res.status == "left_domain"
    assert res.steps * 1e-3 < 3.0
    # a meridian is a geodesic: the heading angle never moves
    np.testing.assert_allclose(res.positions[:, 0], 0.3, atol=1e-12)


def test_geodesic_speed_is_conserved(warped_s2):
    v = variant(warped_s2, "rescaled", 0.2)
    (res,) = integrate_geodesics(v, [[0.5, 1.0]], [[1.0, 0.7]], length=2.0, step=1e-3)
    assert speed_drift(res) < 1e-8


def test_limit_geodesic_stays_on_fiber(s2_band):
    v = variant(s2_band, "limit")
    (res,) = integrate_geodesics(v, [[0.3, 0.9]], [[1.0, 0.0]], length=3.0, step=1e-3)
    assert res.status == "ok"
    assert orbit_invariant_drift(res) < 1e-9


def test_flat_torus_geodesic_is_straight(t2_flat):
    v = variant(t2_flat, "original")
    (res,) = integrate_geodesics(v, [[0.7, 2.0]], [[1.0, 0.0]], length=4.0, step=1e-3,
                                 unit_speed=False)
    assert res.status == "ok"
    assert orbit_invariant_drift(res) == 0.0
    assert speed_drift(res) < 1e-12


def test_geodesic_rejects_outside_start(s2_band):
    v = variant(s2_band, "original")
    with pytest.raises(DomainError):
        integrate_geodesics(v, [[0.3, 0.05]], [[1.0, 0.0]], length=3.0, step=1e-3)


def test_geodesic_rejects_bad_step(s2_band):
    v = variant(s2_band, "original")
    with pytest.raises(ValueError):
        integrate_geodesics(v, [[0.3, 0.9]], [[1.0, 0.0]], length=3.0, step=-1e-3)
    with pytest.raises(ValueError):
        integrate_geodesics(v, [[0.3, 0.9]], [[0.0, 0.0]], length=3.0, step=1e-3)


def test_t_tensor_round_band_oracle(s2_band):
    # distance circles have second fundamental form |cot(phi)| on the
    # unit sphere
    assert not s2_band.transitive
    for phi in (np.pi / 4, 1.1, 1.9):
        t = _k.t_tensor_norm(s2_band, s2_band.params, _k.ORIGINAL, 0.0,
                             np.array([0.5, phi]), H_FD, SIGMA_TOL)
        assert t == pytest.approx(abs(1.0 / np.tan(phi)), abs=1e-9)


def test_t_tensor_warped_oracle():
    amp = 0.25
    scenario = get_scenario("warped_s2", warp_amplitude=amp)
    phi = 1.2
    s, c = np.sin(phi), np.cos(phi)
    f = s * s * (1 + amp * s)
    fp = 2 * s * c * (1 + amp * s) + s * s * amp * c
    t = _k.t_tensor_norm(scenario, scenario.params, _k.ORIGINAL, 0.0, np.array([0.8, phi]),
                         H_FD, SIGMA_TOL)
    assert t == pytest.approx(abs(fp) / (2 * f), abs=1e-9)


def test_t_tensor_deformation_ratio(s2_band):
    # vertical rescale contracts the second fundamental form by
    # l^2 / (l^2 + lambda)
    phi = np.pi / 4
    x = np.array([0.5, phi])
    l = 0.1
    base = _k.t_tensor_norm(s2_band, s2_band.params, _k.ORIGINAL, 0.0, x, H_FD, SIGMA_TOL)
    resc = _k.t_tensor_norm(s2_band, s2_band.params, _k.RESCALED, l, x, H_FD, SIGMA_TOL)
    lam = np.sin(phi) ** 2
    ratio = resc / base
    assert ratio == pytest.approx(l * l / (l * l + lam), abs=1e-6)


def test_t_tensor_hopf_fibers_are_geodesic(s3_hopf):
    assert not s3_hopf.transitive
    assert _k.t_tensor_norm(s3_hopf, s3_hopf.params, _k.ORIGINAL, 0.0,
                            np.array([0.5, 1.7, 0.8]), H_FD, SIGMA_TOL) < 1e-9


def test_t_tensor_vacuous_when_orbit_fills(su2_s2):
    assert su2_s2.transitive
    assert _k.t_tensor_norm(su2_s2, su2_s2.params, _k.ORIGINAL, 0.0,
                            np.array([1.2, 1.4]), H_FD, SIGMA_TOL) == 0.0


def test_cp_norm_closed_form_value(s2_band):
    plan = SamplePlan(s2_band, sample_grid(s2_band, 40))
    l = 0.1
    c0 = _k.c0_block(s2_band, s2_band.params, _k.RESCALED, l, _k.LIMIT, 0.0,
                     plan.points, None, SIGMA_TOL).max()
    lam = np.sin(plan.points[:, 1]) ** 2
    expected = np.max(l * l / (lam * (l * l + lam)))
    assert c0 == pytest.approx(expected, rel=1e-12)


def test_cp_norm_order_one_dominates(s2_band):
    cfg = SweepConfig(n_points=30, seed=2, cp_order=1)
    conv = convergence_series(s2_band, cfg, build_plan(s2_band, cfg))
    assert all(c1 >= c0 for c0, c1 in zip(conv["c0"], conv["c1"]))


def _reference_errors(scenario, l=0.15):
    """Largest deviations of the C^0 and C^1 blocks of rescaled - limit
    from the pointwise oracles applied to the difference of Cheeger's
    definition (definition_metric), relative to the oracle's sup over
    the plan, with that C^1 sup."""
    plan = SamplePlan(scenario, sample_grid(scenario, 25))
    par, pts = scenario.params, plan.points

    def delta(x):
        return (definition_metric(scenario, "rescaled", l, x)
                - definition_metric(scenario, "limit", 0.0, x))

    c0 = _k.c0_block(scenario, par, _k.RESCALED, l, _k.LIMIT, 0.0, pts, None, SIGMA_TOL)
    c0_ref = np.array([spectral_sup(scenario, delta(x), x) for x in pts])
    c1 = _k.c1_block(scenario, par, _k.RESCALED, l, _k.LIMIT, 0.0, pts, H_FD, SIGMA_TOL)
    c1_ref = np.array([np.max(np.abs(richardson_dx(delta, x))) for x in pts])
    c1_scale = float(np.max(c1_ref))
    return (float(np.max(np.abs(c0 - c0_ref)) / np.max(c0_ref)),
            float(np.max(np.abs(c1 - c1_ref))) / (c1_scale or 1.0), c1_scale)


def test_cp_norm_matches_callable_reference():
    # t2_flat's metrics are constant, so both C^1 sides are exactly 0 there
    for sid in list_scenarios():
        c0_err, c1_err, c1_scale = _reference_errors(get_scenario(sid))
        assert c0_err <= 1e-9, sid
        assert c1_err <= 1e-9, sid
        assert (c1_scale == 0.0) == (sid == "t2_flat"), sid


def test_l_for_l_squared_breaks_the_callable_reference(monkeypatch):
    """Negative control: l in place of l^2 in the kernels moves both
    blocks off the definition route, wherever the C^1 series is not
    identically 0."""
    monkeypatch.setattr(_k, "_sq",
                        lambda l: l[..., None, None] if isinstance(l, np.ndarray) else l)
    for sid in list_scenarios():
        c0_err, c1_err, c1_scale = _reference_errors(get_scenario(sid))
        assert c0_err > 1e-2, sid
        assert c1_err > 1e-2 or c1_scale == 0.0, sid
