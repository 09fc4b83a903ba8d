"""Deformation layer: kappa, the metric family and its three routes."""

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef.cheeger import (
    MetricVariant,
    VARIANT_TAGS,
    definition_metric,
    kappa,
    variant,
)
from cheegerdef.gmanifold import SIGMA_TOL, NumericalFailure
from cheegerdef.scenarios import direction_pairs, list_scenarios, oracle_samples, sample_grid
from cheegerdef.verify import SweepConfig, build_plan


def _routes(scenario, tag, l=0.0):
    """The metric at a point by every route that builds the tag: the
    kernel routes (both deformation routes for the deformed metric) and
    Cheeger's definition."""
    tags = ("cheeger", "cheeger_closed_form") if tag == "cheeger" else (tag,)
    kernels = [MetricVariant(scenario, t, l).matrix for t in tags]
    return kernels + [lambda x: definition_metric(scenario, tag, l, x)]


def _at(scenario, x):
    """The orbit data record at x."""
    return _k.orbit_data(scenario, scenario.params, x, SIGMA_TOL)


def _reparam(orbit, l, v):
    """Image of v under the deformation reparametrisation
    Ch_l(v) = K(kappa(v)) / l^2 + v."""
    return orbit.K @ kappa(orbit, v) / (l * l) + v


def _check_reparam(scenario, x, l, v, image, atol):
    """Ch_l(v) has the given image, and every route of the deformed
    metric gives g_l(Ch_l(v), Ch_l(v)) = |kappa(v)|^2 / l^2 + g_M(v, v),
    the product metric on the horizontal representative."""
    orbit = _at(scenario, x)
    G = scenario.metric(scenario.params, x)
    w = _reparam(orbit, l, v)
    np.testing.assert_allclose(w, image, atol=atol)
    kv = kappa(orbit, v)
    expected = float(kv @ kv) / (l * l) + float(v @ G @ v)
    for route in _routes(scenario, "cheeger", l):
        assert w @ route(x) @ w == pytest.approx(expected, rel=1e-12)


def test_deformation_params_validation(s2_band):
    for tag in ("cheeger", "rescaled", "cheeger_closed_form"):
        MetricVariant(s2_band, tag, 0.5)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deformation parameter l must be positive"):
                MetricVariant(s2_band, tag, bad)


def test_kappa_band_spot(s2_band):
    x = np.array([0.7, np.pi / 4])
    orbit = _at(s2_band, x)
    kv = kappa(orbit, np.array([1.0, 0.0]))
    assert kv.shape == (1,)
    assert kv[0] == pytest.approx(0.5, abs=1e-14)


def test_kappa_hopf_unit_field(s3_hopf):
    x = np.array([0.4, 1.9, 0.8])
    orbit = _at(s3_hopf, x)
    G = s3_hopf.metric(s3_hopf.params, x)
    v = orbit.K[:, 0]
    assert v @ G @ v == pytest.approx(1.0, abs=1e-12)
    kv = kappa(orbit, v)
    assert kv[0] == pytest.approx(1.0, abs=1e-12)


def test_kappa_vanishes_on_horizontal(s2_band):
    # the polar direction is orthogonal to the orbit circles
    x = np.array([1.3, 0.9])
    orbit = _at(s2_band, x)
    kv = kappa(orbit, np.array([0.0, 1.0]))
    np.testing.assert_allclose(kv, 0.0, atol=1e-14)


def test_reparam_band_spot(s2_band):
    # kappa(v) = 1/2 at phi = pi/4, so g_l(Ch(v), Ch(v)) = 1/4 + 1/2
    _check_reparam(s2_band, np.array([0.7, np.pi / 4]), 1.0,
                   np.array([1.0, 0.0]), np.array([1.5, 0.0]), 1e-14)


def test_reparam_hopf_spot(s3_hopf):
    x = np.array([0.4, 1.9, 0.8])
    v = _at(s3_hopf, x).K[:, 0]
    _check_reparam(s3_hopf, x, 0.1, v, 101.0 * v, 1e-9)


def test_reparam_fixes_horizontal(s2_band):
    v = np.array([0.0, 2.0])
    _check_reparam(s2_band, np.array([0.7, 1.1]), 0.3, v, v, 1e-14)


def test_vertical_lift_is_orthogonal_to_vertical_space(su2_s2):
    # the defining property: (l^2 g_bi + g_M)((kappa(v)/l^2, v), (-k, Kk)) = 0
    x = np.array([1.2, 1.4])
    orbit = _at(su2_s2, x)
    G = su2_s2.metric(su2_s2.params, x)
    l = 0.4
    for v in direction_pairs(su2_s2, 5, 1, 31)[:, 0, 0]:
        kv = kappa(orbit, v)
        for a, Ka in zip(orbit.mb.T, orbit.A.T):
            resid = l * l * float((kv / (l * l)) @ (-a)) + float(v @ G @ Ka)
            assert abs(resid) < 1e-12


def test_band_deformed_metric_spot(s2_band):
    x = np.array([0.7, np.pi / 4])
    for route in _routes(s2_band, "cheeger", 1.0):
        np.testing.assert_allclose(route(x), np.diag([1.0 / 3.0, 1.0]), atol=1e-12)


def test_band_rescaled_metric_spot(s2_band):
    x = np.array([0.3, np.pi / 2])
    for route in _routes(s2_band, "rescaled", 0.1):
        assert route(x)[0, 0] == pytest.approx(1.0 / 1.01, abs=1e-12)


def test_band_limit_metric_is_round_at_equator(s2_band):
    x = np.array([0.3, np.pi / 2])
    for route in _routes(s2_band, "limit"):
        np.testing.assert_allclose(route(x), np.eye(2), atol=1e-12)


def test_hopf_rescaled_vertical_eigenvalue(s3_hopf):
    x = np.array([0.5, 1.7, 0.7])
    v = _at(s3_hopf, x).K[:, 0]
    G = s3_hopf.metric(s3_hopf.params, x)
    for l in (0.3, 0.1, 0.05):
        for route in _routes(s3_hopf, "rescaled", l):
            assert v @ route(x) @ v == pytest.approx(1.0 / (1.0 + l * l), abs=1e-12)
    for route in _routes(s3_hopf, "limit"):
        np.testing.assert_allclose(route(x), G, atol=1e-12)


def test_su2_deformation_is_global_rescale(su2_s2):
    # transitive isometric action on the round sphere with P = identity:
    # the whole metric contracts by l^2/(1+l^2)
    x = np.array([0.8, 1.1])
    G = su2_s2.metric(su2_s2.params, x)
    l = 0.7
    for route in _routes(su2_s2, "cheeger", l):
        np.testing.assert_allclose(route(x), (l * l / (1 + l * l)) * G, atol=1e-12)


@pytest.mark.parametrize("sid", list_scenarios())
def test_deformation_routes_agree_four_ways(sid, all_scenarios):
    """The reparametrisation and rank-update kernel routes and the
    definition route, point by point and as one stack with one l per
    point, agree; the kernel routes must stay independent
    implementations."""
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    pts = sample_grid(scenario, 9)
    ls = (0.15, 0.9, 4.0)
    stacked = definition_metric(scenario, "cheeger", np.repeat(ls, len(pts)),
                                np.tile(pts, (len(ls), 1)))
    n = 0
    for l in ls:
        va = variant(scenario, "cheeger", l)
        vb = variant(scenario, "cheeger_closed_form", l)
        for x in pts:
            k_route1 = va.matrix(x)
            np.testing.assert_allclose(vb.matrix(x), k_route1, atol=1e-12)
            np.testing.assert_allclose(va.reference_matrix(x), k_route1, atol=1e-12)
            np.testing.assert_allclose(stacked[n], k_route1, atol=1e-12)
            n += 1


@pytest.mark.parametrize("sid", list_scenarios() + ("t2_turning",))
def test_definition_route_matches_kernels(sid, record):
    """Definition route against the kernel routes: absolute on the
    default oracle samples for the deformed metric, relative to the
    largest component on the default plan at every default l for the
    rescaled and limit metrics.  The turning torus checks the rank
    update where its orbit tensor turns and its eigenvalues cross."""
    scenario = record(sid)
    code, par = scenario.code, scenario.params
    cfg = SweepConfig()
    pts, ls = oracle_samples(scenario, cfg.oracle_count, cfg.seed)
    ref = definition_metric(scenario, "cheeger", ls, pts)
    for tag in (_k.CHEEGER, _k.CHEEGER_CLOSED):
        kern = _k.variant_metric(code, par, tag, ls, pts, SIGMA_TOL)
        assert np.max(np.abs(kern - ref)) <= 1e-13
    plan = build_plan(scenario, cfg).points
    for tag, code_tag in (("rescaled", _k.RESCALED), ("limit", _k.LIMIT)):
        for l in cfg.l_grid:
            kern = _k.variant_metric(code, par, code_tag, l, plan, SIGMA_TOL)
            ref = definition_metric(scenario, tag, l, plan)
            scale = np.abs(kern).max(axis=(-2, -1))
            assert np.max(np.abs(kern - ref).max(axis=(-2, -1)) / scale) <= 1e-13


@pytest.mark.parametrize("tag", VARIANT_TAGS)
def test_kernel_matches_reference(tag, s2_band):
    v = variant(s2_band, tag, 0.25)
    for x in sample_grid(s2_band, 9):
        np.testing.assert_allclose(v.matrix(x), v.reference_matrix(x),
                                   atol=1e-12)


def test_horizontal_block_is_static(warped_s2):
    # deformation changes nothing paired against orbit-orthogonal vectors
    x = np.array([1.0, 1.2])
    orbit = _at(warped_s2, x)
    G = warped_s2.metric(warped_s2.params, x)
    Gv = G @ orbit.A
    h = np.array([0.0, 1.0])  # polar direction, orthogonal to the orbit
    assert abs(float(Gv[:, 0] @ h)) < 1e-15
    for tag in ("cheeger", "rescaled", "limit"):
        for route in _routes(warped_s2, tag, 0.2):
            np.testing.assert_allclose((route(x) - G) @ h, 0.0, atol=1e-12)


def test_pullback_identity_exact_value(s2_band):
    x = np.array([0.4, 0.5])
    A = _at(s2_band, x).A
    l = 0.2
    lam = np.sin(0.5) ** 2
    for route in _routes(s2_band, "rescaled", l):
        val = float(A[:, 0] @ route(x) @ A[:, 0])
        assert val == pytest.approx(lam / (l * l + lam), abs=1e-12)
    # the C^0 gap block measures |val - 1| on the orbit
    gap = _k.gap_block(s2_band.code, s2_band.params, l, x[None], SIGMA_TOL)
    assert gap == pytest.approx(l * l / (l * l + lam), abs=1e-12)


def test_variant_factory_validation(s2_band):
    with pytest.raises(ValueError):
        variant(s2_band, "squashed", 0.1)
    with pytest.raises(ValueError):
        variant(s2_band, "cheeger", -0.5)
    v = variant(s2_band, "original")
    assert isinstance(v, MetricVariant)


def test_variant_raises_at_degenerate_point(s2_band):
    v = variant(s2_band, "rescaled", 0.1)
    with pytest.raises(NumericalFailure):
        v.matrix(np.array([0.3, 0.0]))


def test_large_l_returns_to_base(t2_flat):
    x = np.array([1.0, 2.0])
    G = t2_flat.metric(t2_flat.params, x)
    for route in _routes(t2_flat, "cheeger", 1000.0):
        gl = route(x)
        np.testing.assert_allclose(gl, G, atol=1e-5)
        assert np.max(np.abs(gl - G)) > 1e-8
