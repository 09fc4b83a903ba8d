"""Deformation layer: kappa, reparametrisation, the metric family."""

import numpy as np
import pytest

from cheegerdef.cheeger import (
    DeformationParams,
    MetricVariant,
    VARIANT_TAGS,
    cheeger_metric,
    cheeger_metric_closed_form,
    cheeger_reparam,
    kappa,
    limit_metric,
    normal_homogeneous_pullback,
    rescaled_metric,
    variant,
    vertical_space_basis,
)
from cheegerdef.gmanifold import NumericalFailure, killing_data
from cheegerdef.scenarios import rng_for, sample_grid


def test_deformation_params_validation():
    DeformationParams(0.5)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DeformationParams(bad)


def test_kappa_band_spot(s2_band):
    x = np.array([0.7, np.pi / 4])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    kv = kappa(kd, G, np.array([1.0, 0.0]))
    assert kv.shape == (1,)
    assert kv[0] == pytest.approx(0.5, abs=1e-14)


def test_kappa_hopf_unit_field(s3_hopf):
    x = np.array([0.4, 1.9, 0.8])
    kd = killing_data(s3_hopf, x)
    G = s3_hopf.metric_matrix(x)
    v = kd.K[:, 0]
    assert v @ G @ v == pytest.approx(1.0, abs=1e-12)
    kv = kappa(kd, G, v)
    assert kv[0] == pytest.approx(1.0, abs=1e-12)


def test_kappa_vanishes_on_horizontal(s2_band):
    # the polar direction is orthogonal to the orbit circles
    x = np.array([1.3, 0.9])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    kv = kappa(kd, G, np.array([0.0, 1.0]))
    np.testing.assert_allclose(kv, 0.0, atol=1e-14)


def test_reparam_band_spot(s2_band):
    x = np.array([0.7, np.pi / 4])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    out = cheeger_reparam(kd, G, 1.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, np.array([1.5, 0.0]), atol=1e-14)


def test_reparam_hopf_spot(s3_hopf):
    x = np.array([0.4, 1.9, 0.8])
    kd = killing_data(s3_hopf, x)
    G = s3_hopf.metric_matrix(x)
    v = kd.K[:, 0]
    out = cheeger_reparam(kd, G, 0.1, v)
    np.testing.assert_allclose(out, 101.0 * v, atol=1e-9)


def test_reparam_fixes_horizontal(s2_band):
    x = np.array([0.7, 1.1])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    v = np.array([0.0, 2.0])
    np.testing.assert_allclose(cheeger_reparam(kd, G, 0.3, v), v, atol=1e-14)


def test_vertical_lift_is_orthogonal_to_vertical_space(su2_s2):
    # the defining property: (l^2 g_bi + g_M)((kappa(v)/l^2, v), (-k, Kk)) = 0
    x = np.array([1.2, 1.4])
    kd = killing_data(su2_s2, x)
    G = su2_s2.metric_matrix(x)
    rng = rng_for(31, 1)
    l = 0.4
    for _ in range(5):
        v = rng.normal(size=2)
        kv = kappa(kd, G, v)
        for a, Ka in vertical_space_basis(kd):
            resid = l * l * float((kv / (l * l)) @ (-a)) + float(v @ G @ Ka)
            assert abs(resid) < 1e-12


def test_band_deformed_metric_spot(s2_band):
    x = np.array([0.7, np.pi / 4])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    gl = cheeger_metric(kd, G, 1.0)
    assert gl[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert gl[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert gl[0, 1] == pytest.approx(0.0, abs=1e-13)


def test_band_rescaled_metric_spot(s2_band):
    x = np.array([0.3, np.pi / 2])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    gr = rescaled_metric(kd, G, 0.1)
    assert gr[0, 0] == pytest.approx(1.0 / 1.01, abs=1e-12)


def test_band_limit_metric_is_round_at_equator(s2_band):
    x = np.array([0.3, np.pi / 2])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    np.testing.assert_allclose(limit_metric(kd, G), np.eye(2), atol=1e-12)


def test_hopf_rescaled_vertical_eigenvalue(s3_hopf):
    x = np.array([0.5, 1.7, 0.7])
    kd = killing_data(s3_hopf, x)
    G = s3_hopf.metric_matrix(x)
    for l in (0.3, 0.1, 0.05):
        gr = rescaled_metric(kd, G, l)
        v = kd.K[:, 0]
        assert v @ gr @ v == pytest.approx(1.0 / (1.0 + l * l), abs=1e-12)
    np.testing.assert_allclose(limit_metric(kd, G), G, atol=1e-12)


def test_su2_deformation_is_global_rescale(su2_s2):
    # transitive isometric action on the round sphere with P = identity:
    # the whole metric contracts by l^2/(1+l^2)
    x = np.array([0.8, 1.1])
    kd = killing_data(su2_s2, x)
    G = su2_s2.metric_matrix(x)
    l = 0.7
    gl = cheeger_metric(kd, G, l)
    np.testing.assert_allclose(gl, (l * l / (1 + l * l)) * G, atol=1e-12)


@pytest.mark.parametrize("sid", ["s2_band", "warped_s2", "s3_hopf", "su2_s2", "t2_flat"])
def test_deformation_routes_agree_four_ways(sid, all_scenarios):
    """The reparametrisation route and the rank-update route must stay
    independent implementations; this checks they agree, in both the
    reference and the kernel evaluation paths."""
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    pts = sample_grid(scenario, 9)
    for l in (0.15, 0.9, 4.0):
        va = variant(scenario, "cheeger", l)
        vb = variant(scenario, "cheeger_closed_form", l)
        for x in pts:
            kd = killing_data(scenario, x)
            G = scenario.metric_matrix(x)
            m_route1 = cheeger_metric(kd, G, l)
            m_route2 = cheeger_metric_closed_form(kd, G, l)
            k_route1 = va.matrix(x)
            k_route2 = vb.matrix(x)
            np.testing.assert_allclose(m_route1, m_route2, atol=1e-12)
            np.testing.assert_allclose(k_route1, k_route2, atol=1e-12)
            np.testing.assert_allclose(k_route1, m_route1, atol=1e-12)


@pytest.mark.parametrize("tag", VARIANT_TAGS)
def test_kernel_matches_reference(tag, s2_band):
    v = variant(s2_band, tag, 0.25)
    for x in sample_grid(s2_band, 9):
        np.testing.assert_allclose(v.matrix(x), v.reference_matrix(x),
                                   atol=1e-12)


def test_horizontal_block_is_static(warped_s2):
    # deformation changes nothing paired against orbit-orthogonal vectors
    x = np.array([1.0, 1.2])
    kd = killing_data(warped_s2, x)
    G = warped_s2.metric_matrix(x)
    Gv = G @ kd.A
    h = np.array([0.0, 1.0])  # polar direction, orthogonal to the orbit
    assert abs(float(Gv[:, 0] @ h)) < 1e-15
    for M in (cheeger_metric(kd, G, 0.2), rescaled_metric(kd, G, 0.2),
              limit_metric(kd, G)):
        np.testing.assert_allclose((M - G) @ h, 0.0, atol=1e-12)


def test_pullback_identity_exact_value(s2_band):
    x = np.array([0.4, 0.5])
    kd = killing_data(s2_band, x)
    G = s2_band.metric_matrix(x)
    l = 0.2
    gr = rescaled_metric(kd, G, l)
    val = normal_homogeneous_pullback(kd, gr, np.array([1.0]), np.array([1.0]))
    lam = np.sin(0.5) ** 2
    assert val == pytest.approx(lam / (l * l + lam), abs=1e-12)
    gap = abs(val - 1.0)
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
    kd = killing_data(t2_flat, x)
    G = t2_flat.metric_matrix(x)
    gl = cheeger_metric(kd, G, 1000.0)
    np.testing.assert_allclose(gl, G, atol=1e-5)
    assert np.max(np.abs(gl - G)) > 1e-8
