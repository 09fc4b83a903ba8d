"""Orbit geometry: Killing operators, isotropy splits, orbit tensors.

The finite-difference action derivatives and the pointwise pullback are
the oracles of tests/oracles.py."""

import numpy as np
import pytest
from oracles import action_pullback_metric, fd_action_jacobian, group_exp, killing_operator

from cheegerdef.gmanifold import DomainError, killing_data
from cheegerdef.scenarios import list_scenarios, rng_for, sample_grid


def _interior_points(scenario, n=24):
    return sample_grid(scenario, n)


@pytest.mark.parametrize("sid", list_scenarios())
def test_killing_fd_matches_analytic(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    for x in _interior_points(scenario, 12):
        Ka = scenario.killing(scenario.params, x)
        Kf = killing_operator(scenario, x)
        np.testing.assert_allclose(Kf, Ka, atol=1e-6)


@pytest.mark.parametrize("sid", list_scenarios())
def test_orbit_rank_constant_on_chart(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    rng = rng_for(123, 9)
    lo, hi = scenario.region_lo, scenario.region_hi
    pts = lo + (hi - lo) * rng.random((100, scenario.dim))
    ranks = {killing_data(scenario, x).m_basis.shape[-1] for x in pts}
    assert len(ranks) == 1


@pytest.mark.parametrize("sid", list_scenarios())
def test_isotropy_is_annihilated(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    for x in _interior_points(scenario, 12):
        kd = killing_data(scenario, x)
        if kd.isotropy_basis.size:
            np.testing.assert_allclose(kd.K @ kd.isotropy_basis, 0.0, atol=1e-12)
        # m-basis and isotropy are mutually orthonormal
        full = np.hstack([kd.m_basis, kd.isotropy_basis]) \
            if kd.isotropy_basis.size else kd.m_basis
        np.testing.assert_allclose(full.T @ full, np.eye(full.shape[1]),
                                   atol=1e-12)


@pytest.mark.parametrize("sid", list_scenarios())
def test_orbit_tensor_is_spd(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    for x in _interior_points(scenario, 12):
        kd = killing_data(scenario, x)
        P = kd.orbit_tensor
        np.testing.assert_allclose(P, P.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(P)) > 0.0


def test_s2_band_orbit_tensor_value(s2_band):
    for x in [np.array([1.1, 0.8]), np.array([0.5, 1.0]), *_interior_points(s2_band)]:
        kd = killing_data(s2_band, x)
        assert kd.orbit_tensor[0, 0] == pytest.approx(np.sin(x[1]) ** 2, abs=1e-14)


def test_hopf_field_is_unit(s3_hopf):
    for x in _interior_points(s3_hopf, 8):
        kd = killing_data(s3_hopf, x)
        P = kd.orbit_tensor
        assert P.shape == (1, 1)
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_su2_orbit_tensor_is_identity(su2_s2):
    for x in [np.array([1.2, 1.4]), *_interior_points(su2_s2, 8)]:
        kd = killing_data(su2_s2, x)
        assert kd.orbit_tensor.shape == (2, 2)
        np.testing.assert_allclose(kd.orbit_tensor, np.eye(2), atol=1e-12)
        assert kd.m_basis.shape[-1] == 2
        assert kd.isotropy_basis.shape == (3, 1)
        # the isotropy is the rotation about the point's own axis, and the
        # complement its orthogonal plane
        theta, phi = x
        p = np.array([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                      np.cos(phi)])
        np.testing.assert_allclose(kd.isotropy_basis @ kd.isotropy_basis.T,
                                   np.outer(p, p), atol=1e-12)
        np.testing.assert_allclose(kd.m_basis @ kd.m_basis.T,
                                   np.eye(3) - np.outer(p, p), atol=1e-12)


def test_t2_orbit_tensor_matches_scale():
    from cheegerdef.scenarios import get_scenario
    scenario = get_scenario("t2_flat", orbit_length=1.7)
    x = np.array([2.0, 4.0])
    kd = killing_data(scenario, x)
    assert kd.orbit_tensor[0, 0] == pytest.approx(1.7 ** 2, abs=1e-12)


def test_chart_rejects_outside_point(s2_band):
    with pytest.raises(DomainError):
        killing_data(s2_band, np.array([0.3, 0.05]))
    with pytest.raises(DomainError):
        killing_data(s2_band, np.array([0.3, np.pi - 0.05]))


@pytest.mark.parametrize("sid", list_scenarios())
def test_fd_jacobian_matches_analytic(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    rng = rng_for(5, 2)
    for x in _interior_points(scenario, 6):
        g = group_exp(
            scenario.group, scenario.group.random_algebra_vector(rng, scenario.element_scale))
        Ja = scenario.action_jacobian(g, x)
        Jf = fd_action_jacobian(scenario, g, x)
        np.testing.assert_allclose(Jf, Ja, atol=5e-6)


def test_pullback_invariance_of_base_metric(su2_s2):
    rng = rng_for(17, 2)
    x = np.array([1.0, 1.3])
    metric = lambda y: su2_s2.metric(su2_s2.params, y)
    for _ in range(10):
        g = group_exp(su2_s2.group, su2_s2.group.random_algebra_vector(rng, 0.5))
        pulled = action_pullback_metric(su2_s2, g, metric, x)
        np.testing.assert_allclose(pulled, metric(x), atol=1e-10)
