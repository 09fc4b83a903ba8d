"""Orbit geometry: Killing operators, isotropy splits, orbit tensors.

The finite-difference action derivatives and the pointwise pullback are
the oracles of tests/oracles.py."""

import numpy as np
import pytest
from oracles import action_pullback_metric, fd_action_jacobian, group_exp, killing_operator

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL, DomainError
from cheegerdef.scenarios import list_scenarios, sample_grid, uniform_draws


def _interior_points(scenario, n=24):
    return sample_grid(scenario, n)


def _at(scenario, x):
    """The orbit data record at x."""
    return _k.orbit_data(scenario, scenario.params, x, SIGMA_TOL)


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
    lo, hi = scenario.region_lo, scenario.region_hi
    pts = lo + (hi - lo) * uniform_draws(123, 9, (100, scenario.dim))
    orbit = _at(scenario, pts)
    assert np.isfinite(orbit.A).all()
    assert orbit.mb.shape[-1] == scenario.rank


@pytest.mark.parametrize("sid", list_scenarios())
def test_isotropy_is_annihilated(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    for x in _interior_points(scenario, 12):
        orbit = _at(scenario, x)
        if orbit.iso.size:
            np.testing.assert_allclose(orbit.K @ orbit.iso, 0.0, atol=1e-12)
        # m-basis and isotropy are mutually orthonormal
        full = np.hstack([orbit.mb, orbit.iso]) \
            if orbit.iso.size else orbit.mb
        np.testing.assert_allclose(full.T @ full, np.eye(full.shape[1]),
                                   atol=1e-12)


@pytest.mark.parametrize("sid", list_scenarios())
def test_orbit_tensor_is_spd(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    for x in _interior_points(scenario, 12):
        orbit = _at(scenario, x)
        P = orbit.P
        np.testing.assert_allclose(P, P.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(P)) > 0.0


def test_s2_band_orbit_tensor_value(s2_band):
    for x in [np.array([1.1, 0.8]), np.array([0.5, 1.0]), *_interior_points(s2_band)]:
        orbit = _at(s2_band, x)
        assert orbit.P[0, 0] == pytest.approx(np.sin(x[1]) ** 2, abs=1e-14)


def test_hopf_field_is_unit(s3_hopf):
    for x in _interior_points(s3_hopf, 8):
        orbit = _at(s3_hopf, x)
        P = orbit.P
        assert P.shape == (1, 1)
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_su2_orbit_tensor_is_identity(su2_s2):
    for x in [np.array([1.2, 1.4]), *_interior_points(su2_s2, 8)]:
        orbit = _at(su2_s2, x)
        assert orbit.P.shape == (2, 2)
        np.testing.assert_allclose(orbit.P, np.eye(2), atol=1e-12)
        assert orbit.mb.shape[-1] == 2
        assert orbit.iso.shape == (3, 1)
        # the isotropy is the rotation about the point's own axis, and the
        # complement its orthogonal plane
        theta, phi = x
        p = np.array([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                      np.cos(phi)])
        np.testing.assert_allclose(orbit.iso @ orbit.iso.T,
                                   np.outer(p, p), atol=1e-12)
        np.testing.assert_allclose(orbit.mb @ orbit.mb.T,
                                   np.eye(3) - np.outer(p, p), atol=1e-12)


def test_t2_orbit_tensor_matches_scale():
    from cheegerdef.scenarios import get_scenario
    scenario = get_scenario("t2_flat", orbit_length=1.7)
    x = np.array([2.0, 4.0])
    orbit = _at(scenario, x)
    assert orbit.P[0, 0] == pytest.approx(1.7 ** 2, abs=1e-12)


def test_chart_rejects_outside_point(s2_band):
    with pytest.raises(DomainError):
        s2_band.chart.require_inside(np.array([0.3, 0.05]))
    with pytest.raises(DomainError):
        s2_band.chart.require_inside(np.array([0.3, np.pi - 0.05]))


@pytest.mark.parametrize("sid", list_scenarios())
def test_fd_jacobian_matches_analytic(sid, all_scenarios):
    scenario = {s.scenario_id: s for s in all_scenarios}[sid]
    group = scenario.group
    points = _interior_points(scenario, 6)
    vecs = group.algebra_vectors(uniform_draws(5, 2, (len(points), group.draws_per_vector)),
                                 scenario.element_scale)
    for x, v in zip(points, vecs):
        g = group_exp(group, v)
        Ja = scenario.action_jacobian(g, x)
        Jf = fd_action_jacobian(scenario, g, x)
        np.testing.assert_allclose(Jf, Ja, atol=5e-6)


def test_pullback_invariance_of_base_metric(su2_s2):
    group = su2_s2.group
    x = np.array([1.0, 1.3])
    metric = lambda y: su2_s2.metric(su2_s2.params, y)
    for v in group.algebra_vectors(uniform_draws(17, 2, (10, group.draws_per_vector)), 0.5):
        g = group_exp(group, v)
        pulled = action_pullback_metric(su2_s2, g, metric, x)
        np.testing.assert_allclose(pulled, metric(x), atol=1e-10)
