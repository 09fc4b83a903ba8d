"""Point-stack kernels: a stacked call equals the same points evaluated
one at a time, failures stay in their own row, and the plan blocks
agree with pointwise loops written here."""

from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import group_exp, spectral_sup

from cheegerdef import _kernels as _k
from cheegerdef.cheeger import variant
from cheegerdef.gmanifold import NumericalFailure
from cheegerdef.lie_core import GroupElement
from cheegerdef.scenarios import (get_scenario, invariance_elements, list_scenarios,
                                  oracle_samples, sample_grid)
from cheegerdef.tensor_calc import SamplePlan
from cheegerdef.verify import (SweepConfig, build_plan, convergence_series, large_l_series,
                               t_scaling_series)

TAGS = (_k.ORIGINAL, _k.CHEEGER, _k.RESCALED, _k.LIMIT, _k.CHEEGER_CLOSED)
RANK_UPDATE_TAGS = (_k.RESCALED, _k.LIMIT, _k.CHEEGER_CLOSED)
TOL = 1e-8


def _same(stacked, rows, atol=1e-15):
    np.testing.assert_allclose(stacked, rows, rtol=0.0, atol=atol, equal_nan=True)


@pytest.fixture(params=list_scenarios())
def scenario(request):
    return get_scenario(request.param)


@pytest.fixture
def plan(scenario):
    return build_plan(scenario, SweepConfig())


@pytest.mark.parametrize("tag", TAGS)
def test_variant_metric_stack_matches_single_points(scenario, plan, tag):
    code, par = scenario.code, scenario.params
    for l in (0.2, 0.025, 10.0):
        stacked = _k.variant_metric(code, par, tag, l, plan.points, TOL)
        rows = np.array([_k.variant_metric(code, par, tag, l, x, TOL)
                         for x in plan.points])
        assert stacked.shape == rows.shape
        _same(stacked, rows)


@pytest.mark.parametrize("tag", RANK_UPDATE_TAGS + (_k.ORIGINAL,))
def test_metric_derivatives_stack_matches_single_points(scenario, plan, tag):
    code, par = scenario.code, scenario.params
    stacked = _k.variant_metric_dx(code, par, tag, 0.1, plan.points, 1e-4, True, TOL)
    rows = np.array([_k.variant_metric_dx(code, par, tag, 0.1, x, 1e-4, True, TOL)
                     for x in plan.points])
    _same(stacked, rows)


def test_per_point_l_matches_single_calls(scenario, plan):
    # oracle samples carry one l each; on the circle actions l = 1e-7
    # trips the conditioning cap of the reparametrisation route, on those
    # rows only (on su2_s2 the orbit fills the manifold and C stays
    # well conditioned)
    code, par = scenario.code, scenario.params
    pts = plan.points[:40]
    ls = np.where(np.arange(len(pts)) % 3 == 0, 1e-7, 0.3)
    for tag in (_k.CHEEGER, _k.CHEEGER_CLOSED, _k.RESCALED):
        stacked = _k.variant_metric(code, par, tag, ls, pts, TOL)
        rows = np.array([_k.variant_metric(code, par, tag, float(l), x, TOL)
                         for x, l in zip(pts, ls)])
        _same(stacked, rows)
    capped = np.isnan(_k.variant_metric(code, par, _k.CHEEGER, ls, pts, TOL)).any(axis=(1, 2))
    if not scenario.transitive:
        assert capped[ls == 1e-7].all()
        assert not capped[ls == 0.3].any()


def test_orbit_data_stack_matches_single_points(scenario, plan):
    code, par = scenario.code, scenario.params
    stacked = _k.orbit_data(code, par, plan.points, TOL)
    for n in (0, len(plan.points) // 2, len(plan.points) - 1):
        single = _k.orbit_data(code, par, plan.points[n], TOL)
        for f in fields(stacked):
            _same(np.asarray(getattr(stacked, f.name))[n], getattr(single, f.name))
    F = _k.adapted_frame(stacked)
    assert not np.isnan(F).any()
    for n in (0, len(plan.points) - 1):
        _same(F[n], _k.adapted_frame(stacked.rows(n)))


def _degenerate_rows(K):
    """K with rows 1-4 made degenerate: vanishing, non-finite, rank-one
    and rank-ambiguous Killing operators; rows 0, 5 and 6 stay regular."""
    bad = K.copy()
    bad[1] = 0.0
    bad[2, 0, 0] = np.inf
    bad[3, 1] = 0.0
    bad[4, 1] *= 5e-8
    bad[5, 1] *= 1e-6
    return bad


def test_su2_split_has_fixed_rank(su2_s2):
    pts = build_plan(su2_s2, SweepConfig()).points
    K = su2_s2.killing(su2_s2.params, pts)
    mb, iso = _k.m_basis(su2_s2.code, K, TOL)
    assert mb.shape == (len(pts), 3, 2) and iso.shape == (len(pts), 3, 1)
    assert not np.isnan(mb).any() and not np.isnan(iso).any()
    np.testing.assert_allclose(K @ iso, 0.0, atol=1e-14)
    # a degenerate Killing operator is NaN in its own row only
    mb, iso = _k.m_basis(su2_s2.code, _degenerate_rows(K), TOL)
    assert np.isnan(mb[1:5]).all()
    assert not np.isnan(mb[[0, 5, 6]]).any()


def test_degenerate_split_reads_nan_in_the_gap_block(su2_s2):
    # the NaN rows of the split are the gap block's only failure signal
    pts = build_plan(su2_s2, SweepConfig()).points[:7]
    bad = _degenerate_rows(su2_s2.killing(su2_s2.params, pts))
    scenario = replace(su2_s2, killing=lambda par, x: bad)
    gap = _k.gap_block(scenario, scenario.params, np.array([0.2, 0.1]), pts, TOL)
    assert gap.shape == (2, 7)
    np.testing.assert_array_equal(np.isnan(gap).any(axis=0),
                                  [False, True, True, True, True, False, False])
    assert np.isnan(gap[:, 1:5]).all()


@pytest.mark.parametrize("n", (1, 2, 3))
def test_small_inverse_and_cholesky_closed_forms(n):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((200, n, n))
    A = B + 3.0 * np.eye(n)
    np.testing.assert_allclose(_k.inv_mat(A), np.linalg.inv(A), rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(_k.solve_lin(A, B), np.linalg.solve(A, B),
                               rtol=1e-11, atol=1e-12)
    singular = np.zeros((2, n, n))
    singular[1] = np.eye(n)
    inv = _k.inv_mat(singular)
    assert np.isnan(inv[0]).all() and not np.isnan(inv[1]).any()
    # symmetric matrices of mixed definiteness: the Cholesky factor
    # reproduces every matrix it accepts, and at orbit ranks 1 and 2 the
    # rank update's gate on the smallest eigenvalue of P rejects the others
    P = B + B.swapaxes(-1, -2)
    L = _k.chol_lower(P)
    accepted = ~np.isnan(L[:, -1, -1])
    assert 0 < accepted.sum() < len(P)
    if n <= 2:
        W = rng.standard_normal((len(P), 3, n))
        G = np.broadcast_to(np.eye(3), (len(P), 3, 3))
        orbit = _k.OrbitData(x=None, G=G, K=None, mb=None, iso=None, A=None, W=W, P=P)
        for tag in (_k.LIMIT, _k.RESCALED, _k.CHEEGER_CLOSED):
            Gv = _k._rank_update(tag, 0.1, orbit)[0]
            np.testing.assert_array_equal(np.isnan(Gv).any(axis=(-2, -1)), ~accepted)
            assert np.isnan(Gv[~accepted]).all()
    assert np.isnan(L[~accepted]).all()
    np.testing.assert_allclose(L[accepted] @ L[accepted].swapaxes(-1, -2), P[accepted],
                               rtol=1e-12, atol=1e-12)


def test_action_stack_matches_single_points(scenario, plan):
    pts = plan.points[::7]
    for g in invariance_elements(scenario, 4, 11):
        moved = scenario.act(g, pts)
        jac = scenario.action_jacobian(g, pts)
        assert moved.shape == pts.shape
        assert jac.shape == pts.shape + (scenario.dim,)
        for n, x in enumerate(pts):
            _same(moved[n], scenario.act(g, x), atol=1e-14)
            _same(jac[n], scenario.action_jacobian(g, x), atol=1e-14)


def test_stacked_elements_act_as_each_element(scenario, plan):
    """One element whose matrix stacks E elements gives (E, N, d) images
    and (E, N, d, d) Jacobians, equal to the calls element by element:
    exactly for the circle shifts, to roundoff for the rotations."""
    pts = plan.points[::7]
    elements = invariance_elements(scenario, 6, 11)
    stack = GroupElement(scenario.group.group_id, np.stack([g.matrix for g in elements]))
    moved = scenario.act(stack, pts)
    jac = scenario.action_jacobian(stack, pts)
    E, N, d = len(elements), len(pts), scenario.dim
    assert moved.shape == (E, N, d) and jac.shape == (E, N, d, d)
    atol = 0.0 if scenario.group.algebra.dim == 1 else 1e-15
    for e, g in enumerate(elements):
        _same(moved[e], scenario.act(g, pts), atol=atol)
        _same(jac[e], scenario.action_jacobian(g, pts), atol=atol)
    # one point: the element axis alone
    assert scenario.act(stack, pts[0]).shape == (E, d)
    _same(scenario.action_jacobian(stack, pts[0]), jac[:, 0], atol=atol)


# pointwise loops for the blocks, independent of the stacked evaluation:
# one value per plan point

def _c0_loop(scenario, tag_a, l_a, tag_b, l_b, plan):
    code, par = scenario.code, scenario.params

    def delta(x):
        return (_k.variant_metric(code, par, tag_a, l_a, x, TOL)
                - _k.variant_metric(code, par, tag_b, l_b, x, TOL))

    return np.array([spectral_sup(scenario, delta(x), x) for x in plan.points])


def _gap_loop(scenario, l, pts):
    code, par = scenario.code, scenario.params
    vals = []
    for x in pts:
        A = _k.orbit_data(code, par, x, TOL).A
        M = A.T @ _k.variant_metric(code, par, _k.RESCALED, l, x, TOL) @ A
        vals.append(float(np.max(np.abs(M - np.eye(A.shape[1])))))
    return np.array(vals)


def _c1_loop(scenario, tag_a, l_a, tag_b, l_b, pts):
    code, par = scenario.code, scenario.params
    return np.array([float(np.max(np.abs(
        _k.variant_metric_dx(code, par, tag_a, l_a, x, 1e-4, True, TOL)
        - _k.variant_metric_dx(code, par, tag_b, l_b, x, 1e-4, True, TOL))))
        for x in pts])


def _oracle_loop(scenario, pts, ls):
    code, par = scenario.code, scenario.params
    return np.array([float(np.max(np.abs(
        _k.variant_metric(code, par, _k.CHEEGER, float(l), x, TOL)
        - _k.variant_metric(code, par, _k.CHEEGER_CLOSED, float(l), x, TOL))))
        for x, l in zip(pts, ls)])


def test_blocks_match_pointwise_loops(scenario):
    code, par = scenario.code, scenario.params
    plan = SamplePlan(scenario, sample_grid(scenario, 36))
    pts = plan.points
    for l in (0.2, 0.025):
        c0 = _k.c0_block(code, par, _k.RESCALED, l, _k.LIMIT, 0.0, pts, None, TOL)
        assert c0 == pytest.approx(_c0_loop(scenario, _k.RESCALED, l, _k.LIMIT, 0.0, plan),
                                   rel=1e-14)
        gap = _k.gap_block(code, par, l, pts, TOL)
        assert gap == pytest.approx(_gap_loop(scenario, l, pts), rel=1e-14)
        c1 = _k.c1_block(code, par, _k.RESCALED, l, _k.LIMIT, 0.0, pts, 1e-4, TOL)
        assert c1 == pytest.approx(_c1_loop(scenario, _k.RESCALED, l, _k.LIMIT, 0.0, pts),
                                   rel=1e-14, abs=1e-15)
    c0 = _k.c0_block(code, par, _k.CHEEGER, 30.0, _k.ORIGINAL, 0.0, pts, None, TOL)
    assert c0 == pytest.approx(_c0_loop(scenario, _k.CHEEGER, 30.0, _k.ORIGINAL, 0.0, plan),
                               rel=1e-14)
    opts, ols = oracle_samples(scenario, 60, 5)
    assert _k.oracle_block(code, par, opts, ols, TOL) == pytest.approx(
        _oracle_loop(scenario, opts, ols), rel=0.0, abs=1e-15)


# negative controls: the s2_band pole (phi = 0) collapses the orbit

POLE = 3


def _with_pole(plan):
    pts = plan.points.copy()
    pts[POLE] = [0.5, 0.0]
    return SamplePlan(plan.scenario, pts)


def test_pole_row_is_nan_and_other_rows_unchanged(s2_band):
    code, par = s2_band.code, s2_band.params
    plan = SamplePlan(s2_band, sample_grid(s2_band, 16))
    bad = _with_pole(plan)
    others = np.arange(len(plan.points)) != POLE
    for tag in RANK_UPDATE_TAGS:
        clean = _k.variant_metric(code, par, tag, 0.1, plan.points, TOL)
        poisoned = _k.variant_metric(code, par, tag, 0.1, bad.points, TOL)
        assert np.isnan(poisoned[POLE]).all()
        np.testing.assert_array_equal(poisoned[others], clean[others])
        dG = _k.variant_metric_dx(code, par, tag, 0.1, bad.points, 1e-4, True, TOL)
        assert np.isnan(dG[POLE]).all() and not np.isnan(dG[others]).any()
    F = _k.adapted_frame(_k.orbit_data(code, par, bad.points, TOL))
    assert np.isnan(F[POLE]).all() and not np.isnan(F[others]).any()
    ls = np.full(len(bad.points), 0.5)
    for block in (
            lambda p: _k.c0_block(code, par, _k.RESCALED, 0.1, _k.LIMIT, 0.0,
                                  p.points, None, TOL),
            lambda p: _k.c0_block(code, par, _k.CHEEGER, 10.0, _k.ORIGINAL, 0.0,
                                  p.points, None, TOL),
            lambda p: _k.gap_block(code, par, 0.1, p.points, TOL),
            lambda p: _k.c1_block(code, par, _k.RESCALED, 0.1, _k.LIMIT, 0.0,
                                  p.points, 1e-4, TOL),
            lambda p: _k.oracle_block(code, par, p.points, ls, TOL)):
        clean, poisoned = block(plan), block(bad)
        assert poisoned.shape == (len(bad.points),)
        assert np.isnan(poisoned[POLE]) and not np.isnan(poisoned[others]).any()
        np.testing.assert_array_equal(poisoned[others], clean[others])


def test_failures_name_l_and_first_failing_point(s2_band):
    cfg = SweepConfig(n_points=16, cp_order=0)
    bad = _with_pole(build_plan(s2_band, cfg))
    with pytest.raises(NumericalFailure,
                       match=rf"l=0.2 at plan point {POLE} \[0.5, 0.0\] on s2_band"):
        convergence_series(s2_band, cfg, bad)
    with pytest.raises(NumericalFailure,
                       match=rf"l=10.0 at plan point {POLE} \[0.5, 0.0\] on s2_band"):
        large_l_series(s2_band, cfg, bad)
    with pytest.raises(NumericalFailure,
                       match=rf"T-tensor series \(rescaled\) failed at "
                             rf"l=0.2 at plan point {POLE} \[0.5, 0.0\] on s2_band"):
        t_scaling_series(s2_band, cfg, bad)


def test_cp_norm_failure_names_the_first_failing_point(s2_band):
    bad = _with_pole(SamplePlan(s2_band, sample_grid(s2_band, 16)))
    for p in (0, 1):
        cfg = SweepConfig(n_points=16, seed=1, cp_order=p, l_grid=(0.1, 0.05))
        with pytest.raises(NumericalFailure,
                           match=rf"convergence series \(C\^0\) failed at l=0.1 at "
                                 rf"plan point {POLE} \[0.5, 0.0\] on s2_band$"):
            convergence_series(s2_band, cfg, bad)


def test_metric_variant_failure_names_the_failing_point(s2_band):
    v = variant(s2_band, "limit")
    with pytest.raises(NumericalFailure, match=r"limit failed at \[0\.3, 0\.0\]$"):
        v.matrix(np.array([0.3, 0.0]))
    stack = np.array([[0.3, 0.9], [0.3, 1.0], [0.5, 0.0], [0.3, 0.0]])
    with pytest.raises(NumericalFailure, match=r"limit failed at \[0\.5, 0\.0\]$"):
        v.matrix(stack)


@pytest.mark.parametrize("seed", (42, 7, 2**64 - 1))
def test_invariance_elements_equal_per_element_exp(scenario, seed):
    # the same uniform rows, mapped to algebra vectors and exponentiated
    # one at a time
    from cheegerdef.scenarios import _STREAM_ELEMENTS, uniform_draws
    group = scenario.group
    rows = uniform_draws(seed, _STREAM_ELEMENTS, (12, group.draws_per_vector))
    expected = [group_exp(group, group.algebra_vectors(row, scenario.element_scale))
                for row in rows]
    elements = invariance_elements(scenario, 12, seed)
    assert len(elements) == 12
    for g, e in zip(elements, expected):
        assert g.group_id == e.group_id
        np.testing.assert_array_equal(g.matrix, e.matrix)
