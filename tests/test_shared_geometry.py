"""Each point set's orbit geometry is computed once per run, and what the
blocks compute from it is exact.

Every C^0, gap and large-l value is a closed-form function of the orbit
tensor P at the plan point: P^{-1} and (l^2 + P)^{-1} commute, so the
rescaled family differs from its limit by -l^2 W (l^2 + P)^{-1} P^{-2} W^T
(W = G A) and the deformed metric from the base metric by
-W (l^2 + P)^{-1} W^T.  The blocks, fed the plan's shared geometry, must
reproduce these forms with P taken from a fresh orbit_data call, and the
l-for-l^2 slip must break all three.  At orbit rank 1 the T-tensor series
has closed forms too: the ratio of the rescaled norm to the base norm is
l^2 / (l^2 + p), and the base norm is 1/2 |grad^h log p|.  The evaluation
counts of a sample-stage run pin the sharing itself.
"""

import dataclasses
import os
import sys
from collections import Counter

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef import cli, verify
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import Scenario, get_scenario, list_scenarios
from cheegerdef.tensor_calc import H_FD
from cheegerdef.verify import SweepConfig, build_plan

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

CFG = SweepConfig()
REL = 1e-11


@pytest.fixture(scope="module", params=list_scenarios())
def planned(request):
    scenario = get_scenario(request.param)
    plan = build_plan(scenario, CFG)
    P = _k.orbit_data(scenario, scenario.params, plan.points, SIGMA_TOL).P
    return scenario, plan, P


def _rel_error(values, exact):
    assert values.shape == exact.shape
    return float(np.max(np.abs(values - exact) / np.abs(exact)))


def _c0_error(scenario, plan, P):
    """C^0 (rescaled - limit) against l^2 / (p_min (l^2 + p_min))."""
    ls = np.asarray(CFG.l_grid)
    c0 = _k.c0_block(scenario, scenario.params, _k.RESCALED, ls, _k.LIMIT, 0.0,
                     plan.points, None, SIGMA_TOL, plan.geometry)
    p_min = np.linalg.eigvalsh(P)[:, 0]
    l2 = ls[:, None] ** 2
    return _rel_error(c0, l2 / (p_min * (l2 + p_min)))


def _gap_error(scenario, plan, P):
    """Gap against the max-abs entry of l^2 (l^2 + P)^{-1}."""
    ls = np.asarray(CFG.l_grid)
    gap = _k.gap_block(scenario, scenario.params, ls, plan.points, SIGMA_TOL,
                       plan.geometry)
    l2 = ls[:, None, None, None] ** 2
    exact = np.abs(l2 * np.linalg.inv(l2 * np.eye(P.shape[-1]) + P)).max(axis=(-2, -1))
    return _rel_error(gap, exact)


def _large_l_error(scenario, plan, P):
    """C^0 (cheeger - original) on the large-l grid against
    p_max / (l^2 + p_max)."""
    ls = np.asarray(CFG.large_l_grid)
    c0 = _k.c0_block(scenario, scenario.params, _k.CHEEGER, ls, _k.ORIGINAL, 0.0,
                     plan.points, None, SIGMA_TOL, plan.geometry)
    p_max = np.linalg.eigvalsh(P)[:, -1]
    l2 = ls[:, None] ** 2
    return _rel_error(c0, p_max / (l2 + p_max))


CLOSED_FORMS = (_c0_error, _gap_error, _large_l_error)


@pytest.mark.parametrize("error", CLOSED_FORMS)
def test_blocks_equal_their_closed_forms(planned, error):
    assert error(*planned) <= REL


@pytest.mark.parametrize("error", CLOSED_FORMS)
def test_l_for_l_squared_breaks_every_closed_form(planned, error, monkeypatch):
    """Negative control: l in place of l^2 in the kernels."""
    monkeypatch.setattr(_k, "_sq",
                        lambda l: l[..., None, None] if isinstance(l, np.ndarray) else l)
    assert error(*planned) > 1e-2


# the surfaces of revolution: p = g_theta,theta depends on phi alone and
# g_phi,phi = 1, so grad^h log p = (d_phi log p) e_phi
T_SCENARIOS = ("s2_band", "warped_s2")


def _t_errors(scenario, plan):
    """Relative errors of the FD T-tensor block on the plan at the
    default l grid: (ratio against l^2 / (l^2 + p), base norm against
    1/2 |d_phi log p| with d_phi p from the catalogued derivative)."""
    ls = np.asarray(CFG.l_grid)
    rescaled, base = _k.t_pair_block(scenario, scenario.params, _k.RESCALED, ls,
                                     plan.points, H_FD, SIGMA_TOL)
    p = _k.orbit_data(scenario, scenario.params, plan.points, SIGMA_TOL).P[:, 0, 0]
    dp = scenario.metric_dx(scenario.params, plan.points)[:, 1, 0, 0]
    l2 = ls[:, None] ** 2
    return (_rel_error(rescaled / base, l2 / (l2 + p)),
            _rel_error(base, 0.5 * np.abs(dp / p)))


@pytest.mark.parametrize("sid", T_SCENARIOS)
def test_t_block_equals_its_closed_forms(sid):
    scenario = get_scenario(sid)
    ratio_error, base_error = _t_errors(scenario, build_plan(scenario, CFG))
    # the ratio carries the error of the finite-difference T-tensor
    assert ratio_error <= 1e-7
    assert base_error <= 1e-10


@pytest.mark.parametrize("sid", T_SCENARIOS)
def test_l_for_l_squared_breaks_the_t_ratio(sid, monkeypatch):
    """Negative control: l in place of l^2 in the kernels."""
    scenario = get_scenario(sid)
    plan = build_plan(scenario, CFG)
    monkeypatch.setattr(_k, "_sq",
                        lambda l: l[..., None, None] if isinstance(l, np.ndarray) else l)
    assert _t_errors(scenario, plan)[0] > 1e-2


def test_blocks_compute_the_geometry_they_are_not_given(planned):
    scenario, plan, P = planned
    par, pts = scenario.params, plan.points
    ls = np.asarray(CFG.l_grid)
    for tag_a, grid, tag_b in ((_k.RESCALED, ls, _k.LIMIT),
                               (_k.CHEEGER, np.asarray(CFG.large_l_grid), _k.ORIGINAL)):
        np.testing.assert_array_equal(
            _k.c0_block(scenario, par, tag_a, grid, tag_b, 0.0, pts, None, SIGMA_TOL,
                        plan.geometry),
            _k.c0_block(scenario, par, tag_a, grid, tag_b, 0.0, pts, None, SIGMA_TOL))
    np.testing.assert_array_equal(
        _k.gap_block(scenario, par, ls, pts, SIGMA_TOL, plan.geometry),
        _k.gap_block(scenario, par, ls, pts, SIGMA_TOL))
    np.testing.assert_array_equal(
        _k.c1_block(scenario, par, _k.RESCALED, ls, _k.LIMIT, 0.0, pts, H_FD, SIGMA_TOL,
                    plan.geometry),
        _k.c1_block(scenario, par, _k.RESCALED, ls, _k.LIMIT, 0.0, pts, H_FD, SIGMA_TOL))


def test_sample_stages_compute_each_point_set_once(monkeypatch):
    """At the benchmark's sample_norms config, and with the C1 block
    turned on, a run evaluates the orbit data of its three point sets
    (plan, invariance images, oracle samples) once each, builds one
    adapted frame, and acts with all invariance elements in one call of
    the action and one of its Jacobian."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("orbit_data", "adapted_frame"):
        monkeypatch.setattr(_k, name, counted(name, getattr(_k, name)))
    for name in ("act", "action_jacobian"):
        monkeypatch.setattr(Scenario, name, counted(name, getattr(Scenario, name)))
    workload = workloads.WORKLOADS["sample_norms"]
    for sid in workload.scenarios:
        text = workloads.config_text(workload, sid, seed=42)
        sweep = cli.build_run_config(cli.parse_config(text)).sweep
        for cp_order in (0, 1):
            cfg = dataclasses.replace(sweep, cp_order=cp_order)
            counts.clear()
            res = verify.run_suite(get_scenario(sid), cfg)
            assert res["passed"], (sid, cp_order)
            assert counts == {"orbit_data": 3, "adapted_frame": 1, "act": 1,
                              "action_jacobian": 1}, (sid, cp_order)


def test_geodesic_only_run_computes_no_plan_geometry(monkeypatch):
    """The plan geometry is computed by the first stage that reads it, so
    a run of the geodesic stage alone (the benchmark's fiber_geodesics
    config) builds no plan geometry and no adapted frame."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("plan_geometry", "adapted_frame"):
        monkeypatch.setattr(_k, name, counted(name, getattr(_k, name)))
    workload = workloads.WORKLOADS["fiber_geodesics"]
    for sid in workload.scenarios:
        text = workloads.config_text(workload, sid, seed=42)
        cfg = cli.build_run_config(cli.parse_config(text)).sweep
        assert verify.run_suite(get_scenario(sid), cfg)["passed"], sid
    assert counts == {}
