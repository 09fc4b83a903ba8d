"""The catalogue records: each scenario's action fields satisfy the
Killing equation of its metric, the record's rank is the rank of its
Killing operator, and get_scenario refuses a sampling margin that is
not a nonnegative number."""

import numpy as np
import pytest

from cheegerdef.scenarios import get_scenario, list_scenarios
from cheegerdef.verify import SweepConfig, build_plan


def _lie_derivative(scenario, x):
    """(L_{X_k} g)_ij = X^m d_m g_ij + g_mj d_i X^m + g_im d_j X^m for the
    action field X_k of every algebra basis element, shape (..., k, i, j),
    from the record's metric, Killing operator and their derivatives."""
    par = scenario.params
    G = scenario.metric(par, x)
    dG = scenario.metric_dx(par, x)
    K = scenario.killing(par, x)
    dK = scenario.killing_dx(par, x)
    transport = np.einsum("...mk,...mij->...kij", K, dG)
    stretch = np.einsum("...mj,...imk->...kij", G, dK)
    return transport + stretch + stretch.swapaxes(-1, -2)


@pytest.mark.parametrize("sid", list_scenarios())
def test_action_fields_are_killing(sid):
    scenario = get_scenario(sid)
    pts = build_plan(scenario, SweepConfig()).points
    L = _lie_derivative(scenario, pts)
    assert L.shape == (len(pts), scenario.group.algebra.dim, scenario.dim, scenario.dim)
    assert np.max(np.abs(L)) <= 1e-13


@pytest.mark.parametrize("sid", list_scenarios())
def test_record_rank_is_the_killing_rank(sid):
    scenario = get_scenario(sid)
    pts = build_plan(scenario, SweepConfig()).points
    K = scenario.killing(scenario.params, pts)
    assert np.all(np.linalg.matrix_rank(K) == scenario.rank)


@pytest.mark.parametrize("margin", (-0.1, float("nan")))
def test_get_scenario_refuses_bad_sample_margin(margin):
    with pytest.raises(ValueError, match="sample_margin"):
        get_scenario("s2_band", sample_margin=margin)
