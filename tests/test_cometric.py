"""The deformed family is linear in the cometric: on every scenario's
default plan each variant's inverse is a closed form in G^-1 and the
orbit fields, and the rescaled family's cometric distance to its limit
is exactly l^2.  An l in place of l^2 breaks each identity."""

import numpy as np
import pytest
from oracles import cometric, cometric_distance

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import get_scenario, list_scenarios
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
