"""The rank-one update of a circle action against its exact values.

For a circle action the orbit tensor is the scalar p = a^T G a, and each
closed-form variant is G - y(p) w w^T with w = G a.  So along the orbit
a^T G_v a is 1 for the limit metric, p / (l^2 + p) for the rescaled
metric and l^2 p / (l^2 + p) for the deformed metric, while every vector
G-orthogonal to a keeps its base-metric covector: G_v u = G u.  The
kernels must reproduce both on each circle scenario's default plan and
l grid, with p taken from the scenario's own metric and Killing field,
and the l-for-l^2 slip must break the first.
"""

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import get_scenario, list_scenarios
from cheegerdef.verify import DEFAULT_L_GRID, SweepConfig, build_plan

CIRCLE = tuple(sid for sid in list_scenarios() if get_scenario(sid).rank == 1)
REL = 1e-13


def _along_orbit(tag, l2, p):
    """The exact a^T G_v a of a rank-update tag."""
    if tag == _k.LIMIT:
        return np.ones(np.broadcast_shapes(l2.shape, p.shape))
    if tag == _k.RESCALED:
        return p / (l2 + p)
    return l2 * p / (l2 + p)


@pytest.fixture(scope="module", params=CIRCLE)
def circle(request):
    """Scenario, plan points, their metric G, Killing vector a and
    p = a^T G a, from the scenario record alone."""
    scenario = get_scenario(request.param)
    pts = build_plan(scenario, SweepConfig()).points
    G = scenario.metric(scenario.params, pts)
    a = scenario.killing(scenario.params, pts)[..., 0]
    p = np.einsum("ni,nij,nj->n", a, G, a)
    return scenario, pts, G, a, p


def _orbit_error(circle, tag):
    scenario, pts, G, a, p = circle
    ls = np.asarray(DEFAULT_L_GRID)
    Gv = _k.variant_metric(scenario, scenario.params, tag, ls[:, None], pts, SIGMA_TOL)
    got = np.einsum("ni,...nij,nj->...n", a, Gv, a)
    exact = _along_orbit(tag, ls[:, None] ** 2, p)
    # G_v subtracts terms of the size of p from a^T G a = p, so the error
    # is relative to the larger of p and the exact value: l^2 p / (l^2 + p)
    # falls to l^2 and loses about p / l^2 ulps to that cancellation
    return float(np.max(np.abs(got - exact) / np.maximum(np.abs(exact), p)))


@pytest.mark.parametrize("tag", (_k.LIMIT, _k.RESCALED, _k.CHEEGER_CLOSED))
def test_orbit_direction_takes_its_exact_length(circle, tag):
    assert _orbit_error(circle, tag) <= REL


@pytest.mark.parametrize("tag", (_k.LIMIT, _k.RESCALED, _k.CHEEGER_CLOSED))
def test_g_orthogonal_vectors_keep_their_covector(circle, tag):
    scenario, pts, G, a, p = circle
    d = pts.shape[-1]
    # u_k = e_k - (a^T G e_k / p) a spans the G-orthogonal complement of a
    U = np.eye(d) - a[:, :, None] * ((G @ a[:, :, None]).mT / p[:, None, None])
    assert np.max(np.abs(np.einsum("ni,nij,njk->nk", a, G, U))) < 1e-14
    ls = np.asarray(DEFAULT_L_GRID)
    Gv = _k.variant_metric(scenario, scenario.params, tag, ls[:, None], pts, SIGMA_TOL)
    GU = G @ U
    scale = np.max(np.abs(GU), axis=(-2, -1))
    err = np.max(np.abs(Gv @ U - GU), axis=(-2, -1)) / scale
    assert float(np.max(err)) <= REL


@pytest.mark.parametrize("tag", (_k.RESCALED, _k.CHEEGER_CLOSED))
def test_l_for_l_squared_breaks_the_orbit_length(circle, tag, monkeypatch):
    """Negative control: l in place of l^2 in the kernels.  The limit
    metric does not depend on l, so only the l-dependent tags have one."""
    monkeypatch.setattr(_k, "_sq",
                        lambda l: l[..., None, None] if isinstance(l, np.ndarray) else l)
    assert _orbit_error(circle, tag) > 1e-2
