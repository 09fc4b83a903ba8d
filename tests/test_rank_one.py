"""The rank update of every orbit rank against its exact orbit Gram.

Each closed-form variant is G - W Y(P) W^T with W = G A and P = A^T G A,
for orbit fields A = K V, V an orthonormal basis of the isotropy
complement in coefficient space.  So along the orbit A^T G_v A is I for
the limit metric, P (l^2 + P)^-1 for the rescaled metric and
l^2 P (l^2 + P)^-1 for the deformed metric, while every vector
G-orthogonal to the orbit keeps its base-metric covector: G_v u = G u.
The kernels must reproduce both on each default plan and l grid: at
orbit rank 1 (the circle actions, where P is the scalar p = a^T G a)
and at rank 2 (su2_s2, where P = I, and the turning torus t2_turning of
tests/oracles.py, whose P turns along the chart and has eigenvalues
that cross on the plan), with A and P computed here by np.linalg from
the record's own metric and Killing operator alone.  The l-for-l^2 slip
must break the first.
"""

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import get_scenario, list_scenarios
from cheegerdef.verify import DEFAULT_L_GRID, SweepConfig, build_plan

RECORDS = list_scenarios() + ("t2_turning",)
# the records with vectors G-orthogonal to the orbit (not transitive)
HORIZONTAL = tuple(sid for sid in list_scenarios()
                   if not get_scenario(sid).transitive) + ("t2_turning",)
REL = 1e-13


def _along_orbit(tag, l2, P):
    """The exact A^T G_v A of a rank-update tag, for the l^2 column l2
    (L, 1, 1, 1) against the orbit tensors P (N, r, r)."""
    eye = np.eye(P.shape[-1])
    if tag == _k.LIMIT:
        return np.broadcast_to(eye, np.broadcast_shapes(l2.shape, P.shape))
    Q = P @ np.linalg.inv(l2 * eye + P)
    return Q if tag == _k.RESCALED else l2 * Q


@pytest.fixture(scope="module", params=RECORDS)
def orbit(request, record):
    """Scenario, plan points, their metric G, orbit fields A = K V and
    P = A^T G A, with V from the SVD of the Killing operator K."""
    scenario = record(request.param)
    pts = build_plan(scenario, SweepConfig()).points
    G = scenario.metric(scenario.params, pts)
    K = scenario.killing(scenario.params, pts)
    A = K @ np.linalg.svd(K)[2][..., :scenario.rank, :].mT
    return scenario, pts, G, A, A.mT @ G @ A


def _orbit_error(orbit, tag):
    scenario, pts, G, A, P = orbit
    ls = np.asarray(DEFAULT_L_GRID)
    Gv = _k.variant_metric(scenario, scenario.params, tag, ls[:, None], pts, SIGMA_TOL)
    got = A.mT @ Gv @ A
    exact = _along_orbit(tag, ls[:, None, None, None] ** 2, P)
    # G_v subtracts terms of the size of P from A^T G A = P, so the error
    # is relative to the larger of P and the exact value: l^2 P (l^2 + P)^-1
    # falls to l^2 and loses about |P| / l^2 ulps to that cancellation
    scale = np.maximum(np.abs(exact).max(axis=(-2, -1)), np.abs(P).max(axis=(-2, -1)))
    return float(np.max(np.abs(got - exact).max(axis=(-2, -1)) / scale))


@pytest.mark.parametrize("tag", (_k.LIMIT, _k.RESCALED, _k.CHEEGER_CLOSED))
def test_orbit_direction_takes_its_exact_length(orbit, tag):
    assert _orbit_error(orbit, tag) <= REL


@pytest.mark.parametrize("tag", (_k.LIMIT, _k.RESCALED, _k.CHEEGER_CLOSED))
@pytest.mark.parametrize("orbit", HORIZONTAL, indirect=True)
def test_g_orthogonal_vectors_keep_their_covector(orbit, tag):
    scenario, pts, G, A, P = orbit
    # the columns of U = I - A P^-1 A^T G span the G-orthogonal
    # complement of the orbit
    U = np.eye(pts.shape[-1]) - A @ np.linalg.inv(P) @ A.mT @ G
    assert np.max(np.abs(A.mT @ G @ U)) < 1e-14
    ls = np.asarray(DEFAULT_L_GRID)
    Gv = _k.variant_metric(scenario, scenario.params, tag, ls[:, None], pts, SIGMA_TOL)
    GU = G @ U
    scale = np.max(np.abs(GU), axis=(-2, -1))
    err = np.max(np.abs(Gv @ U - GU), axis=(-2, -1)) / scale
    assert float(np.max(err)) <= REL


@pytest.mark.parametrize("tag", (_k.RESCALED, _k.CHEEGER_CLOSED))
def test_l_for_l_squared_breaks_the_orbit_length(orbit, tag, monkeypatch):
    """Negative control: l in place of l^2 in the kernels.  The limit
    metric does not depend on l, so only the l-dependent tags have one."""
    monkeypatch.setattr(_k, "_sq",
                        lambda l: l[..., None, None] if isinstance(l, np.ndarray) else l)
    assert _orbit_error(orbit, tag) > 1e-2
