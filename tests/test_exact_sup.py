"""The C^0 sup of a metric difference Delta is exact: the adapted frame F
is g_M-orthonormal, so the sup of |Delta(u, v)| over g_M-unit u, v is the
spectral norm of F^T Delta F.  On every scenario's default plan the C^0
block equals a stacked eigvalsh and an SVD of that block, for both the
convergence and the large-l series, and bounds from above the frame
entries plus seeded direction pairs.  Negative controls: a block whose
norm no entry attains, a frame rotated off the eigenbasis, and a NaN row.
"""

import numpy as np
import pytest
from oracles import pair_sup

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import direction_pairs, get_scenario, list_scenarios
from cheegerdef.verify import SweepConfig, build_plan

CFG = SweepConfig()
# (tag_a, l grid, tag_b) of the two C^0 series
SERIES = {"convergence": (_k.RESCALED, CFG.l_grid, _k.LIMIT),
          "large_l": (_k.CHEEGER, CFG.large_l_grid, _k.ORIGINAL)}


@pytest.fixture(scope="module", params=list_scenarios())
def planned(request):
    scenario = get_scenario(request.param)
    return scenario, build_plan(scenario, CFG)


def _delta(scenario, plan, series):
    """Delta of a series on the plan, (L, N, d, d)."""
    tag_a, grid, tag_b = SERIES[series]
    orbit, par = plan.geometry[0], scenario.params
    return (_k.variant_metric(scenario, par, tag_a, np.reshape(grid, (-1, 1)), orbit,
                              SIGMA_TOL)
            - _k.variant_metric(scenario, par, tag_b, 0.0, orbit, SIGMA_TOL))


def _c0(scenario, plan, series):
    tag_a, grid, tag_b = SERIES[series]
    return _k.c0_block(scenario, scenario.params, tag_a, np.asarray(grid), tag_b, 0.0,
                       plan.points, None, SIGMA_TOL, plan.geometry)


def _frame(plan):
    return plan.geometry[1]


@pytest.mark.parametrize("series", SERIES)
def test_c0_is_the_spectral_norm_in_the_frame(planned, series):
    scenario, plan = planned
    F = _frame(plan)
    B = F.mT @ _delta(scenario, plan, series) @ F
    c0 = _c0(scenario, plan, series)
    assert c0.shape == (len(SERIES[series][1]), len(plan.points))
    np.testing.assert_allclose(c0, np.abs(np.linalg.eigvalsh(B)).max(axis=-1),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(c0, np.linalg.norm(B, ord=2, axis=(-2, -1)),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("series", SERIES)
def test_c0_bounds_the_seeded_pairs(planned, series):
    """The frame entries plus 50 seeded pairs per point (oracles.pair_sup)
    never exceed the exact sup; 1e-14 relative covers the roundoff of
    two routes to an attained entry."""
    scenario, plan = planned
    delta = _delta(scenario, plan, series)
    c0 = _c0(scenario, plan, series)
    # every fourth plan point keeps the pointwise loop short
    rows = np.arange(0, len(plan.points), 4)
    dirs = direction_pairs(scenario, len(rows), 50, CFG.seed)
    for j in range(len(delta)):
        lower = np.array([pair_sup(scenario, delta[j, n], plan.points[n], d)
                          for n, d in zip(rows, dirs)])
        assert np.all(c0[j, rows] >= lower * (1.0 - 1e-14)), (series, j)


def test_block_whose_norm_no_entry_attains():
    """[[1, 1], [1, 1]] in an orthonormal frame: frame maximum 1, exact
    sup 2 (the eigenvalues are 2 and 0)."""
    F = np.eye(2)[None]
    delta = np.ones((1, 2, 2))
    assert np.abs(F.mT @ delta @ F).max() == 1.0
    assert _k._pair_sup(F, delta)[0] == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("sid", [s for s in list_scenarios()
                                 if not get_scenario(s).transitive])
def test_rotated_frame_lowers_the_frame_max_not_the_sup(sid):
    """On a circle scenario Delta is rank one and diagonal in the adapted
    frame.  Any other g_M-orthonormal frame F R spreads it over several
    entries, so its maximum entry drops below the sup; the sup stays."""
    scenario = get_scenario(sid)
    plan = build_plan(scenario, CFG)
    F = _frame(plan)
    delta = _delta(scenario, plan, "convergence")
    d = scenario.dim
    R, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))
    FR = F @ R
    np.testing.assert_allclose(FR.mT @ plan.geometry[0].G @ FR,
                               np.broadcast_to(np.eye(d), FR.shape), atol=1e-13)
    exact = _k._pair_sup(F, delta)
    frame_max = np.abs(F.mT @ delta @ F).max(axis=(-2, -1))
    rotated_max = np.abs(FR.mT @ delta @ FR).max(axis=(-2, -1))
    np.testing.assert_array_equal(frame_max, exact)
    assert np.all(rotated_max < 0.99 * exact)
    np.testing.assert_allclose(_k._pair_sup(FR, delta), exact, rtol=1e-14, atol=0.0)


def test_nan_row_of_delta_stays_in_its_row(planned):
    """eigvalsh refuses a stack with a non-finite row; that row alone is
    NaN and every other row is bit-identical."""
    scenario, plan = planned
    F = _frame(plan)
    delta = _delta(scenario, plan, "convergence")
    clean = _k._pair_sup(F, delta)
    delta[1, 3, 0, 0] = np.nan
    poisoned = _k._pair_sup(F, delta)
    assert np.isnan(poisoned[1, 3])
    others = np.ones(poisoned.shape, dtype=bool)
    others[1, 3] = False
    np.testing.assert_array_equal(poisoned[others], clean[others])
