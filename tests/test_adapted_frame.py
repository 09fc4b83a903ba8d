"""The adapted frame is a property of the metric and the orbit, not of
the chart or of the metric's scale.  Scaling g_M by c divides the frame
by sqrt(c) at any c, with no row failing; a constant linear chart change
that is not adapted to the action leaves the C^0 values unchanged and
the frame g_M-orthonormal, its first r columns spanning the orbit.  A
row that fails is all NaN and leaves the other rows alone."""

from dataclasses import replace

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.scenarios import get_scenario, list_scenarios, sample_grid
from cheegerdef.verify import SweepConfig

CFG = SweepConfig()
CIRCLES = [s for s in list_scenarios() if not get_scenario(s).transitive]
# constant chart changes y = M x; neither keeps the orbit direction of
# a circle action on a chart axis
M_BY_DIM = {2: np.array([[1.0, 0.3], [-0.2, 0.9]]),
            3: np.array([[1.0, 0.3, -0.1], [-0.2, 0.9, 0.25], [0.15, -0.3, 1.1]])}


def _frame(scenario, pts):
    return _k.adapted_frame(_k.orbit_data(scenario, scenario.params, pts, SIGMA_TOL))


@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_scaled_metric_scales_the_frame(s2_band, c):
    pts = sample_grid(s2_band, 36)
    scaled = replace(s2_band, metric=lambda par, x: c * s2_band.metric(par, x))
    F = _frame(s2_band, pts)
    Fc = _frame(scaled, pts)
    assert not np.isnan(Fc).any()
    np.testing.assert_allclose(np.sqrt(c) * Fc, F, rtol=1e-13, atol=0.0)


def _linear_chart(scenario, M):
    """The record in the chart y = M x: metric M^{-T} g M^{-1} and Killing
    operator M K, both read at x = M^{-1} y.  Only what the frame and the
    C^0 blocks call is mapped."""
    Mi = np.linalg.inv(M)

    def metric(par, y):
        return Mi.T @ scenario.metric(par, y @ Mi.T) @ Mi

    def killing(par, y):
        return M @ scenario.killing(par, y @ Mi.T)

    return replace(scenario, metric=metric, killing=killing)


@pytest.fixture(scope="module", params=CIRCLES)
def charted(request):
    scenario = get_scenario(request.param)
    M = M_BY_DIM[scenario.dim]
    pts = sample_grid(scenario, 36)
    return scenario, pts, _linear_chart(scenario, M), pts @ M.T


@pytest.mark.parametrize("tag_a, grid, tag_b", [
    (_k.RESCALED, CFG.l_grid, _k.LIMIT),
    (_k.CHEEGER, CFG.large_l_grid, _k.ORIGINAL)], ids=["c0", "large_l"])
def test_c0_is_chart_invariant(charted, tag_a, grid, tag_b):
    scenario, pts, moved, ys = charted

    def c0(sc, x):
        return _k.c0_block(sc, sc.params, tag_a, np.asarray(grid), tag_b, 0.0, x, None,
                           SIGMA_TOL)

    here, there = c0(scenario, pts), c0(moved, ys)
    assert not np.isnan(there).any()
    # Delta is the difference of two metrics of unit size in the frame, so
    # its roundoff is some 1e-16 in g_M units whatever its value; that
    # floor is 1e-12 relative on the l = 100 values near 1e-4
    np.testing.assert_allclose(there, here, rtol=1e-12, atol=1e-15)


def test_frame_in_a_non_adapted_chart(charted):
    _, _, moved, ys = charted
    orbit = _k.orbit_data(moved, moved.params, ys, SIGMA_TOL)
    F = _k.adapted_frame(orbit)
    d, r = F.shape[-1], orbit.A.shape[-1]
    np.testing.assert_allclose(F.mT @ orbit.G @ F, np.broadcast_to(np.eye(d), F.shape),
                               rtol=0.0, atol=1e-14)
    # A lies in the span of the (orthonormal) vertical columns V: its
    # G-projection onto them gives it back
    V = F[..., :r]
    np.testing.assert_allclose(V @ (V.mT @ orbit.G @ orbit.A), orbit.A,
                               rtol=0.0, atol=1e-14 * np.abs(orbit.A).max())


def _broken(orbit):
    """The record with the orbit field of row 2 not finite and that of
    row 5 zero (P = 0 fails the Cholesky gate) while G stays positive."""
    A = orbit.A.copy()
    A[2] = np.nan
    A[5] = 0.0
    W = orbit.G @ A
    return replace(orbit, A=A, W=W, P=A.mT @ W)


def test_failed_rows_are_nan_and_others_unchanged(s2_band):
    """A row whose orbit field is not finite, or vanishes, is all NaN,
    horizontal columns included; the other rows are bit-identical."""
    orbit = _k.orbit_data(s2_band, s2_band.params, sample_grid(s2_band, 36), SIGMA_TOL)
    clean, F = _k.adapted_frame(orbit), _k.adapted_frame(_broken(orbit))
    others = np.ones(len(F), dtype=bool)
    others[[2, 5]] = False
    assert np.isnan(F[~others]).all()
    np.testing.assert_array_equal(F[others], clean[others])


def _complete_qr_frame(orbit):
    """The frame by the complete-QR route at any orbit rank: the gated
    vertical frame next to L^{-T} times the columns past r of the QR of
    L^T A, none at r = d."""
    r = orbit.A.shape[-1]
    L = _k.chol_lower(orbit.G)
    B = L.mT @ orbit.A
    Q = np.linalg.qr(np.where(np.isfinite(B), B, 0.0), mode="complete").Q
    F = np.concatenate([_k._vertical_frame(orbit.A, orbit.P),
                        _k.solve_lin(L.mT, Q[..., r:])], axis=-1)
    return _k._nan_rows(np.isfinite(F).all(axis=(-2, -1)), F)


@pytest.mark.parametrize("broken", [False, True], ids=["clean", "broken"])
def test_transitive_frame_skips_the_qr(su2_s2, monkeypatch, broken):
    """su2_s2 acts transitively (r = d), so its frame has no horizontal
    column: adapted_frame returns the gated vertical frame without the
    QR or the solve for horizontal columns, bit for bit the complete-QR
    route's frame, NaN rows of the broken record included."""
    orbit = _k.orbit_data(su2_s2, su2_s2.params, sample_grid(su2_s2, 36), SIGMA_TOL)
    assert orbit.A.shape[-1] == su2_s2.dim
    orbit = _broken(orbit) if broken else orbit
    expected = _complete_qr_frame(orbit)
    assert np.isnan(expected).any() == broken

    def refused(*args, **kwargs):
        raise AssertionError("the transitive frame ran a QR")

    monkeypatch.setattr(np.linalg, "qr", refused)
    np.testing.assert_array_equal(_k.adapted_frame(orbit), expected)
