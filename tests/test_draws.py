"""Seeded draws: the counter-based uniforms, their Box-Muller normals and
the three draws built on them (direction pairs, invariance elements,
oracle samples)."""

import warnings

import numpy as np
import pytest

from cheegerdef.lie_core import box_muller
from cheegerdef.scenarios import (_GAMMA, _mix64, direction_pairs, get_scenario,
                                  invariance_elements, list_scenarios, oracle_samples,
                                  uniform_draws)
from cheegerdef.verify import SweepConfig

N = 10**5
SIGMAS = 5.0


@pytest.fixture(params=list_scenarios())
def scenario(request):
    return get_scenario(request.param)


def test_finaliser_is_splitmix64():
    # the first three outputs of SplitMix64 started from state 0
    # (Steele, Lea and Flood 2014): the finaliser of 1, 2, 3 times gamma
    out = _mix64(np.arange(1, 4, dtype=np.uint64) * _GAMMA)
    assert [int(x) for x in out] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                    0x06C45D188009454F]


def test_same_key_and_shape_repeat():
    a = uniform_draws(42, 2, (7, 3))
    b = uniform_draws(42, 2, (7, 3))
    assert a.shape == (7, 3)
    np.testing.assert_array_equal(a, b)


def test_a_shorter_block_is_a_prefix():
    long = uniform_draws(42, 3, (120, 4))
    np.testing.assert_array_equal(uniform_draws(42, 3, (60, 4)), long[:60])
    np.testing.assert_array_equal(uniform_draws(42, 3, (5,)), long.ravel()[:5])


def test_seed_and_stream_change_the_block():
    base = uniform_draws(42, 1, (64,))
    for other in (uniform_draws(43, 1, (64,)), uniform_draws(42, 2, (64,)),
                  uniform_draws(2**64 - 1, 1, (64,))):
        assert not np.any(other == base)


@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_extreme_seeds_draw_without_a_warning(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = uniform_draws(seed, 3, (1000,))
        z = direction_pairs(get_scenario("su2_s2"), 4, 2, seed)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(z))


def test_uniforms_lie_in_the_half_open_unit_interval():
    u = uniform_draws(7, 1, (N,))
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # each entry is k / 2**53 with k a 53-bit integer, so even the largest
    # stays below 1
    k = u * 2.0**53
    np.testing.assert_array_equal(k, np.floor(k))
    assert np.max(k) <= 2**53 - 1


def _within(sample_stat, expected, standard_error):
    assert abs(sample_stat - expected) <= SIGMAS * standard_error, \
        (sample_stat, expected, standard_error)


def test_uniform_moments():
    u = uniform_draws(20261019, 1, (N,))
    _within(u.mean(), 0.5, np.sqrt(1 / 12 / N))
    # the sample variance has variance (mu_4 - sigma^4) / n, mu_4 = 1/80
    _within(u.var(), 1 / 12, np.sqrt((1 / 80 - 1 / 144) / N))


def test_normal_moments():
    u = uniform_draws(20261019, 2, (N, 2))
    z = box_muller(u[:, 0], u[:, 1])
    _within(z.mean(), 0.0, np.sqrt(1 / N))
    _within(z.var(), 1.0, np.sqrt(2 / N))


@pytest.mark.parametrize("seed", (42, 2**64 - 1))
def test_invariance_elements_are_group_elements(scenario, seed):
    stack = invariance_elements(scenario, 50, seed)
    M = stack.matrix
    assert M.shape[0] == 50
    n = M.shape[-1]
    np.testing.assert_allclose(M.mT @ M, np.broadcast_to(np.eye(n), M.shape),
                               rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.det(M), 1.0, rtol=0.0, atol=1e-14)
    assert stack.group_id == scenario.group.group_id
    if scenario.element_scale is not None:
        # the quaternion's real part is cos(theta / 2), theta the norm of
        # the algebra vector (the rotation angle of the sphere)
        theta = 2.0 * np.arccos(np.clip(M[:, 0, 0], -1.0, 1.0))
        assert np.max(theta) <= scenario.element_scale + 1e-12


def test_smaller_counts_draw_prefixes(scenario):
    # the default_suite sizes against the defaults
    cfg = SweepConfig()
    assert (cfg.invariance_elements, cfg.oracle_count) == (20, 120)
    short = invariance_elements(scenario, 10, cfg.seed)
    long = invariance_elements(scenario, 20, cfg.seed)
    np.testing.assert_array_equal(short.matrix, long.matrix[:10])
    pts, ls = oracle_samples(scenario, 60, cfg.seed)
    long_pts, long_ls = oracle_samples(scenario, 120, cfg.seed)
    np.testing.assert_array_equal(pts, long_pts[:60])
    np.testing.assert_array_equal(ls, long_ls[:60])
    dirs = direction_pairs(scenario, 10, 1, cfg.seed)
    np.testing.assert_array_equal(dirs, direction_pairs(scenario, 30, 1, cfg.seed)[:10])
