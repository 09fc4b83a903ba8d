"""Group and algebra layer: structure constants, bi-invariance, exp.

The algebra identities of every catalogued basis are checked here, over
list_groups(), with the oracles of tests/oracles.py; the package checks
at build time only the condition of its closed-form exponential.
"""

import numpy as np
import pytest
from oracles import (
    AlgebraClosureError,
    ad_invariance_residual,
    antisymmetry_residual,
    basis_rank,
    group_exp,
    jacobi_residual,
    membership_residual,
    structure_constants_from_basis,
)

from cheegerdef.lie_core import get_group, list_groups


def _structure_constants(gid):
    return structure_constants_from_basis(get_group(gid).algebra.matrices)


@pytest.mark.parametrize("gid", list_groups())
def test_basis_is_linearly_independent(gid):
    basis = get_group(gid).algebra.matrices
    assert basis_rank(basis) == len(basis)


def test_basis_rank_detects_dependent_matrices():
    e = get_group("su2").algebra.matrices
    assert basis_rank((e[0], e[1], e[0] + 2.0 * e[1])) == 2


@pytest.mark.parametrize("gid", list_groups())
def test_structure_constants_match_brackets(gid):
    g = get_group(gid)
    basis = g.algebra.matrices
    c = _structure_constants(gid)
    n = len(basis)
    for i in range(n):
        for j in range(n):
            lhs = basis[i] @ basis[j] - basis[j] @ basis[i]
            rhs = sum(c[i, j, k] * basis[k] for k in range(n))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("gid", list_groups())
def test_algebra_identities(gid):
    g = get_group(gid)
    c = _structure_constants(gid)
    assert antisymmetry_residual(c) <= 1e-12
    assert jacobi_residual(c) <= 1e-12
    # the bases are orthonormal for the bi-invariant inner product, so it
    # is the identity in basis coefficients and ad-invariant
    assert ad_invariance_residual(c, np.eye(g.algebra.dim)) <= 1e-10


def test_su2_brackets_cyclic():
    g = get_group("su2")
    e = g.algebra.matrices
    np.testing.assert_allclose(e[0] @ e[1] - e[1] @ e[0], e[2], atol=1e-14)
    np.testing.assert_allclose(e[1] @ e[2] - e[2] @ e[1], e[0], atol=1e-14)
    np.testing.assert_allclose(e[2] @ e[0] - e[0] @ e[2], e[1], atol=1e-14)


@pytest.mark.parametrize("gid", list_groups())
def test_exp_one_parameter_property(gid):
    g = get_group(gid)
    v = g.algebra_vectors(np.random.default_rng(7).random(g.draws_per_vector))
    a = group_exp(g, v, 0.4)
    b = group_exp(g, v, 0.7)
    c = group_exp(g, v, 1.1)
    np.testing.assert_allclose(a.matrix @ b.matrix, c.matrix, atol=1e-10)


@pytest.mark.parametrize("gid", list_groups())
def test_exp_lands_in_group(gid):
    g = get_group(gid)
    for v in g.algebra_vectors(np.random.default_rng(11).random((20, g.draws_per_vector))):
        el = group_exp(g, v)
        assert membership_residual(g, el.matrix) < 1e-10


@pytest.mark.parametrize("gid", list_groups())
def test_inverse_and_identity(gid):
    # exp(-v) inverts exp(v), and exp(0) is the identity
    g = get_group(gid)
    v = g.algebra_vectors(np.random.default_rng(3).random(g.draws_per_vector))
    identity = np.eye(g.algebra.matrices[0].shape[0])
    np.testing.assert_allclose(group_exp(g, v).matrix @ group_exp(g, -v).matrix, identity, atol=1e-12)
    np.testing.assert_array_equal(group_exp(g, np.zeros(g.algebra.dim)).matrix, identity)


def test_su2_full_turn_is_minus_identity():
    g = get_group("su2")
    v = np.array([1.0, 0.0, 0.0])
    el = group_exp(g, v, 2.0 * np.pi)
    np.testing.assert_allclose(el.matrix, -np.eye(4), atol=1e-12)


def test_su2_exp_rotation_angle():
    # exp(t e_1) acts on the 2-sphere as a rotation by angle t about the
    # x-axis; check through the quaternion double cover
    g = get_group("su2")
    t = 0.8
    el = group_exp(g, np.array([1.0, 0.0, 0.0]), t)
    q = el.matrix[:, 0]
    assert q[0] == pytest.approx(np.cos(t / 2.0), abs=1e-12)
    assert q[1] == pytest.approx(np.sin(t / 2.0), abs=1e-12)


def test_basis_rejects_non_closed_set():
    # a single generic matrix whose bracket leaves its own span
    m1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    m2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(AlgebraClosureError):
        structure_constants_from_basis((m1, m2))


def test_membership_rejects_off_group_matrix():
    g = get_group("su2")
    bad = np.eye(4) * 1.5
    assert membership_residual(g, bad) > 1e-3


def test_structure_constants_standalone():
    c = _structure_constants("su2")
    expected = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        expected[i, j, k], expected[j, i, k] = 1.0, -1.0
    np.testing.assert_allclose(c, expected, atol=1e-14)


def test_u1_is_abelian():
    assert np.max(np.abs(_structure_constants("u1"))) == 0.0


def test_t2_is_abelian_rank_two():
    g = get_group("t2")
    assert g.algebra.dim == 2
    assert np.max(np.abs(_structure_constants("t2"))) == 0.0
