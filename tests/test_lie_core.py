"""Group and algebra layer: structure constants, bi-invariance, exp."""

import numpy as np
import pytest

from cheegerdef.lie_core import (
    AlgebraClosureError,
    LieAlgebraBasis,
    get_group,
    list_groups,
    structure_constants_from_basis,
)


@pytest.mark.parametrize("gid", list_groups())
def test_structure_constants_match_brackets(gid):
    g = get_group(gid)
    basis = g.algebra.matrices
    c = g.algebra.structure_constants
    n = len(basis)
    for i in range(n):
        for j in range(n):
            lhs = basis[i] @ basis[j] - basis[j] @ basis[i]
            rhs = sum(c[i, j, k] * basis[k] for k in range(n))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("gid", list_groups())
def test_algebra_identities(gid):
    from cheegerdef.lie_core import (
        ad_invariance_residual,
        antisymmetry_residual,
        jacobi_residual,
    )
    g = get_group(gid)
    c = g.algebra.structure_constants
    assert antisymmetry_residual(c) <= 1e-12
    assert jacobi_residual(c) <= 1e-12
    # the catalogued inner product is ad-invariant
    assert ad_invariance_residual(c, g.form.matrix) <= 1e-10


def test_su2_brackets_cyclic():
    g = get_group("su2")
    e = g.algebra.matrices
    np.testing.assert_allclose(e[0] @ e[1] - e[1] @ e[0], e[2], atol=1e-14)
    np.testing.assert_allclose(e[1] @ e[2] - e[2] @ e[1], e[0], atol=1e-14)
    np.testing.assert_allclose(e[2] @ e[0] - e[0] @ e[2], e[1], atol=1e-14)


@pytest.mark.parametrize("gid", list_groups())
def test_exp_one_parameter_property(gid):
    g = get_group(gid)
    rng = np.random.default_rng(7)
    v = g.random_algebra_vector(rng)
    a = g.exp(v, 0.4)
    b = g.exp(v, 0.7)
    ab = g.compose(a, b)
    c = g.exp(v, 1.1)
    np.testing.assert_allclose(ab.matrix, c.matrix, atol=1e-10)


@pytest.mark.parametrize("gid", list_groups())
def test_exp_lands_in_group(gid):
    g = get_group(gid)
    rng = np.random.default_rng(11)
    for _ in range(20):
        el = g.random_element(rng)
        assert g.membership_residual(el.matrix) < 1e-10


@pytest.mark.parametrize("gid", list_groups())
def test_inverse_and_identity(gid):
    g = get_group(gid)
    rng = np.random.default_rng(3)
    el = g.random_element(rng)
    prod = g.compose(el, g.inverse(el))
    np.testing.assert_allclose(prod.matrix, g.identity().matrix, atol=1e-12)


def test_su2_full_turn_is_minus_identity():
    g = get_group("su2")
    v = np.array([1.0, 0.0, 0.0])
    el = g.exp(v, 2.0 * np.pi)
    np.testing.assert_allclose(el.matrix, -np.eye(4), atol=1e-12)


def test_su2_exp_rotation_angle():
    # exp(t e_1) acts on the 2-sphere as a rotation by angle t about the
    # x-axis; check through the quaternion double cover
    g = get_group("su2")
    t = 0.8
    el = g.exp(np.array([1.0, 0.0, 0.0]), t)
    q = el.matrix[:, 0]
    assert q[0] == pytest.approx(np.cos(t / 2.0), abs=1e-12)
    assert q[1] == pytest.approx(np.sin(t / 2.0), abs=1e-12)


def test_bracket_helper_projects_to_coefficients():
    g = get_group("su2")
    out = g.bracket(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, np.array([0.0, 0.0, 1.0]), atol=1e-12)


def test_basis_rejects_non_closed_set():
    # a single generic matrix whose bracket leaves its own span
    m1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    m2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(AlgebraClosureError):
        LieAlgebraBasis.from_matrices((m1, m2))


def test_membership_rejects_off_group_matrix():
    g = get_group("su2")
    bad = np.eye(4) * 1.5
    assert g.membership_residual(bad) > 1e-3
    with pytest.raises(ValueError):
        g.element(bad)


def test_structure_constants_standalone():
    g = get_group("su2")
    c = structure_constants_from_basis(g.algebra.matrices)
    np.testing.assert_allclose(c, g.algebra.structure_constants, atol=1e-14)


def test_u1_is_abelian():
    g = get_group("u1")
    assert np.max(np.abs(g.algebra.structure_constants)) == 0.0


def test_t2_is_abelian_rank_two():
    g = get_group("t2")
    assert g.algebra.dim == 2
    assert np.max(np.abs(g.algebra.structure_constants)) == 0.0
