"""Test oracles: plain pointwise restatements of what the package
computes in stacks or in closed form, each with one code path: the
Lie-algebra identities of a basis, group membership, the exponential of
one algebra vector, finite-difference
derivatives of the action and of matrix fields, the pullback of a metric
field, and the C^0 sup of a metric difference at one point with a
lower bound of it from seeded direction pairs.
"""

import numpy as np

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL
from cheegerdef.lie_core import GroupElement, _quat_left_mult, closed_form_exp


class AlgebraClosureError(ValueError):
    """A commutator failed to project back onto the algebra basis."""


def structure_constants_from_basis(basis, tol=1e-10):
    """c[i, j, m] with [k_i, k_j] = sum_m c[i, j, m] k_m, by least squares;
    AlgebraClosureError when a commutator leaves the span of the basis."""
    n = len(basis)
    cols = np.stack([b.ravel() for b in basis], axis=1)
    comms = np.stack([(a @ b - b @ a).ravel() for a in basis for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(cols, comms, rcond=None)
    resid = float(np.max(np.linalg.norm(cols @ coeffs - comms, axis=0)))
    if resid > tol:
        raise AlgebraClosureError(f"matrix is not in the algebra span (residual {resid:.3e})")
    return coeffs.T.reshape(n, n, n)


def basis_rank(basis) -> int:
    """Rank of the Gram matrix of the basis matrices: their number when
    they are linearly independent."""
    gram = np.array([[np.sum(a * b) for b in basis] for a in basis])
    return int(np.linalg.matrix_rank(gram, tol=1e-10))


def antisymmetry_residual(c) -> float:
    return float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))


def jacobi_residual(c) -> float:
    """Max violation of the Jacobi identity in coefficient form."""
    total = (np.einsum("ijm,mkn->ijkn", c, c) + np.einsum("jkm,min->ijkn", c, c)
             + np.einsum("kim,mjn->ijkn", c, c))
    return float(np.max(np.abs(total)))


def ad_invariance_residual(c, B) -> float:
    """Max violation of B([a,x], y) + B(x, [a,y]) = 0 on basis triples."""
    return float(np.max(np.abs(np.einsum("aim,mj->aij", c, B)
                               + np.einsum("ajm,im->aij", c, B))))


def membership_residual(group, M) -> float:
    """Distance of M from the model group, 0 for genuine elements:
    orthogonality plus the block shape of the torus, the
    left-multiplication shape of the quaternion model and the
    orientation of the rotation models."""
    M = np.asarray(M, dtype=float)
    resid = [np.max(np.abs(M.T @ M - np.eye(len(M))))]
    if group.group_id == "u1":
        resid.append(abs(np.linalg.det(M) - 1.0))
    elif group.group_id == "t2":
        resid += [np.max(np.abs(M[:2, 2:])), np.max(np.abs(M[2:, :2])),
                  abs(np.linalg.det(M[:2, :2]) - 1.0), abs(np.linalg.det(M[2:, 2:]) - 1.0)]
    elif group.group_id == "su2":
        # first column is the quaternion; rebuild left multiplication
        resid.append(np.max(np.abs(M - _quat_left_mult(M[:, 0]))))
    return float(max(resid))


def group_exp(group, coeffs, t=1.0):
    """The group element exp(t X) of the algebra vector coeffs, one
    element at a time."""
    return GroupElement(group.group_id, closed_form_exp(t * group.algebra.element(coeffs)))


def central_difference(f, h):
    """Fourth-order central difference of a function of one real
    variable at 0."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def richardson_dx(f, x, h=1e-4):
    """First chart derivatives (d, ...) of the matrix field f at x:
    central differences with one Richardson level."""
    out = []
    for e in np.eye(len(x)):
        g = lambda s: f(x + s * e)
        out.append((16.0 * central_difference(g, 0.5 * h) - central_difference(g, h)) / 15.0)
    return np.array(out)


def killing_operator(scenario, x, h_act=1e-5):
    """Killing operator at x as a (dim M, dim g) matrix: the action
    differentiated along the one-parameter subgroups of the basis."""
    x = scenario.chart.require_inside(x)
    group = scenario.group
    return np.stack([central_difference(lambda t: scenario.act(group_exp(group, e, t), x), h_act)
                     for e in np.eye(group.algebra.dim)], axis=1)


def fd_action_jacobian(scenario, g, x, h=1e-6):
    """Finite-difference chart Jacobian of the transformation by g."""
    return np.stack([central_difference(lambda s: scenario.act(g, x + s * e), h)
                     for e in np.eye(scenario.dim)], axis=1)


def action_pullback_metric(scenario, g, matrix_fn, x):
    """Pullback of the metric field matrix_fn along the transformation by
    g at one point x, with the catalogued Jacobian; the field is
    invariant when it equals matrix_fn(x)."""
    J = scenario.action_jacobian(g, x)
    return J.T @ matrix_fn(scenario.act(g, x)) @ J


def _base_frame(scenario, x):
    """Base metric G and adapted frame F (G-orthonormal) at one point x."""
    orbit = _k.orbit_data(scenario, scenario.params, x, SIGMA_TOL)
    F = _k.adapted_frame(orbit)
    assert not np.isnan(F).any(), f"adapted frame failed at {x.tolist()}"
    return orbit.G, F


def spectral_sup(scenario, delta, x) -> float:
    """C^0 value of the difference matrix delta at one point x: the sup of
    |delta(u, v)| over u, v of unit base-metric length, the largest
    singular value of F^T delta F (an SVD, not the blocks' eigvalsh)."""
    _G, F = _base_frame(scenario, x)
    return float(np.linalg.norm(F.T @ delta @ F, 2))


def pair_sup(scenario, delta, x, dirs) -> float:
    """Lower bound of the C^0 value of delta at one point x: the sup of
    |delta(u, v)| over the pairs of the adapted frame and over the
    seeded pairs dirs (p, 2, d), each vector of unit base-metric length.
    Exact only where F^T delta F attains its spectral norm in one entry."""
    G, F = _base_frame(scenario, x)
    best = float(np.max(np.abs(F.T @ delta @ F)))
    for u, v in dirs:
        best = max(best, abs(u @ delta @ v) / np.sqrt((u @ G @ u) * (v @ G @ v)))
    return best
