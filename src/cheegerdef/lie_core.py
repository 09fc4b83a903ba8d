"""Catalogued compact groups and their algebras.

Groups are carried as explicit real matrix models: the circle as SO(2),
the 2-torus as a block pair of rotations, and the special unitary group
of rank one as the 4x4 real matrices of left quaternion multiplication.
Algebra bases are chosen orthonormal for the bi-invariant form, which is
therefore the identity matrix in every case.

Exponentials have a closed form.  In every catalogued model the square
of an algebra element is diagonal, X^2 = -Theta^2 with Theta diagonal
and nonnegative: Theta^2 = theta^2 I for the circle and the quaternion
model, blockwise for the torus.  X then commutes with Theta, and the
exponential series splits into its even and odd parts,

    exp X = cos(Theta) + (sin(Theta) / Theta) X,

with sin(0)/0 read as 1.  X^2 is diagonal for every element exactly when
every anticommutator X_a X_b + X_b X_a of the basis is diagonal, which
each catalogued group checks when it is built.  The Lie-algebra
identities of the bases (closure, antisymmetry, Jacobi, ad-invariance of
the form) are checked by the tests over list_groups().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupElement",
    "LieAlgebraBasis",
    "LieGroupModel",
    "anticommutator_residual",
    "closed_form_exp",
    "get_group",
    "list_groups",
]


def anticommutator_residual(basis: tuple[np.ndarray, ...]) -> float:
    """Largest off-diagonal entry of the anticommutators X_a X_b + X_b X_a
    of the basis; 0 when the square of every algebra element is diagonal,
    the condition of closed_form_exp."""
    worst = 0.0
    for a in basis:
        for b in basis:
            S = a @ b + b @ a
            worst = max(worst, float(np.max(np.abs(S - np.diag(np.diag(S))))))
    return worst


def closed_form_exp(X: np.ndarray) -> np.ndarray:
    """exp X = cos(Theta) + sin(Theta) (X / Theta) for an algebra element
    X whose square is diagonal, X^2 = -Theta^2, or for each of a stack
    (..., n, n) of them.

    The diagonal of X^2 is taken as an elementwise row sum, so a stack
    and its elements one at a time round alike.  The result is wrong for
    a matrix whose square is not diagonal (see anticommutator_residual).
    """
    X = np.asarray(X, dtype=float)
    theta = np.sqrt(np.maximum(-(X * np.swapaxes(X, -1, -2)).sum(axis=-1), 0.0))[..., None]
    # X / Theta, the generator of unit angle; a row with Theta = 0 is
    # divided by 1, and its sin(0) factor drops it
    unit = X / np.where(theta > 0.0, theta, 1.0)
    return np.cos(theta) * np.eye(X.shape[-1]) + np.sin(theta) * unit


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Ordered matrix basis of the algebra."""

    matrices: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        out = np.zeros_like(self.matrices[0])
        for a, m in zip(coeffs, self.matrices):
            out = out + a * m
        return out


@dataclass(frozen=True)
class GroupElement:
    """Group element as a matrix in the model representation."""

    group_id: str
    matrix: np.ndarray


@dataclass(frozen=True)
class LieGroupModel:
    group_id: str
    algebra: LieAlgebraBasis

    def random_algebra_vector(self, rng: np.random.Generator,
                              angle_scale: float | None = None) -> np.ndarray:
        """Coefficient vector of a random element of the algebra.

        For circle factors the angle is uniform over a full turn; when
        angle_scale is given the vector norm is capped by it (used to keep
        transformed sample points inside a chart).
        """
        n = self.algebra.dim
        if angle_scale is None:
            return rng.uniform(-np.pi, np.pi, size=n)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        return direction * rng.uniform(0.0, angle_scale)


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _quat_left_mult(q: np.ndarray) -> np.ndarray:
    """Left multiplication by the quaternion with coefficients (w,x,y,z)."""
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def _model(group_id: str, matrices: tuple[np.ndarray, ...]) -> LieGroupModel:
    """The group whose algebra has the given orthonormal basis; refuses a
    basis outside the closed form of the exponential."""
    algebra = LieAlgebraBasis(tuple(matrices))
    resid = anticommutator_residual(algebra.matrices)
    if resid > 1e-14:
        raise ValueError(f"{group_id}: squares of algebra elements are not "
                         f"diagonal (anticommutator residual {resid:.3e})")
    return LieGroupModel(group_id, algebra)


def _make_u1() -> LieGroupModel:
    return _model("u1", (_J2.copy(),))


def _make_t2() -> LieGroupModel:
    k1 = np.zeros((4, 4))
    k1[:2, :2] = _J2
    k2 = np.zeros((4, 4))
    k2[2:, 2:] = _J2
    return _model("t2", (k1, k2))


def _make_su2() -> LieGroupModel:
    # halved left multiplications by i, j, k: [e1, e2] = e3 cyclically
    li = _quat_left_mult(np.array([0.0, 1.0, 0.0, 0.0]))
    lj = _quat_left_mult(np.array([0.0, 0.0, 1.0, 0.0]))
    lk = _quat_left_mult(np.array([0.0, 0.0, 0.0, 1.0]))
    return _model("su2", (0.5 * li, 0.5 * lj, 0.5 * lk))


_MAKERS = {"u1": _make_u1, "t2": _make_t2, "su2": _make_su2}
_GROUPS: dict[str, LieGroupModel] = {}


def get_group(group_id: str) -> LieGroupModel:
    if group_id not in _MAKERS:
        raise KeyError(f"unknown group '{group_id}'")
    if group_id not in _GROUPS:
        _GROUPS[group_id] = _MAKERS[group_id]()
    return _GROUPS[group_id]


def list_groups() -> tuple[str, ...]:
    return tuple(_MAKERS)
