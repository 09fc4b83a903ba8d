"""Catalogued compact groups, their algebras and bi-invariant forms.

Groups are carried as explicit real matrix models: the circle as SO(2),
the 2-torus as a block pair of rotations, and the special unitary group
of rank one as the 4x4 real matrices of left quaternion multiplication.
Algebra bases are chosen orthonormal for the catalogued bi-invariant
form, which is the identity matrix in every case.

Exponentials have a closed form.  In every catalogued model the square
of an algebra element is diagonal, X^2 = -Theta^2 with Theta diagonal
and nonnegative: Theta^2 = theta^2 I for the circle and the quaternion
model, blockwise for the torus.  X then commutes with Theta, and the
exponential series splits into its even and odd parts,

    exp X = cos(Theta) + (sin(Theta) / Theta) X,

with sin(0)/0 read as 1.  X^2 is diagonal for every element exactly when
every anticommutator X_a X_b + X_b X_a of the basis is diagonal, which
each catalogued group checks when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AlgebraClosureError",
    "BiInvariantForm",
    "GroupElement",
    "LieAlgebraBasis",
    "LieGroupModel",
    "ad_invariance_residual",
    "anticommutator_residual",
    "antisymmetry_residual",
    "closed_form_exp",
    "get_group",
    "jacobi_residual",
    "list_groups",
    "structure_constants_from_basis",
]


class AlgebraClosureError(ValueError):
    """A commutator failed to project back onto the algebra basis."""


def _project_to_basis(basis: tuple[np.ndarray, ...], M: np.ndarray,
                      tol: float = 1e-10) -> np.ndarray:
    """Coefficients of M in the given matrix basis, least squares.

    Raises AlgebraClosureError when the residual exceeds tol, i.e. M is
    not actually in the span.
    """
    cols = np.stack([b.ravel() for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(cols, M.ravel(), rcond=None)
    resid = np.linalg.norm(cols @ coeffs - M.ravel())
    if resid > tol:
        raise AlgebraClosureError(
            f"matrix is not in the algebra span (residual {resid:.3e})")
    return coeffs


def structure_constants_from_basis(basis: tuple[np.ndarray, ...]) -> np.ndarray:
    """c[i, j, m] with [k_i, k_j] = sum_m c[i, j, m] k_m."""
    n = len(basis)
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            c[i, j] = _project_to_basis(basis, comm)
    return c


def antisymmetry_residual(c: np.ndarray) -> float:
    return float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))


def jacobi_residual(c: np.ndarray) -> float:
    """Max violation of the Jacobi identity in coefficient form."""
    term = np.einsum("ijm,mkn->ijkn", c, c)
    total = term + np.einsum("jkm,min->ijkn", c, c) + np.einsum("kim,mjn->ijkn", c, c)
    return float(np.max(np.abs(total)))


def ad_invariance_residual(c: np.ndarray, B: np.ndarray) -> float:
    """Max violation of B([a,x], y) + B(x, [a,y]) = 0 on basis triples."""
    t1 = np.einsum("aim,mj->aij", c, B)
    t2 = np.einsum("ajm,im->aij", c, B)
    return float(np.max(np.abs(t1 + t2)))


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
    """Ordered matrix basis of the algebra with its structure constants."""

    matrices: tuple[np.ndarray, ...]
    structure_constants: np.ndarray = field(repr=False)

    @classmethod
    def from_matrices(cls, matrices: tuple[np.ndarray, ...]) -> "LieAlgebraBasis":
        mats = tuple(np.asarray(m, dtype=float) for m in matrices)
        gram = np.array([[np.sum(a * b) for b in mats] for a in mats])
        if np.linalg.matrix_rank(gram, tol=1e-10) < len(mats):
            raise ValueError("algebra basis matrices are linearly dependent")
        c = structure_constants_from_basis(mats)
        if antisymmetry_residual(c) > 1e-12:
            raise ValueError("structure constants violate antisymmetry")
        if jacobi_residual(c) > 1e-12:
            raise ValueError("structure constants violate the Jacobi identity")
        return cls(matrices=mats, structure_constants=c)

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
class BiInvariantForm:
    """Symmetric positive form on the algebra in basis coefficients."""

    matrix: np.ndarray

    def validate(self, algebra: LieAlgebraBasis) -> None:
        B = self.matrix
        if not np.allclose(B, B.T, atol=1e-14):
            raise ValueError("bi-invariant form must be symmetric")
        if np.min(np.linalg.eigvalsh(B)) <= 0:
            raise ValueError("bi-invariant form must be positive definite")
        resid = ad_invariance_residual(algebra.structure_constants, B)
        if resid > 1e-10:
            raise ValueError(f"form is not ad-invariant (residual {resid:.3e})")

    def pair(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.asarray(a) @ self.matrix @ np.asarray(b))


@dataclass(frozen=True)
class GroupElement:
    """Group element as a matrix in the model representation."""

    group_id: str
    matrix: np.ndarray


@dataclass(frozen=True)
class LieGroupModel:
    group_id: str
    algebra: LieAlgebraBasis
    form: BiInvariantForm

    def identity(self) -> GroupElement:
        n = self.algebra.matrices[0].shape[0]
        return GroupElement(self.group_id, np.eye(n))

    def exp(self, coeffs: np.ndarray, t: float = 1.0) -> GroupElement:
        M = closed_form_exp(t * self.algebra.element(coeffs))
        return GroupElement(self.group_id, M)

    def compose(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return GroupElement(self.group_id, g.matrix @ h.matrix)

    def inverse(self, g: GroupElement) -> GroupElement:
        return GroupElement(self.group_id, g.matrix.T.copy())

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of [a, b] for coefficient vectors a, b."""
        A = self.algebra.element(a)
        B = self.algebra.element(b)
        return _project_to_basis(self.algebra.matrices, A @ B - B @ A)

    def membership_residual(self, M: np.ndarray) -> float:
        """Distance of M from the model group, 0 for genuine elements.

        Orthogonality plus the structural constraints of the model: block
        shape for torus factors, the left-multiplication shape for the
        quaternion model, and orientation for the rotation models.
        """
        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        resid = float(np.max(np.abs(M.T @ M - np.eye(n))))
        if self.group_id == "u1":
            resid = max(resid, abs(float(np.linalg.det(M)) - 1.0))
        elif self.group_id == "t2":
            resid = max(resid, float(np.max(np.abs(M[:2, 2:]))),
                        float(np.max(np.abs(M[2:, :2]))),
                        abs(float(np.linalg.det(M[:2, :2])) - 1.0),
                        abs(float(np.linalg.det(M[2:, 2:])) - 1.0))
        elif self.group_id == "su2":
            # first column is the quaternion; rebuild left multiplication
            rebuilt = _quat_left_mult(M[:, 0])
            resid = max(resid, float(np.max(np.abs(M - rebuilt))))
        return resid

    def element(self, M: np.ndarray, tol: float = 1e-10) -> GroupElement:
        resid = self.membership_residual(M)
        if resid > tol:
            raise ValueError(
                f"matrix is not an element of {self.group_id} (residual {resid:.3e})")
        return GroupElement(self.group_id, np.asarray(M, dtype=float))

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

    def random_element(self, rng: np.random.Generator,
                       angle_scale: float | None = None) -> GroupElement:
        return self.exp(self.random_algebra_vector(rng, angle_scale))


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
    """The group whose algebra has the given orthonormal basis, with the
    identity as its bi-invariant form; refuses a basis outside the
    closed form of the exponential."""
    algebra = LieAlgebraBasis.from_matrices(matrices)
    resid = anticommutator_residual(algebra.matrices)
    if resid > 1e-14:
        raise ValueError(f"{group_id}: squares of algebra elements are not "
                         f"diagonal (anticommutator residual {resid:.3e})")
    form = BiInvariantForm(np.eye(algebra.dim))
    form.validate(algebra)
    return LieGroupModel(group_id, algebra, form)


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
