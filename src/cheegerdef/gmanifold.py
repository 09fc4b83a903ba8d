"""Charts, group actions and orbit data on the catalogued manifolds.

The functions here take a scenario object (see scenarios) and expose the
pointwise orbit machinery: the Killing operator of the action, the orbit
data (isotropy split of the algebra and orbit tensor), and pullbacks of
metric fields along group transformations.  Heavy lifting is delegated
to the numpy kernels; this layer adds validation and typed failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .lie_core import GroupElement

__all__ = [
    "Chart",
    "DegeneratePointError",
    "DomainError",
    "KillingData",
    "NumericalFailure",
    "SIGMA_TOL",
    "action_pullback_metric",
    "fd_action_jacobian",
    "killing_data",
    "killing_operator",
]

# relative singular-value cutoff for isotropy detection
SIGMA_TOL = 1e-8


class DomainError(ValueError):
    """A chart point lies outside the catalogued coordinate box."""


class DegeneratePointError(RuntimeError):
    """Orbit rank at a point is zero or numerically ambiguous."""


class NumericalFailure(RuntimeError):
    """A kernel pipeline produced NaN (conditioning or frame failure)."""


@dataclass(frozen=True)
class Chart:
    """Coordinate box with per-axis periodicity."""

    labels: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    periodic: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        for m in range(self.dim):
            if self.periodic[m]:
                continue
            if not (self.lo[m] + margin <= x[m] <= self.hi[m] - margin):
                return False
        return True

    def require_inside(self, x: np.ndarray, margin: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(
                f"point has shape {x.shape}, chart has {self.dim} coordinates")
        if not self.contains(x, margin):
            raise DomainError(
                f"point {x.tolist()} outside chart box "
                f"[{self.lo.tolist()}, {self.hi.tolist()}] (margin {margin})")
        return x

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Reduce periodic coordinates into their fundamental interval."""
        x = np.array(x, dtype=float)
        for m in range(self.dim):
            if self.periodic[m]:
                period = self.hi[m] - self.lo[m]
                x[m] = self.lo[m] + np.mod(x[m] - self.lo[m], period)
        return x


@dataclass(frozen=True)
class KillingData:
    """Pointwise orbit data of the action; the arrays may also be stacks
    over points, with the point axes first.

    K maps algebra coefficients to tangent vectors (columns are action
    fields of the basis).  m_basis spans the complement of the isotropy
    in coefficient space, orthonormal for the bi-invariant form;
    isotropy_basis spans the kernel of K.  orbit_tensor is the metric on
    the complement induced by g_M through K.
    """

    x: np.ndarray
    K: np.ndarray
    m_basis: np.ndarray
    isotropy_basis: np.ndarray
    orbit_tensor: np.ndarray

    @property
    def A(self) -> np.ndarray:
        """Tangent basis of the orbit: K restricted to the m-basis."""
        return self.K @ self.m_basis

    @property
    def rank(self) -> int:
        return self.m_basis.shape[-1]


def killing_operator(scenario, x: np.ndarray, mode: str = "analytic",
                     h_act: float = 1e-5) -> np.ndarray:
    """Killing operator at x as a (dim M, dim g) matrix.

    mode "analytic" uses the catalogued action derivative; mode "fd"
    differentiates the action along one-parameter subgroups with
    fourth-order central differences of step h_act.
    """
    x = scenario.chart.require_inside(x)
    if mode == "analytic":
        return np.asarray(scenario.killing(scenario.params, x))
    if mode != "fd":
        raise ValueError(f"unknown killing_operator mode '{mode}'")
    group = scenario.group
    d = scenario.chart.dim
    ng = group.algebra.dim
    K = np.zeros((d, ng))
    basis = np.eye(ng)
    for k in range(ng):
        f = lambda t: scenario.act(group.exp(basis[k], t), x)
        K[:, k] = (f(-2 * h_act) - 8 * f(-h_act) + 8 * f(h_act)
                   - f(2 * h_act)) / (12 * h_act)
    return K


def killing_data(scenario, x: np.ndarray,
                 sigma_tol: float = SIGMA_TOL) -> KillingData:
    """Full orbit data at a chart point, validated."""
    x = scenario.chart.require_inside(x)
    G, K, mb, iso, A, P, status = _k.orbit_data(
        scenario, scenario.params, x, sigma_tol)
    if status != _k.OK:
        raise DegeneratePointError(
            f"ambiguous or zero orbit rank at {x.tolist()}")
    return KillingData(x=x, K=np.asarray(K), m_basis=np.asarray(mb),
                       isotropy_basis=np.asarray(iso), orbit_tensor=np.asarray(P))


def fd_action_jacobian(scenario, g: GroupElement, x: np.ndarray,
                       h: float = 1e-6) -> np.ndarray:
    """Finite-difference chart Jacobian of the transformation by g."""
    d = scenario.chart.dim
    J = np.zeros((d, d))
    for m in range(d):
        e = np.zeros(d)
        e[m] = h
        J[:, m] = (scenario.act(g, x - 2 * e) - 8 * scenario.act(g, x - e)
                   + 8 * scenario.act(g, x + e)
                   - scenario.act(g, x + 2 * e)) / (12 * h)
    return J


def action_pullback_metric(scenario, g: GroupElement, matrix_fn,
                           x: np.ndarray, jac_mode: str = "analytic") -> np.ndarray:
    """Pullback of a metric field along the transformation by g at x.

    matrix_fn maps a chart point to metric components.  Invariance of the
    field is |pullback - matrix_fn(x)| = 0.
    """
    x = np.asarray(x, dtype=float)
    y = scenario.act(g, x)
    if jac_mode == "analytic":
        J = scenario.action_jacobian(g, x)
    elif jac_mode == "fd":
        J = fd_action_jacobian(scenario, g, x)
    else:
        raise ValueError(f"unknown jac_mode '{jac_mode}'")
    H = matrix_fn(y)
    return J.T @ H @ J
