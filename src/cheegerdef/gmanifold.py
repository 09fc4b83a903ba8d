"""Charts, orbit data and the typed failures of the metric pipeline.

killing_data takes a scenario object (see scenarios) and returns the
validated orbit data at a chart point: the Killing operator, the
isotropy split of the algebra and the orbit tensor.  The computation is
the numpy kernels'; this layer adds validation and typed failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k

__all__ = [
    "Chart",
    "DegeneratePointError",
    "DomainError",
    "KillingData",
    "NumericalFailure",
    "SIGMA_TOL",
    "killing_data",
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
