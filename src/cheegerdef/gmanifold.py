"""Charts and the typed failures of the metric pipeline.

A Chart is the coordinate box of a scenario; require_inside turns a
point outside it into a DomainError.  The orbit data at chart points is
the kernels' OrbitData record (_kernels.orbit_data); the Python layer
names the first NaN row of a kernel result in a NumericalFailure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Chart",
    "DomainError",
    "NumericalFailure",
    "SIGMA_TOL",
]

# relative singular-value cutoff for isotropy detection
SIGMA_TOL = 1e-8


class DomainError(ValueError):
    """A chart point lies outside the catalogued coordinate box."""


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
