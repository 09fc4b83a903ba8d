"""Cheeger deformation of an invariant metric and its rescaled limits.

Two independent constructions of the deformed metric are kept side by
side on purpose.  cheeger_metric solves the deformation reparametrisation
directly: the quotient construction on the product of the group and the
manifold assigns to every tangent vector v the horizontal representative
of (kappa(v)/l^2, v), and the deformed metric is the product metric on
those representatives.  cheeger_metric_closed_form is the rank-one-orbit
style closed formula g_l = g_M - g_M A (l^2 + P)^{-1} A^T g_M obtained by
eliminating the algebra variable.  Their agreement on random samples is
part of the verification suite; do not merge them.

The vertical rescaling divides the deformed metric by l^2 on the orbit
directions while keeping it on the horizontal complement; its l -> 0
limit exists and turns the orbits into totally geodesic, normal
homogeneous fibers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .gmanifold import SIGMA_TOL, KillingData, NumericalFailure, killing_data
from .scenarios import Scenario

__all__ = [
    "DeformationParams",
    "MetricVariant",
    "VARIANT_TAGS",
    "cheeger_metric",
    "cheeger_metric_closed_form",
    "cheeger_reparam",
    "kappa",
    "limit_metric",
    "normal_homogeneous_pullback",
    "rescaled_metric",
    "variant",
    "vertical_space_basis",
]

VARIANT_TAGS = ("original", "cheeger", "rescaled", "limit")

_TAG_CODES = {
    "original": _k.ORIGINAL,
    "cheeger": _k.CHEEGER,
    "rescaled": _k.RESCALED,
    "limit": _k.LIMIT,
    "cheeger_closed_form": _k.CHEEGER_CLOSED,
}


@dataclass(frozen=True)
class DeformationParams:
    """Deformation scale l (side length of the group factor)."""

    l: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.l) or self.l <= 0:
            raise ValueError(f"deformation parameter l must be positive, got {self.l}")


def kappa(kd: KillingData, G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Algebra coefficients of the metric dual of v along the orbit:
    the unique kappa(v) in the isotropy complement with
    <kappa(v), k> = g_M(v, K k) for all algebra vectors k.  Orbit data,
    G and v may also be stacks over points (v of shape (..., dim))."""
    Gv = G @ np.asarray(v, dtype=float)[..., None]
    return (kd.m_basis @ (kd.A.mT @ Gv))[..., 0]


def vertical_space_basis(kd: KillingData) -> list[tuple[np.ndarray, np.ndarray]]:
    """Basis of the vertical (orbit-tangent) space at the point.

    Pairs (algebra coefficients, tangent vector), one per column of the
    isotropy complement.
    """
    out = []
    for c in range(kd.rank):
        a = kd.m_basis[:, c]
        out.append((a, kd.K @ a))
    return out


def cheeger_reparam(kd: KillingData, G: np.ndarray, l: float,
                    v: np.ndarray) -> np.ndarray:
    """Image of v under the deformation reparametrisation
    Ch_l(v) = K(kappa(v)) / l^2 + v."""
    DeformationParams(l)
    v = np.asarray(v, dtype=float)
    return kd.K @ kappa(kd, G, v) / (l * l) + v


def cheeger_metric(kd: KillingData, G: np.ndarray, l: float) -> np.ndarray:
    """Deformed metric by inverting the reparametrisation.

    For u with Ch_l(u) = e_i the metric is
    g_l(v, w) = <kappa(u_v), kappa(u_w)> / l^2 + g_M(u_v, u_w)
    evaluated on those preimages, assembled over the chart basis.
    """
    DeformationParams(l)
    d = G.shape[0]
    A = kd.A
    kap = A.T @ G
    C = (A @ kap) / (l * l) + np.eye(d)
    U = np.linalg.solve(C, np.eye(d))
    inner = (kap.T @ kap) / (l * l) + G
    out = U.T @ inner @ U
    return 0.5 * (out + out.T)


def cheeger_metric_closed_form(kd: KillingData, G: np.ndarray, l: float) -> np.ndarray:
    """Deformed metric by the closed rank-update formula
    g_l = g_M - g_M A (l^2 + P)^{-1} A^T g_M."""
    DeformationParams(l)
    A = kd.A
    P = kd.orbit_tensor
    r = P.shape[0]
    GA = G @ A
    Y = np.linalg.solve(P + l * l * np.eye(r), GA.T)
    out = G - GA @ Y
    return 0.5 * (out + out.T)


def rescaled_metric(kd: KillingData, G: np.ndarray, l: float) -> np.ndarray:
    """Deformed metric with the orbit directions rescaled by 1/l^2.

    Closed form g_M - g_M A Y A^T g_M with
    Y = P^{-1} - (l^2 + P)^{-1} P^{-1}, whose vertical block is
    P (l^2 + P)^{-1} while the horizontal block stays g_M.
    """
    DeformationParams(l)
    A = kd.A
    P = kd.orbit_tensor
    r = P.shape[0]
    Pi = np.linalg.solve(P, np.eye(r))
    Y = Pi - np.linalg.solve(P + l * l * np.eye(r), Pi)
    GA = G @ A
    out = G - GA @ Y @ GA.T
    return 0.5 * (out + out.T)


def limit_metric(kd: KillingData, G: np.ndarray) -> np.ndarray:
    """Limit of the rescaled family as l -> 0: the orbit directions carry
    the bi-invariant inner product through the Killing operator, the
    horizontal complement keeps g_M.  Closed form with
    Y = P^{-1} - P^{-2}."""
    A = kd.A
    P = kd.orbit_tensor
    r = P.shape[0]
    Pi = np.linalg.solve(P, np.eye(r))
    Y = Pi - Pi @ Pi
    GA = G @ A
    out = G - GA @ Y @ GA.T
    return 0.5 * (out + out.T)


def normal_homogeneous_pullback(kd: KillingData, metric_matrix: np.ndarray,
                                a: np.ndarray, b: np.ndarray) -> float:
    """Pullback of a metric along the orbit map at the point, evaluated
    on algebra coefficient vectors a, b of the isotropy complement."""
    va = kd.A @ np.asarray(a, dtype=float)
    vb = kd.A @ np.asarray(b, dtype=float)
    return float(va @ metric_matrix @ vb)


@dataclass(frozen=True)
class MetricVariant:
    """One member of the deformation family on a scenario.

    tag selects among the original metric, the deformed metric, its
    vertical rescaling, the rescaled limit, and the closed-form route of
    the deformed metric kept for cross-validation.
    """

    scenario: Scenario
    tag: str
    l: float = 0.0

    def __post_init__(self) -> None:
        if self.tag not in _TAG_CODES:
            raise ValueError(f"unknown metric variant tag '{self.tag}'")
        if self.tag in ("cheeger", "rescaled", "cheeger_closed_form"):
            DeformationParams(self.l)

    @property
    def tag_code(self) -> int:
        return _TAG_CODES[self.tag]

    @property
    def label(self) -> str:
        if self.tag in ("original", "limit"):
            return self.tag
        return f"{self.tag}(l={self.l:g})"

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """Chart components at x, a point or a stack (..., dim) of points;
        raises NumericalFailure naming the first failing point on pipeline
        breakdown (degenerate rank, singular frame, conditioning)."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(_k.variant_metric(
            self.scenario.code, self.scenario.params, self.tag_code,
            float(self.l), x, SIGMA_TOL))
        if np.any(np.isnan(out)):
            bad = np.isnan(out).any(axis=(-2, -1))
            raise NumericalFailure(
                f"metric variant {self.label} failed at {x[bad][0].tolist()}")
        return out

    def reference_matrix(self, x: np.ndarray) -> np.ndarray:
        """Same metric through the plain-numpy operator layer (used to
        cross-validate the kernel route)."""
        G = self.scenario.metric_matrix(x)
        if self.tag == "original":
            return G
        kd = killing_data(self.scenario, x)
        if self.tag == "cheeger":
            return cheeger_metric(kd, G, self.l)
        if self.tag == "cheeger_closed_form":
            return cheeger_metric_closed_form(kd, G, self.l)
        if self.tag == "rescaled":
            return rescaled_metric(kd, G, self.l)
        return limit_metric(kd, G)


def variant(scenario: Scenario, tag: str, l: float = 0.0) -> MetricVariant:
    return MetricVariant(scenario=scenario, tag=tag, l=l)
