"""Cheeger deformation of an invariant metric and its rescaled limits.

The kernels build the deformed metric by two routes kept side by side
on purpose.  Tag cheeger solves the deformation reparametrisation: the
quotient construction on the product of the group and the manifold
assigns to every tangent vector v the horizontal representative of
(kappa(v)/l^2, v), and the deformed metric is the product metric on
those representatives.  Tag cheeger_closed_form is the closed rank
update g_l = g_M - g_M A (l^2 + P)^{-1} A^T g_M obtained by eliminating
the algebra variable.  definition_metric is a third route, from
Cheeger's definition of g_l as a submersion metric; it shares with the
kernels only the base metric and the Killing operator, and is the
oracle of both.  Their agreement on seeded samples is part of the
verification suite; do not merge them.

The vertical rescaling divides the deformed metric by l^2 on the orbit
directions while keeping it on the horizontal complement; its l -> 0
limit exists and turns the orbits into totally geodesic, normal
homogeneous fibers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .gmanifold import SIGMA_TOL, KillingData, NumericalFailure
from .scenarios import Scenario

__all__ = [
    "MetricVariant",
    "VARIANT_TAGS",
    "definition_metric",
    "kappa",
    "variant",
]

VARIANT_TAGS = ("original", "cheeger", "rescaled", "limit")

_TAG_CODES = {
    "original": _k.ORIGINAL,
    "cheeger": _k.CHEEGER,
    "rescaled": _k.RESCALED,
    "limit": _k.LIMIT,
    "cheeger_closed_form": _k.CHEEGER_CLOSED,
}


def kappa(kd: KillingData, G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Algebra coefficients of the metric dual of v along the orbit:
    the unique kappa(v) in the isotropy complement with
    <kappa(v), k> = g_M(v, K k) for all algebra vectors k.  Orbit data,
    G and v may also be stacks over points (v of shape (..., dim))."""
    Gv = G @ np.asarray(v, dtype=float)[..., None]
    return (kd.m_basis @ (kd.A.mT @ Gv))[..., 0]


def definition_metric(scenario: Scenario, tag: str, l, x: np.ndarray) -> np.ndarray:
    """Chart components of a metric variant at x, a point or a stack
    (..., dim) of points, from Cheeger's definition.

    g_l is the submersion metric of (M x G, g_M + l^2 Q) -> M, so
    g_l(v, v) = min over X of |v - K X|^2_{g_M} + l^2 |X|^2 with the full
    Killing operator K.  With g_M = L L^T and the SVD L^T K = U S V^T the
    minimum is |L^T v|^2 - sum_i s_i^2 / (s_i^2 + l^2) (u_i . L^T v)^2,
    so every tag is L (I + U diag(w) U^T) L^T: w = -s^2 / (s^2 + l^2)
    for the deformed metric (either route), 1 / (s^2 + l^2) - 1 once the
    orbit directions are divided by l^2 (rescaled) and 1 / s^2 - 1 at
    l -> 0 (limit).  Neither the isotropy split nor an inverse of the
    orbit tensor or of the reparametrisation enters.  l is one value or
    one value per point.
    """
    x = np.asarray(x, dtype=float)
    G = _k.gm_metric(scenario, scenario.params, x)
    if tag == "original":
        return G
    L = np.linalg.cholesky(G)
    U, s, _ = np.linalg.svd(L.mT @ scenario.killing(scenario.params, x),
                            full_matrices=False)
    s2 = s * s
    l2 = np.square(np.asarray(l, dtype=float))[..., None]
    if tag == "limit":
        w = 1.0 / s2 - 1.0
    elif tag == "rescaled":
        w = 1.0 / (s2 + l2) - 1.0
    else:
        w = -s2 / (s2 + l2)
    return L @ (np.eye(G.shape[-1]) + (U * w[..., None, :]) @ U.mT) @ L.mT


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
        if self.tag in ("cheeger", "rescaled", "cheeger_closed_form") and not (
                np.isfinite(self.l) and self.l > 0):
            raise ValueError(f"deformation parameter l must be positive, got {self.l}")

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
            self.scenario, self.scenario.params, self.tag_code,
            float(self.l), x, SIGMA_TOL))
        if np.any(np.isnan(out)):
            bad = np.isnan(out).any(axis=(-2, -1))
            raise NumericalFailure(
                f"metric variant {self.label} failed at {x[bad][0].tolist()}")
        return out

    def reference_matrix(self, x: np.ndarray) -> np.ndarray:
        """Same metric from Cheeger's definition (definition_metric), the
        oracle of the kernel routes."""
        return definition_metric(self.scenario, self.tag, self.l, x)


def variant(scenario: Scenario, tag: str, l: float = 0.0) -> MetricVariant:
    return MetricVariant(scenario=scenario, tag=tag, l=l)
