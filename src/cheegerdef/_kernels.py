"""Numerical kernels of the metric pipeline, broadcast over point stacks.

Every pipeline function takes its points as an array x of shape (..., d):
a single point is the zero-batch case x.shape == (d,), a sample plan is
an (N, d) stack, and results keep the leading shape ((..., d, d) for a
metric).  The deformation parameter l is one value, one value per point
(shape (...,)), or a column of L values with one unit axis per point
axis ((L, 1) against an (N, d) plan), which adds a leading l axis to the
result ((L, N, d, d)) while the orbit data, the frame and the limit
metric are computed once on the points.  The c0, gap, c1 and T-pair
blocks take l as one value or as a 1-D grid of L values and return one
value per plan point: (N,) for one l, (L, N) for a grid.  The c0, gap
and c1 blocks build that column; t_pair_block loops over the grid and
computes its l-free base-metric norms once per point.

The orbit data of a point set is one OrbitData record, made by
orbit_data and read by name.  adapted_frame and the rank update take the
record; variant_metric, its derivative, the Christoffel symbols and the
variant vertical frame take x as bare points or as their record, so
that calls on the same points share one record (the base metric needs
none).  The c0, gap and c1 blocks take
plan_geometry (orbit data and adapted frame) as a trailing argument and
compute what they use of it once per call without it, and oracle_block
shares one record between its two routes.  The scenario argument scen
is a scenarios.Scenario record, whose metric, Killing operator and their
derivatives the kernels call; the metric variant is a small integer tag.
Matrices are tiny (manifold dimension <= 3, orbit rank <= 2), and
inverses and the Cholesky gate are closed forms for sizes 1, 2 and 3
written over the stack, so that a singular row turns NaN alone where
np.linalg.inv raises LinAlgError for the whole stack.  Speed is not the
reason: np.linalg.inv is faster on a few rows (a geodesic stack) and
slower on a 200-point plan.  Geodesics are stacked too: RK4
advances a stack of starts as one state, so a step makes four stacked
Christoffel calls however many starts it carries.  A geodesic stack may
mix the base metric with one rank-update variant: its base rows take
the base metric's values from the same Christoffel call.

The closed-form deformed metric, its vertical rescaling and their limit
are one rank update G - W Y(P) W^T of the base metric, so their value
and their exact first derivatives come from the record's W and P; the
reparametrisation route (CHEEGER) stays independent, reads only G and A,
and keeps finite-difference derivatives, which also serve as the oracle
for the analytic ones.  Each tag's Y is one scalar function y of the
eigenvalues of P, written once with its divided differences (_TABLE),
so one rule serves every orbit rank: Y = U diag(y(lam)) U^T and
dY = U (y[lam_i, lam_j] o U^T dP U) U^T on the closed-form
eigendecomposition of _eigh, the only place that tells the ranks apart.
At rank 1 (every circle action) lam = p and U = 1, and no rotation
runs.  In a mixed geodesic stack the base rows get Y = dY = 0, so they
return the base metric and its derivative from the same arithmetic, with
nothing to select afterwards.

Failures are per point: a degenerate algebra split, an orbit tensor that
fails the Cholesky gate or a blown-up conditioning turns that point's
row into NaN and leaves the other rows alone, the adapted frame's
included; the Python layer names the first NaN point of a block's values
in a typed exception.  Geodesic integration also returns a status code
per start, since a start that leaves the chart is not NaN.
"""

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

# metric-variant tags
ORIGINAL = 0
CHEEGER = 1
RESCALED = 2
LIMIT = 3
CHEEGER_CLOSED = 4

# geodesic status codes
OK = 0
LEFT_DOMAIN = 1
NUMERIC_FAIL = 2

# chart-box margin of geodesic integration, in finite-difference steps h.
# A stack on finite-difference Christoffel symbols (the CHEEGER tag, or
# analytic unset) evaluates the metric on a Richardson stencil that
# reaches 2 h past each point.  tensor_calc.GEODESIC_CHART_MARGIN is the
# same margin in coordinate units, which also fixes where a start raises
# DomainError and where the CLI refuses it (exit code 2).
GEODESIC_MARGIN = 3.0


def _sq(l):
    """l^2 shaped to scale a stack of matrices; l is one value, one value
    per point or an l column."""
    if isinstance(l, np.ndarray):
        return (l * l)[..., None, None]
    return l * l


# identity matrices by size
_EYE = tuple(np.eye(n) for n in range(4))


def _nan_rows(ok, M):
    """M with the rows where ok is False replaced by NaN.  ok is aligned
    with M's axes before its two trailing ones from the right, so an l
    axis that M carries in front of ok's axes broadcasts."""
    if ok.ndim == 0:
        return M if ok else np.full_like(M, np.nan)
    return np.where(ok[..., None, None], M, np.nan)


def _positive(P):
    """Cholesky gate of a stack of symmetric matrices: True on the rows
    where every Cholesky pivot is positive.  For sizes 1 and 2 this is
    the closed form of Sylvester's criterion (leading minors positive)."""
    n = P.shape[-1]
    if n == 1:
        return P[..., 0, 0] > 0.0
    if n == 2:
        det = P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0]
        return (P[..., 0, 0] > 0.0) & (det > 0.0)
    return ~np.isnan(chol_lower(P)[..., -1, -1])


def gm_metric(scen, par, x):
    """Chart components of the invariant base metric g_M at x: the one
    call of the scenario's metric that the pipeline makes."""
    return scen.metric(par, x)


# cyclic index shifts for the 3x3 cofactors
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_SIGN2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def inv_mat(A):
    """Inverse of a stack of n x n matrices, n <= 3, by the adjugate.

    A singular matrix (zero determinant) gives an all-NaN row instead of
    raising.
    """
    n = A.shape[-1]
    if n == 1:
        return 1.0 / np.where(A == 0.0, np.nan, A)
    if n == 2:
        adj = A[..., ::-1, ::-1].mT * _SIGN2
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    else:
        # cofactor C[i, j] = A[i+1, j+1] A[i+2, j+2] - A[i+1, j+2] A[i+2, j+1]
        An = A[..., _NEXT, :]
        Ap = A[..., _PREV, :]
        cof = An[..., _NEXT] * Ap[..., _PREV] - An[..., _PREV] * Ap[..., _NEXT]
        adj = cof.mT
        det = (A[..., 0, :] * cof[..., 0, :]).sum(axis=-1)
    det = np.where(det == 0.0, np.nan, det)
    return adj / det[..., None, None]


def solve_lin(A, B):
    """Solve A X = B for a stack of n x n systems (n <= 3); a singular A
    gives an all-NaN row."""
    return inv_mat(A) @ B


def chol_lower(P):
    """Lower Cholesky factor of a stack of n x n matrices (n <= 3); the
    rows with a non-positive pivot are all NaN."""
    n = P.shape[-1]
    if n == 1:
        return np.sqrt(np.where(P > 0.0, P, np.nan))
    L = np.zeros(P.shape)
    for i in range(n):
        for j in range(i + 1):
            s = P[..., i, j]
            for k in range(j):
                s = s - L[..., i, k] * L[..., j, k]
            if i == j:
                L[..., i, i] = np.sqrt(np.where(s > 0.0, s, np.nan))
            else:
                L[..., i, j] = s / L[..., j, j]
    # a failed pivot is NaN, and so is every diagonal entry after it
    return _nan_rows(~np.isnan(L[..., -1, -1]), L)


def sym2(A):
    """Symmetric part of a stack of square matrices (1 x 1 is returned
    as is: the formula would give it back exactly)."""
    if A.shape[-1] == 1:
        return A
    return 0.5 * (A + A.mT)


# weights 2^(n-1-i): the sign of the weighted sum of a vector's entry
# signs is the sign of its first nonzero entry
_FIRST_WEIGHTS = tuple(2.0 ** np.arange(n - 1, -1, -1.0) for n in range(4))


@lru_cache(maxsize=64)
def _circle_split(lead):
    """(mb, iso) of a circle action over points of leading shape lead:
    read-only broadcast views of constants, made once per shape."""
    return (np.broadcast_to(1.0, lead + (1, 1)),
            np.broadcast_to(np.empty((1, 0)), lead + (1, 0)))


def m_basis(scen, K, sigma_tol):
    """Split the algebra into isotropy and its complement at each point.

    Returns (mb, iso): mb has orthonormal columns spanning the
    complement of the kernel of K (coefficient space), iso spans the
    kernel.  A circle's algebra is one-dimensional, so wherever its
    action field is nonzero the isotropy is trivial and mb = 1: that
    split is shared (read-only views), and a point where the field
    vanishes has P = 0, which the Cholesky gate rejects.  On the SVD
    path the orbit rank is the record's rank; the row of mb and iso is
    NaN where K is not finite or vanishes, where a singular value sits
    inside the ambiguity band [0.1, 10] * sigma_tol * sigma_max, or where
    the numerical rank is below the scenario's.  The NaN rows carry
    through A, W and P, so the Cholesky gate and the conditioning cap
    downstream reject them.
    """
    ng = K.shape[-1]
    if ng == 1:
        return _circle_split(K.shape[:-2])
    r = scen.rank
    if not np.isfinite(K).all():
        # a zeroed row fails the rank test below
        K = np.where(np.isfinite(K).all(axis=(-2, -1))[..., None, None], K, 0.0)
    _, s, vt = np.linalg.svd(K)
    # the SVD path (su2_s2) has as many singular values as its orbit rank,
    # so rank r with no value inside the ambiguity band is a smallest
    # singular value above 10 * sigma_tol * sigma_max
    good = s[..., r - 1] > 10.0 * sigma_tol * s[..., 0]
    # fix signs: first non-negligible entry of each basis vector positive,
    # so the basis is a deterministic smooth-enough choice along FD stencils
    signs = np.sign(vt) * (np.abs(vt) > 1e-12)
    flip = np.copysign(1.0, signs @ _FIRST_WEIGHTS[ng])
    V = _nan_rows(good, (vt * flip[..., None]).mT)
    return V[..., :, :r], V[..., :, r:]


@dataclass(frozen=True, slots=True)
class OrbitData:
    """Orbit data of the action at the points x (..., d), every array
    with the points' leading shape: the base metric G, the Killing
    operator K (columns are the action fields of the algebra basis), the
    split of the algebra (mb spans the isotropy complement and iso the
    isotropy, both orthonormal in coefficient space), the orbit fields
    A = K mb, their metric duals W = G A and the orbit tensor P = A^T G A.
    The rows of mb, iso, A, W and P are NaN where the split is
    degenerate."""

    x: np.ndarray
    G: np.ndarray
    K: np.ndarray
    mb: np.ndarray
    iso: np.ndarray
    A: np.ndarray
    W: np.ndarray
    P: np.ndarray

    def rows(self, index) -> "OrbitData":
        """The record at the points x[index] (index selects along the
        first point axis)."""
        return OrbitData(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


def orbit_data(scen, par, x, sigma_tol):
    """The OrbitData record of the action at the points x."""
    G = gm_metric(scen, par, x)
    K = scen.killing(par, x)
    mb, iso = m_basis(scen, K, sigma_tol)
    A = K if K.shape[-1] == 1 else K @ mb
    W = G @ A
    P = sym2(A.mT @ W)
    return OrbitData(x=x, G=G, K=K, mb=mb, iso=iso, A=A, W=W, P=P)


def _record(scen, par, x, sigma_tol):
    """x as an OrbitData record: x itself, or the orbit data at the bare
    points x."""
    return x if isinstance(x, OrbitData) else orbit_data(scen, par, x, sigma_tol)


def _vertical_frame(A, P):
    """Frame A L^{-T} of the orbit directions, orthonormal in the metric
    whose orbit tensor is P (L the lower Cholesky factor of P); all NaN
    on the rows whose P fails the gate."""
    return solve_lin(chol_lower(P), A.mT).mT


def adapted_frame(orbit):
    """G-orthonormal frame F (..., d, d) adapted to the orbit: columns
    0..r-1 are the vertical frame of the record's A and P, the rest
    complete it with horizontal columns.

    With G = L L^T, the coordinates L^T x carry G to the Euclidean inner
    product, so the columns past r of the complete QR of L^T A are an
    orthonormal complement of the orbit there, and L^{-T} maps them to
    G-orthonormal horizontal columns.  No threshold enters, so the frame
    of c G is the frame of G divided by sqrt(c).  A row whose G or P
    fails the Cholesky gate, or whose orbit data is not finite, is all
    NaN.  The QR is one stacked call; the entries of L^T A that are not
    finite are zeroed first, and their rows turn NaN through L or A.
    """
    r = orbit.A.shape[-1]
    L = chol_lower(orbit.G)
    B = L.mT @ orbit.A
    Q = np.linalg.qr(np.where(np.isfinite(B), B, 0.0), mode="complete").Q
    F = np.concatenate([_vertical_frame(orbit.A, orbit.P),
                        solve_lin(L.mT, Q[..., r:])], axis=-1)
    return _nan_rows(np.isfinite(F).all(axis=(-2, -1)), F)


def plan_geometry(scen, par, pts, sigma_tol):
    """The geometry of a point set that the c0 and gap blocks take:
    (OrbitData record, adapted_frame F) at pts."""
    orbit = orbit_data(scen, par, pts, sigma_tol)
    return orbit, adapted_frame(orbit)


def _eigh(P):
    """Closed-form eigendecomposition P = U diag(lam) U^T of a stack of
    symmetric r x r matrices, r <= 2, as (lam, U): the eigenvalues as a
    row lam (..., 1, r), the orthonormal eigenvectors as the columns of
    U.  At r = 1 lam = P and U = 1; at r = 2 lam is the mean of the
    diagonal plus and minus the hypotenuse of its half-difference and
    P_01, and U the rotation by half the angle of (P_00 - P_11, 2 P_01).
    Unlike np.linalg.eigh, which fails the whole stack on one row that is
    not finite, a NaN row stays NaN alone."""
    if P.shape[-1] == 1:
        return P, _EYE[1]
    a, b, c = P[..., 0, 0], P[..., 0, 1], P[..., 1, 1]
    mid, half = 0.5 * (a + c), 0.5 * (a - c)
    rad = np.hypot(half, b)
    t = 0.5 * np.arctan2(b, half)
    # filled in place: cheaper than np.stack on these small stacks
    lam = np.empty(P.shape[:-2] + (1, 2))
    lam[..., 0, 0], lam[..., 0, 1] = mid + rad, mid - rad
    U = np.empty(P.shape)
    U[..., 0, 0] = U[..., 1, 1] = np.cos(t)
    U[..., 1, 0] = np.sin(t)
    U[..., 0, 1] = -U[..., 1, 0]
    return lam, U


def _rotate(U, M):
    """U M U^T over a stack of matrices M, and U diag(M) U^T for a row M
    (..., 1, r); M itself at r = 1, where U = 1."""
    if U.shape[-1] == 1:
        return M
    return (U * M if M.shape[-2] == 1 else U @ M) @ U.mT


# per rank-update tag, the scalar function y with Y(P) = U diag(y(lam)) U^T
# and its divided difference y[a, b] = (y(a) - y(b)) / (a - b), y'(a) at
# a = b, in pi = 1 / lam and mu = 1 / (l^2 + lam) without the quotient,
# so that equal or crossing eigenvalues lose nothing.  pi and mu are rows
# (..., 1, r) over the eigenvalues: pi.mT holds a and pi holds b
_TABLE = {
    CHEEGER_CLOSED: (lambda pi, mu: mu,
                     lambda pi, mu: -(mu.mT * mu)),
    RESCALED: (lambda pi, mu: pi - mu * pi,
               lambda pi, mu: mu.mT * pi * (mu + pi.mT) - pi.mT * pi),
    LIMIT: (lambda pi, mu: pi - pi * pi,
            lambda pi, mu: pi.mT * pi * (pi.mT + pi - 1.0)),
}


def _rank_update(tag, l, orbit, dP=None, base=None):
    """The rank update G_v = G - W Y(P) W^T of the record orbit, as
    (G_v, Y W^T, dY).

    Y(P) is (l^2 + P)^{-1} for CHEEGER_CLOSED, P^{-1} - (l^2 + P)^{-1} P^{-1}
    for RESCALED and P^{-1} - P^{-2} for LIMIT, each the function y of
    _TABLE on the eigenvalues of P.  Given the chart derivatives dP
    (..., d, r, r), dY = U (y[lam_i, lam_j] o U^T dP U) U^T
    (Daleckii-Krein); without them dY is None and no divided difference
    is computed.  The eigenvalues pass the Cholesky gate of P, so a row
    that fails it (a degenerate split's P is NaN) has an all-NaN G_v.
    base, given with dP, masks the rows of a mixed geodesic stack that
    take the base metric: they get Y = dY = 0 whatever their P holds.
    """
    lam, U = _eigh(orbit.P)
    lam = np.where(_positive(orbit.P)[..., None, None], lam, np.nan)
    pi = 1.0 / lam
    # the limit metric does not depend on l and keeps the points' shape
    mu = None if tag == LIMIT else 1.0 / (lam + _sq(l))
    y, dy = _TABLE[tag]
    Y = _rotate(U, y(pi, mu))
    dY = None
    if dP is not None:
        # one extra axis for the derivative direction m
        Um = U[..., None, :, :]
        dY = _rotate(Um, dy(pi, mu)[..., None, :, :] * _rotate(Um.mT, dP))
    if base is not None:
        Y = np.where(base[..., None, None], 0.0, Y)
        dY = np.where(base[..., None, None, None], 0.0, dY)
    YWt = Y @ orbit.W.mT
    return sym2(orbit.G - orbit.W @ YWt), YWt, dY


def variant_metric(scen, par, tag, l, x, sigma_tol):
    """Chart components of the selected metric variant at x, a point
    stack or its OrbitData record: calls on the same points share one
    record, and bare points get theirs here (the base metric needs
    none).

    ORIGINAL is the base metric.  CHEEGER goes through the deformation
    reparametrisation (inverse of the Cheeger map applied to the product
    metric), from G and A alone.  CHEEGER_CLOSED, RESCALED and LIMIT
    share the independent closed rank update G_v = G - W Y(P) W^T of
    _rank_update.  ORIGINAL and LIMIT do not depend on l and keep the
    points' leading shape.

    Failures (degenerate orbit rank, an orbit tensor that fails the
    Cholesky gate, blown-up conditioning) poison that point's row with
    NaN.
    """
    if tag == ORIGINAL:
        return x.G if isinstance(x, OrbitData) else gm_metric(scen, par, x)
    orbit = _record(scen, par, x, sigma_tol)
    if tag != CHEEGER:
        return _rank_update(tag, l, orbit)[0]
    G, A = orbit.G, orbit.A
    d = G.shape[-1]
    l2 = _sq(l)
    kap = A.mT @ G
    C = (A @ kap) / l2 + _EYE[d]
    Ci = inv_mat(C)
    cond = np.sqrt((C * C).sum(axis=(-2, -1)) * (Ci * Ci).sum(axis=(-2, -1)))
    inner = (kap.mT @ kap) / l2 + G
    return _nan_rows(cond < 1e12, sym2(Ci.mT @ (inner @ Ci)))


def _rank_update_dx(scen, par, tag, l, orbit, base=None):
    """Value and exact first chart derivatives of the rank update,
    (G_v, dG_v) with dG_v[..., m, i, j] = d_m (G_v)_ij, at the points
    orbit.x of the record, which the catalogued derivatives take.  base
    is None or a boolean mask of the rows that take the base metric and
    its catalogued derivative instead (Y = dY = 0 there); the Cholesky
    gate of P does not act on those rows.

    One rule serves every group and orbit rank: dA = (dK) mb from the
    catalogued Killing derivative, dW = dG A + G dA, dP = A^T dW + dA^T W,
    dY from _rank_update and dG_v = dG - dW Y W^T - W Y dW^T - W dY W^T.

    d_m A is taken as (d_m K) mb with mb frozen at x.  K Q = K for the
    orthogonal projector Q onto the isotropy complement, so the basis
    Q(y) mb(x) gives A(y) = K(y) mb(x); that basis is orthonormal at x
    and stays so to first order, because n^T mb = 0 for the isotropy
    directions n.  The sign-fixed SVD basis of m_basis is therefore
    never differentiated.  All chart axes are differentiated in one
    stacked evaluation.
    """
    G = orbit.G
    dG = scen.metric_dx(par, orbit.x)
    # one extra axis for the derivative direction m
    A, W = orbit.A[..., None, :, :], orbit.W[..., None, :, :]
    dA = scen.killing_dx(par, orbit.x) @ orbit.mb[..., None, :, :]
    dW = dG @ A + G[..., None, :, :] @ dA
    Gv, YWt, dY = _rank_update(tag, l, orbit, sym2(A.mT @ dW + dA.mT @ W), base)
    B = dW @ YWt[..., None, :, :]
    return Gv, dG - (B + B.mT) - W @ (dY @ W.mT)


# Richardson stencil steps, in units of h
_STEPS = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


def _stencil(x, h):
    """Richardson stencil around each point: shape (..., d, 6, d), the
    points x + s h e_m for the steps s of _STEPS along each axis m."""
    d = x.shape[-1]
    offsets = np.zeros((d, 6, d))
    for m in range(d):
        offsets[m, :, m] = _STEPS * h
    return x[..., None, None, :] + offsets


def _richardson(f, h):
    """First chart derivatives from matrix values f (..., d, 6, a, b) on
    the stencil: fourth-order central differences with one level of
    Richardson extrapolation (effective order six).  The result has
    shape (..., d, a, b) with the derivative axis first."""
    fm2, fm1, fmh, fph, fp1, fp2 = (f[..., k, :, :] for k in range(6))
    d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    d2 = (fm1 - 8.0 * fmh + 8.0 * fph - fp1) / (6.0 * h)
    return (16.0 * d2 - d1) / 15.0


def variant_metric_dx(scen, par, tag, l, x, h, analytic, sigma_tol):
    """First chart derivatives dG[..., m, i, j] = d_m g_ij of a metric
    variant at x, a point stack or its OrbitData record.

    With analytic set, ORIGINAL uses the catalogued derivative and the
    rank-update tags (CHEEGER_CLOSED, RESCALED, LIMIT) the exact product
    rule of _rank_update_dx.  CHEEGER, and every tag when analytic is
    unset, uses the Richardson stencil around the points, one stacked
    variant_metric call per stencil offset; that path is the oracle for
    the analytic one.
    """
    pts = x.x if isinstance(x, OrbitData) else x
    if analytic and tag == ORIGINAL:
        return scen.metric_dx(par, pts)
    if analytic and tag != CHEEGER:
        return _rank_update_dx(scen, par, tag, l, _record(scen, par, x, sigma_tol))[1]
    d = pts.shape[-1]
    ys = _stencil(pts, h)
    f = None
    for m in range(d):
        for k in range(6):
            g = variant_metric(scen, par, tag, l, ys[..., m, k, :], sigma_tol)
            if f is None:
                # an l column puts an l axis in front of the points'
                f = np.empty(g.shape[:-2] + (d, 6, d, d))
            f[..., m, k, :, :] = g
    return _richardson(f, h)


def christoffel(scen, par, tag, l, x, h, analytic, sigma_tol, base=None):
    """Christoffel symbols Gamma[..., k, i, j] of a metric variant at x,
    a point stack or its OrbitData record.

    The rank-update tags take the value and the derivative from one
    evaluation of _rank_update_dx; on that path base may mask the rows
    of x that take the base metric instead (see _rank_update_dx)."""
    if analytic and tag != ORIGINAL and tag != CHEEGER:
        G, dG = _rank_update_dx(scen, par, tag, l, _record(scen, par, x, sigma_tol), base)
    else:
        G = variant_metric(scen, par, tag, l, x, sigma_tol)
        dG = variant_metric_dx(scen, par, tag, l, x, h, analytic, sigma_tol)
    d = G.shape[-1]
    Gi = inv_mat(G)
    # first-kind symbols T[n, i, j] = d_i g_nj + d_j g_ni - d_n g_ij,
    # then one matrix product raises the index
    S = np.swapaxes(dG, -3, -2)
    T = S + S.mT - dG
    lead = G.shape[:-2]
    return 0.5 * (Gi @ T.reshape(lead + (d, d * d))).reshape(lead + (d, d, d))


def _geodesic_rhs(scen, par, tag, l, y, h, analytic, sigma_tol, base):
    """Right-hand side (v, -Gamma(v, v)) of the geodesic equation on a
    stack (n, 2 d) of states (x, v); base masks the base-metric rows of
    a mixed stack or is None."""
    n, d = y.shape[0], y.shape[1] // 2
    x, v = y[:, :d], y[:, d:]
    Gam = christoffel(scen, par, tag, l, x, h, analytic, sigma_tol, base=base)
    w = v[:, :, None]
    acc = -((Gam.reshape(n, d * d, d) @ w).reshape(n, d, d) @ w)[:, :, 0]
    return np.concatenate([v, acc], axis=-1)


def _stack_tag(tag, lead, analytic):
    """The Christoffel tag of a geodesic stack and its base-row mask.

    tag is one tag, or one tag per start (shape lead).  One tag, or the
    same tag on every start, gives (tag, None).  A mix of ORIGINAL and
    one rank-update tag on the analytic path gives that tag and the
    flat mask of the ORIGINAL rows; any other mix is refused.
    """
    if np.ndim(tag) == 0:
        return tag, None
    tags = np.asarray(tag)
    if tags.shape != lead:
        raise ValueError(f"one tag per start: tags of shape {tags.shape} "
                         f"for starts of shape {lead}")
    tags = tags.reshape(-1)
    base = tags == ORIGINAL
    # a set, not np.unique, whose first call imports numpy.ma
    others = sorted(set(tags[~base].tolist()))
    if not others:
        return ORIGINAL, None
    if len(others) == 1 and not base.any():
        return int(others[0]), None
    if len(others) > 1 or others[0] == CHEEGER or not analytic:
        raise ValueError("a mixed geodesic stack holds ORIGINAL and one "
                         "rank-update tag, with analytic derivatives")
    return int(others[0]), base


def geodesic_rk4(scen, par, tag, l, x0, v0, n_steps, dt, h, analytic,
                 lo, hi, periodic, sigma_tol):
    """Integrate the geodesic equation with classical RK4 from a stack of
    starts x0, v0 of shape (..., d); one start is the zero-batch case.

    tag is one metric-variant tag for every start, or one tag per start
    that mixes ORIGINAL with one rank-update tag (CHEEGER_CLOSED,
    RESCALED or LIMIT) on the analytic path; each stage then makes one
    Christoffel call for the whole stack, and every row equals the same
    start integrated under its own tag alone.

    All running starts advance as one stacked state.  Trajectory rows are
    (position, velocity); a start that stops early keeps zero rows after
    its last state.  A start stops alone, with status LEFT_DOMAIN when its
    position leaves the chart box shrunk by GEODESIC_MARGIN * h and
    NUMERIC_FAIL on NaN; the other starts carry on.  Returns
    (trajectory (..., n_steps + 1, 2 d), status (...), stacked steps,
    steps completed (...)), where the stacked steps are the number of
    steps completed by at least one start (an int; for one start, its
    completed steps).
    """
    lead = x0.shape[:-1]
    d = x0.shape[-1]
    tag, base = _stack_tag(tag, lead, analytic)
    y = np.concatenate([x0.reshape(-1, d), v0.reshape(-1, d)], axis=-1)
    n = y.shape[0]
    traj = np.zeros((n, n_steps + 1, 2 * d))
    traj[:, 0] = y
    status = np.full(n, OK)
    done = np.full(n, n_steps)
    # original index of each running row
    rows = np.arange(n)
    # periodic axes are unbounded
    closed = periodic == 0
    lo_in = np.where(closed, lo + GEODESIC_MARGIN * h, -np.inf)
    hi_in = np.where(closed, hi - GEODESIC_MARGIN * h, np.inf)

    def rhs(y):
        return _geodesic_rhs(scen, par, tag, l, y, h, analytic, sigma_tol, base)

    def stop(gone, code, step):
        """Stop the running rows in gone with status code after step
        steps; their base-mask entries go with them."""
        nonlocal rows, y, base
        status[rows[gone]] = code
        done[rows[gone]] = step
        rows, y = rows[~gone], y[~gone]
        if base is not None:
            base = base[~gone]

    for step in range(n_steps):
        out = ((y[:, :d] < lo_in) | (y[:, :d] > hi_in)).any(axis=-1)
        if out.any():
            stop(out, LEFT_DOMAIN, step)
            if rows.size == 0:
                break
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad = np.isnan(y).any(axis=-1)
        if bad.any():
            stop(bad, NUMERIC_FAIL, step)
            if rows.size == 0:
                break
        traj[rows, step + 1] = y
    traj = traj.reshape(lead + (n_steps + 1, 2 * d))
    return traj, status.reshape(lead), int(done.max()), done.reshape(lead)


def _pair_sup(F, Delta):
    """Per-point sup of |Delta(u, v)| over g_M-unit u, v: the spectral
    norm of the symmetric F^T Delta F, F being g_M-orthonormal.  One
    stacked eigvalsh on the finite rows; eigvalsh raises for the whole
    stack on a row that is not finite, so such a row is NaN on its own."""
    B = F.mT @ Delta @ F
    finite = np.isfinite(B).all(axis=(-2, -1))
    out = np.full(finite.shape, np.nan)
    out[finite] = np.abs(np.linalg.eigvalsh(B[finite])).max(axis=-1)
    return out


def _l_column(l):
    """A block's l as the pipeline takes it: one value as is, a 1-D grid
    of L values as the (L, 1) column against an (N, d) plan."""
    return np.reshape(l, (-1, 1)) if np.ndim(l) else l


def c0_block(scen, par, tag_a, l_a, tag_b, l_b, pts, dirs, sigma_tol, geometry=None):
    """C0 distance of two variants at each point of a sample plan.

    Exact sup over g_M-unit u, v of |(g_a - g_b)(u, v)|: the spectral
    norm of F^T (g_a - g_b) F in the g_M-orthonormal adapted frame F.
    l_a and l_b are one value or a 1-D grid, which adds a leading l
    axis.  geometry is plan_geometry at pts, computed here when not
    given.  NaN at a point whose pipeline evaluation fails.  dirs is
    ignored: it stays in the signature only because the benchmark's
    warm-up call passes it.
    """
    if geometry is None:
        geometry = plan_geometry(scen, par, pts, sigma_tol)
    orbit, F = geometry
    Delta = (variant_metric(scen, par, tag_a, _l_column(l_a), orbit, sigma_tol)
             - variant_metric(scen, par, tag_b, _l_column(l_b), orbit, sigma_tol))
    return _pair_sup(F, Delta)


def c1_block(scen, par, tag_a, l_a, tag_b, l_b, pts, h, sigma_tol, geometry=None):
    """Derivative part of the C1 distance at each plan point: sup over
    chart coordinates and components of d_m (g_a - g_b)_ij, with the
    analytic derivatives of variant_metric_dx (Richardson FD for
    CHEEGER); a grid adds a leading l axis.  Of geometry (plan_geometry
    at pts) only the orbit data is used; without it the orbit data is
    computed here, once for both variants."""
    orbit = orbit_data(scen, par, pts, sigma_tol) if geometry is None else geometry[0]
    dA = variant_metric_dx(scen, par, tag_a, _l_column(l_a), orbit, h, True, sigma_tol)
    dB = variant_metric_dx(scen, par, tag_b, _l_column(l_b), orbit, h, True, sigma_tol)
    return np.max(np.abs(dA - dB), axis=(-3, -2, -1))


def gap_block(scen, par, l, pts, sigma_tol, geometry=None):
    """Normal-homogeneous pullback residual at each plan point; a grid
    adds a leading l axis.

    At each point pulls the rescaled metric back along the orbit map to
    the orthonormal algebra complement basis and measures the max-abs
    deviation from the bi-invariant identity block.  Of geometry
    (plan_geometry at pts) only the orbit data is used; without it the
    orbit data is computed here.  A degenerate algebra split has NaN
    orbit fields, so its point reads NaN.
    """
    orbit = orbit_data(scen, par, pts, sigma_tol) if geometry is None else geometry[0]
    A = orbit.A
    Gr = variant_metric(scen, par, RESCALED, _l_column(l), orbit, sigma_tol)
    M = A.mT @ (Gr @ A)
    return np.abs(M - _EYE[A.shape[-1]]).max(axis=(-2, -1))


def variant_vertical_frame(scen, par, tag, l, x, sigma_tol):
    """Vertical frame columns at x, a point stack or its OrbitData
    record, orthonormal in the selected variant; NaN rows where the
    variant's orbit tensor fails the Cholesky gate."""
    orbit = _record(scen, par, x, sigma_tol)
    A = orbit.A
    Gt = variant_metric(scen, par, tag, l, orbit, sigma_tol)
    return _vertical_frame(A, sym2(A.mT @ (Gt @ A)))


def t_tensor_norm(scen, par, tag, l, x, h, sigma_tol):
    """Norm of the fundamental tensor T on vertical pairs at x.

    Builds a variant-orthonormal vertical frame field, differentiates it
    by Richardson FD (one stacked call on the whole stencil), forms
    nabla_{V_a} V_b through the variant Christoffel symbols, projects
    horizontally and takes the max variant norm over frame pairs.  Orbits
    of full dimension have no horizontal space and give exactly 0.
    """
    d = scen.dim
    orbit = orbit_data(scen, par, x, sigma_tol)
    V = variant_vertical_frame(scen, par, tag, l, orbit, sigma_tol)
    r = V.shape[1]
    if np.isnan(V[0, 0]):
        return np.nan
    if d == r:
        return 0.0
    Gt = variant_metric(scen, par, tag, l, orbit, sigma_tol)
    Gam = christoffel(scen, par, tag, l, orbit, h, False, sigma_tol)
    dV = _richardson(
        variant_vertical_frame(scen, par, tag, l, _stencil(x, h), sigma_tol), h)
    best = 0.0
    for a in range(r):
        for b in range(r):
            w = np.zeros(d)
            for k in range(d):
                s = 0.0
                for i in range(d):
                    s += V[i, a] * dV[i, k, b]
                    for j in range(d):
                        s += Gam[k, i, j] * V[i, a] * V[j, b]
                w[k] = s
            # horizontal projection in the variant metric
            for c in range(r):
                coef = 0.0
                for i in range(d):
                    for j in range(d):
                        coef += w[i] * Gt[i, j] * V[j, c]
                for i in range(d):
                    w[i] -= coef * V[i, c]
            nrm2 = 0.0
            for i in range(d):
                for j in range(d):
                    nrm2 += w[i] * Gt[i, j] * w[j]
            if np.isnan(nrm2):
                return np.nan
            if nrm2 > best:
                best = nrm2
    return np.sqrt(best)


def t_pair_block(scen, par, tag, l, pts, h, sigma_tol):
    """Per-point T-tensor norms of a variant and of the base metric,
    (vals_var, vals_orig).  l is one value, giving ((N,), (N,)), or a
    1-D grid, giving the (L, N) variant norms and the (N,) base norms:
    the base metric does not depend on l, so each base norm is computed
    once per point."""
    ls = np.atleast_1d(l).tolist()
    n = pts.shape[0]
    vals_var = np.zeros((len(ls), n))
    vals_orig = np.zeros(n)
    for i in range(n):
        vals_orig[i] = t_tensor_norm(scen, par, ORIGINAL, 0.0, pts[i], h, sigma_tol)
        for j, lj in enumerate(ls):
            vals_var[j, i] = t_tensor_norm(scen, par, tag, lj, pts[i], h, sigma_tol)
    return (vals_var if np.ndim(l) else vals_var[0]), vals_orig


def oracle_block(scen, par, pts, ls, sigma_tol):
    """Max componentwise disagreement between the two deformation routes
    at each paired sample (point pts[n], deformation parameter ls[n]);
    the two routes share one orbit_data record."""
    orbit = orbit_data(scen, par, pts, sigma_tol)
    G1 = variant_metric(scen, par, CHEEGER, ls, orbit, sigma_tol)
    G2 = variant_metric(scen, par, CHEEGER_CLOSED, ls, orbit, sigma_tol)
    return np.max(np.abs(G1 - G2), axis=(-2, -1))
