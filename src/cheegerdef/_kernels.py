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
record; variant_metric, its derivative, its inverse, the Christoffel
symbols and the variant vertical frame take x as bare points or as
their record, so that calls on the same points share one record (the
base metric needs none).  The c0, gap and c1 blocks take
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
advances a stack of starts as one state of positions and covectors
(x, p), so a step makes four stacked flow calls however many starts it
carries.  The flow is Hamiltonian, on the cometric
g_v^{-1} = G^{-1} + A M_v A^T, which is linear in the deformation: it
reads the base metric's inverse and derivative, which every tag shares,
and no Christoffel symbols.  A stack takes one tag and may mark some of
its rows with a base mask: those rows take M_v = 0, the base metric's
flow, from the same call.

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
Each tag's M_v is a further function m of the same eigenvalues in the
same table, so the geodesic flow takes dM_v from the same rule, on the
dP of the derivative route.  At rank 1 (every circle action) lam = p
and U = 1, and no rotation runs.

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

# step of the Richardson stencil (coordinate units)
H_FD = 1e-4
# chart-box margin of geodesic integration in coordinate units (3e-4): it
# fixes where a row stops (LEFT_DOMAIN), where tensor_calc refuses a start
# (DomainError) and where the CLI refuses it (exit code 2), so its value
# stays the one these boundaries have always had
GEODESIC_CHART_MARGIN = 3.0 * H_FD


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
    downstream reject them.  The SVD fixes each column only up to sign,
    and no sign is chosen: the metric variants are unchanged when a
    column of A = K mb flips, and _rank_update_dx freezes mb at each
    point, so no route differentiates the basis.
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
    V = _nan_rows(good, vt.mT)
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
    finite are zeroed first, and their rows turn NaN through L or A.  A
    transitive action (r = d) has no horizontal column, so its frame is
    the vertical one, gated, and no QR runs.
    """
    r = orbit.A.shape[-1]
    F = _vertical_frame(orbit.A, orbit.P)
    if r < orbit.G.shape[-1]:
        L = chol_lower(orbit.G)
        B = L.mT @ orbit.A
        Q = np.linalg.qr(np.where(np.isfinite(B), B, 0.0), mode="complete").Q
        F = np.concatenate([F, solve_lin(L.mT, Q[..., r:])], axis=-1)
    return _nan_rows(np.isfinite(F).all(axis=(-2, -1)), F)


def plan_geometry(scen, par, pts, sigma_tol):
    """The geometry of a point set that the c0 and gap blocks take:
    (OrbitData record, adapted_frame F) at pts."""
    orbit = orbit_data(scen, par, pts, sigma_tol)
    return orbit, adapted_frame(orbit)


def _eigh(P):
    """Closed-form eigendecomposition P = U diag(lam) U^T of a stack of
    symmetric r x r matrices, r <= 2, as (lam, U): the eigenvalues as a
    row lam (..., 1, r) in descending order, the orthonormal eigenvectors
    as the columns of U.  At r = 1 lam = P and U = 1; at r = 2 lam is the
    mean of the diagonal plus and minus the hypotenuse of its
    half-difference and P_01, and U the rotation by half the angle of
    (P_00 - P_11, 2 P_01).
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


# per tag, scalar functions f of the eigenvalues of P, each with its
# divided difference f[a, b] = (f(a) - f(b)) / (a - b), f'(a) at a = b,
# written without the quotient, so that equal or crossing eigenvalues lose
# nothing.  Entry ("Y", tag) of a rank-update tag gives Y(P) of the rank
# update G_v = G - W Y(P) W^T, in pi = 1 / lam and mu = 1 / (l^2 + lam);
# entry ("M", tag) of every tag but the base metric (M = 0) gives M_v(P)
# of the cometric g_v^{-1} = G^{-1} + A M_v(P) A^T, in pi and l2 = l^2.
# pi and mu are rows (..., 1, r) over the eigenvalues: pi.mT holds a and
# pi holds b
_TABLE = {
    ("Y", CHEEGER_CLOSED): (lambda pi, mu: mu,
                            lambda pi, mu: -(mu.mT * mu)),
    ("Y", RESCALED): (lambda pi, mu: pi - mu * pi,
                      lambda pi, mu: mu.mT * pi * (mu + pi.mT) - pi.mT * pi),
    ("Y", LIMIT): (lambda pi, mu: pi - pi * pi,
                   lambda pi, mu: pi.mT * pi * (pi.mT + pi - 1.0)),
    # l^-2 on both deformed routes; 0 pi keeps the gate's NaN rows
    ("M", CHEEGER): (lambda pi, l2: 0.0 * pi + 1.0 / l2,
                     lambda pi, l2: 0.0 * (pi.mT * pi)),
    ("M", RESCALED): (lambda pi, l2: (l2 - 1.0) * pi + 1.0,
                      lambda pi, l2: (1.0 - l2) * (pi.mT * pi)),
    ("M", LIMIT): (lambda pi, l2: 1.0 - pi,
                   lambda pi, l2: pi.mT * pi),
}
_TABLE["M", CHEEGER_CLOSED] = _TABLE["M", CHEEGER]


def _gated_eigh(P):
    """(pi, lam, U) of _eigh(P), pi = 1 / lam.  The eigenvalues descend,
    so the last one is the Cholesky gate of P: a row that fails it (a
    degenerate split's P is NaN) has NaN eigenvalues."""
    lam, U = _eigh(P)
    lam = np.where(lam[..., -1:] > 0.0, lam, np.nan)
    return 1.0 / lam, lam, U


def _spectral(U, entry, a, b, dP):
    """F = U diag(f(a, b)) U^T for the table entry (f, f[., .]) and, given
    the chart derivatives dP (..., d, r, r), its derivatives
    dF = U (f[lam_i, lam_j] o U^T dP U) U^T (Daleckii-Krein); without dP,
    dF is None and no divided difference is computed."""
    f, df = entry
    F = _rotate(U, f(a, b))
    if dP is None:
        return F, None
    # one extra axis for the derivative direction m
    Um = U[..., None, :, :]
    return F, _rotate(Um, df(a, b)[..., None, :, :] * _rotate(Um.mT, dP))


def _rank_update(tag, l, orbit, dP=None):
    """The rank update G_v = G - W Y(P) W^T of the record orbit, as
    (G_v, Y W^T, dY).

    Y(P) is (l^2 + P)^{-1} for CHEEGER_CLOSED, P^{-1} - (l^2 + P)^{-1} P^{-1}
    for RESCALED and P^{-1} - P^{-2} for LIMIT, each the function y of
    _TABLE on the eigenvalues of P; dY, given dP, comes from _spectral.
    The eigenvalues pass the Cholesky gate of P, so a row that fails it
    has an all-NaN G_v.
    """
    pi, lam, U = _gated_eigh(orbit.P)
    # the limit metric does not depend on l and keeps the points' shape
    mu = None if tag == LIMIT else 1.0 / (lam + _sq(l))
    Y, dY = _spectral(U, _TABLE["Y", tag], pi, mu, dP)
    YWt = Y @ orbit.W.mT
    return sym2(orbit.G - orbit.W @ YWt), YWt, dY


def _cometric_term(tag, l, P, dP=None, base=None):
    """(M_v, dM_v) of the cometric g_v^{-1} = G^{-1} + A M_v A^T of a tag
    other than ORIGINAL, on the orbit tensors P: I - P^{-1} for LIMIT,
    (l^2 - 1) P^{-1} + I for RESCALED and l^-2 I for either deformed
    route, each the function m of _TABLE on the eigenvalues of P, which
    pass the Cholesky gate; dM_v, given dP, comes from _spectral.  base,
    given with dP, is None or a boolean mask of the rows that take the
    base metric: they get M_v = dM_v = 0 whatever their P holds."""
    pi, _, U = _gated_eigh(P)
    M, dM = _spectral(U, _TABLE["M", tag], pi, _sq(l), dP)
    if base is not None:
        M = np.where(base[..., None, None], 0.0, M)
        dM = np.where(base[..., None, None, None], 0.0, dM)
    return M, dM


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


def _orbit_dx(scen, par, orbit):
    """Chart derivatives (dG, dA, dW, dP) of the base metric, the orbit
    fields, their duals and the orbit tensor at the points orbit.x of the
    record, which the catalogued derivatives take; each has the
    derivative axis m in front of its matrix axes.

    One rule serves every group and orbit rank: dA = (dK) mb from the
    catalogued Killing derivative, dW = dG A + G dA and
    dP = A^T dW + dA^T W.  d_m A is taken as (d_m K) mb with mb frozen at
    x.  K Q = K for the orthogonal projector Q onto the isotropy
    complement, so the basis Q(y) mb(x) gives A(y) = K(y) mb(x); that
    basis is orthonormal at x and stays so to first order, because
    n^T mb = 0 for the isotropy directions n.  The SVD basis of m_basis
    is therefore never differentiated, and the sign of its columns does
    not matter.  All chart axes are differentiated in one stacked
    evaluation.
    """
    dG = scen.metric_dx(par, orbit.x)
    A, W = orbit.A[..., None, :, :], orbit.W[..., None, :, :]
    dA = scen.killing_dx(par, orbit.x) @ orbit.mb[..., None, :, :]
    dW = dG @ A + orbit.G[..., None, :, :] @ dA
    return dG, dA, dW, sym2(A.mT @ dW + dA.mT @ W)


def _rank_update_dx(scen, par, tag, l, orbit):
    """Value and exact first chart derivatives of the rank update,
    (G_v, dG_v) with dG_v[..., m, i, j] = d_m (G_v)_ij, at the points of
    the record: dG_v = dG - dW Y W^T - W Y dW^T - W dY W^T on the
    derivatives of _orbit_dx and the dY of _rank_update."""
    dG, _, dW, dP = _orbit_dx(scen, par, orbit)
    Gv, YWt, dY = _rank_update(tag, l, orbit, dP)
    W = orbit.W[..., None, :, :]
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


def christoffel(scen, par, tag, l, x, h, analytic, sigma_tol):
    """Christoffel symbols Gamma[..., k, i, j] of a metric variant at x,
    a point stack or its OrbitData record.

    The rank-update tags take the value and the derivative from one
    evaluation of _rank_update_dx."""
    if analytic and tag != ORIGINAL and tag != CHEEGER:
        G, dG = _rank_update_dx(scen, par, tag, l, _record(scen, par, x, sigma_tol))
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


def variant_cometric(scen, par, tag, l, x, sigma_tol):
    """Chart components of the inverse g_v^{-1} = G^{-1} + A M_v A^T of
    a metric variant at x, a point stack or its OrbitData record (the
    base metric needs none), with the M_v of _cometric_term (0 for
    ORIGINAL); NaN rows where G is singular or P fails its gate."""
    if tag == ORIGINAL:
        return inv_mat(x.G if isinstance(x, OrbitData) else gm_metric(scen, par, x))
    orbit = _record(scen, par, x, sigma_tol)
    M = _cometric_term(tag, l, orbit.P)[0]
    return inv_mat(orbit.G) + orbit.A @ M @ orbit.A.mT


def _geodesic_flow(scen, par, tag, l, y, sigma_tol, base):
    """Right-hand side (x', p') of the geodesic flow in cometric
    (Hamiltonian) form on a stack (n, 2 d) of states (x, p); base masks
    the base-metric rows of a mixed stack or is None.

    H = p^T g_v^{-1} p / 2 with g_v^{-1} = G^{-1} + A M_v A^T, so with
    u = G^{-1} p and J = A^T p, x' = u + A M_v J and
    p'_m = u^T d_mG u / 2 - J^T d_mM_v J / 2 - J^T M_v (d_mA)^T p.  Only
    the base metric's inverse and derivative enter, which every tag
    shares; ORIGINAL reads no orbit data, and base rows take
    M_v = dM_v = 0, which leaves them the base flow exactly.
    """
    d = y.shape[1] // 2
    x, p = y[:, :d], y[:, d:, None]
    if tag == ORIGINAL:
        G, dG = gm_metric(scen, par, x), scen.metric_dx(par, x)
    else:
        orbit = orbit_data(scen, par, x, sigma_tol)
        G = orbit.G
        dG, dA, _, dP = _orbit_dx(scen, par, orbit)
    u = inv_mat(G) @ p
    # one extra axis for the derivative direction m
    um = u[:, None]
    xdot, pdot = u, 0.5 * (um.mT @ dG @ um)
    if tag != ORIGINAL:
        M, dM = _cometric_term(tag, l, orbit.P, dP, base)
        J = orbit.A.mT @ p
        MJ, Jm = M @ J, J[:, None]
        xdot = u + orbit.A @ MJ
        pdot = pdot - 0.5 * (Jm.mT @ dM @ Jm) - p[:, None].mT @ (dA @ MJ[:, None])
    return np.concatenate([xdot[..., 0], pdot[..., 0, 0]], axis=-1)


def geodesic_rk4(scen, par, tag, l, x0, p0, n_steps, dt, h, analytic,
                 lo, hi, periodic, sigma_tol, *, base=None):
    """Integrate the geodesic flow in cometric form with classical RK4
    from a stack of starts x0 and initial covectors p0 of shape (..., d);
    one start is the zero-batch case.

    tag is the metric-variant tag of the stack; every tag takes the exact
    flow of _geodesic_flow, so both deformed routes integrate alike.
    base, one boolean per start (shape (...)), marks the rows of a mixed
    stack that take the base metric.  Each stage makes one flow call for
    the whole stack, and every row equals the same start integrated under
    its own variant alone.  h and analytic are ignored: they stay in the
    signature only because the benchmark's warm-up call passes them.

    All running starts advance as one stacked state.  Trajectory rows are
    (position, covector); a start that stops early keeps zero rows after
    its last state.  A start stops alone, with status LEFT_DOMAIN when its
    position leaves the chart box shrunk by GEODESIC_CHART_MARGIN and
    NUMERIC_FAIL on NaN; the other starts carry on.  Returns
    (trajectory (..., n_steps + 1, 2 d), status (...), stacked steps,
    steps completed (...)), where the stacked steps are the number of
    steps completed by at least one start (an int; for one start, its
    completed steps).
    """
    lead = x0.shape[:-1]
    d = x0.shape[-1]
    y = np.concatenate([x0.reshape(-1, d), p0.reshape(-1, d)], axis=-1)
    n = y.shape[0]
    if base is not None:
        base = np.asarray(base, dtype=bool).reshape(n)
    traj = np.zeros((n, n_steps + 1, 2 * d))
    traj[:, 0] = y
    status = np.full(n, OK)
    done = np.full(n, n_steps)
    # original index of each running row
    rows = np.arange(n)
    # periodic axes are unbounded
    closed = periodic == 0
    lo_in = np.where(closed, lo + GEODESIC_CHART_MARGIN, -np.inf)
    hi_in = np.where(closed, hi - GEODESIC_CHART_MARGIN, np.inf)

    def rhs(y):
        return _geodesic_flow(scen, par, tag, l, y, sigma_tol, base)

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
