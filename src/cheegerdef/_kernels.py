"""Compiled numerical kernels shared by the metric pipeline.

Every function here is numba-compilable and also runs as plain numpy when
compilation is disabled (see _jit).  Scenario geometry and metric-variant
selection are encoded as small integer codes so the hot loops stay free of
Python objects.  Matrices are tiny (manifold dimension <= 3, orbit rank
<= 2), so linear algebra is hand-rolled Gauss elimination / Cholesky: a
LAPACK round trip costs more than the whole solve at these sizes.

The closed-form deformed metric, its vertical rescaling and their limit
are one rank update G - W Y(P) W^T of the base metric (W = G A,
P = A^T G A), so their value and their exact first derivatives come from
the same pieces; the reparametrisation route (CHEEGER) stays independent
and keeps finite-difference derivatives, which also serve as the oracle
for the analytic ones.

Failures inside kernels are signalled by NaN poisoning (metric routines)
or explicit status codes (frame construction, geodesic integration); the
Python layer turns those into typed exceptions.
"""

import numpy as np

from ._jit import njit

# scenario codes
S2_BAND = 0
WARPED_S2 = 1
S3_HOPF = 2
SU2_S2 = 3
T2_FLAT = 4

# metric-variant tags
ORIGINAL = 0
CHEEGER = 1
RESCALED = 2
LIMIT = 3
CHEEGER_CLOSED = 4

# status codes
OK = 0
DEGENERATE = 1
FRAME_FAIL = 2
LEFT_DOMAIN = 1
NUMERIC_FAIL = 2


@njit(cache=True)
def manifold_dim(scen):
    if scen == S3_HOPF:
        return 3
    return 2


@njit(cache=True)
def group_dim(scen):
    if scen == SU2_S2:
        return 3
    return 1


@njit(cache=True)
def gm_metric(scen, par, x):
    """Chart components of the invariant base metric g_M at x."""
    if scen == S3_HOPF:
        G = np.zeros((3, 3))
        c = np.cos(x[2])
        s = np.sin(x[2])
        G[0, 0] = c * c
        G[1, 1] = s * s
        G[2, 2] = 1.0
        return G
    G = np.zeros((2, 2))
    if scen == T2_FLAT:
        a = par[0]
        G[0, 0] = a * a
        G[1, 1] = 1.0
    elif scen == WARPED_S2:
        s = np.sin(x[1])
        G[0, 0] = s * s * (1.0 + par[0] * s)
        G[1, 1] = 1.0
    else:
        # S2_BAND and SU2_S2 live on the round sphere
        s = np.sin(x[1])
        G[0, 0] = s * s
        G[1, 1] = 1.0
    return G


@njit(cache=True)
def gm_metric_dx(scen, par, x):
    """Analytic first chart derivatives dG[m, i, j] = d_m g_ij."""
    d = manifold_dim(scen)
    dG = np.zeros((d, d, d))
    if scen == S3_HOPF:
        dG[2, 0, 0] = -np.sin(2.0 * x[2])
        dG[2, 1, 1] = np.sin(2.0 * x[2])
    elif scen == T2_FLAT:
        pass
    elif scen == WARPED_S2:
        s = np.sin(x[1])
        c = np.cos(x[1])
        amp = par[0]
        dG[1, 0, 0] = 2.0 * s * c * (1.0 + amp * s) + s * s * amp * c
    else:
        dG[1, 0, 0] = np.sin(2.0 * x[1])
    return dG


@njit(cache=True)
def killing(scen, par, x):
    """Killing operator at x as a (dim M, dim g) matrix of chart components.

    Column k is the action field of the k-th orthonormal algebra basis
    element.  For the circle actions the single column is the coordinate
    field of the orbit coordinate; for the rotation action on the sphere
    the columns are the three rotation fields in polar coordinates.
    """
    if scen == SU2_S2:
        K = np.zeros((2, 3))
        ct = np.cos(x[0])
        st = np.sin(x[0])
        cot = np.cos(x[1]) / np.sin(x[1])
        K[0, 0] = -ct * cot
        K[1, 0] = -st
        K[0, 1] = -st * cot
        K[1, 1] = ct
        K[0, 2] = 1.0
        return K
    if scen == S3_HOPF:
        K = np.zeros((3, 1))
        K[0, 0] = 1.0
        K[1, 0] = 1.0
        return K
    K = np.zeros((2, 1))
    K[0, 0] = 1.0
    return K


@njit(cache=True)
def solve_lin(A, B):
    """Solve A X = B by Gauss elimination with partial pivoting.

    Sized for the tiny systems of this package (n <= 4).  Singular input
    returns an all-NaN array instead of raising.
    """
    n = A.shape[0]
    m = B.shape[1]
    M = A.copy()
    X = B.copy()
    for k in range(n):
        p = k
        best = abs(M[k, k])
        for i in range(k + 1, n):
            cand = abs(M[i, k])
            if cand > best:
                best = cand
                p = i
        if best == 0.0:
            return np.full((n, m), np.nan)
        if p != k:
            for j in range(n):
                tmp = M[k, j]
                M[k, j] = M[p, j]
                M[p, j] = tmp
            for j in range(m):
                tmp = X[k, j]
                X[k, j] = X[p, j]
                X[p, j] = tmp
        piv = M[k, k]
        for i in range(k + 1, n):
            f = M[i, k] / piv
            if f != 0.0:
                for j in range(k, n):
                    M[i, j] -= f * M[k, j]
                for j in range(m):
                    X[i, j] -= f * X[k, j]
    for k in range(n - 1, -1, -1):
        for j in range(m):
            s = X[k, j]
            for i in range(k + 1, n):
                s -= M[k, i] * X[i, j]
            X[k, j] = s / M[k, k]
    return X


@njit(cache=True)
def inv_mat(A):
    return solve_lin(A, np.eye(A.shape[0]))


@njit(cache=True)
def chol_lower(P):
    """Lower Cholesky factor; all-NaN on non-positive pivot."""
    n = P.shape[0]
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s = P[i, j]
            for k in range(j):
                s -= L[i, k] * L[j, k]
            if i == j:
                if s <= 0.0:
                    return np.full((n, n), np.nan)
                L[i, i] = np.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


@njit(cache=True)
def sym2(A):
    return 0.5 * (A + A.T)


@njit(cache=True)
def m_basis(scen, K, sigma_tol):
    """Split the algebra into isotropy and its complement at a point.

    Returns (mb, iso, status): mb has orthonormal columns spanning the
    complement of the kernel of K (coefficient space), iso spans the
    kernel.  status is DEGENERATE when a singular value sits inside the
    ambiguity band [0.1, 10] * sigma_tol * sigma_max, or when K vanishes.
    """
    d = K.shape[0]
    ng = K.shape[1]
    if ng == 1:
        nrm2 = 0.0
        for i in range(d):
            nrm2 += K[i, 0] * K[i, 0]
        mb = np.zeros((1, 1))
        mb[0, 0] = 1.0
        iso = np.zeros((1, 0))
        if nrm2 <= 1e-24:
            return mb, iso, DEGENERATE
        return mb, iso, OK
    u, s, vt = np.linalg.svd(K)
    smax = s[0]
    if smax <= 1e-300:
        return np.zeros((ng, 1)), np.zeros((ng, ng - 1)), DEGENERATE
    thr = sigma_tol * smax
    r = 0
    for i in range(s.shape[0]):
        if s[i] > thr:
            r += 1
        if 0.1 * thr <= s[i] <= 10.0 * thr:
            return np.zeros((ng, 1)), np.zeros((ng, ng - 1)), DEGENERATE
    mb = np.zeros((ng, r))
    iso = np.zeros((ng, ng - r))
    for c in range(r):
        # fix sign: first non-negligible entry positive, so the basis is
        # a deterministic smooth-enough choice along FD stencils
        flip = 1.0
        for i in range(ng):
            if abs(vt[c, i]) > 1e-12:
                if vt[c, i] < 0.0:
                    flip = -1.0
                break
        for i in range(ng):
            mb[i, c] = flip * vt[c, i]
    for c in range(ng - r):
        flip = 1.0
        for i in range(ng):
            if abs(vt[r + c, i]) > 1e-12:
                if vt[r + c, i] < 0.0:
                    flip = -1.0
                break
        for i in range(ng):
            iso[i, c] = flip * vt[r + c, i]
    return mb, iso, OK


@njit(cache=True)
def orbit_data(scen, par, x, sigma_tol):
    """Metric, Killing operator, algebra split and orbit tensor at x."""
    G = gm_metric(scen, par, x)
    K = killing(scen, par, x)
    mb, iso, status = m_basis(scen, K, sigma_tol)
    A = K @ mb
    P = sym2(A.T @ (G @ A))
    return G, K, mb, iso, A, P, status

# gram-schmidt acceptance threshold for squared residual norms; metrics in
# the catalogue are O(1) so this cleanly separates consumed basis vectors
# (residual ~1e-16) from genuinely horizontal ones (residual ~1)
_GS_EPS = 1e-12


@njit(cache=True)
def adapted_frame(G, A):
    """Orthonormal frame adapted to the orbit: columns 0..r-1 span the
    vertical space (G-orthonormal, derived from A by Cholesky), the rest
    complete it with G-orthonormalised chart directions taken in fixed
    order with a deterministic sign.

    Returns (F, L, status) with L the Cholesky factor of the orbit tensor.
    """
    d = G.shape[0]
    r = A.shape[1]
    F = np.zeros((d, d))
    P = sym2(A.T @ (G @ A))
    L = chol_lower(P)
    if np.isnan(L[0, 0]):
        return np.full((d, d), np.nan), L, FRAME_FAIL
    Z = solve_lin(L, A.T)
    for c in range(r):
        for i in range(d):
            F[i, c] = Z[c, i]
    nacc = 0
    for j in range(d):
        if nacc == d - r:
            break
        w = np.zeros(d)
        w[j] = 1.0
        # project out accepted columns twice for numerical orthogonality
        for _ in range(2):
            for c in range(r + nacc):
                coef = 0.0
                for i in range(d):
                    gi = 0.0
                    for k in range(d):
                        gi += G[i, k] * F[k, c]
                    coef += w[i] * gi
                for i in range(d):
                    w[i] -= coef * F[i, c]
        nn = 0.0
        for i in range(d):
            gi = 0.0
            for k in range(d):
                gi += G[i, k] * w[k]
            nn += w[i] * gi
        if nn > _GS_EPS:
            inv = 1.0 / np.sqrt(nn)
            flip = 1.0
            for i in range(d):
                if abs(w[i]) * inv > 1e-12:
                    if w[i] < 0.0:
                        flip = -1.0
                    break
            for i in range(d):
                F[i, r + nacc] = flip * inv * w[i]
            nacc += 1
    if nacc < d - r:
        return np.full((d, d), np.nan), L, FRAME_FAIL
    return F, L, OK


@njit(cache=True)
def _rank_update(scen, par, tag, l, x, sigma_tol):
    """Shared pieces of the rank update G_v = G - W Y(P) W^T at x.

    W = G A and P = A^T G A come from the orbit data; Y(P) is
    (l^2 + P)^{-1} for CHEEGER_CLOSED, P^{-1} - (l^2 + P)^{-1} P^{-1} for
    RESCALED and P^{-1} - P^{-2} for LIMIT.  Returns
    (G, A, mb, W, Y, Pi, Mi, ok) with Pi = P^{-1} and Mi = (l^2 + P)^{-1}
    (Mi = Pi for LIMIT).  ok is False when the algebra split is
    degenerate or P fails the Cholesky positivity gate.
    """
    G, K, mb, iso, A, P, status = orbit_data(scen, par, x, sigma_tol)
    W = G @ A
    if status != OK or np.isnan(chol_lower(P)[0, 0]):
        return G, A, mb, W, P, P, P, False
    Pi = inv_mat(P)
    if tag == LIMIT:
        Mi = Pi
        Y = Pi - Pi @ Pi
    else:
        Mi = inv_mat(P + (l * l) * np.eye(P.shape[0]))
        if tag == CHEEGER_CLOSED:
            Y = Mi
        else:
            Y = Pi - Mi @ Pi
    return G, A, mb, W, Y, Pi, Mi, True


@njit(cache=True)
def killing_dx(scen, par, x):
    """Analytic first chart derivatives dK[m, i, k] = d_m K_ik of the
    Killing operator.  Only the rotation action on the sphere has
    non-constant action fields; the circle actions give zero."""
    d = manifold_dim(scen)
    dK = np.zeros((d, d, group_dim(scen)))
    if scen == SU2_S2:
        ct = np.cos(x[0])
        st = np.sin(x[0])
        cot = np.cos(x[1]) / np.sin(x[1])
        csc2 = 1.0 / (np.sin(x[1]) * np.sin(x[1]))
        dK[0, 0, 0] = st * cot
        dK[0, 1, 0] = -ct
        dK[0, 0, 1] = -ct * cot
        dK[0, 1, 1] = -st
        dK[1, 0, 0] = ct * csc2
        dK[1, 0, 1] = st * csc2
    return dK


@njit(cache=True)
def variant_metric(scen, par, tag, l, x, sigma_tol):
    """Chart components of the selected metric variant at x.

    ORIGINAL is the base metric.  CHEEGER goes through the deformation
    reparametrisation (inverse of the Cheeger map applied to the product
    metric).  CHEEGER_CLOSED, RESCALED and LIMIT share the independent
    closed rank update G_v = G - W Y(P) W^T of _rank_update.

    Failures (degenerate orbit rank, an orbit tensor that fails the
    Cholesky gate, blown-up conditioning) poison the result with NaN.
    """
    d = manifold_dim(scen)
    if tag == ORIGINAL:
        return gm_metric(scen, par, x)
    if tag != CHEEGER:
        G, A, mb, W, Y, Pi, Mi, ok = _rank_update(scen, par, tag, l, x, sigma_tol)
        if not ok:
            return np.full((d, d), np.nan)
        return sym2(G - W @ (Y @ W.T))
    G, K, mb, iso, A, P, status = orbit_data(scen, par, x, sigma_tol)
    if status != OK:
        return np.full((d, d), np.nan)
    kap = A.T @ G
    C = (A @ kap) / (l * l) + np.eye(d)
    Ci = inv_mat(C)
    nc = 0.0
    ni = 0.0
    for i in range(d):
        for j in range(d):
            nc += C[i, j] * C[i, j]
            ni += Ci[i, j] * Ci[i, j]
    if not (np.sqrt(nc * ni) < 1e12):
        return np.full((d, d), np.nan)
    inner = (kap.T @ kap) / (l * l) + G
    return sym2(Ci.T @ (inner @ Ci))


@njit(cache=True)
def _rank_update_dx(scen, par, tag, l, x, sigma_tol):
    """Exact first chart derivatives of the rank update by the product
    rule, with dP^{-1} = -P^{-1} dP P^{-1} and likewise for (l^2 + P)^{-1}.

    d_m A is taken as (d_m K) mb with mb frozen at x.  K Q = K for the
    orthogonal projector Q onto the isotropy complement, so the basis
    Q(y) mb(x) gives A(y) = K(y) mb(x); that basis is orthonormal at x
    and stays so to first order, because n^T mb = 0 for the isotropy
    directions n.  The sign-fixed SVD basis of m_basis is therefore
    never differentiated.
    """
    d = manifold_dim(scen)
    G, A, mb, W, Y, Pi, Mi, ok = _rank_update(scen, par, tag, l, x, sigma_tol)
    if not ok:
        return np.full((d, d, d), np.nan)
    dG = gm_metric_dx(scen, par, x)
    dK = killing_dx(scen, par, x)
    out = np.zeros((d, d, d))
    for m in range(d):
        if not (np.any(dG[m]) or np.any(dK[m])):
            # W, and with it every term, is constant along this axis
            continue
        dA = dK[m] @ mb
        dW = dG[m] @ A + G @ dA
        dP = sym2(A.T @ dW + dA.T @ W)
        dPi = -(Pi @ (dP @ Pi))
        if tag == LIMIT:
            dY = dPi - dPi @ Pi - Pi @ dPi
        else:
            dMi = -(Mi @ (dP @ Mi))
            if tag == CHEEGER_CLOSED:
                dY = dMi
            else:
                dY = dPi - dMi @ Pi - Mi @ dPi
        B = dW @ (Y @ W.T)
        out[m] = sym2(dG[m] - B - B.T - W @ (dY @ W.T))
    return out


@njit(cache=True)
def variant_metric_dx(scen, par, tag, l, x, h, analytic, sigma_tol):
    """First chart derivatives dG[m, i, j] = d_m g_ij of a metric variant.

    With analytic set, ORIGINAL uses the catalogued derivative and the
    rank-update tags (CHEEGER_CLOSED, RESCALED, LIMIT) the exact product
    rule of _rank_update_dx.  CHEEGER, and every tag when analytic is
    unset, uses fourth-order central differences with one level of
    Richardson extrapolation (effective order six); that path is the
    oracle for the analytic one.
    """
    d = manifold_dim(scen)
    if analytic and tag == ORIGINAL:
        return gm_metric_dx(scen, par, x)
    if analytic and tag != CHEEGER:
        return _rank_update_dx(scen, par, tag, l, x, sigma_tol)
    dG = np.zeros((d, d, d))
    xt = x.copy()
    for m in range(d):
        base = x[m]
        xt[m] = base - 2.0 * h
        fm2 = variant_metric(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base - h
        fm1 = variant_metric(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base - 0.5 * h
        fmh = variant_metric(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base + 0.5 * h
        fph = variant_metric(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base + h
        fp1 = variant_metric(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base + 2.0 * h
        fp2 = variant_metric(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base
        for i in range(d):
            for j in range(d):
                d1 = (fm2[i, j] - 8.0 * fm1[i, j] + 8.0 * fp1[i, j] - fp2[i, j]) / (12.0 * h)
                d2 = (fm1[i, j] - 8.0 * fmh[i, j] + 8.0 * fph[i, j] - fp1[i, j]) / (6.0 * h)
                dG[m, i, j] = (16.0 * d2 - d1) / 15.0
    return dG


@njit(cache=True)
def christoffel(scen, par, tag, l, x, h, analytic, sigma_tol):
    """Christoffel symbols Gamma[k, i, j] of a metric variant at x."""
    d = manifold_dim(scen)
    G = variant_metric(scen, par, tag, l, x, sigma_tol)
    dG = variant_metric_dx(scen, par, tag, l, x, h, analytic, sigma_tol)
    Gi = inv_mat(G)
    # first-kind symbols T[n, i, j] = d_i g_nj + d_j g_ni - d_n g_ij,
    # then one matrix product raises the index
    T = np.zeros((d, d, d))
    for n in range(d):
        T[n] = dG[:, n, :] + dG[:, n, :].T - dG[n]
    return 0.5 * (Gi @ T.reshape(d, d * d)).reshape(d, d, d)


@njit(cache=True)
def _geodesic_acc(scen, par, tag, l, x, v, h, analytic, sigma_tol):
    d = x.shape[0]
    Gam = christoffel(scen, par, tag, l, x, h, analytic, sigma_tol)
    return -((Gam.reshape(d * d, d) @ v).reshape(d, d) @ v)


@njit(cache=True)
def _inside_box(x, lo, hi, periodic, margin):
    for m in range(x.shape[0]):
        if periodic[m] == 0:
            if x[m] < lo[m] + margin or x[m] > hi[m] - margin:
                return False
    return True


@njit(cache=True)
def geodesic_rk4(scen, par, tag, l, x0, v0, n_steps, dt, h, analytic,
                 lo, hi, periodic, sigma_tol):
    """Integrate the geodesic equation with classical RK4.

    Trajectory rows are (position, velocity).  Integration stops early
    with status LEFT_DOMAIN when the position leaves the chart box (with
    an FD-stencil safety margin) and NUMERIC_FAIL on NaN.  Returns
    (trajectory, status, steps_completed).
    """
    d = x0.shape[0]
    traj = np.zeros((n_steps + 1, 2 * d))
    for i in range(d):
        traj[0, i] = x0[i]
        traj[0, d + i] = v0[i]
    x = x0.copy()
    v = v0.copy()
    margin = 3.0 * h
    status = OK
    done = n_steps
    for step in range(n_steps):
        if not _inside_box(x, lo, hi, periodic, margin):
            status = LEFT_DOMAIN
            done = step
            break
        k1x = v
        k1v = _geodesic_acc(scen, par, tag, l, x, v, h, analytic, sigma_tol)
        x2 = x + 0.5 * dt * k1x
        v2 = v + 0.5 * dt * k1v
        k2v = _geodesic_acc(scen, par, tag, l, x2, v2, h, analytic, sigma_tol)
        x3 = x + 0.5 * dt * v2
        v3 = v + 0.5 * dt * k2v
        k3v = _geodesic_acc(scen, par, tag, l, x3, v3, h, analytic, sigma_tol)
        x4 = x + dt * v3
        v4 = v + dt * k3v
        k4v = _geodesic_acc(scen, par, tag, l, x4, v4, h, analytic, sigma_tol)
        nx = x + (dt / 6.0) * (k1x + 2.0 * v2 + 2.0 * v3 + v4)
        nv = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        bad = False
        for i in range(d):
            if np.isnan(nx[i]) or np.isnan(nv[i]):
                bad = True
        if bad:
            status = NUMERIC_FAIL
            done = step
            break
        x = nx
        v = nv
        for i in range(d):
            traj[step + 1, i] = x[i]
            traj[step + 1, d + i] = v[i]
    return traj, status, done


@njit(cache=True)
def _pair_sup(G, F, Delta, dirs):
    """Sup of |Delta(u, v)| over g_M-unit pairs: all adapted-frame pairs
    plus the supplied seeded pairs (normalised in G)."""
    d = G.shape[0]
    best = 0.0
    for a in range(d):
        for b in range(d):
            s = 0.0
            for i in range(d):
                for j in range(d):
                    s += F[i, a] * Delta[i, j] * F[j, b]
            if abs(s) > best:
                best = abs(s)
    for p in range(dirs.shape[0]):
        nu = 0.0
        nv = 0.0
        s = 0.0
        for i in range(d):
            for j in range(d):
                nu += dirs[p, 0, i] * G[i, j] * dirs[p, 0, j]
                nv += dirs[p, 1, i] * G[i, j] * dirs[p, 1, j]
                s += dirs[p, 0, i] * Delta[i, j] * dirs[p, 1, j]
        val = abs(s) / np.sqrt(nu * nv)
        if val > best:
            best = val
    return best


@njit(cache=True)
def c0_block(scen, par, tag_a, l_a, tag_b, l_b, pts, dirs, sigma_tol):
    """C0 distance of two variants over a sample plan.

    Sup over plan points and unit direction pairs (adapted frame plus the
    per-point seeded pairs) of |(g_a - g_b)(u, v)| with unit length and
    the frame both measured in g_M.  NaN if any pipeline evaluation fails.
    """
    best = 0.0
    for n in range(pts.shape[0]):
        x = pts[n]
        G, K, mb, iso, A, P, status = orbit_data(scen, par, x, sigma_tol)
        if status != OK:
            return np.nan
        F, L, fstatus = adapted_frame(G, A)
        if fstatus != OK:
            return np.nan
        Ga = variant_metric(scen, par, tag_a, l_a, x, sigma_tol)
        Gb = variant_metric(scen, par, tag_b, l_b, x, sigma_tol)
        Delta = Ga - Gb
        if np.isnan(Delta[0, 0]):
            return np.nan
        val = _pair_sup(G, F, Delta, dirs[n])
        if val > best:
            best = val
    return best


@njit(cache=True)
def c1_block(scen, par, tag_a, l_a, tag_b, l_b, pts, h, sigma_tol):
    """Derivative part of the C1 distance: sup over plan points, chart
    coordinates and components of d_m (g_a - g_b)_ij, with the analytic
    derivatives of variant_metric_dx (Richardson FD for CHEEGER)."""
    d = manifold_dim(scen)
    best = 0.0
    for n in range(pts.shape[0]):
        dA = variant_metric_dx(scen, par, tag_a, l_a, pts[n], h, True, sigma_tol)
        dB = variant_metric_dx(scen, par, tag_b, l_b, pts[n], h, True, sigma_tol)
        for m in range(d):
            for i in range(d):
                for j in range(d):
                    val = abs(dA[m, i, j] - dB[m, i, j])
                    if np.isnan(val):
                        return np.nan
                    if val > best:
                        best = val
    return best


@njit(cache=True)
def gap_block(scen, par, l, pts, sigma_tol):
    """Sup over the plan of the normal-homogeneous pullback residual.

    At each point pulls the rescaled metric back along the orbit map to
    the orthonormal algebra complement basis and measures the max-abs
    deviation from the bi-invariant identity block.
    """
    best = 0.0
    for n in range(pts.shape[0]):
        x = pts[n]
        G, K, mb, iso, A, P, status = orbit_data(scen, par, x, sigma_tol)
        if status != OK:
            return np.nan
        r = A.shape[1]
        Gr = variant_metric(scen, par, RESCALED, l, x, sigma_tol)
        M = A.T @ (Gr @ A)
        for a in range(r):
            for b in range(r):
                ref = 1.0 if a == b else 0.0
                val = abs(M[a, b] - ref)
                if np.isnan(val):
                    return np.nan
                if val > best:
                    best = val
    return best


@njit(cache=True)
def variant_vertical_frame(scen, par, tag, l, x, sigma_tol):
    """Vertical frame columns, orthonormal in the selected variant."""
    d = manifold_dim(scen)
    G, K, mb, iso, A, P, status = orbit_data(scen, par, x, sigma_tol)
    if status != OK:
        return np.full((d, A.shape[1]), np.nan)
    Gt = variant_metric(scen, par, tag, l, x, sigma_tol)
    Pv = sym2(A.T @ (Gt @ A))
    L = chol_lower(Pv)
    if np.isnan(L[0, 0]):
        return np.full((d, A.shape[1]), np.nan)
    Z = solve_lin(L, A.T)
    return Z.T.copy()


@njit(cache=True)
def t_tensor_norm(scen, par, tag, l, x, h, sigma_tol):
    """Norm of the fundamental tensor T on vertical pairs at x.

    Builds a variant-orthonormal vertical frame field, differentiates it
    by Richardson FD, forms nabla_{V_a} V_b through the variant
    Christoffel symbols, projects horizontally and takes the max variant
    norm over frame pairs.  Orbits of full dimension have no horizontal
    space and give exactly 0.
    """
    d = manifold_dim(scen)
    V = variant_vertical_frame(scen, par, tag, l, x, sigma_tol)
    r = V.shape[1]
    if np.isnan(V[0, 0]):
        return np.nan
    if d == r:
        return 0.0
    Gt = variant_metric(scen, par, tag, l, x, sigma_tol)
    Gam = christoffel(scen, par, tag, l, x, h, False, sigma_tol)
    dV = np.zeros((d, d, r))
    xt = x.copy()
    for m in range(d):
        base = x[m]
        xt[m] = base - 2.0 * h
        fm2 = variant_vertical_frame(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base - h
        fm1 = variant_vertical_frame(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base - 0.5 * h
        fmh = variant_vertical_frame(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base + 0.5 * h
        fph = variant_vertical_frame(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base + h
        fp1 = variant_vertical_frame(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base + 2.0 * h
        fp2 = variant_vertical_frame(scen, par, tag, l, xt, sigma_tol)
        xt[m] = base
        for i in range(d):
            for c in range(r):
                d1 = (fm2[i, c] - 8.0 * fm1[i, c] + 8.0 * fp1[i, c] - fp2[i, c]) / (12.0 * h)
                d2 = (fm1[i, c] - 8.0 * fmh[i, c] + 8.0 * fph[i, c] - fp1[i, c]) / (6.0 * h)
                dV[m, i, c] = (16.0 * d2 - d1) / 15.0
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


@njit(cache=True)
def t_pair_block(scen, par, tag, l, pts, h, sigma_tol):
    """Per-point T-tensor norms for a variant and for the base metric."""
    n = pts.shape[0]
    vals_var = np.zeros(n)
    vals_orig = np.zeros(n)
    for i in range(n):
        vals_var[i] = t_tensor_norm(scen, par, tag, l, pts[i], h, sigma_tol)
        vals_orig[i] = t_tensor_norm(scen, par, ORIGINAL, 0.0, pts[i], h, sigma_tol)
    return vals_var, vals_orig


@njit(cache=True)
def oracle_block(scen, par, pts, ls, sigma_tol):
    """Max componentwise disagreement between the two deformation routes
    over paired samples (point, deformation parameter)."""
    d = manifold_dim(scen)
    best = 0.0
    for n in range(pts.shape[0]):
        G1 = variant_metric(scen, par, CHEEGER, ls[n], pts[n], sigma_tol)
        G2 = variant_metric(scen, par, CHEEGER_CLOSED, ls[n], pts[n], sigma_tol)
        for i in range(d):
            for j in range(d):
                val = abs(G1[i, j] - G2[i, j])
                if np.isnan(val):
                    return np.nan
                if val > best:
                    best = val
    return best
