"""Test oracles: plain pointwise restatements of what the package
computes in stacks or in closed form, each with one code path: the
Lie-algebra identities of a basis, group membership, the exponential of
one algebra vector, the elements of a stack one at a time, finite-difference
derivatives of the action and of matrix fields with the relative
error of exact derivatives against them, the pullback of a metric
field, the C^0 sup of a metric difference at one point with a
lower bound of it from seeded direction pairs, the closed-form
cometrics (inverse metrics) of the deformed family with the closed-form
geodesics of the deformed metric, each scenario record pulled back
through a sheared chart, in which no action is a coordinate shift, two
records that break it on purpose (a zero Killing derivative, a metric
term the action does not preserve), and a torus record whose rank-2
orbit tensor turns and has crossing eigenvalues.
"""

import dataclasses

import numpy as np

from cheegerdef import _kernels as _k
from cheegerdef.gmanifold import SIGMA_TOL, Chart
from cheegerdef.lie_core import GroupElement, _quat_left_mult, closed_form_exp, get_group
from cheegerdef.scenarios import Scenario


class AlgebraClosureError(ValueError):
    """A commutator failed to project back onto the algebra basis."""


def structure_constants_from_basis(basis, tol=1e-10):
    """c[i, j, m] with [k_i, k_j] = sum_m c[i, j, m] k_m, by least squares;
    AlgebraClosureError when a commutator leaves the span of the basis."""
    n = len(basis)
    cols = np.stack([b.ravel() for b in basis], axis=1)
    comms = np.stack([(a @ b - b @ a).ravel() for a in basis for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(cols, comms, rcond=None)
    resid = float(np.max(np.linalg.norm(cols @ coeffs - comms, axis=0)))
    if resid > tol:
        raise AlgebraClosureError(f"matrix is not in the algebra span (residual {resid:.3e})")
    return coeffs.T.reshape(n, n, n)


def basis_rank(basis) -> int:
    """Rank of the Gram matrix of the basis matrices: their number when
    they are linearly independent."""
    gram = np.array([[np.sum(a * b) for b in basis] for a in basis])
    return int(np.linalg.matrix_rank(gram, tol=1e-10))


def antisymmetry_residual(c) -> float:
    return float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))


def jacobi_residual(c) -> float:
    """Max violation of the Jacobi identity in coefficient form."""
    total = (np.einsum("ijm,mkn->ijkn", c, c) + np.einsum("jkm,min->ijkn", c, c)
             + np.einsum("kim,mjn->ijkn", c, c))
    return float(np.max(np.abs(total)))


def ad_invariance_residual(c, B) -> float:
    """Max violation of B([a,x], y) + B(x, [a,y]) = 0 on basis triples."""
    return float(np.max(np.abs(np.einsum("aim,mj->aij", c, B)
                               + np.einsum("ajm,im->aij", c, B))))


def membership_residual(group, M) -> float:
    """Distance of M from the model group, 0 for genuine elements:
    orthogonality plus the block shape of the torus, the
    left-multiplication shape of the quaternion model and the
    orientation of the rotation models."""
    M = np.asarray(M, dtype=float)
    resid = [np.max(np.abs(M.T @ M - np.eye(len(M))))]
    if group.group_id == "u1":
        resid.append(abs(np.linalg.det(M) - 1.0))
    elif group.group_id == "t2":
        resid += [np.max(np.abs(M[:2, 2:])), np.max(np.abs(M[2:, :2])),
                  abs(np.linalg.det(M[:2, :2]) - 1.0), abs(np.linalg.det(M[2:, 2:]) - 1.0)]
    elif group.group_id == "su2":
        # first column is the quaternion; rebuild left multiplication
        resid.append(np.max(np.abs(M - _quat_left_mult(M[:, 0]))))
    return float(max(resid))


def group_exp(group, coeffs, t=1.0):
    """The group element exp(t X) of the algebra vector coeffs, one
    element at a time."""
    return GroupElement(group.group_id, closed_form_exp(t * group.algebra.element(coeffs)))


def each_element(stack):
    """The elements of a stacked GroupElement, one at a time."""
    return [GroupElement(stack.group_id, M) for M in stack.matrix]


def fd_relative_error(exact, fd):
    """Worst point of the max deviation of exact derivatives from their
    finite-difference oracle, relative to the larger of 1 and the FD
    values at that point.

    The catalogue's metrics are O(1), and the FD side carries rounding
    noise of about eps / h times the metric, so components that vanish
    are measured against the metric's scale.  The last three axes are
    one point's components; the leading axes index the points (and the
    l values).
    """
    axes = (-3, -2, -1)
    scale = np.maximum(1.0, np.max(np.abs(fd), axis=axes))
    return float(np.max(np.max(np.abs(exact - fd), axis=axes) / scale))


def central_difference(f, h):
    """Fourth-order central difference of a function of one real
    variable at 0."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def richardson_dx(f, x, h=1e-4):
    """First chart derivatives (d, ...) of the matrix field f at x:
    central differences with one Richardson level."""
    out = []
    for e in np.eye(len(x)):
        g = lambda s: f(x + s * e)
        out.append((16.0 * central_difference(g, 0.5 * h) - central_difference(g, h)) / 15.0)
    return np.array(out)


def killing_operator(scenario, x, h_act=1e-5):
    """Killing operator at x as a (dim M, dim g) matrix: the action
    differentiated along the one-parameter subgroups of the basis."""
    x = scenario.chart.require_inside(x)
    group = scenario.group
    return np.stack([central_difference(lambda t: scenario.act(group_exp(group, e, t), x), h_act)
                     for e in np.eye(group.algebra.dim)], axis=1)


def fd_action_jacobian(scenario, g, x, h=1e-6):
    """Finite-difference chart Jacobian of the transformation by g."""
    return np.stack([central_difference(lambda s: scenario.act(g, x + s * e), h)
                     for e in np.eye(scenario.dim)], axis=1)


def action_pullback_metric(scenario, g, matrix_fn, x):
    """Pullback of the metric field matrix_fn along the transformation by
    g at one point x, with the catalogued Jacobian; the field is
    invariant when it equals matrix_fn(x)."""
    J = scenario.action_jacobian(g, x)
    return J.T @ matrix_fn(scenario.act(g, x)) @ J


def _base_frame(scenario, x):
    """Base metric G and adapted frame F (G-orthonormal) at one point x."""
    orbit = _k.orbit_data(scenario, scenario.params, x, SIGMA_TOL)
    F = _k.adapted_frame(orbit)
    assert not np.isnan(F).any(), f"adapted frame failed at {x.tolist()}"
    return orbit.G, F


def spectral_sup(scenario, delta, x) -> float:
    """C^0 value of the difference matrix delta at one point x: the sup of
    |delta(u, v)| over u, v of unit base-metric length, the largest
    singular value of F^T delta F (an SVD, not the blocks' eigvalsh)."""
    _G, F = _base_frame(scenario, x)
    return float(np.linalg.norm(F.T @ delta @ F, 2))


def pair_sup(scenario, delta, x, dirs) -> float:
    """Lower bound of the C^0 value of delta at one point x: the sup of
    |delta(u, v)| over the pairs of the adapted frame and over the
    seeded pairs dirs (p, 2, d), each vector of unit base-metric length.
    Exact only where F^T delta F attains its spectral norm in one entry."""
    G, F = _base_frame(scenario, x)
    best = float(np.max(np.abs(F.T @ delta @ F)))
    for u, v in dirs:
        best = max(best, abs(u @ delta @ v) / np.sqrt((u @ G @ u) * (v @ G @ v)))
    return best


def cometric(orbit, tag, l, power=2):
    """Closed-form inverse of a metric variant at the points of an
    OrbitData record, from the base metric's inverse and the orbit
    fields alone.

    The deformed metric (either route) is G^-1 + l^-2 K K^T, the limit
    G^-1 - A P^-1 A^T + A A^T, and the rescaled metric the limit plus
    l^2 A P^-1 A^T.  power replaces the exponent 2 of l, so that power=1
    is the l-for-l^2 negative control."""
    Gi = np.linalg.inv(orbit.G)
    vertical = orbit.A @ np.linalg.inv(orbit.P) @ orbit.A.mT
    if tag in (_k.CHEEGER, _k.CHEEGER_CLOSED):
        return Gi + orbit.K @ orbit.K.mT / l**power
    limit = Gi - vertical + orbit.A @ orbit.A.mT
    if tag == _k.LIMIT:
        return limit
    return limit + l**power * vertical


def cometric_distance(G, g_resc, g_lim, l, power=2):
    """Per-point base-metric operator norm of the cometric difference
    g_resc^-1 - g_lim^-1 over l^2: with G = L L^T, the spectral norm of
    L^T (g_resc^-1 - g_lim^-1) L / l^2.  power replaces the exponent 2 of
    l (power=1 is the negative control)."""
    L = np.linalg.cholesky(G)
    D = L.mT @ (np.linalg.inv(g_resc) - np.linalg.inv(g_lim)) @ L
    return np.linalg.norm(D, 2, axis=(-2, -1)) / l**power


@dataclasses.dataclass(frozen=True)
class Shear:
    """The chart change y = x + amplitude sin(x[source]) e[target] in
    closed form, source != target, with its first two derivatives.  Its
    inverse is the shear of opposite amplitude, since it leaves
    x[source] alone.  Each function takes a point or a stack (..., d)."""

    target: int
    source: int
    amplitude: float

    def __call__(self, x):
        y = np.array(x, dtype=float)
        y[..., self.target] += self.amplitude * np.sin(y[..., self.source])
        return y

    @property
    def inverse(self):
        return Shear(self.target, self.source, -self.amplitude)

    def jac(self, x):
        """D psi (..., d, d), [i, j] = d_j psi_i."""
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        # the identity written through the flat entries, the cheapest
        # way to build a small stack of them
        J = np.zeros(x.shape[:-1] + (d * d,))
        J[..., ::d + 1] = 1.0
        J = J.reshape(x.shape[:-1] + (d, d))
        J[..., self.target, self.source] = self.amplitude * np.cos(x[..., self.source])
        return J

    def hess(self, x):
        """D^2 psi (..., d, d, d), [i, j, k] = d_j d_k psi_i."""
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        H = np.zeros(x.shape[:-1] + (d, d, d))
        H[..., self.target, self.source, self.source] = (
            -self.amplitude * np.sin(x[..., self.source]))
        return H

    def box(self, lo, hi, periodic):
        """The largest box (lo, hi) of y whose preimage lies in the x box:
        a sheared axis that is not periodic shrinks by the amplitude."""
        shrink = np.zeros(len(lo))
        if not periodic[self.target]:
            shrink[self.target] = abs(self.amplitude)
        return lo + shrink, hi - shrink


# each catalogued scenario's chart change: an axis that the action does
# not move, sheared by a function of one that it does
SHEARS = {
    "s2_band": Shear(1, 0, 0.15),
    "warped_s2": Shear(1, 0, 0.15),
    "s3_hopf": Shear(2, 0, 0.1),
    "su2_s2": Shear(1, 0, 0.15),
    "t2_flat": Shear(1, 0, 0.15),
}


def pulled_back_ids(sids):
    """The record ids of the pulled-back scenarios sids: a catalogue-wide
    test adds them to its scenario parameter, and the conftest fixture
    record resolves them."""
    return tuple(f"{sid}.pulled_back" for sid in sids)


def _contract(J, T):
    """sum_k J[..., k, c] T[..., k, ...] as (..., c, ...): the first
    index of the stack T carried through the matrix J^T."""
    n = J.shape[-1]
    lead = J.shape[:-2]
    return (J.mT @ T.reshape(lead + (n, -1))).reshape(lead + (n,) + T.shape[len(lead) + 1:])


def pulled_back(scenario, psi):
    """The scenario record in the chart y = psi(x): the same geometry and
    action, with every chart-dependent field rebuilt by the chain rule.

    psi is a closed-form diffeomorphism: psi(x), its Jacobian psi.jac
    (D psi) and second derivatives psi.hess (D^2 psi), its inverse
    psi.inverse with the same three, and psi.box, which maps the chart
    box and the sampling region into the image of psi.  With
    phi = psi^-1 and x = phi(y): the metric is D phi^T g D phi, a
    Killing field K becomes D psi K, the action is psi . g . phi with
    Jacobian D psi(g x) J_g(x) D phi(y), and the orbit invariants and
    geodesic starts are composed with phi and psi.
    """
    phi = psi.inverse
    last = {}

    def jets(y):
        """x = phi(y), D phi(y), D^2 phi(y) as [..., c, a, i] = d_a d_c phi_i,
        D psi(x) and D^2 psi(x) as [..., l, i, j] = d_j d_l psi_i.  The
        kernels call the four fields of a record on the same points in
        turn, so the last point set's jets are kept, compared by value."""
        y = np.asarray(y, dtype=float)
        if "y" not in last or last["y"].shape != y.shape or not (last["y"] == y).all():
            x = phi(y)
            lead = tuple(range(y.ndim - 1))
            last["y"] = y.copy()
            last["jets"] = (x, phi.jac(y), phi.hess(y).transpose(lead + (-1, -2, -3)),
                            psi.jac(x), psi.hess(x).transpose(lead + (-1, -3, -2)))
        return last["jets"]

    def metric(par, y):
        x, Ji, *_ = jets(y)
        return Ji.mT @ scenario.metric(par, x) @ Ji

    def metric_dx(par, y):
        x, Ji, D2, *_ = jets(y)
        Jk = Ji[..., None, :, :]
        chained = _contract(Ji, Jk.mT @ scenario.metric_dx(par, x) @ Jk)
        moved = D2 @ (scenario.metric(par, x) @ Ji)[..., None, :, :]
        return chained + moved + moved.mT

    def killing(par, y):
        x, _, _, J, _ = jets(y)
        return J @ scenario.killing(par, x)

    def killing_dx(par, y):
        x, Ji, _, J, H = jets(y)
        # d_l (D psi K) as [..., l, i, k]
        dK = (H @ scenario.killing(par, x)[..., None, :, :]
              + J[..., None, :, :] @ scenario.killing_dx(par, x))
        return _contract(Ji, dK)

    def action(g, y):
        return psi(scenario.act(g, phi(y)))

    def jacobian(g, y):
        x = phi(y)
        return psi.jac(scenario.act(g, x)) @ scenario.action_jacobian(g, x) @ phi.jac(y)

    chart = scenario.chart
    lo, hi = psi.box(chart.lo, chart.hi, chart.periodic)
    region_lo, region_hi = psi.box(scenario.region_lo, scenario.region_hi, chart.periodic)
    start = scenario.start_from_transverse
    return dataclasses.replace(
        scenario,
        scenario_id=pulled_back_ids([scenario.scenario_id])[0],
        chart=Chart(labels=chart.labels, lo=lo, hi=hi, periodic=chart.periodic),
        action=action, jacobian=jacobian, metric=metric, metric_dx=metric_dx,
        killing=killing, killing_dx=killing_dx,
        orbit_invariants=lambda y: scenario.orbit_invariants(phi(y)),
        region_lo=region_lo, region_hi=region_hi,
        start_from_transverse=lambda c: psi(start(c)))


def zero_killing_derivative(scenario):
    """The record with a Killing derivative of zero: what a derivative
    rule that takes every circle action for a coordinate shift assumes.
    In a sheared chart its limit geodesics leave their orbits."""
    d = scenario.dim
    return dataclasses.replace(
        scenario, killing_dx=lambda par, x: np.zeros(x.shape[:-1] + (d, d, 1)))


def non_invariant_metric(scenario, eps):
    """The record with eps sin(y_1) added to g_22, with its derivative:
    where the action moves y_1, as in the sheared chart of s2_band, the
    term is not invariant."""

    def metric(par, y):
        g = scenario.metric(par, y)
        g[..., 1, 1] += eps * np.sin(y[..., 0])
        return g

    def metric_dx(par, y):
        dg = scenario.metric_dx(par, y)
        dg[..., 0, 1, 1] += eps * np.cos(y[..., 0])
        return dg

    return dataclasses.replace(scenario, metric=metric, metric_dx=metric_dx)


def _s2_embedding(x):
    """Point of the unit 2-sphere at chart point x = (theta, phi), and
    the chart Jacobian (3, 2) of the embedding there."""
    th, ph = x
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    return (np.array([sp * ct, sp * st, cp]),
            np.array([[-sp * st, cp * ct], [sp * ct, cp * st], [0.0, -sp]]))


def _s2_chart(p):
    return np.stack([np.arctan2(p[..., 1], p[..., 0]),
                     np.arccos(np.clip(p[..., 2], -1.0, 1.0))], axis=-1)


def _s3_embedding(x):
    """Point of the unit 3-sphere (cos eta e^{i xi1}, sin eta e^{i xi2})
    at chart point x = (xi1, xi2, eta), and the chart Jacobian (4, 3)."""
    x1, x2, eta = x
    c, s = np.cos(eta), np.sin(eta)
    return (np.array([c * np.cos(x1), c * np.sin(x1), s * np.cos(x2), s * np.sin(x2)]),
            np.array([[-c * np.sin(x1), 0.0, -s * np.cos(x1)],
                      [c * np.cos(x1), 0.0, -s * np.sin(x1)],
                      [0.0, -s * np.sin(x2), c * np.cos(x2)],
                      [0.0, s * np.cos(x2), c * np.sin(x2)]]))


def _s3_chart(p):
    return np.stack([np.arctan2(p[..., 1], p[..., 0]), np.arctan2(p[..., 3], p[..., 2]),
                     np.arctan2(np.hypot(p[..., 2], p[..., 3]),
                                np.hypot(p[..., 0], p[..., 1]))], axis=-1)


# the base metrics whose geodesics are great circles of a unit sphere
_SPHERES = {"s2_band": (_s2_embedding, _s2_chart), "s3_hopf": (_s3_embedding, _s3_chart)}


def base_geodesic(scenario, x0, u0, ts):
    """Chart points (len(ts), d) of the base-metric geodesic through x0
    with chart velocity u0, in closed form: a great circle on s2_band
    and s3_hopf, a straight line on the flat torus t2_flat.  Angles come
    back in (-pi, pi]."""
    ts = np.asarray(ts, dtype=float)[:, None]
    if scenario.scenario_id == "t2_flat":
        return x0 + ts * u0
    embed, chart = _SPHERES[scenario.scenario_id]
    p0, J = embed(x0)
    w = J @ u0
    s = np.linalg.norm(w)
    return chart(np.cos(s * ts) * p0 + np.sin(s * ts) * (w / s))


def cheeger_geodesic(scenario, x0, v0, l, ts, power=2):
    """Chart points (len(ts), d) of the g_l-geodesic through x0 with
    velocity v0: exp(t xi / l^2) . gamma(t), gamma the base geodesic
    with the same initial covector p0 = g_l v0 and xi = K^T p0 its
    momentum.  p0 comes from the closed-form cometric G^-1 + l^-2 K K^T,
    so only the record's metric, Killing operator and action enter.
    power replaces the exponent 2 of l (power=1 is the negative
    control)."""
    par = scenario.params
    G, K = scenario.metric(par, x0), scenario.killing(par, x0)
    p0 = np.linalg.solve(np.linalg.inv(G) + K @ K.T / l**2, v0)
    xi = K.T @ p0
    gamma = base_geodesic(scenario, x0, np.linalg.solve(G, p0), ts)
    return np.stack([scenario.act(group_exp(scenario.group, xi, t / l**power), y)
                     for t, y in zip(ts, gamma)])


# the turning torus: P(eta) = m I + (eta - c) S(2 w eta) with the
# reflection S(t) = [[cos t, sin t], [sin t, -cos t]], whose eigenvalues
# m +- (eta - c) cross at eta = c and whose eigenvectors turn at the rate w
_TURN_MEAN, _TURN_CROSSING, _TURN_RATE = 1.5, 1.0, 1.2


def _turning_block(eta):
    """Entries (P_00, P_01, P_11) of the turning block and their eta
    derivatives."""
    r, t = eta - _TURN_CROSSING, 2.0 * _TURN_RATE * eta
    c, s = np.cos(t), np.sin(t)
    dc, ds = c - 2.0 * _TURN_RATE * r * s, s + 2.0 * _TURN_RATE * r * c
    return (_TURN_MEAN + r * c, r * s, _TURN_MEAN - r * c), (dc, ds, -dc)


def _turning_metric(par, x):
    (p00, p01, p11), _ = _turning_block(x[..., 2])
    G = np.zeros(x.shape[:-1] + (3, 3))
    G[..., 0, 0], G[..., 1, 1], G[..., 2, 2] = p00, p11, 1.0
    G[..., 0, 1] = G[..., 1, 0] = p01
    return G


def _turning_metric_dx(par, x):
    _, (d00, d01, d11) = _turning_block(x[..., 2])
    dG = np.zeros(x.shape[:-1] + (3, 3, 3))
    dG[..., 2, 0, 0], dG[..., 2, 1, 1] = d00, d11
    dG[..., 2, 0, 1] = dG[..., 2, 1, 0] = d01
    return dG


def _torus_shift(g, x):
    """T^2 shifts x1 and x2 by the angles of its two rotation blocks."""
    M = g.matrix
    lead = M.shape[:-2] + (1,) * (np.ndim(x) - 1)
    y = np.array(np.broadcast_to(x, M.shape[:-2] + np.shape(x)), dtype=float)
    y[..., 0] += np.reshape(np.arctan2(M[..., 1, 0], M[..., 0, 0]), lead)
    y[..., 1] += np.reshape(np.arctan2(M[..., 3, 2], M[..., 2, 2]), lead)
    return y


def turning_torus():
    """A test record in which T^2 shifts the coordinates x1 and x2 of the
    chart (x1, x2, eta), with a metric that does not depend on them: the
    (x1, x2) block is the turning block P(eta) and g_eta,eta = 1.  So the
    orbit tensor is P(eta) in the Killing basis (e1, e2): on the default
    plan (eta = 0.5, 0.75, ..., 1.75) its eigenvectors turn by 1.5 rad
    and its eigenvalues 1.5 +- (eta - 1) cross at the plan's eta = 1,
    where P = 1.5 I.  The orbits are flat tori that are not totally
    geodesic.  The record is id t2_turning."""
    two_pi = 2 * np.pi
    return Scenario(
        scenario_id="t2_turning",
        group=get_group("t2"),
        chart=Chart(labels=("x1", "x2", "eta"), lo=np.array([0.0, 0.0, 0.3]),
                    hi=np.array([two_pi, two_pi, 2.0]),
                    periodic=np.array([True, True, False])),
        action=_torus_shift,
        jacobian=lambda g, x: np.broadcast_to(
            np.eye(3), g.matrix.shape[:-2] + np.shape(x)[:-1] + (3, 3)).copy(),
        metric=_turning_metric,
        metric_dx=_turning_metric_dx,
        killing=lambda par, x: np.broadcast_to(np.eye(3)[:, :2], x.shape[:-1] + (3, 2)),
        killing_dx=lambda par, x: np.zeros(x.shape[:-1] + (3, 3, 2)),
        rank=2,
        orbit_invariants=lambda x: x[..., 2:3],
        region_lo=np.array([0.0, 0.0, 0.4]),
        region_hi=np.array([two_pi, two_pi, 1.85]),
        geodesic_transverse=(0.75, 1.0, 1.25),
        start_from_transverse=lambda c: np.array([0.5, 1.7, float(c)]),
        element_scale=None,
        expect_base_drift=True,
    )


def christoffel_geodesic(scenario, tag, l, x0s, v0s, n_steps, dt):
    """States (..., n_steps + 1, 2 d) of classical RK4 on the geodesic
    equation x'' = -Gamma(x', x') in (position, velocity) form, from a
    stack of starts (..., d), with the kernels' exact Christoffel
    symbols: the route that the cometric flow of the kernels replaced.
    CHEEGER, whose symbols are finite differences, takes those of
    CHEEGER_CLOSED, the same metric."""
    par = scenario.params
    tag = _k.CHEEGER_CLOSED if tag == _k.CHEEGER else tag

    def rhs(y):
        d = y.shape[-1] // 2
        x, v = y[..., :d], y[..., d:]
        gam = _k.christoffel(scenario, par, tag, l, x, _k.H_FD, True, SIGMA_TOL)
        return np.concatenate([v, -np.einsum("...kij,...i,...j->...k", gam, v, v)],
                              axis=-1)

    y = np.concatenate([x0s, v0s], axis=-1)
    states = [y]
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + rhs(y + dt * k3))
        states.append(y)
    return np.stack(states, axis=-2)
