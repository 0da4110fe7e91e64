"""Analytic gradient of the weighted Gaussian curvature.

The derivative splits into four terms: patch-fraction change (d), arc
fraction change (e), arc angle change (f), and corner quadrangle change
(h), each rows of coefficients fed to one of two scatters into per-ball
vectors.  What depends on the state only through a centre distance d_ab
has equal and opposite rows, since dd_ab/dx_a = u_ab = -dd_ab/dx_b
(``_pair_forces``: d, f and h); the arc fractions move with the
arc endpoints, read from the arc table (``_sigma_ij_forces``: e and sigma_ij').
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateState, NonRealizableTriangle
from .geometry import as_momentum, cross_rows, row_dots
from .sphtri import quad_area_gradient

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def _pair_forces(n, a, b, force):
    """Per-ball rows of equal and opposite pair forces: force[m] is added to
    ball a[m] and subtracted from ball b[m], row by row in order."""
    force = np.asarray(force, dtype=float).reshape(-1, 3)
    vec = np.zeros((n, 3))
    np.add.at(vec, np.array([np.ravel(a), np.ravel(b)], dtype=int).T.ravel(),
              np.stack([force, -force], axis=1).reshape(-1, 3))
    return vec


class ArcEndpoints(NamedTuple):
    """Motion data of the corners that end exposed arcs, one row per corner.

    Corner P of circle S_ij (row ``edge`` of cx.edge_keys) lies on the
    sphere of the occluding ball k, and ``ijk`` holds i, j, k.  The inner
    products of ``vec[:, 0]``, ``vec[:, 1]``, ``vec[:, 2]`` with the
    velocities of balls i, j, k sum to P's normal speed against that
    sphere; over rho * g_t it is P's angular velocity.  ``tangent`` is u_ij
    x (P - q_ij) / rho oriented into ball k, so g_t = <x_k - P, tangent> is
    positive and absorbs P's start/end role.
    """

    edge: np.ndarray
    ijk: np.ndarray
    rho: np.ndarray
    tangent: np.ndarray
    g_t: np.ndarray
    vec: np.ndarray


def arc_endpoint_data(balls, cx):
    """ArcEndpoints of the arc-table rows that end at corners, each start
    then end.  Raises DegenerateState at the least Condition II record and
    at the first corner that moves tangentially to its sphere."""
    cx.require_generic(("II",))
    arcs = cx.arcs
    rows = np.repeat(np.flatnonzero(~arcs.full), 2)
    end = np.arange(len(rows)) % 2
    edge = arcs.edge[rows]
    k, p = arcs.occluder[rows, end], arcs.point[rows, end]
    sign = 2.0 * end - 1.0
    ijk = np.column_stack([cx.edge_keys[edge], k])
    pairs = cx.edge_pairs.take(edge)
    u, q, d, rho = pairs.u_ij, pairs.center, pairs.d, pairs.r
    depth = pairs.xi_j / d
    g = balls.centers[k] - p
    e_rho = (p - q) / rho[:, None]
    e_tan = cross_rows(u, e_rho)
    g_u = row_dots(g, u)
    g_t = sign * row_dots(g, e_tan)
    if (g_t <= cx.tol).any():
        m = int(np.argmax(g_t <= cx.tol))
        raise DegenerateState("arc endpoint moves tangentially to its sphere",
                              simplex=tuple(sorted(ijk[m].tolist())),
                              residual=abs(float(g_t[m])))
    dr_dd = -pairs.xi_i * pairs.xi_j / (d * rho)
    common = ((1.0 - 2.0 * depth) * g_u + dr_dd * row_dots(g, e_rho))[:, None] * u \
        - (g_u / d)[:, None] * (p - q)
    return ArcEndpoints(edge=edge, ijk=ijk, rho=rho, tangent=sign[:, None] * e_tan, g_t=g_t,
                        vec=np.stack([-depth[:, None] * g - common,
                                      -(1.0 - depth)[:, None] * g + common, g], axis=1))


def _sigma_ij_forces(n, ends, coeff):
    """Per-ball rows of coeff times the gradients of the sigma_ij of
    ``ends`` (one coeff, or one per endpoint).  Each endpoint moves its arc
    extent by its angular velocity, whose sign ``g_t`` already carries."""
    kappa = coeff / (TWO_PI * ends.rho * ends.g_t)
    vec = np.zeros((n, 3))
    np.add.at(vec, ends.ijk.ravel(), (kappa[:, None, None] * ends.vec).reshape(-1, 3))
    return vec


def sigma_ij_prime(balls, cx, edge, t):
    """Directional derivative of the arc fraction sigma_ij along momentum t:
    the arc-fraction rows of term_e with coefficient one on the edge's
    endpoints and zero on the others."""
    row = cx.edge_rows(sorted(edge))[0]
    if row < 0:
        return 0.0
    ends = arc_endpoint_data(balls, cx)
    vec = _sigma_ij_forces(balls.n, ends, (ends.edge == row).astype(float))
    return float(np.sum(vec * as_momentum(t, balls.n)))


def sigma_i_prime(balls, cx, measures, i, t):
    """Directional derivative of the exposed area fraction of sphere i:
    the patch term with weight one on ball i and zero elsewhere."""
    t = as_momentum(t, balls.n)
    e_i = np.zeros(balls.n)
    e_i[i] = 1.0
    return float(np.sum(term_d(balls.with_weights(e_i), cx, measures) * t)) / FOUR_PI


def term_d(balls, cx, measures, ends=None):
    """Patch term: 4*pi sum of w_i sigma_i'.

    Each alpha circle S_ij has two cap rows, the normal advance of the cap
    of either sphere (zero when sigma_ij = 0), and each endpoint of its
    exposed arcs one swing row, (w_i/r_i - w_j/r_j) rho/d <T, t_j - t_i>
    with T the endpoint's tangent, as the cap axes tilt.  ``ends`` holds
    arc_endpoint_data of the complex when the caller has it already.
    """
    if ends is None:
        ends = arc_endpoint_data(balls, cx)
    i, j = cx.edge_keys.T
    pairs = cx.edge_pairs
    w, r, r2 = balls.weights, balls.radii, np.square(balls.radii)
    d2 = np.square(pairs.d)
    sig = measures.sigma_e
    cap_i = np.pi * w[i] * sig / r[i] * (1.0 - (r2[i] - r2[j]) / d2)
    cap_j = np.pi * w[j] * sig / r[j] * (1.0 - (r2[j] - r2[i]) / d2)
    tilt = ((w[i] / r[i] - w[j] / r[j]) * pairs.r / pairs.d)[ends.edge]
    return _pair_forces(balls.n, np.concatenate([i, j, ends.ijk[:, 1]]),
                        np.concatenate([j, i, ends.ijk[:, 0]]),
                        np.concatenate([cap_i[:, None] * pairs.u_ij, cap_j[:, None] * -pairs.u_ij,
                                        tilt[:, None] * ends.tangent]))


def term_e(balls, cx, ends=None):
    """Arc-fraction term: -pi sum of (w_i + w_j) lambda_ij sigma_ij'.
    ``ends`` is as for term_d."""
    if ends is None:
        ends = arc_endpoint_data(balls, cx)
    w_i, w_j = balls.weights[ends.ijk[:, 0]], balls.weights[ends.ijk[:, 1]]
    return _sigma_ij_forces(balls.n, ends,
                            -math.pi * (w_i + w_j) * cx.edge_pairs.lam[ends.edge])


def term_f(balls, cx, measures):
    """Arc-angle term: -pi sum of (w_i + w_j) sigma_ij lambda_ij'."""
    i, j = cx.edge_keys.T
    pairs = cx.edge_pairs
    cf = -math.pi * (balls.weights[i] + balls.weights[j]) * measures.sigma_e * pairs.dlam_dd
    return _pair_forces(balls.n, i, j, cf[:, None] * pairs.u_ij)


def term_h(balls, cx, measures):
    """Corner term: quadrangle-area derivatives weighted by the ball weights,
    one pair row per side of each row of the corner table."""
    corners = cx.corner_table
    try:
        p, q, s = quad_area_gradient(corners.geo, *corners.sides)
    except NonRealizableTriangle as exc:
        raise DegenerateState(str(exc), simplex=corners.ijk[exc.index].tolist()) from exc
    w = balls.weights[corners.ijk]
    coeff = 2.0 * corners.sigma[:, None] * (w[:, :1] * np.column_stack(p)
                                            + w[:, 1:2] * np.column_stack(q)
                                            + w[:, 2:] * np.column_stack(s))
    return _pair_forces(balls.n, corners.ijk, np.roll(corners.ijk, -1, axis=1),
                        coeff[:, :, None] * corners.u)


class GaussGradient(NamedTuple):
    """Gradient of the weighted Gaussian curvature, with its four parts."""

    d: np.ndarray
    e: np.ndarray
    f: np.ndarray
    h: np.ndarray

    @property
    def per_ball(self):
        return self.d + self.e + self.f + self.h

    @property
    def flat(self):
        return self.per_ball.ravel()

    @property
    def n(self):
        return self.d.shape[0]


def gauss_gradient(balls, cx, measures):
    """Assemble the full gradient G with G_i = d_i + e_i + f_i + h_i.  The
    arc-endpoint rows are built once and read by both terms d and e."""
    ends = arc_endpoint_data(balls, cx)
    return GaussGradient(d=term_d(balls, cx, measures, ends), e=term_e(balls, cx, ends),
                         f=term_f(balls, cx, measures), h=term_h(balls, cx, measures))


def directional_derivative(grad, t):
    """Inner product <G, t>."""
    t = as_momentum(t, grad.n)
    return float(np.sum(grad.per_ball * t))
