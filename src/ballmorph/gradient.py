"""Analytic gradient of the weighted Gaussian curvature.

The derivative splits into four terms: patch-fraction change (d), arc
fraction change (e), arc angle change (f), and corner quadrangle change
(h).  Each term is assembled per boundary simplex into per-ball gradient
vectors; a directional derivative is the inner product with a momentum
(``directional_derivative``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, NonRealizableTriangle
from .geometry import as_momentum, cross3
from .sphtri import corner_geometry, quad_area_gradient

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def lambda_derivative(pair, t_i, t_j):
    """Directional derivative of lambda under velocities of the two centers
    of the PairGeometry ``pair``."""
    rel = np.asarray(t_i, dtype=float) - np.asarray(t_j, dtype=float)
    return pair.dlam_dd * float(pair.u_ij @ rel)


@dataclass(frozen=True)
class ArcEndpoint:
    """Motion data of one corner terminating an exposed arc of circle S_ij.

    ``vec_i``, ``vec_j``, ``vec_k`` turn the corner's angular velocity into
    scalar products with the ball velocities: the normal speed of the corner
    against sphere k is <vec_i, t_i> + <vec_j, t_j> + <vec_k, t_k>, and the
    angular velocity follows after division by rho * <x_k - P, tangent>.
    ``tangent`` is u_ij x (P - q_ij) / rho oriented into the occluding ball,
    so the denominator ``g_t`` is positive and the endpoint's start/end role
    is absorbed.
    """

    occluder: int
    tangent: np.ndarray       # unit circle tangent at P, oriented into ball k
    g_t: float                # <x_k - P, tangent>, positive
    vec_i: np.ndarray
    vec_j: np.ndarray
    vec_k: np.ndarray


def arc_endpoint_data(balls, cx, edge):
    """ArcEndpoint records for all exposed-arc corners of circle S_ij."""
    key = tuple(sorted(edge))
    data = cx.edges.get(key)
    if data is None or not data.on_boundary:
        return []
    i, j = key
    pg = data.pair
    u = pg.u_ij
    d, rho, q = pg.d, pg.r, pg.center
    depth = pg.xi_j / d
    dr_dd = -pg.xi_i * pg.xi_j / (d * rho)
    out = []
    for arc in data.arcs:
        if arc.full_circle:
            continue
        for ref, s_p in ((arc.start, -1.0), (arc.end, 1.0)):
            k = ref.occluder
            p = ref.point
            g = balls.centers[k] - p
            e_rho = (p - q) / rho
            e_tan = cross3(u, e_rho)
            g_u = float(g @ u)
            g_rho = float(g @ e_rho)
            g_t = s_p * float(g @ e_tan)
            if g_t <= cx.tol:
                raise DegenerateState(
                    "arc endpoint moves tangentially to its sphere",
                    simplex=tuple(sorted((i, j, k))), residual=abs(g_t))
            common = ((1.0 - 2.0 * depth) * g_u + dr_dd * g_rho) * u \
                - (g_u / d) * (p - q)
            vec_i = -depth * g - common
            vec_j = -(1.0 - depth) * g + common
            out.append(ArcEndpoint(occluder=k, tangent=s_p * e_tan, g_t=g_t,
                                   vec_i=vec_i, vec_j=vec_j, vec_k=g))
    return out


def _boundary_arc_data(balls, cx):
    """arc_endpoint_data of every boundary edge, keyed by edge and built in
    key order, so the first degenerate endpoint raises as the terms would."""
    return {e: arc_endpoint_data(balls, cx, e)
            for e, data in sorted(cx.edges.items()) if data.on_boundary}


def _add_sigma_ij_gradient(vec, edge, rho, arcdata, coeff):
    """Add coeff times the gradient of sigma_ij to the per-ball rows of vec.

    Each endpoint moves the arc extent by its angular velocity, +-1 for an
    end or a start, which ``g_t`` already carries.
    """
    i, j = edge
    for ep in arcdata:
        kappa = coeff / (TWO_PI * rho * ep.g_t)
        vec[i] += kappa * ep.vec_i
        vec[j] += kappa * ep.vec_j
        vec[ep.occluder] += kappa * ep.vec_k


def sigma_ij_prime(balls, cx, arcdata, edge, t):
    """Directional derivative of the arc fraction sigma_ij along momentum t:
    the arc-fraction accumulation of term_e with coefficient one."""
    key = tuple(sorted(edge))
    data = cx.edges.get(key)
    if data is None or not data.on_boundary:
        return 0.0
    t = as_momentum(t, balls.n)
    vec = np.zeros((balls.n, 3))
    _add_sigma_ij_gradient(vec, key, data.pair.r, arcdata, 1.0)
    return float(np.sum(vec * t))


def sigma_i_prime(balls, cx, measures, i, t):
    """Directional derivative of the exposed area fraction of sphere i:
    the patch term with weight one on ball i and zero elsewhere."""
    t = as_momentum(t, balls.n)
    e_i = np.zeros(balls.n)
    e_i[i] = 1.0
    return float(np.sum(term_d(balls.with_weights(e_i), cx, measures) * t)) / FOUR_PI


def term_d(balls, cx, measures, arcs=None):
    """Patch term: 4*pi sum of w_i sigma_i'.

    Each bounding circle S_ij contributes the normal advance of both caps
    (depth change) plus the swing of its exposed arcs as the cap axes tilt.
    Both spheres see the same arc endpoints, so the swing is
    (w_i/r_i - w_j/r_j) rho/d <T, t_j - t_i>, with T the sum of the
    endpoint tangents of arc_endpoint_data.  ``arcs`` holds those records
    per boundary edge when the caller has them already.
    """
    if arcs is None:
        arcs = _boundary_arc_data(balls, cx)
    n = balls.n
    vec = np.zeros((n, 3))
    w = balls.weights
    for (i, j), data in sorted(cx.edges.items()):
        if not data.on_boundary:
            continue
        pg = data.pair
        sig = measures.sigma_edge((i, j))
        for a, b, uab in ((i, j, pg.u_ij), (j, i, -pg.u_ij)):
            r_a = balls.radii[a]
            c1 = math.pi * w[a] * sig / r_a * (
                1.0 - (r_a ** 2 - balls.radii[b] ** 2) / pg.d ** 2)
            vec[a] += c1 * uab
            vec[b] -= c1 * uab
        arcdata = arcs[(i, j)]
        if arcdata:
            swing = (w[i] / balls.radii[i] - w[j] / balls.radii[j]) * pg.r / pg.d \
                * sum(ep.tangent for ep in arcdata)
            vec[i] -= swing
            vec[j] += swing
    return vec


def term_e(balls, cx, arcs=None):
    """Arc-fraction term: -pi sum of (w_i + w_j) lambda_ij sigma_ij'.
    ``arcs`` is as for term_d."""
    if arcs is None:
        arcs = _boundary_arc_data(balls, cx)
    vec = np.zeros((balls.n, 3))
    w = balls.weights
    for (i, j), data in sorted(cx.edges.items()):
        if not data.on_boundary:
            continue
        pg = data.pair
        _add_sigma_ij_gradient(vec, (i, j), pg.r, arcs[(i, j)],
                               -math.pi * (w[i] + w[j]) * pg.lam)
    return vec


def term_f(balls, cx, measures):
    """Arc-angle term: -pi sum of (w_i + w_j) sigma_ij lambda_ij'."""
    n = balls.n
    vec = np.zeros((n, 3))
    w = balls.weights
    for (i, j), data in sorted(cx.edges.items()):
        if not data.on_boundary:
            continue
        pg = data.pair
        sig = measures.sigma_edge((i, j))
        cf = -math.pi * (w[i] + w[j]) * sig * pg.dlam_dd
        vec[i] += cf * pg.u_ij
        vec[j] -= cf * pg.u_ij
    return vec


def term_h(balls, cx, measures):
    """Corner term: quadrangle-area derivatives weighted by the ball weights."""
    n = balls.n
    vec = np.zeros((n, 3))
    w = balls.weights
    for (i, j, k), tdata in sorted(cx.triangles.items()):
        sig = measures.sigma_t.get((i, j, k), 0.0)
        if sig == 0.0:
            continue
        pg_ij, pg_jk, pg_ki = cx.pair(i, j), cx.pair(j, k), cx.pair(k, i)
        geo = corner_geometry(pg_ij.cos_phi, pg_jk.cos_phi, pg_ki.cos_phi)
        try:
            p, q, s = quad_area_gradient(geo, pg_ij, pg_jk, pg_ki)
        except NonRealizableTriangle as exc:
            raise DegenerateState(str(exc), simplex=(i, j, k)) from exc
        h_coeffs = [2.0 * sig * (w[i] * p[m] + w[j] * q[m] + w[k] * s[m])
                    for m in range(3)]
        # The records are keyed (i, j), (j, k) and (i, k) with i < j < k, so
        # the side from x_i to x_k has -u of the last.
        sides = ((i, j, pg_ij.u_ij), (j, k, pg_jk.u_ij), (k, i, -pg_ki.u_ij))
        for (a, b, uab), h_ab in zip(sides, h_coeffs):
            vec[a] += h_ab * uab
            vec[b] -= h_ab * uab
    return vec


@dataclass(frozen=True)
class GaussGradient:
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
    arc-endpoint records are built once and read by both terms d and e."""
    arcs = _boundary_arc_data(balls, cx)
    return GaussGradient(d=term_d(balls, cx, measures, arcs), e=term_e(balls, cx, arcs),
                         f=term_f(balls, cx, measures), h=term_h(balls, cx, measures))


def directional_derivative(grad, t):
    """Inner product <G, t>."""
    t = as_momentum(t, grad.n)
    return float(np.sum(grad.per_ball * t))
