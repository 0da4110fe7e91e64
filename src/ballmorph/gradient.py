"""Analytic gradient of the weighted Gaussian curvature.

The derivative splits into four terms: patch-fraction change (d), arc
fraction change (e), arc angle change (f), and corner quadrangle change
(h).  Each term is rows of coefficients fed to one of two scatters into
per-ball vectors.  What depends on the state only through a centre
distance d_ab has equal and opposite rows, since dd_ab/dx_a = u_ab =
-dd_ab/dx_b (``_pair_forces``: d, f, h and lambda'); the arc fractions
move with the arc endpoints (``_sigma_ij_forces``: e and sigma_ij').
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, NonRealizableTriangle
from .geometry import as_momentum, cross_rows, pow_squares, row_dots
from .sphtri import corner_geometry, quad_area_gradient

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


def _pair_fields(cx, edges, names):
    """The fields ``names`` (space separated) of the edges' pair records."""
    pgs = [cx.edges[e].pair for e in edges]
    return [np.array([getattr(pg, name) for pg in pgs], dtype=float)
            .reshape((len(pgs), 3) if name in ("u_ij", "center") else len(pgs))
            for name in names.split()]


def lambda_derivative(pair, t_i, t_j):
    """Directional derivative of lambda under velocities of the two centers
    of the PairGeometry ``pair``."""
    rows = _pair_forces(2, [0], [1], pair.dlam_dd * pair.u_ij)
    # Summing over the two balls first keeps equal velocities at exactly 0.
    return float(np.sum(rows * np.stack([t_i, t_j]), axis=0).sum())


@dataclass(frozen=True)
class ArcEndpoints:
    """Motion data of the corners that end exposed arcs, one row per corner.

    Corner P of circle S_ij (row ``edge`` of the edge list) lies on the
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


def arc_endpoint_data(balls, cx, edges):
    """ArcEndpoints of the exposed-arc corners of the circles ``edges``,
    walked edge by edge, arc by arc, start then end.  Raises DegenerateState
    at the first corner that moves tangentially to its sphere."""
    walk = [(m, ref, sign) for m, e in enumerate(edges) for arc in cx.edges[e].arcs
            if not arc.full_circle for ref, sign in ((arc.start, -1.0), (arc.end, 1.0))]
    edge = np.array([m for m, _, _ in walk], dtype=int)
    k = np.array([ref.occluder for _, ref, _ in walk], dtype=int)
    p = np.array([ref.point for _, ref, _ in walk]).reshape(-1, 3)
    sign = np.array([s for _, _, s in walk])
    ijk = np.column_stack([np.array(edges, dtype=int).reshape(-1, 2)[edge], k])
    u, q, d, rho, xi_i, xi_j = (f[edge] for f in
                                _pair_fields(cx, edges, "u_ij center d r xi_i xi_j"))
    depth = xi_j / d
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
    dr_dd = -xi_i * xi_j / (d * rho)
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
    the arc-fraction rows of term_e with coefficient one."""
    key = tuple(sorted(edge))
    data = cx.edges.get(key)
    if data is None or not data.on_boundary:
        return 0.0
    vec = _sigma_ij_forces(balls.n, arc_endpoint_data(balls, cx, [key]), 1.0)
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

    Each bounding circle S_ij has three pair rows: the normal advance of
    the cap of either sphere, and the swing of its exposed arcs as the cap
    axes tilt, (w_i/r_i - w_j/r_j) rho/d <T, t_j - t_i> with T the sum of
    the endpoint tangents.  ``ends`` holds arc_endpoint_data of
    cx.boundary_edges() when the caller has it already.
    """
    edges = cx.boundary_edges()
    if ends is None:
        ends = arc_endpoint_data(balls, cx, edges)
    # Column 0 of a and b is the cap of sphere i, column 1 that of sphere j.
    a = np.array(edges, dtype=int).reshape(-1, 2)
    b = a[:, ::-1]
    w, r, r2 = balls.weights, balls.radii, pow_squares(balls.radii)
    u, d, rho = _pair_fields(cx, edges, "u_ij d r")
    sig = np.array([measures.sigma_edge(e) for e in edges])[:, None]
    cap = np.pi * w[a] * sig / r[a] * (1.0 - (r2[a] - r2[b]) / pow_squares(d)[:, None])
    tangents = np.split(ends.tangent, np.searchsorted(ends.edge, np.arange(1, len(edges))))
    swing = ((w[a[:, 0]] / r[a[:, 0]] - w[b[:, 0]] / r[b[:, 0]]) * rho / d)[:, None] \
        * np.array([sum(t, np.zeros(3)) for t in tangents]).reshape(-1, 3)
    return _pair_forces(balls.n, np.column_stack([a, b[:, 0]]), np.column_stack([b, a[:, 0]]),
                        np.stack([cap[:, :1] * u, cap[:, 1:] * -u, swing], axis=1))


def term_e(balls, cx, ends=None):
    """Arc-fraction term: -pi sum of (w_i + w_j) lambda_ij sigma_ij'.
    ``ends`` is as for term_d."""
    edges = cx.boundary_edges()
    if ends is None:
        ends = arc_endpoint_data(balls, cx, edges)
    lam = _pair_fields(cx, edges, "lam")[0]
    w_i, w_j = balls.weights[ends.ijk[:, 0]], balls.weights[ends.ijk[:, 1]]
    return _sigma_ij_forces(balls.n, ends, -math.pi * (w_i + w_j) * lam[ends.edge])


def term_f(balls, cx, measures):
    """Arc-angle term: -pi sum of (w_i + w_j) sigma_ij lambda_ij'."""
    edges = cx.boundary_edges()
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    sig = np.array([measures.sigma_edge(e) for e in edges])
    u, dlam_dd = _pair_fields(cx, edges, "u_ij dlam_dd")
    cf = -math.pi * (balls.weights[i] + balls.weights[j]) * sig * dlam_dd
    return _pair_forces(balls.n, i, j, cf[:, None] * u)


def term_h(balls, cx, measures):
    """Corner term: quadrangle-area derivatives weighted by the ball weights,
    one pair row per side of each exposed corner's triangle."""
    w = balls.weights
    a, b, force = [], [], []
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
        # The records are keyed (i, j), (j, k) and (i, k) with i < j < k, so
        # the side from x_i to x_k has -u of the last.
        a += (i, j, k)
        b += (j, k, i)
        force += [2.0 * sig * (w[i] * p[m] + w[j] * q[m] + w[k] * s[m]) * u_ab
                  for m, u_ab in enumerate((pg_ij.u_ij, pg_jk.u_ij, -pg_ki.u_ij))]
    return _pair_forces(balls.n, a, b, force)


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
    arc-endpoint rows are built once and read by both terms d and e."""
    ends = arc_endpoint_data(balls, cx, cx.boundary_edges())
    return GaussGradient(d=term_d(balls, cx, measures, ends), e=term_e(balls, cx, ends),
                         f=term_f(balls, cx, measures), h=term_h(balls, cx, measures))


def directional_derivative(grad, t):
    """Inner product <G, t>."""
    t = as_momentum(t, grad.n)
    return float(np.sum(grad.per_ball * t))
