"""Shared helpers: random generic configurations and small oracles."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from ballmorph import BallSet
from ballmorph.complexes import TWO_PI, build_alpha_complex, plane_basis
from ballmorph.errors import DegenerateState
from ballmorph.serial import fmt


def serialize_diagram(balls):
    """Diagram text that parses back to the identical BallSet."""
    lines = [f"n {balls.n}"]
    for c, r, w in zip(balls.centers, balls.radii, balls.weights):
        lines.append(" ".join(fmt(v) for v in (*c, r, w)))
    return "\n".join(lines) + "\n"


def make_config(rng, n, weights="random", require_triangle=True, margin=1e-4,
                spread=None):
    """Random ball set in general position, with its alpha complex.

    Rejection-samples until the construction succeeds, the degeneracy
    margin is met, and (optionally) at least one boundary triangle exists.
    """
    spread = spread if spread is not None else 1.1 * n ** (1.0 / 3.0)
    while True:
        centers = rng.uniform(0.0, spread, size=(n, 3))
        radii = rng.uniform(0.7, 1.3, size=n)
        if weights == "random":
            w = rng.uniform(-2.0, 2.0, size=n)
        else:
            w = np.full(n, float(weights) if weights != "ones" else 1.0)
        balls = BallSet(centers, radii, w)
        try:
            cx = build_alpha_complex(balls)
        except DegenerateState:
            continue
        if require_triangle and not cx.triangle_table.exposed.any():
            continue
        if margin is not None and cx.condition2_margin <= margin:
            continue
        return balls, cx


@dataclass(frozen=True)
class Corner:
    """A corner point ending an exposed arc: the sorted index triple whose
    spheres meet there, its tag (+1 for the point on the positive side of
    the triple's centre plane), the occluding third ball, point and angle."""

    triangle: tuple
    tag: int
    occluder: int
    point: np.ndarray
    angle: float

    @property
    def key(self):
        return (self.triangle, self.tag)


@dataclass(frozen=True)
class Arc:
    """One row of the complex's arc table, as a record."""

    edge: tuple
    extent: float
    start: Corner = None      # None for a full circle
    end: Corner = None

    @property
    def full_circle(self):
        return self.start is None


def pair(cx, i, j):
    """Row ij of the complex's candidate pair table, each field one row's
    value; KeyError unless the spheres of i and j meet in a circle."""
    key = (i, j) if i < j else (j, i)
    row = cx.key_rows(cx._pair_keys, key)[0]
    if row < 0:
        raise KeyError(key)
    return cx._pair_table.take(row)


def corners(cx, i, j, k):
    """The points p_plus and p_minus of row ijk of the complex's candidate
    triple table, as a (2, 3) array; None unless the spheres meet in two
    points more than the band apart."""
    row = cx.key_rows(cx._triple_table.ijk, sorted((i, j, k)))[0]
    if row < 0 or not cx._triple_table.h_sq[row] > cx.tol * cx.balls.scale:
        return None
    return cx.corner_points([row])[0]


def triangle_keys(cx):
    """The alpha triangles as sorted index tuples, in key order."""
    return [tuple(key) for key in cx.triangle_table.ijk.tolist()]


def tetrahedron_keys(cx):
    """The alpha tetrahedra as sorted index tuples, in key order."""
    return [tuple(key) for key in cx.tet_keys.tolist()]


def edge_arcs(cx, edge):
    """The rows of ``cx.arcs`` on the circle S_ij as Arc records, in table
    order; empty when ij is no alpha edge."""
    key = tuple(sorted(edge))
    row = cx.edge_rows(key)[0]
    if row < 0:
        return []
    # The arcs' corner rows count the triangles with an exposed corner.
    arcs, tris = cx.arcs, cx.triangle_table.ijk[cx.triangle_table.exposed.any(axis=1)]
    out = []
    for r in np.flatnonzero(arcs.edge == row).tolist():
        ends = () if arcs.full[r] else [
            Corner(tuple(tris[arcs.corner[r, c]].tolist()), int(arcs.tag[r, c]),
                   int(arcs.occluder[r, c]), arcs.point[r, c], float(arcs.angle[r, c]))
            for c in (0, 1)]
        out.append(Arc(key, float(arcs.extent[r]), *ends))
    return out


def brute_cover(cx, i, j):
    """Angular intervals of the circle S_ij inside each ball m other than i
    and j, by a loop over every ball.

    Returns (intervals, fully_covered, records): each interval is (start,
    extent, m, start corner, end corner) in the angle from e1 of the
    circle's plane_basis, and records are the ("II", triple, residual)
    near-tangencies of a sphere with the circle met on the way.
    """
    balls = cx.balls
    pg = pair(cx, i, j)
    q, rho = pg.center, pg.r
    u = pg.u_ij
    e1, e2 = plane_basis(u)
    out = []
    records = []
    for m in range(balls.n):
        if m in (i, j):
            continue
        g = balls.centers[m] - q
        g_u = g @ u
        g_perp = g - g_u * u
        b = np.linalg.norm(g_perp)
        rm = balls.radii[m]
        dmin = math.hypot(g_u, b - rho)
        dmax = math.hypot(g_u, b + rho)
        if abs(dmin - rm) < cx.tol or abs(dmax - rm) < cx.tol:
            records.append(("II", tuple(sorted((i, j, m))),
                            min(abs(dmin - rm), abs(dmax - rm))))
        if dmin >= rm:
            continue
        if dmax <= rm:
            return [], True, records
        points = corners(cx, i, j, m)
        if points is None:
            records.append(("II", tuple(sorted((i, j, m))), cx.tol))
            continue
        key = tuple(sorted((i, j, m)))
        angles = {}
        for tag, p in zip((1, -1), points):
            rel = p - q
            angles[tag] = (math.atan2(rel @ e2, rel @ e1) % TWO_PI, p)
        # The covered interval is centred on the in-plane azimuth of x_m.
        az = math.atan2(g_perp @ e2, g_perp @ e1) % TWO_PI
        a_plus, a_minus = angles[1][0], angles[-1][0]
        if (az - a_plus) % TWO_PI <= (a_minus - a_plus) % TWO_PI:
            start_tag, end_tag = 1, -1
        else:
            start_tag, end_tag = -1, 1
        start_ang, start_p = angles[start_tag]
        extent = (angles[end_tag][0] - start_ang) % TWO_PI
        end_p = angles[end_tag][1]
        out.append((start_ang, extent, m,
                    Corner(key, start_tag, m, start_p, start_ang),
                    Corner(key, end_tag, m, end_p, (start_ang + extent) % TWO_PI)))
    return out, False, records


def union_measure(covered):
    """Total angular measure of a union of circle intervals (start, extent, ...)."""
    segs = []
    for start, extent, *_ in covered:
        s = start % TWO_PI
        if s + extent <= TWO_PI:
            segs.append((s, s + extent))
        else:
            segs.append((s, TWO_PI))
            segs.append((0.0, s + extent - TWO_PI))
    segs.sort()
    total = 0.0
    cur_lo, cur_hi = segs[0]
    for lo, hi in segs[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


def brute_sigma_ij(cx, edge):
    """Exposed fraction of the alpha circle S_ij, 1 - union/2pi over the
    intervals of brute_cover: independent of the build's arcs."""
    covered, full, _ = brute_cover(cx, *edge)
    if full:
        return 0.0
    return 1.0 - union_measure(covered) / TWO_PI if covered else 1.0


def vector_sigma_i(balls, cx, i):
    """Exposed area fraction of sphere i by Gauss-Bonnet with vector turns:
    each corner's turn is the signed angle between the unit tangents of the
    two cap circles at the corner point, independent of the normal
    triangle that measures.sigma_i reads."""
    if not 0 <= i < balls.n or not cx.on_boundary[i]:
        return 0.0
    edges = [e for e in cx.boundary_edges() if i in e]
    if not edges:
        return 1.0
    x_i, r_i = balls.centers[i], balls.radii[i]

    def cw_tangent(p, center, axis):
        t = np.cross(p - center, axis)
        return t / np.linalg.norm(t)

    total = 0.0
    by_entry = {}   # corner key -> (next corner key, its point, arc data)
    for key in edges:
        pg = pair(cx, *key)
        axis, xi = (-pg.u_ij, pg.xi_i) if i == key[0] else (pg.u_ij, pg.xi_j)
        for arc in edge_arcs(cx, key):
            if arc.full_circle:
                total += TWO_PI * (1.0 + xi / r_i)
                continue
            enter, leave = (arc.start, arc.end) if i == key[0] else (arc.end, arc.start)
            by_entry[enter.key] = (leave.key, leave.point, arc.extent, xi / r_i,
                                   pg.center, axis)
    unused = set(by_entry)
    while unused:
        start = key = min(unused)
        area = TWO_PI
        while True:
            unused.remove(key)
            exit_key, p, extent, cos_cap, center, axis = by_entry[key]
            nxt = by_entry[exit_key]
            t_in = cw_tangent(p, center, axis)
            t_out = cw_tangent(p, nxt[4], nxt[5])
            normal = (p - x_i) / r_i
            area += extent * cos_cap - math.atan2(normal @ np.cross(t_in, t_out),
                                                  t_in @ t_out)
            key = exit_key
            if key == start:
                break
        total += area
    return (total % (2.0 * TWO_PI)) / (2.0 * TWO_PI)


def octant_balls(weights=(1.0, 1.0, 1.0)):
    """Three unit balls whose corners sit at the origin and (2,2,2)/3."""
    return BallSet([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], [1.0, 1.0, 1.0],
                   list(weights))


def two_balls(d=1.0, r0=1.0, r1=1.0, w0=1.0, w1=1.0):
    return BallSet([[0.0, 0, 0], [d, 0, 0]], [r0, r1], [w0, w1])


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_triangle_params(rng, size=None):
    """Squared half-side cosines of spherical triangles from random vertices."""
    shape = (3, 3) if size is None else (size, 3, 3)
    v = rng.normal(size=shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    cos_ij = np.einsum("...j,...j->...", v[..., 0, :], v[..., 1, :])
    cos_jk = np.einsum("...j,...j->...", v[..., 1, :], v[..., 2, :])
    cos_ki = np.einsum("...j,...j->...", v[..., 2, :], v[..., 0, :])
    a = 0.5 * (1.0 + cos_ij)
    b = 0.5 * (1.0 + cos_jk)
    c = 0.5 * (1.0 + cos_ki)
    if size is None:
        return float(a), float(b), float(c), v
    return a, b, c, v


def spherical_triangle_excess(p, q, r):
    """Area of a spherical triangle from its vertex angles (Girard)."""
    def angle_at(a, b, c):
        u = b - a * (a @ b)
        w = c - a * (a @ c)
        return float(np.arccos(np.clip((u @ w) / (np.linalg.norm(u) * np.linalg.norm(w)),
                                       -1.0, 1.0)))
    return angle_at(p, q, r) + angle_at(q, r, p) + angle_at(r, p, q) - np.pi


def rigid_generators(balls):
    """Three translations and three rotations about the centroid."""
    n = balls.n
    cen = balls.centers.mean(axis=0)
    gens = []
    for ax in range(3):
        t = np.zeros((n, 3))
        t[:, ax] = 1.0
        gens.append(t)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = 1.0
        gens.append(np.cross(balls.centers - cen, e))
    return gens


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
