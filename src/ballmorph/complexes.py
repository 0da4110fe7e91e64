"""Alpha complex of a weighted ball set, built by direct nerve tests.

The alpha complex is the nerve of the clipped balls B_i cap V_i.
Triangles and tetrahedra are accepted by checking that condition directly
(the corner segment meets the Voronoi edge V_ijk; the orthocenter lies in
every member ball and in no other ball's cell).  Vertices and edges come
from a centre test plus closure under faces:

* vertex i when x_i lies in V_i, edge ij when the circle centre q_ij lies
  in V_ij;
* every other vertex and edge is a face of a higher simplex.  If B_i cap
  V_i is not empty but misses x_i, the segment from one of its points to
  x_i leaves V_i at a point y of B_i on a facet V_ij, where pow_j(y) =
  pow_i(y) <= 0, so y is in B_j and edge ij is in the complex.  The same
  argument in the radical plane takes an edge whose disk meets V_ij away
  from q_ij to an alpha triangle ijm.

Every test needs only the balls that meet a member ball: if B_m misses
B_i, then pow_i <= 0 < pow_m on all of B_i, so m's halfspace is redundant
in any test restricted to B_i.  Candidate edges, triangles and tetrahedra
are therefore the cliques of the circle graph (pairs of spheres that meet
in a circle), enumerated by extending each sorted clique with the common
larger neighbours of its members, and the cover of a circle S_ij visits
only the balls that come within tolerance of it.  Construction cost thus
follows the cliques rather than all index tuples; the batched power
kernel ``_powers`` still takes a column for every ball, because
diagnostics.general_position_check reads their all-ball records.  The
same clipping yields the boundary bookkeeping (exposed circle arcs with
their terminating corners) as a byproduct.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import CoincidentCenters, DegenerateState
from .geometry import EPS_GEO, TripleGeometry, cross3, pair_geometry, triple_points

TWO_PI = 2.0 * math.pi
_INF = float("inf")


def plane_basis(u):
    """Orthonormal (e1, e2) spanning the plane normal to u, with e1 x e2 = u."""
    a = np.zeros(3)
    a[int(np.argmin(np.abs(u)))] = 1.0
    e1 = cross3(a, u)
    e1 /= np.linalg.norm(e1)
    e2 = cross3(u, e1)
    return e1, e2


@dataclass(frozen=True)
class CornerRef:
    """A corner point terminating an exposed arc.

    ``triangle`` is the sorted index triple whose spheres meet at the point,
    ``tag`` identifies which of the two intersection points it is (+1 for
    the point on the positive side of the sorted triple's center plane),
    and ``occluder`` is the third ball as seen from the arc's edge.
    """

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
    """Exposed arc of a circle S_ij, in ccw angular parametrization."""

    edge: tuple
    alpha_start: float
    alpha_end: float               # alpha_start + extent, may exceed 2*pi
    extent: float
    start: CornerRef = None        # None for a full circle
    end: CornerRef = None

    @property
    def full_circle(self):
        return self.start is None


@dataclass
class VertexData:
    index: int
    in_alpha: bool = False
    on_boundary: bool = False


@dataclass
class EdgeData:
    pair: object
    e1: np.ndarray = None
    e2: np.ndarray = None
    in_alpha: bool = False
    on_boundary: bool = False
    arcs: list = field(default_factory=list)
    covered: list = field(default_factory=list)   # (start, extent, occluder, refs)
    fully_covered: bool = False


@dataclass
class TriangleData:
    triple: object                 # TripleGeometry in sorted orientation
    in_alpha: bool = False
    on_boundary: bool = False
    nu: float = 0.0                # exposed fraction of the corner segment
    exposed_plus: bool = False
    exposed_minus: bool = False

    @property
    def exposed_count(self):
        return int(self.exposed_plus) + int(self.exposed_minus)


@dataclass
class TetData:
    orthocenter: np.ndarray
    in_alpha: bool = False


@dataclass(frozen=True)
class EulerData:
    chi_alpha: int
    chi_surface: int


class AlphaComplex:
    """Simplices of the alpha complex with boundary structure.

    ``degeneracies`` lists (condition, simplex, residual) records for
    near-violations of general position found during construction.
    """

    def __init__(self, balls, eps=EPS_GEO):
        self.balls = balls
        self.eps = eps
        self.tol = eps * balls.scale
        self.vertices = {}
        self.edges = {}
        self.triangles = {}
        self.tetrahedra = {}
        self.degeneracies = []
        self.condition2_margin = _INF   # cheapest distance-to-tangency seen
        self._pairs = {}
        self._triples = {}
        self._triple_raw = {}     # key -> (center, axis, h_sq), None if collinear
        self._quads = None        # candidate-quad reductions of _build_tetrahedra

    # -- cached elementary geometry -------------------------------------

    def pair(self, i, j):
        key = (i, j) if i < j else (j, i)
        pg = self._pairs.get(key)
        if pg is None:
            pg = pair_geometry(self.balls.ball(key[0]), self.balls.ball(key[1]),
                               key[0], key[1], self.eps)
            self._pairs[key] = pg
        return pg

    def triple(self, i, j, k):
        key = tuple(sorted((i, j, k)))
        if key in self._triples:
            return self._triples[key]
        # Only triples of pairwise intersecting spheres can meet in two
        # points, and _build_triangles records every such triple.
        raw = self._triple_raw.get(key)
        tg = None
        if raw is not None and raw[2] > self.tol * self.balls.scale:
            tg = TripleGeometry.from_center(key, raw[0], raw[1], math.sqrt(raw[2]))
        self._triples[key] = tg
        return tg

    # -- queries ---------------------------------------------------------

    def alpha_simplices(self):
        """All in-alpha simplices as sorted index tuples."""
        out = [(v,) for v, d in self.vertices.items() if d.in_alpha]
        out += [e for e, d in self.edges.items() if d.in_alpha]
        out += [t for t, d in self.triangles.items() if d.in_alpha]
        out += [t for t, d in self.tetrahedra.items() if d.in_alpha]
        return out

    def boundary_vertices(self):
        return sorted(v for v, d in self.vertices.items() if d.on_boundary)

    def boundary_edges(self):
        return sorted(e for e, d in self.edges.items() if d.on_boundary)

    def boundary_triangles(self):
        return sorted(t for t, d in self.triangles.items() if d.on_boundary)

    def require_generic(self):
        if self.degeneracies:
            cond, simplex, residual = min(self.degeneracies, key=lambda r: r[2])
            raise DegenerateState(
                f"state violates Condition {cond} at simplex {simplex} "
                f"(residual {residual:.3e})", simplex=simplex, residual=residual)


def build_alpha_complex(balls, eps=EPS_GEO, strict=True):
    """Construct the alpha complex with boundary arcs and corner exposure.

    With ``strict`` the construction raises DegenerateState when the state
    is within tolerance of a general-position violation; diagnostics passes
    strict=False to obtain the report instead.
    """
    cx = AlphaComplex(balls, eps)
    _check_pair_degeneracies(cx)
    pairs, triples, quads = _circle_cliques(cx._circle)
    _build_vertices(cx)
    _build_edges(cx, pairs)
    _build_triangles(cx, triples)
    _build_tetrahedra(cx, quads)
    _close_faces(cx)
    _build_arcs(cx)
    _mark_boundary_vertices(cx)

    if strict:
        cx.require_generic()
    return cx


def euler(cx):
    """Euler characteristics of the alpha complex and of the surface."""
    v = sum(1 for d in cx.vertices.values() if d.in_alpha)
    e = sum(1 for d in cx.edges.values() if d.in_alpha)
    f = sum(1 for d in cx.triangles.values() if d.in_alpha)
    t = sum(1 for d in cx.tetrahedra.values() if d.in_alpha)
    chi = v - e + f - t
    return EulerData(chi_alpha=chi, chi_surface=2 * chi)


def boundary_arcs(cx, edge):
    """Exposed arcs of the circle S_ij, empty when fully occluded."""
    key = tuple(sorted(edge))
    data = cx.edges.get(key)
    if data is None:
        return []
    return list(data.arcs)


# -- construction helpers ------------------------------------------------

def _powers(pts, balls):
    """Power distance of every point in ``pts`` (shape (..., 3)) to every
    ball, with shape (..., n)."""
    d = pts[..., None, :] - balls.centers
    return np.einsum("...j,...j->...", d, d) - balls.radii ** 2


def _circle_cliques(circle):
    """Pairs, triples and quads of balls whose spheres pairwise meet in
    circles, each as an index array in lexicographic order.

    A sorted row is extended by every larger index adjacent to all its
    members: the AND of the members' rows of the strict upper triangle of
    ``circle``.  np.nonzero walks that row-major, which is the order of
    itertools.combinations.
    """
    upper = np.triu(circle, 1)
    cliques = [np.argwhere(upper)]
    for _ in range(2):
        rows = cliques[-1]
        r, m = np.nonzero(upper[rows].all(axis=1))
        cliques.append(np.column_stack([rows[r], m]))
    return cliques


def _check_pair_degeneracies(cx):
    """Pairwise distances, tangency residuals and the circle-pair mask."""
    balls = cx.balls
    n = balls.n
    diff = balls.centers[:, None, :] - balls.centers[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    r_sum = balls.radii[:, None] + balls.radii[None, :]
    r_dif = np.abs(balls.radii[:, None] - balls.radii[None, :])
    gap = np.minimum(np.abs(dist - r_sum), np.abs(dist - r_dif))
    iu, ju = np.triu_indices(n, k=1)
    if iu.size:
        cx.condition2_margin = min(cx.condition2_margin, float(gap[iu, ju].min()))
    close = dist[iu, ju] <= cx.eps * np.maximum(balls.radii[iu], balls.radii[ju])
    if close.any():
        a = int(iu[close][0])
        b = int(ju[close][0])
        raise CoincidentCenters(f"balls {a} and {b} have coincident centers")
    for i, j in zip(iu[gap[iu, ju] < cx.tol], ju[gap[iu, ju] < cx.tol]):
        cx.degeneracies.append(("II", (int(i), int(j)), float(gap[i, j])))
    cx._pair_gap = gap
    cx._circle = (r_dif < dist) & (dist < r_sum)


def _build_vertices(cx):
    """Vertex i is in the complex when x_i lies in V_i; closure adds the rest."""
    balls = cx.balls
    for i in range(balls.n):
        pows = _powers(balls.centers[i], balls)
        cx.vertices[i] = VertexData(i, in_alpha=bool(pows[i] <= pows.min() + cx.tol ** 2))


def _build_edges(cx, pairs):
    """Edge ij is in the complex when the circle centre q_ij lies in V_ij;
    closure adds the rest."""
    balls = cx.balls
    cand = pairs.tolist()
    if not cand:
        return
    pgs = [cx.pair(i, j) for i, j in cand]
    pows = _powers(np.stack([pg.center for pg in pgs]), balls)
    for (i, j), pg, row in zip(cand, pgs, pows):
        if not pg.has_circle:
            continue
        others = np.delete(row, [i, j])
        if others.size == 0 or row[i] <= others.min() + cx.tol ** 2:
            e1, e2 = plane_basis(pg.u_ij)
            cx.edges[(i, j)] = EdgeData(pair=pg, e1=e1, e2=e2, in_alpha=True)


def _build_triangles(cx, idx):
    balls = cx.balls
    if not len(idx):
        return
    collinear, center, axis, h_sq = triple_points(balls.centers, balls.radii, idx,
                                                  cx.tol ** 2)
    for t in idx[collinear]:
        _note_collinear_triple(cx, tuple(int(v) for v in t))
    idx = idx[~collinear]
    if idx.size == 0:
        return
    for row, c, ax, h2 in zip(idx, center, axis, h_sq):
        cx._triple_raw[tuple(int(v) for v in row)] = (c, ax, float(h2))
    # The discriminant h^2 is the smooth residual of the corner pair
    # degenerating; the tolerance band is eps * scale^2.
    band = cx.tol * balls.scale
    cx.condition2_margin = min(cx.condition2_margin,
                               float(np.abs(h_sq).min() / balls.scale))
    live = h_sq > band
    near = np.abs(h_sq) <= band
    for row, h2 in zip(idx[near], h_sq[near]):
        cx.degeneracies.append(("II", tuple(int(v) for v in row),
                                float(abs(h2) / balls.scale)))
    if not live.any():
        return
    idx, center, axis, h_sq = idx[live], center[live], axis[live], h_sq[live]
    half = np.sqrt(h_sq)
    lo, hi, feasible = _voronoi_intervals(cx, idx, center, axis)
    a_clip = np.maximum(lo, -half)
    b_clip = np.minimum(hi, half)
    nu = np.where(feasible & (b_clip > a_clip), (b_clip - a_clip) / (2.0 * half), 0.0)
    in_alpha = nu > 0.0
    p_plus = center + half[:, None] * axis
    p_minus = center - half[:, None] * axis
    exp_plus = _points_exposed(cx, idx, p_plus)
    exp_minus = _points_exposed(cx, idx, p_minus)
    for m in range(idx.shape[0]):
        if not in_alpha[m]:
            continue
        key = tuple(int(v) for v in idx[m])
        tg = cx.triple(*key)
        data = TriangleData(triple=tg, in_alpha=True, nu=float(nu[m]),
                            exposed_plus=bool(exp_plus[m]),
                            exposed_minus=bool(exp_minus[m]))
        data.on_boundary = data.exposed_plus or data.exposed_minus
        cx.triangles[key] = data


def _note_collinear_triple(cx, tri):
    """Collinear centers: parallel radical planes, degenerate only if two
    of them coincide (the Voronoi intersection would gain a dimension)."""
    i, j, k = tri
    u = cx.balls.centers[j] - cx.balls.centers[i]
    u = u / np.linalg.norm(u)
    pos = [float(cx.pair(a, b).center @ u)
           for a, b in ((i, j), (i, k), (j, k))]
    gap = min(abs(pos[0] - pos[1]), abs(pos[0] - pos[2]), abs(pos[1] - pos[2]))
    if gap < cx.tol:
        cx.degeneracies.append(("I", tri, gap))
    cx._triple_raw[tri] = None


def _voronoi_intervals(cx, idx, center, axis):
    """Batched parameter intervals of V_ijk on the radical lines."""
    balls = cx.balls
    n = balls.n
    m_count = idx.shape[0]
    # pi_i(p(s)) - pi_m(p(s)) = inter + s * slope  per (triple, ball m).
    pows = _powers(center, balls)
    own = pows[np.arange(m_count), idx[:, 0]]
    inter = own[:, None] - pows
    slope = 2.0 * (axis @ balls.centers.T
                   - np.einsum("tj,tj->t", axis, balls.centers[idx[:, 0]])[:, None])
    mask = np.ones((m_count, n), dtype=bool)
    for col in range(3):
        mask[np.arange(m_count), idx[:, col]] = False
    tiny = np.abs(slope) < 1e-300
    infeasible = (mask & tiny & (inter > 0)).any(axis=1)
    bound = np.where(tiny, 0.0, -inter / np.where(tiny, 1.0, slope))
    hi_mask = mask & ~tiny & (slope > 0)
    lo_mask = mask & ~tiny & (slope < 0)
    hi = np.where(hi_mask, bound, _INF).min(axis=1)
    lo = np.where(lo_mask, bound, -_INF).max(axis=1)
    feasible = ~infeasible & (lo <= hi)
    return lo, hi, feasible


def _points_exposed(cx, idx, pts):
    """Which corner points lie outside all non-owner balls (batched)."""
    balls = cx.balls
    m_count = idx.shape[0]
    diff = pts[:, None, :] - balls.centers[None, :, :]
    gap = np.sqrt(np.einsum("tmj,tmj->tm", diff, diff)) - balls.radii[None, :]
    for col in range(3):
        gap[np.arange(m_count), idx[:, col]] = _INF
    nearest = gap.min(axis=1)
    finite = np.isfinite(nearest)
    if finite.any():
        cx.condition2_margin = min(cx.condition2_margin,
                                   float(np.abs(nearest[finite]).min()))
    flag = np.abs(nearest) < cx.tol
    for m in np.nonzero(flag)[0]:
        other = int(np.argmin(gap[m]))
        cx.degeneracies.append(
            ("II", tuple(sorted(tuple(int(v) for v in idx[m]) + (other,))),
             float(abs(nearest[m]))))
    return nearest > 0.0


def _build_tetrahedra(cx, idx):
    balls = cx.balls
    if not len(idx):
        return
    xi = balls.centers[idx[:, 0]]
    rows = 2.0 * (balls.centers[idx[:, 1:]] - xi[:, None, :])
    sq = np.einsum("ij,ij->i", balls.centers, balls.centers)
    rhs = (sq[idx[:, 1:]] - balls.radii[idx[:, 1:]] ** 2
           - (sq[idx[:, 0]] - balls.radii[idx[:, 0]] ** 2)[:, None])
    det = np.linalg.det(rows)
    row_scale = np.maximum(np.prod(np.linalg.norm(rows, axis=2), axis=1), 1e-300)
    flat = np.abs(det) < 1e-12 * row_scale
    for q, dt, sc in zip(idx[flat], det[flat], row_scale[flat]):
        cx.degeneracies.append(("I", tuple(int(v) for v in q), float(abs(dt) / sc)))
    # Per candidate, for general_position_check: |det| / row_scale, the
    # orthocenter's power over the least power of all balls, and its
    # closest power tie |pow_m - own| with a fifth ball m.  The last two
    # stay inf on flat quads, and the tie stays inf when n == 4.
    excess = np.full(idx.shape[0], _INF)
    tie = np.full(idx.shape[0], _INF)
    tie_ball = np.zeros(idx.shape[0], dtype=int)
    cx._quads = (idx, np.abs(det) / row_scale, excess, tie, tie_ball)
    keep = ~flat
    idx = idx[keep]
    if idx.size == 0:
        return
    z = np.linalg.solve(rows[keep], rhs[keep][:, :, None])[:, :, 0]
    pows = _powers(z, balls)
    q_count = idx.shape[0]
    own = pows[np.arange(q_count), idx[:, 0]]
    masked = pows.copy()
    for col in range(4):
        masked[np.arange(q_count), idx[:, col]] = _INF
    other_min = masked.min(axis=1)
    gap = other_min - own
    near = np.abs(gap) < cx.tol * balls.scale
    for m in np.nonzero(near)[0]:
        # Five balls power-equidistant from the orthocenter: the
        # configuration sits on a flip submanifold.
        fifth = int(np.argmin(masked[m]))
        cx.degeneracies.append(("I", tuple(int(v) for v in idx[m]) + (fifth,),
                                float(abs(gap[m]))))
    in_alpha = (own <= 0.0) & ((other_min >= own) | np.isinf(other_min))
    for m in np.nonzero(in_alpha)[0]:
        cx.tetrahedra[tuple(int(v) for v in idx[m])] = TetData(
            orthocenter=z[m], in_alpha=True)
    excess[keep] = own - pows.min(axis=1)
    masked -= own[:, None]
    np.abs(masked, out=masked)
    tie_ball[keep] = masked.argmin(axis=1)
    tie[keep] = masked.min(axis=1)


def _close_faces(cx):
    """Enforce closure of the alpha complex under taking faces."""
    for quad in cx.tetrahedra:
        for tri in combinations(quad, 3):
            if tri not in cx.triangles:
                tg = cx.triple(*tri)
                if tg is not None:
                    cx.triangles[tri] = TriangleData(triple=tg, in_alpha=True)
            else:
                cx.triangles[tri].in_alpha = True
    for tri in cx.triangles:
        for e in combinations(tri, 2):
            if e not in cx.edges:
                pg = cx.pair(*e)
                e1, e2 = plane_basis(pg.u_ij)
                cx.edges[e] = EdgeData(pair=pg, e1=e1, e2=e2, in_alpha=True)
            else:
                cx.edges[e].in_alpha = True
    for e in cx.edges:
        for v in e:
            cx.vertices[v].in_alpha = True


def _build_arcs(cx):
    for (i, j), data in sorted(cx.edges.items()):
        if not data.in_alpha:
            continue
        covered, full = _cover_intervals(cx, i, j, data)
        if full:
            data.arcs = []
            data.covered = covered
            data.fully_covered = True
            data.on_boundary = False
            continue
        data.arcs = _assemble_arcs(cx, (i, j), covered)
        data.covered = covered
        data.on_boundary = bool(data.arcs)


def _cover_intervals(cx, i, j, data):
    """Angular intervals of the circle S_ij hidden inside other balls.

    Returns (intervals, fully_covered); each interval carries the two
    corner references of its endpoints.
    """
    balls = cx.balls
    pg = data.pair
    q, rho = pg.center, pg.r
    u, e1, e2 = pg.u_ij, data.e1, data.e2
    # |x_m - q| - rho - r_m is a lower bound on dmin - r_m below, and the
    # loop body records or covers nothing while dmin - r_m >= tol, so the
    # balls with a bound of 2 tol or more can be skipped.
    d = balls.centers - q
    bound = np.sqrt(np.einsum("ij,ij->i", d, d)) - rho - balls.radii
    out = []
    for m in np.nonzero(bound < 2.0 * cx.tol)[0].tolist():
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
            cx.degeneracies.append(("II", tuple(sorted((i, j, m))),
                                    min(abs(dmin - rm), abs(dmax - rm))))
        if dmin >= rm:
            continue
        if dmax <= rm:
            return [], True
        tg = cx.triple(i, j, m)
        if tg is None:
            # Partial cover with no transversal triple intersection only
            # happens inside the tolerance band; treat as degenerate.
            cx.degeneracies.append(("II", tuple(sorted((i, j, m))), cx.tol))
            continue
        key = tuple(sorted((i, j, m)))
        angles = {}
        for tag, p in ((1, tg.p_plus), (-1, tg.p_minus)):
            rel = p - q
            ang = math.atan2(rel @ e2, rel @ e1) % TWO_PI
            angles[tag] = (ang, p)
        # Covered arc is centered at the in-plane azimuth of the occluder.
        az = math.atan2(g_perp @ e2, g_perp @ e1) % TWO_PI
        a_plus, a_minus = angles[1][0], angles[-1][0]
        span_pm = (a_minus - a_plus) % TWO_PI
        if (az - a_plus) % TWO_PI <= span_pm:
            start_tag, end_tag = 1, -1
        else:
            start_tag, end_tag = -1, 1
        start_ang, start_p = angles[start_tag]
        extent = (angles[end_tag][0] - start_ang) % TWO_PI
        end_p = angles[end_tag][1]
        start_ref = CornerRef(key, start_tag, m, start_p, start_ang)
        end_ref = CornerRef(key, end_tag, m, end_p, (start_ang + extent) % TWO_PI)
        out.append((start_ang, extent, m, start_ref, end_ref))
    return out, False


def _assemble_arcs(cx, edge, covered):
    """Union the covered intervals; the complement gives the exposed arcs.

    Angles are swept relative to the start of the first covered interval,
    which guarantees the sweep begins inside covered territory and no arc
    wraps across the base point.
    """
    if not covered:
        return [Arc(edge=edge, alpha_start=0.0, alpha_end=TWO_PI, extent=TWO_PI)]
    base = covered[0][0]
    base_start_ref = covered[0][3]
    events = []   # (relative angle, +1 cover starts / -1 cover ends, corner ref)
    depth0 = 0    # covers containing the base angle
    for start, extent, m, start_ref, end_ref in covered:
        s_rel = (start - base) % TWO_PI
        if s_rel == 0.0 or s_rel + extent > TWO_PI:
            depth0 += 1
        if s_rel > 0.0:
            events.append((s_rel, 1, start_ref))
        e_rel = (s_rel + extent) % TWO_PI
        if e_rel == 0.0:
            e_rel = TWO_PI
        events.append((e_rel, -1, end_ref))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    tol_ang = cx.tol / max(cx.edges[edge].pair.r, cx.tol)
    for (a1, d1, r1), (a2, d2, r2) in zip(events, events[1:]):
        if a2 - a1 < tol_ang and r1.occluder != r2.occluder:
            cx.degeneracies.append(
                ("II", tuple(sorted(set(edge) | {r1.occluder, r2.occluder})), a2 - a1))
    depth = depth0
    exposure_start = None     # (relative angle, corner ref)
    arcs_rel = []
    for ang, delta, ref in events:
        depth += delta
        if delta == -1 and depth == 0:
            exposure_start = (ang, ref)
        elif delta == 1 and depth == 1 and exposure_start is not None:
            s_ang, s_ref = exposure_start
            arcs_rel.append((s_ang, ang - s_ang, s_ref, ref))
            exposure_start = None
    if exposure_start is not None:
        # Exposure runs to the base angle, where the first cover begins.
        s_ang, s_ref = exposure_start
        arcs_rel.append((s_ang, TWO_PI - s_ang, s_ref, base_start_ref))
    arcs = []
    for s_rel, extent, s_ref, e_ref in arcs_rel:
        a0 = (s_rel + base) % TWO_PI
        arcs.append(Arc(edge=edge, alpha_start=a0, alpha_end=a0 + extent,
                        extent=extent, start=s_ref, end=e_ref))
    return arcs


def _mark_boundary_vertices(cx):
    balls = cx.balls
    for i, vd in cx.vertices.items():
        if not vd.in_alpha:
            continue
        incident = [e for e in cx.edges if i in e and cx.edges[e].on_boundary]
        if incident:
            vd.on_boundary = True
            continue
        # No exposed arcs on the sphere: it is entirely exposed or entirely
        # covered, so one test point decides.
        p = balls.centers[i] + balls.radii[i] * np.array([0.0, 0.0, 1.0])
        pows = _powers(p, balls)
        pows[i] = _INF
        vd.on_boundary = bool(pows.min() >= 0.0)

