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
larger neighbours of its members.  Construction cost thus follows the
cliques rather than all index tuples; the batched power kernel
``_powers`` still takes a column for every ball, because
diagnostics.general_position_check reads their all-ball records.

The exposed arcs of a circle S_ij end at exposed corners, and every
exposed corner of S_ij is a corner of an alpha triangle ijm.  So the
arcs come from the corners the triangle test has already classified,
sorted by angle around the circle, with no further pass over the balls.
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
    boundary_edges: list = field(default_factory=list)   # incident, in key order


@dataclass
class EdgeData:
    pair: object
    e1: np.ndarray = None
    e2: np.ndarray = None
    in_alpha: bool = False
    on_boundary: bool = False
    arcs: list = field(default_factory=list)


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
        cx.tetrahedra[tuple(int(v) for v in idx[m])] = TetData(in_alpha=True)
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
    """Exposed arcs of every alpha circle S_ij, from the exposed corners of
    its alpha triangles ijm.

    Walking ccw around u_ij from a corner p enters B_m exactly when
    (x_m - p) . (u_ij x (p - q_ij)) > 0; such a corner ends an exposed arc
    and every other corner starts one.  Sorted by angle, starts and ends
    alternate unless a corner lies within tol of a fourth sphere, which
    _points_exposed has recorded; such a circle is flagged and left without
    arcs.  A circle with no exposed corner is wholly exposed or wholly
    covered, so one point decides.
    """
    balls = cx.balls
    edges = sorted(e for e, data in cx.edges.items() if data.in_alpha)
    _record_circle_tangencies(cx, edges)
    corners = {}
    for key, tdata in cx.triangles.items():
        if not tdata.on_boundary:
            continue
        tg = tdata.triple
        for tag, exposed, p in ((1, tdata.exposed_plus, tg.p_plus),
                                (-1, tdata.exposed_minus, tg.p_minus)):
            if exposed:
                for m in key:
                    edge = tuple(v for v in key if v != m)
                    corners.setdefault(edge, []).append((key, tag, m, p))
    for edge in edges:
        data = cx.edges[edge]
        pg = data.pair
        q = pg.center
        found = corners.get(edge)
        if not found:
            pows = _powers(q + pg.r * data.e1, balls)
            pows[list(edge)] = _INF
            data.arcs = [Arc(edge=edge, extent=TWO_PI)] if pows.min() >= 0.0 else []
        else:
            refs = []
            for key, tag, m, p in found:
                rel = p - q
                refs.append(CornerRef(key, tag, m, p,
                                      math.atan2(rel @ data.e2, rel @ data.e1) % TWO_PI))
            refs.sort(key=lambda r: (r.angle, r.key))
            ends = [float((balls.centers[r.occluder] - r.point)
                          @ cross3(pg.u_ij, r.point - q)) > 0.0 for r in refs]
            if any(a == b for a, b in zip(ends, ends[1:] + ends[:1])):
                cx.degeneracies.append(("II", edge, cx.tol))
                data.arcs = []
            else:
                first = ends.index(False)
                refs = refs[first:] + refs[:first]
                data.arcs = [Arc(edge=edge, extent=(e.angle - s.angle) % TWO_PI,
                                 start=s, end=e)
                             for s, e in zip(refs[::2], refs[1::2])]
        data.on_boundary = bool(data.arcs)


def _record_circle_tangencies(cx, edges):
    """Record each sphere m within tol of touching a circle S_ij.

    The points of S_ij nearest to and farthest from x_m lie at distances
    dmin and dmax; sphere m touches the circle when either equals r_m.  The
    corner discriminant h^2 of ijm also vanishes there, but its power band
    is not a length band and can miss a tangency that this one catches.
    """
    if not edges:
        return
    balls = cx.balls
    pgs = [cx.edges[e].pair for e in edges]
    u = np.stack([pg.u_ij for pg in pgs])
    rho = np.array([pg.r for pg in pgs])[:, None]
    g = balls.centers[None, :, :] - np.stack([pg.center for pg in pgs])[:, None, :]
    g_u = np.einsum("emk,ek->em", g, u)
    b = np.linalg.norm(g - g_u[:, :, None] * u[:, None, :], axis=2)
    gap = np.minimum(np.abs(np.hypot(g_u, b - rho) - balls.radii),
                     np.abs(np.hypot(g_u, b + rho) - balls.radii))
    rows = np.arange(len(edges))
    for col in range(2):
        gap[rows, [e[col] for e in edges]] = _INF
    for e, m in zip(*np.nonzero(gap < cx.tol)):
        cx.degeneracies.append(("II", tuple(sorted(edges[e] + (int(m),))),
                                float(gap[e, m])))


def _mark_boundary_vertices(cx):
    balls = cx.balls
    for key in sorted(cx.edges):
        if cx.edges[key].on_boundary:
            for v in key:
                cx.vertices[v].boundary_edges.append(key)
    for i, vd in cx.vertices.items():
        if not vd.in_alpha:
            continue
        if vd.boundary_edges:
            vd.on_boundary = True
            continue
        # No exposed arcs on the sphere: it is entirely exposed or entirely
        # covered, so one test point decides.
        p = balls.centers[i] + balls.radii[i] * np.array([0.0, 0.0, 1.0])
        pows = _powers(p, balls)
        pows[i] = _INF
        vd.on_boundary = bool(pows.min() >= 0.0)

