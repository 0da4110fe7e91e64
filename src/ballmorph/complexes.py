"""Alpha complex of a weighted ball set, built by direct nerve tests.

The alpha complex is the nerve of the clipped balls B_i cap V_i.
Triangles are accepted by checking that condition directly: the corner
segment meets the Voronoi edge V_ijk.  The same intervals decide the
tetrahedra: the Voronoi vertex V_ijkl is the end of V_ijk where ball l
binds, and ijkl is in the complex when that end lies strictly inside the
corner segment of an alpha triangle ijk.  Vertices and edges come from a
centre test plus closure under faces:

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
in any test restricted to B_i.  Candidate edges and triangles are
therefore the cliques of the circle graph (pairs of spheres that meet in a
circle), enumerated by extending each sorted clique with the common larger
neighbours of its members.  Construction cost thus follows the cliques
rather than all index tuples.  Each test then runs over flat (row, m)
pairs, m a ball that meets every member ball of the row (d_im < r_i + r_m
+ tol, ``cx._meet``), with a reduction per row: the power at x_i and at
q_ij, the Voronoi bounds and binding ball, the corner and circle gaps,
and the bare-circle and sphere test points.  A ball m that misses member
a has pow_m > 0 >= pow_a at all of these points, so it never binds,
covers or decides, and its gap from a corner or circle on sphere a is at
least the pair gap (a, m).  Only the five-ball tie runs over every ball.

The candidate pairs and triples each get one batched pass per build
(geometry.pair_table, geometry.triple_points), kept as tables in key
order.  The alpha triangles are one more table, ``cx.triangle_table``:
per row its triple row, nu and the exposure of its two corner points.
The rest of the complex is arrays too: the flags ``cx.in_alpha`` and
``cx.on_boundary`` over the balls, and the alpha edges and tetrahedra as
key-ordered index arrays, ``cx.edge_keys`` and ``cx.tet_keys``.
``cx.key_rows`` finds rows in any of these by their integer key codes,
and the stages read columns (``cx.edge_pairs``, ``cx.corner_table``).

The exposed arcs of a circle S_ij end at exposed corners, and every
exposed corner of S_ij is a corner of an alpha triangle ijm.  So the
arcs come from the corners the triangle test has already classified, in
one sort by angle around their circles, with no further pass over the
balls, and make one array table per complex, ``cx.arcs``: a row per arc
with its circle, extent and two endpoint corners.  No record is made per
simplex or per arc.

Each decision keeps its residual, the distance to the state where it
would go the other way, as a column: the pair gaps, one per candidate
triple (|h^2| / scale, or the gap between the radical planes of collinear
centres), each live corner's gap to its nearest other sphere, each alpha
tetrahedron's five-ball tie, each alpha circle's gap to its nearest
tangent sphere, and a flag on the circles whose corners do not alternate.
Every residual is a length.  ``cx.records(tol)`` reads the records below
``tol`` off these columns.  The corner and circle columns hold gaps to
the meeting balls only, so ``cx._near_miss`` keeps each ball's least gap
to a ball it misses (at least tol), and the records re-check a row against
every sphere when its gap or a member's near miss is below ``tol``; at
cx.tol no row is added.  The strict refusal and
``diagnostics.general_position_check`` are that one view at cx.tol and at
the caller's tol.

A stack of states (geometry.BallSet.with_states) builds in one pass, with
no loop over states.  Each ball's row of the pair arrays (``cx._pair_gap``,
``cx._circle`` and ``cx._meet``) spans only the ``size`` balls of its own
state: they are one (states, size, size) pass over the centres, reshaped
to (n, size), and (n, n) for a plain set.  The cliques stay within a state,
so the flat (row, m) kernels run unchanged; ``_incident`` maps a row's
columns to the balls of its state, and the Voronoi slopes, the five-ball
tie (gathered by index) and the records read the row's state only.  The
strict refusal names the first state with a record, in its own indices.
"""

import math
from collections import namedtuple
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import CoincidentCenters, DegenerateState, NonRealizableTriangle
from .geometry import EPS_GEO, cross_rows, pair_table, row_dots, row_norms, \
    triple_points
from .sphtri import CornerGeometry, corner_geometry, vertex_angle

TWO_PI = 2.0 * math.pi
_INF = float("inf")
_SIDE_OF = np.array([[1, 2], [0, 2], [0, 1]])   # the side of a triangle opposite each vertex
_FACES = list(combinations(range(4), 3))          # the faces of a tetrahedron

# The candidate triples in key order with the columns of geometry.triple_points,
# NaN where collinear, and ``gap``, the residual of each triple's decision.
TripleTable = namedtuple("TripleTable", "ijk collinear center axis h_sq gap")


def plane_basis(u):
    """Orthonormal (e1, e2) spanning the plane normal to the unit vector u,
    with e1 x e2 = u; row by row when u is a (k, 3) array."""
    rows = np.atleast_2d(u)
    a = (np.arange(3) == np.argmin(np.abs(rows), axis=1)[:, None]).astype(float)
    e1 = cross_rows(a, rows)
    e1 /= row_norms(e1)[:, None]
    e2 = cross_rows(rows, e1)
    return (e1, e2) if u.ndim == 2 else (e1[0], e2[0])


class TriangleTable(NamedTuple):
    """One row per alpha triangle, in key order: ``ijk``, its ``triple`` row
    in the candidate triple table, ``nu``, the fraction of its corner
    segment inside V_ijk, and ``exposed``, whether p_plus and p_minus lie
    outside every other ball.  A face added by closure has nu 0 and no
    exposed corner.
    """

    ijk: np.ndarray          # (t, 3)
    triple: np.ndarray       # (t,)
    nu: np.ndarray           # (t,)
    exposed: np.ndarray      # (t, 2)


class CornerTable(NamedTuple):
    """One row per alpha triangle with an exposed corner, in key order:
    ``ijk``, sigma_ijk, the pair-table rows of the sides
    ij, jk and ki, and ``u`` with per side ab the u_ab along which d_ab
    grows with x_a (side ki is keyed (i, k), so its row is -u_ik).  ``geo``
    is the normal triangles' CornerGeometry and ``angles`` their angles at
    i, j and k, the turns of the spheres' boundary circuits at the corner.
    """

    ijk: np.ndarray
    sigma: np.ndarray
    sides: tuple
    u: np.ndarray
    geo: CornerGeometry
    angles: np.ndarray


class ArcTable(NamedTuple):
    """One row per exposed arc, the alpha edges in key order and each circle
    S_ij's arcs ccw around u_ij from its first start: the ``edge`` row in
    cx.edge_keys, the ``extent``, and per endpoint (start, then end) the
    ``corner`` row in the corner table, the ``tag`` (+1 for the corner on
    the positive side of the triangle's centre plane), the ``occluder`` k,
    the ``point`` and its ``angle`` from e1 of plane_basis(u_ij).  A whole
    circle has extent 2 pi and endpoints -1, 0, -1 and NaN.
    """

    edge: np.ndarray         # (arcs,)
    extent: np.ndarray       # (arcs,)
    corner: np.ndarray       # (arcs, 2)
    tag: np.ndarray          # (arcs, 2)
    occluder: np.ndarray     # (arcs, 2)
    point: np.ndarray        # (arcs, 2, 3)
    angle: np.ndarray        # (arcs, 2)

    @property
    def full(self):
        """Which rows are whole circles."""
        return self.corner[:, 0] < 0


class EulerData(NamedTuple):
    chi_alpha: int
    chi_surface: int


class AlphaComplex:
    """Simplices of the alpha complex with boundary structure, as arrays.

    ``in_alpha`` and ``on_boundary`` flag the balls that are vertices of
    the complex and of its boundary; ``edge_keys``, ``triangle_table`` and
    ``tet_keys`` hold the alpha edges, triangles and tetrahedra in key
    order.  The build keeps one residual column per family of decisions;
    ``records(tol)`` lists the (condition, simplex, residual) records below
    ``tol``, and ``degeneracies`` are those below cx.tol, the records the
    strict build refuses.
    """

    def __init__(self, balls):
        self.balls = balls
        self.tol = EPS_GEO * balls.scale
        self.in_alpha = None      # (n,) flags, set by the build
        self.on_boundary = None   # (n,) flags, set by the build
        self.edge_keys = None     # the alpha edges in key order, (edges, 2)
        self.triangle_table = None   # the TriangleTable, set by the build
        self.tet_keys = None      # the alpha tetrahedra in key order, (tets, 4)
        # The residual columns; the triple table holds the triples' own.
        # The pair arrays are (n, size): each ball's row spans its own state.
        self._pair_gap = None     # tangency gaps, inf at the ball itself and below
        self._meet = None         # the balls that meet, False at the ball itself
        self._near_miss = None    # (n,) each ball's least gap to a ball it does not meet
        self._corner_gap = None   # (triples, 2) live corners' |nearest gap|, else inf
        self._tet_vertex = None   # (tets, 3) the Voronoi vertex of each tetrahedron
        self._tie_gap = None      # (tets,) the least five-ball tie there
        self._circle_gap = None   # (edges,) the least tangency gap to an alpha circle
        self._arc_gap = None      # (edges,) 0 where the corners do not alternate, else inf
        self._pair_keys = None    # the candidate pairs in key order, (k, 2)
        self._pair_table = None   # their PairTable
        self._triple_table = None   # the TripleTable of the candidate triples
        self.arcs = None          # the ArcTable, set by the build

    # -- cached elementary geometry -------------------------------------

    def key_rows(self, keys, query):
        """The rows in ``keys``, a sorted (k, d) array of sorted index tuples
        (the pair, edge, triple or triangle keys), of the tuples ``query``,
        found by a searchsorted on integer key codes; -1 where one is absent."""
        n = self.balls.n
        code = n ** np.arange(keys.shape[1])[::-1]
        have = np.append(keys @ code, n * code[0])     # above every code
        query = np.reshape(query, (-1, len(code)))
        # An index outside 0..n-1 would alias another tuple's code.
        want = np.where(((query >= 0) & (query < n)).all(axis=1), query @ code, -1)
        at = np.searchsorted(have, want)
        return np.where(have[at] == want, at, -1)

    def corner_points(self, rows):
        """The points p_plus and p_minus, center +/- half * axis, of the
        triple table's ``rows``, as a (rows, 2, 3) array."""
        triples = self._triple_table
        half = np.sqrt(triples.h_sq[rows])[:, None, None] * np.array([[1.0], [-1.0]])
        return triples.center[rows, None] + half * triples.axis[rows, None]

    def pair_columns(self, keys):
        """The pair-table rows of the sorted index pairs ``keys``."""
        return self._pair_table.take(self.key_rows(self._pair_keys, keys))

    def edge_rows(self, keys):
        """The rows in edge_keys of the sorted index pairs ``keys``; -1 where
        one is no alpha edge."""
        return self.key_rows(self.edge_keys, keys)

    # -- tables of the finished complex, each built on first use ----------

    @cached_property
    def edge_pairs(self):
        """The pair-table rows of the alpha edges, in key order."""
        return self.pair_columns(self.edge_keys)

    @cached_property
    def corner_table(self):
        """The CornerTable: each corner formula runs once over all rows, and
        a normal triangle that is not realizable raises DegenerateState."""
        tris = self.triangle_table
        on = tris.exposed.any(axis=1)
        ijk = tris.ijk[on]
        sides = tuple(self.pair_columns(ijk[:, side]) for side in ([0, 1], [1, 2], [0, 2]))
        cos = tuple(side.cos_phi for side in sides)
        # The angles at i, j and k are vertex_angle of the three rotations.
        turns = [np.concatenate(cos[m:] + cos[:m]) for m in range(3)]
        try:
            geo = corner_geometry(*cos)
            angles = vertex_angle(*turns).reshape(3, -1).T
        except NonRealizableTriangle as exc:
            raise DegenerateState(str(exc), simplex=tuple(
                (ijk[exc.index % len(ijk)] % self.balls.size).tolist())) from exc
        return CornerTable(
            ijk=ijk, sigma=0.5 * tris.exposed[on].sum(axis=1), sides=sides,
            u=np.stack([sides[0].u_ij, sides[1].u_ij, -sides[2].u_ij], axis=1),
            geo=geo, angles=angles)

    # -- queries ---------------------------------------------------------

    def alpha_simplices(self):
        """All alpha simplices as sorted index tuples, each dimension in key
        order."""
        blocks = (np.flatnonzero(self.in_alpha)[:, None], self.edge_keys,
                  self.triangle_table.ijk, self.tet_keys)
        return [tuple(key) for keys in blocks for key in keys.tolist()]

    def boundary_vertices(self):
        return np.flatnonzero(self.on_boundary).tolist()

    def boundary_edges(self):
        """The alpha edges with exposed arcs, in key order."""
        return [tuple(key) for key in self.edge_keys[_unique(self.arcs.edge)].tolist()]

    # -- residuals -------------------------------------------------------

    def records(self, tol):
        """The (condition, simplex, residual) records of the decisions whose
        residual is below ``tol``, family by family and each in key order:
        pairs, triples, corners, five-ball ties, circle tangencies and
        circles whose arcs are undecided.  A corner, tetrahedron or circle
        below ``tol`` gives a record for every sphere within ``tol`` of it,
        from the gap function the build used on that family.  The build's
        corner and circle gaps are over the balls that meet a member ball,
        so a row is re-checked against every sphere when its gap is below
        ``tol`` or a member's near miss is."""
        if self.min_residual >= tol:     # the usual case, kept off the row scans
            return []
        tri, size = self._triple_table, self.balls.size
        other = np.ones_like(self._meet)      # every sphere of the state but the row's members
        other[np.arange(len(other)), np.arange(len(other)) % size] = False
        near = self._near_miss < tol
        r, m = np.nonzero(self._pair_gap < tol)
        out = _within("II", np.arange(self.balls.n)[:, None], r, m + r // size * size,
                      self._pair_gap[r, m], tol)
        t = np.flatnonzero(tri.gap < tol)
        out += [("I" if c else "II", tuple(key), g) for key, c, g in zip(
            tri.ijk[t].tolist(), tri.collinear[t].tolist(), tri.gap[t].tolist())]
        live = tri.h_sq > self.tol * self.balls.scale
        t, s = np.nonzero((self._corner_gap < tol) | (live & near[tri.ijk].any(axis=1))[:, None])
        r, m = _incident(other, tri.ijk[t])
        gaps = _corner_gaps(self, self.corner_points(t)[r, s[r]], m)
        # A corner more than tol inside a ball has no record: its residual,
        # the nearest signed gap, is not below tol.
        keep = ~(np.bincount(r[gaps <= -tol], minlength=len(t)) > 0)[r]
        out += _within("II", tri.ijk[t], r[keep], m[keep], np.abs(gaps[keep]), tol)
        t = np.flatnonzero(self._tie_gap < tol)
        gaps = _tie_gaps(self, self._tet_vertex[t], self.tet_keys[t])
        r, m = np.nonzero(gaps < tol)
        out += _within("I", self.tet_keys[t], r, m + self.tet_keys[t[r], 0] // size * size,
                       gaps[r, m], tol)
        e = np.flatnonzero((self._circle_gap < tol) | near[self.edge_keys].any(axis=1))
        r, m = _incident(other, self.edge_keys[e])
        out += _within("II", self.edge_keys[e], r, m, _circle_gaps(self, e[r], m), tol)
        e = np.flatnonzero(self._arc_gap < tol)
        return out + [("II", tuple(key), 0.0) for key in self.edge_keys[e].tolist()]

    @property
    def min_residual(self):
        """The least residual of every decision of the build."""
        return float(min(column.min(initial=_INF) for column in (
            self._pair_gap, self._triple_table.gap, self._corner_gap, self._tie_gap,
            self._circle_gap, self._arc_gap)))

    @property
    def condition2_margin(self):
        """The least residual of the pair, h^2 and corner decisions."""
        tri = self._triple_table
        return float(min(self._pair_gap.min(initial=_INF),
                         tri.gap[~tri.collinear].min(initial=_INF),
                         self._corner_gap.min(initial=_INF)))

    @cached_property
    def degeneracies(self):
        """The records below cx.tol, which the strict build refuses."""
        return self.records(self.tol)

    def require_generic(self, conditions=("I", "II")):
        """Raise DegenerateState at the least record of ``conditions``; in a
        stack, the least of the first state with one, in its own indices."""
        size = self.balls.size
        records = [record for record in self.degeneracies if record[0] in conditions]
        if records:
            state = min(record[1][0] // size for record in records)
            cond, simplex, residual = min(
                (record for record in records if record[1][0] // size == state),
                key=lambda r: r[2])
            simplex = tuple(v - state * size for v in simplex)
            raise DegenerateState(
                f"state violates Condition {cond} at simplex {simplex} "
                f"(residual {residual:.3e})", simplex=simplex, residual=residual)


def build_alpha_complex(balls, strict=True):
    """Construct the alpha complex with boundary arcs and corner exposure.

    With ``strict`` the construction raises DegenerateState when the state
    is within tolerance of a general-position violation that can change the
    complex; diagnostics passes strict=False to obtain the report instead.
    """
    cx = AlphaComplex(balls)
    _check_pairs(cx)
    pairs = _extend_cliques(cx._circle, np.arange(balls.n)[:, None])
    _build_vertices(cx)
    _build_edges(cx, pairs)
    _build_triangles(cx, _extend_cliques(cx._circle, pairs))
    _close_faces(cx)
    _build_arcs(cx)
    _mark_boundary_vertices(cx)

    if strict:
        cx.require_generic()
    return cx


def euler(cx):
    """Euler characteristics of the alpha complex and of the surface."""
    chi = (int(cx.in_alpha.sum()) - len(cx.edge_keys) + len(cx.triangle_table.ijk)
           - len(cx.tet_keys))
    return EulerData(chi_alpha=chi, chi_surface=2 * chi)


# -- construction helpers ------------------------------------------------

def _powers(pts, balls, m):
    """Power distance of the points ``pts`` (shape (..., 3)) to the balls
    ``m``, an index array or slice broadcast against their leading axes."""
    d = pts - balls.centers[m]
    return np.einsum("...j,...j->...", d, d) - balls.radii[m] ** 2


def _incident(mask, rows):
    """The flat pairs (r, m), r ascending and m ascending within a row, of
    each row of ``rows`` (a (k, d) index array) and every m with mask[a, m]
    for all its members a.  With ``cx._meet`` these are the balls that meet
    every member ball; the members drop out through its False diagonal.
    The columns of ``mask`` are the balls of the row's state, so m is its
    column plus the index of the state's first ball."""
    hit = mask[rows[:, 0]]
    for column in rows.T[1:]:
        hit &= mask[column]
    r, m = np.nonzero(hit)
    size = mask.shape[1]
    return r, m + rows[r, 0] // size * size


def _unique(values):
    """np.unique of a 1-d array, by one sort: np.unique imports numpy.ma."""
    values = np.sort(values)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]     # the first is new


def _row_min(r, values, rows):
    """The least of ``values`` over the flat pairs of each of ``rows`` rows,
    given their row indices ``r``; inf for a row without pairs."""
    least = np.full(rows, _INF)
    np.minimum.at(least, r, values)
    return least


def _extend_cliques(circle, rows):
    """The cliques of balls whose spheres pairwise meet in circles that
    extend the cliques ``rows`` (a (k, d) index array in lexicographic
    order) by one ball, in lexicographic order.

    A sorted row is extended by every larger index adjacent to all its
    members: the AND of the members' rows of ``circle`` (an (n, size)
    array, columns the balls of the row's state) above each row's own
    column.  np.nonzero walks that row-major, which is the order of
    itertools.combinations.
    """
    size = circle.shape[1]
    r, m = _incident(circle & (np.arange(len(circle))[:, None] % size < np.arange(size)), rows)
    return np.column_stack([rows[r], m])


def _within(condition, keys, r, m, gaps, tol):
    """A record for each pair (row r, sphere m) whose gap is below tol, its
    simplex the row's key with m added, sorted; in pair order."""
    hit = gaps < tol
    simplices = np.sort(np.column_stack([keys[r[hit]], m[hit]]), axis=1)
    return [(condition, tuple(s), g) for s, g in zip(simplices.tolist(), gaps[hit].tolist())]


def _check_pairs(cx):
    """The tangency gaps ``cx._pair_gap``, the circle-pair mask, the
    incidence ``cx._meet`` (d_im < r_i + r_m + tol, off the diagonal) and
    each ball's least gap ``cx._near_miss`` to a ball it does not meet.
    Each is an (n, size) array: a ball's row spans the balls of its own
    state, in that state's order.  All states are one pass over (states,
    size, size) arrays of the centres' differences, reshaped to (n, size)."""
    balls, size = cx.balls, cx.balls.size
    centers, radii = balls.centers.reshape(-1, size, 3), balls.radii.reshape(-1, size)
    diff = centers[:, :, None, :] - centers[:, None, :, :]
    dist = np.sqrt(np.einsum("sijk,sijk->sij", diff, diff))
    r_i, r_m = radii[:, :, None], radii[:, None, :]
    r_sum, r_dif = r_i + r_m, np.abs(r_i - r_m)
    gap = np.minimum(np.abs(dist - r_sum), np.abs(dist - r_dif))
    upper = np.arange(size)[:, None] < np.arange(size)
    close = upper & (dist <= EPS_GEO * np.maximum(r_i, r_m))
    if close.any():
        _, a, b = np.argwhere(close)[0].tolist()
        raise CoincidentCenters(f"balls {a} and {b} have coincident centers")
    cx._pair_gap = np.where(upper, gap, _INF).reshape(-1, size)
    cx._circle = ((r_dif < dist) & (dist < r_sum)).reshape(-1, size)
    meet = dist < r_sum + cx.tol
    cx._near_miss = np.where(meet, _INF, gap).min(axis=2).ravel()
    cx._meet = (meet & ~np.eye(size, dtype=bool)).reshape(-1, size)


def _build_vertices(cx):
    """Vertex i is in the complex when x_i lies in V_i; closure adds the rest.

    The power of x_i is -r_i^2 to its own ball and tested against the balls
    that meet B_i: a ball m that misses B_i has pow_m(x_i) > 0 > -r_i^2."""
    balls = cx.balls
    r, m = _incident(cx._meet, np.arange(balls.n)[:, None])
    least = _row_min(r, _powers(balls.centers[r], balls, m), balls.n)
    cx.in_alpha = -balls.radii ** 2 <= least + cx.tol ** 2


def _build_edges(cx, pairs):
    """The pair table of the candidate pairs; edge ij is in the complex when
    the circle centre q_ij lies in V_ij, and closure adds the rest."""
    balls = cx.balls
    table = pair_table(balls.centers, balls.radii, pairs)
    cx._pair_keys, cx._pair_table = pairs, table
    r, m = _incident(cx._meet, pairs)
    least = _row_min(r, _powers(table.center[r], balls, m), len(pairs))
    accept = table.has_circle & (_powers(table.center, balls, pairs[:, 0])
                                 <= least + cx.tol ** 2)
    cx.edge_keys = pairs[accept]


def _build_triangles(cx, idx):
    """The candidate triple table of the triples ``idx``, and the alpha
    triangles: those whose corner segment meets V_ijk."""
    balls = cx.balls
    collinear, center, axis, h_sq = triple_points(balls.centers, balls.radii, idx, EPS_GEO)
    columns = (np.full((len(idx), 3), np.nan), np.full((len(idx), 3), np.nan),
               np.full(len(idx), np.nan))
    for column, part in zip(columns, (center, axis, h_sq)):
        column[~collinear] = part
    # The discriminant h^2 is the smooth residual of the corner pair
    # degenerating; divided by the scale it is a length, like every residual.
    gap = np.abs(columns[2]) / balls.scale
    if collinear.any():
        gap[collinear] = _collinear_gaps(cx, idx[collinear])
    cx._triple_table = TripleTable(idx, collinear, *columns, gap)
    rows = np.flatnonzero(columns[2] > cx.tol * balls.scale)     # the live triples
    center, axis, half = columns[0][rows], columns[1][rows], np.sqrt(columns[2][rows])
    r, m = _incident(cx._meet, idx[rows])      # the balls that meet all three
    ends, feasible, binding = _voronoi_intervals(cx, idx[rows], center, axis, r, m)
    a_clip = np.maximum(ends[:, 0], -half)
    b_clip = np.minimum(ends[:, 1], half)
    nu = np.where(feasible & (b_clip > a_clip), (b_clip - a_clip) / (2.0 * half), 0.0)
    # A corner is exposed when it lies outside every other ball.
    gaps = _corner_gaps(cx, cx.corner_points(rows)[r], m[:, None])
    k = len(rows)
    nearest = _row_min(np.concatenate([r, r + k]), gaps.T.ravel(), 2 * k).reshape(2, k).T
    exposed = nearest > 0.0
    cx._corner_gap = np.full((len(idx), 2), _INF)
    cx._corner_gap[rows] = np.abs(nearest)
    accept = nu > 0.0
    cx.triangle_table = TriangleTable(ijk=idx[rows[accept]], triple=rows[accept],
                                      nu=nu[accept], exposed=exposed[accept])
    # Tetrahedron ijkl is in the complex when the end of V_ijk where ball l
    # binds, the Voronoi vertex V_ijkl, lies strictly inside the corner
    # segment of an alpha triangle ijk, so inside all four balls; such an l
    # meets i, j and k in circles but for rounding at a tangency.
    t, end = np.nonzero(accept[:, None] & (np.abs(ends) < half[:, None]))
    own = binding[t, end, None] % balls.size
    t, end = (v[cx._circle[idx[rows[t]], own].all(axis=1)] for v in (t, end))
    quads = np.sort(np.column_stack([idx[rows[t]], binding[t, end]]), axis=1)
    cx.tet_keys, first = np.unique(quads, axis=0, return_index=True)
    t, end = t[first], end[first]
    cx._tet_vertex = center[t] + ends[t, end, None] * axis[t]
    cx._tie_gap = _tie_gaps(cx, cx._tet_vertex, cx.tet_keys).min(axis=1, initial=_INF)


def _collinear_gaps(cx, tri):
    """The least gap between the radical planes of collinear centers: they
    are parallel, and degenerate only where two of them coincide (the
    Voronoi intersection would gain a dimension)."""
    centers = cx.balls.centers
    u = centers[tri[:, 1]] - centers[tri[:, 0]]
    u = u / row_norms(u)[:, None]
    sides = cx.key_rows(cx._pair_keys, tri[:, [0, 1, 0, 2, 1, 2]]).reshape(-1, 3)
    pos = row_dots(cx._pair_table.center[sides], u[:, None, :])
    return np.abs(pos[:, [0, 0, 1]] - pos[:, [1, 2, 2]]).min(axis=1)


def _voronoi_intervals(cx, idx, center, axis, r, m):
    """The (t, 2) parameter ends [lo, hi] of V_ijk on the radical lines,
    whether each interval is non-empty, and the ball that binds at each end,
    over the flat pairs (r, m) of the triples ``idx`` and the balls that meet
    their balls."""
    balls = cx.balls
    i = idx[:, 0]
    # pi_i(p(s)) - pi_m(p(s)) = inter + s * slope  per pair (triple, ball m).
    inter = _powers(center, balls, i)[r] - _powers(center[r], balls, m)
    # <axis, x_m - x_0> with x_0 the first ball of the state: differences only.
    rel = balls.centers.reshape(-1, balls.size, 3)
    rel = (rel - rel[:, :1]).reshape(-1, 3)
    slope = 2.0 * (row_dots(axis[r], rel[m]) - row_dots(axis, rel[i])[r])
    tiny = np.abs(slope) < 1e-300
    infeasible = np.bincount(r[tiny & (inter > 0)], minlength=len(idx)) > 0
    bound = np.where(tiny, 0.0, -inter / np.where(tiny, 1.0, slope))
    # Per row and end, the greatest lower and least upper bound (rows -lo,
    # then hi) and the first m that gives it, as argmax and argmin take it.
    t = len(idx)
    end = np.concatenate([r, r + t])
    bounds = np.concatenate([np.where(~tiny & (slope < 0), -bound, _INF),
                             np.where(~tiny & (slope > 0), bound, _INF)])
    least, binding = _row_min(end, bounds, 2 * t), np.full(2 * t, -1)
    first = np.flatnonzero(bounds == least[end])
    first = first[np.diff(end[first], prepend=-1) > 0]
    binding[end[first]] = m[first % len(m)]
    ends = np.column_stack([-least[:t], least[t:]])
    return ends, ~infeasible & (ends[:, 0] <= ends[:, 1]), binding.reshape(2, t).T


def _corner_gaps(cx, pts, m):
    """The signed gap |p - x_m| - r_m of the points ``pts`` to the spheres
    ``m``, broadcast as in _powers."""
    d = pts - cx.balls.centers[m]
    return np.sqrt(np.einsum("...j,...j->...", d, d)) - cx.balls.radii[m]


def _tie_gaps(cx, z, quads):
    """The five-ball tie |pow_m(z) - pow_i(z)| / scale of every ball m at the
    Voronoi vertex z of each tetrahedron in ``quads``, inf at its members.
    Where it vanishes the five balls are power-equidistant at z, so the
    configuration sits on a flip submanifold and the set of tetrahedra is a
    tie-break.  A ball that misses a member can still tie, so this test
    runs over every ball of the row's state; column m is the state's ball m."""
    balls, size = cx.balls, cx.balls.size
    state = quads[:, 0] // size
    d = balls.centers.reshape(-1, size, 3)[state]     # each row's own state, then z - x_m
    np.subtract(z[:, None], d, out=d)
    gap = np.einsum("...j,...j->...", d, d) - (balls.radii.reshape(-1, size) ** 2)[state]
    del d       # the (rows, size, 3) block, before the temporaries below
    own = quads % size
    rows = np.arange(len(quads))
    gap = np.abs(gap - gap[rows, own[:, 0], None]) / balls.scale
    gap[rows[:, None], own] = _INF
    return gap


def _close_faces(cx):
    """Enforce closure of the alpha complex under taking faces.  A face of
    a tetrahedron that is no alpha triangle joins the triangle table with
    nu 0 and no exposed corner, when its spheres meet in two points more
    than the band apart.  The sides of every triangle join the edges, in
    key order, and the ends of every edge the vertices."""
    tris, ijk = cx.triangle_table, cx._triple_table.ijk
    faces = cx.key_rows(ijk, cx.tet_keys[:, _FACES])   # a tetrahedron's faces are candidates
    live = cx._triple_table.h_sq[faces] > cx.tol * cx.balls.scale
    new = _unique(faces[live & ~np.isin(faces, tris.triple)])
    triple = np.concatenate([tris.triple, new])
    order = np.argsort(triple)
    cx.triangle_table = TriangleTable(
        ijk=ijk[triple[order]], triple=triple[order],
        nu=np.concatenate([tris.nu, np.zeros(len(new))])[order],
        exposed=np.concatenate([tris.exposed, np.zeros((len(new), 2), dtype=bool)])[order])
    n = cx.balls.n
    sides = cx.triangle_table.ijk[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)
    codes = _unique(np.concatenate([cx.edge_keys, sides]) @ [n, 1])
    cx.edge_keys = np.column_stack(np.divmod(codes, n))
    cx.in_alpha[cx.edge_keys] = True


def _build_arcs(cx):
    """The ArcTable of every alpha circle S_ij, from the exposed corners of
    its alpha triangles ijm, put in ccw order by one sort by (edge, angle,
    corner key).  Walking ccw around u_ij from a corner p enters B_m exactly
    when (x_m - p) . (u_ij x (p - q_ij)) > 0; such a corner ends an arc and
    every other corner starts one.  Starts and ends alternate unless a
    corner lies within tol of a fourth sphere, which its corner gap
    records; such a circle gets an arc gap of 0 and no arcs.  One point
    decides a circle with no exposed corner.
    """
    balls = cx.balls
    keys = cx.edge_keys
    near = _incident(cx._meet, keys)      # the balls that meet both spheres
    cx._circle_gap = _row_min(near[0], _circle_gaps(cx, *near), len(keys))
    pairs = cx.edge_pairs
    e1, e2 = plane_basis(pairs.u_ij)
    # Each exposed corner of triangle t lies on its three sides' circles;
    # the triangles with one are the corner table's rows.
    tris = cx.triangle_table
    on = tris.exposed.any(axis=1)
    ijk, points, exposed = tris.ijk[on], cx.corner_points(tris.triple[on]), tris.exposed[on]
    t, s = np.nonzero(exposed)
    t, s, m = np.repeat(t, 3), np.repeat(s, 3), np.arange(3 * len(t)) % 3
    occ = ijk[t, m]
    edge = cx.edge_rows(ijk[t[:, None], _SIDE_OF[m]])
    p = points[t, s]
    rel = p - pairs.center[edge]
    x, y = row_dots(rel, e1[edge]), row_dots(rel, e2[edge])
    angle = np.arctan2(y, x) % TWO_PI
    ends = row_dots(balls.centers[occ] - p, cross_rows(pairs.u_ij[edge], rel)) > 0.0
    tag = 1 - 2 * s
    order = np.lexsort((tag, t, angle, edge))
    edge, t, tag, occ, p, angle, ends = (v[order] for v in (edge, t, tag, occ, p, angle, ends))
    count = np.bincount(edge, minlength=len(keys))
    stop = np.cumsum(count)[edge]
    nxt = np.arange(1, len(edge) + 1)
    nxt = np.where(nxt == stop, stop - count[edge], nxt)      # the next corner ccw
    broken = np.bincount(edge[ends == ends[nxt]], minlength=len(keys)) > 0
    cx._arc_gap = np.where(broken, 0.0, _INF)
    # On an intact circle each start is followed by an end.
    a = np.flatnonzero(~broken[edge] & ~ends)
    # The circles without corners: exposed when their point on e1 is.
    c, m = (v[count[near[0]] == 0] for v in near)
    pows = _powers((pairs.center + pairs.r[:, None] * e1)[c], balls, m)
    whole = np.flatnonzero((count == 0) & (_row_min(c, pows, len(keys)) >= 0.0))
    # A whole circle takes both its endpoints from a blank entry put last.
    t, tag, occ, angle, p = (np.concatenate((v, [fill])) for v, fill in (
        (t, -1), (tag, 0), (occ, -1), (angle, np.nan), (p, np.full(3, np.nan))))
    arc_edge, blank = np.concatenate([edge[a], whole]), np.full(len(whole), len(edge))
    rows = np.argsort(arc_edge, kind="stable")
    at = np.array([np.concatenate((a, blank)), np.concatenate((nxt[a], blank))]).T[rows]
    extent = np.concatenate([(angle[nxt[a]] - angle[a]) % TWO_PI, np.full(len(whole), TWO_PI)])
    cx.arcs = ArcTable(edge=arc_edge[rows], extent=extent[rows], corner=t[at], tag=tag[at],
                       occluder=occ[at], point=p[at], angle=angle[at])


def _circle_gaps(cx, e, m):
    """The gap of sphere m to touching the alpha circle S_ij of edge row e,
    pair by pair.

    The points of S_ij nearest to and farthest from x_m lie at distances
    dmin and dmax; sphere m touches the circle when either equals r_m.  The
    corner discriminant h^2 of ijm also vanishes there, but its power band
    is not a length band and can miss a tangency that this one catches.
    """
    balls = cx.balls
    pairs = cx.edge_pairs
    u, rho, radii = pairs.u_ij[e], pairs.r[e], balls.radii[m]
    g = balls.centers[m] - pairs.center[e]
    g_u = np.einsum("pk,pk->p", g, u)
    b = np.linalg.norm(g - g_u[:, None] * u, axis=1)
    return np.minimum(np.abs(np.hypot(g_u, b - rho) - radii),
                      np.abs(np.hypot(g_u, b + rho) - radii))


def _mark_boundary_vertices(cx):
    """A vertex is on the boundary when its sphere has exposed arcs.  A
    sphere without them is entirely exposed or entirely covered, so one
    test point x_i + r_i z decides it."""
    balls = cx.balls
    on = np.zeros(balls.n, dtype=bool)
    on[cx.edge_keys[cx.arcs.edge]] = True
    rest = np.flatnonzero(cx.in_alpha & ~on)
    pts = balls.centers[rest] + balls.radii[rest, None] * np.array([0.0, 0.0, 1.0])
    r, m = _incident(cx._meet, rest[:, None])
    on[rest] = _row_min(r, _powers(pts[r], balls, m), len(rest)) >= 0.0
    cx.on_boundary = on

