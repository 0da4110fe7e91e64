"""General-position checking and classification of topological events.

Condition I concerns the dimensions of Voronoi intersections (flips in the
weighted Delaunay mosaic), Condition II the dimensions of sphere
intersections (tangencies).  Violations of II at the surface are where the
curvature gradient jumps; the probe walks a motion path and reports
one-sided gradient limits around flagged states.  The residuals, the quad
orthocentres (off the triple table's radical lines) and the Betti numbers
read the complex's tables as columns, rows found by key.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .complexes import _extend_cliques, _powers, build_alpha_complex
from .errors import CoincidentCenters, DegenerateState, Unclassifiable
from .geometry import as_momentum, cross_rows, row_dots, row_norms
from .pipeline import evaluate

@dataclass(frozen=True)
class Violation:
    condition: str          # "I" or "II"
    simplex: tuple
    residual: float
    event_class: str = None


@dataclass
class DegeneracyReport:
    violations: list
    min_residual: float

    @property
    def generic(self):
        return not self.violations


def general_position_check(balls, cx=None, tol=1e-6):
    """Residuals of the state against every general-position violation.

    A view over the geometry of the alpha complex ``cx`` (built with
    strict=False when None), plus the candidate quads' orthocentres, read
    off the radical lines of its triple table: ``tol`` only picks the
    records reported as violations.  Residuals are lengths (power gaps are
    divided by the diagram scale); ``min_residual`` over all records serves
    as the distance-to-degeneracy metric even when no violation is below
    ``tol``.  Records come in the order pairs, circle triples, the corners
    of each triple against every fourth sphere, then candidate quads.
    """
    if cx is None:
        cx = build_alpha_complex(balls, strict=False)
    n, radii, scale = balls.n, balls.radii, balls.scale
    violations = []

    def note(residuals, record):
        """Report each record below tol; record(k) is the (condition,
        simplex) of residuals.flat[k], which is in record order."""
        for k in np.flatnonzero(residuals < tol):
            violations.append(Violation(*record(k), float(residuals.flat[k])))

    # Pair k of the upper triangle, row by row, is (i, j) with i the last
    # ball whose pairs start at or before k.
    first = np.cumsum(np.arange(n)[::-1]) - np.arange(n)[::-1]

    def pair(k):
        i = int(np.searchsorted(first, k, side="right")) - 1
        return "II", (i, int(k - first[i]) + i + 1)

    pair_res = cx._pair_gap
    note(pair_res, pair)

    # The discriminant h^2 is the smooth residual of the two-point
    # intersection folding away; state-space distance scales with it.
    # Collinear centres (no radical center) are a Condition I record at 0.
    tris, collinear, _, _, h_sq = cx._triple_table
    tri_res = np.where(collinear, 0.0, np.abs(h_sq) / scale)
    note(tri_res, lambda k: ("I" if collinear[k] else "II", tuple(tris[k].tolist())))

    live = np.flatnonzero(h_sq > 0.0)
    diff = cx.corner_points(live)[:, :, None, :] - balls.centers
    corner_gap = np.abs(np.sqrt(np.einsum("tsmj,tsmj->tsm", diff, diff)) - radii)
    corner_gap[np.arange(len(live))[:, None], :, tris[live]] = math.inf
    note(corner_gap, lambda k: ("II", tuple(sorted(tris[live[k // (2 * n)]].tolist()
                                                   + [int(k % n)]))))

    idx, coplanar, excess, tie, fifth = _quad_residuals(balls, cx)
    # Flattening tets matter only when the quad is locally Delaunay, so a
    # small determinant is reported but kept out of the metric.  Only a tie
    # in the minimal power changes the mosaic.
    five_res = np.where(excess <= 2.0 * tol * scale, tie / (2.0 * scale), math.inf)
    note(np.stack([coplanar * scale, five_res], axis=1),
         lambda k: ("I", tuple(int(v) for v in idx[k // 2])
                    + ((int(fifth[k // 2]),) if k % 2 else ())))

    min_res = min((float(r.min()) for r in (pair_res, tri_res, corner_gap, five_res)
                   if r.size), default=math.inf)
    return DegeneracyReport(violations=violations, min_residual=min_res)


def _quad_residuals(balls, cx):
    """The candidate quads in key order with |det| / row_scale of their
    radical-plane system, the orthocenter's power over the least power of
    all balls, and its closest power tie |pow_m - own| with a fifth ball m.
    The excess and the tie stay inf on flat quads, and the tie stays inf
    when n == 4."""
    triples, x, r = cx._triple_table, balls.centers, balls.radii
    idx = _extend_cliques(cx._circle, triples.ijk)
    rows = 2.0 * (x[idx[:, 1:]] - x[idx[:, :1]])
    det = np.linalg.det(rows)
    row_scale = np.maximum(np.prod(np.linalg.norm(rows, axis=2), axis=1), 1e-300)
    keep = np.abs(det) >= 1e-12 * row_scale
    excess, tie = np.full((2, len(idx)), math.inf)
    tie_ball = np.zeros(len(idx), dtype=int)
    # Read off the radical line c + s n of the face ijk with the largest sine at x_i.
    unit = rows[keep] / np.linalg.norm(rows[keep], axis=2, keepdims=True)
    sine = [row_norms(cross_rows(unit[:, p], unit[:, q])) for p, q in ((0, 1), (0, 2), (1, 2))]
    order = np.array([[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 3, 1]])[np.argmax(sine, axis=0)]
    quad = np.take_along_axis(idx[keep], order, 1)
    row = cx.key_rows(triples.ijk, quad[:, :3])
    c, n, i, l = triples.center[row], triples.axis[row], quad[:, 0], quad[:, 3]
    pow_i, pow_l = (row_dots(c - x[b], c - x[b]) - r[b] ** 2 for b in (i, l))
    z = c + ((pow_l - pow_i) / (2.0 * row_dots(n, x[l] - x[i])))[:, None] * n
    pows = _powers(z, balls)
    own = pows[np.arange(len(z)), i]
    excess[keep] = own - pows.min(axis=1)
    pows[np.arange(len(z))[:, None], idx[keep]] = math.inf
    gaps = np.abs(pows - own[:, None])
    tie_ball[keep], tie[keep] = gaps.argmin(axis=1), gaps.min(axis=1)
    return idx, np.abs(det) / row_scale, excess, tie, tie_ball


# -- simplicial homology over GF(2) ---------------------------------------

def _gf2_rank(rows):
    rank = 0
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


def betti_numbers(cx):
    """(b0, b1, b2) of the alpha complex, hence of the ball union."""
    in_alpha, edges, tris, tets = cx.in_alpha, cx.edge_keys, cx.triangle_table.ijk, cx.tet_keys
    # Each simplex's boundary as a GF(2) row over its faces' rows in key order.
    d1 = (np.cumsum(in_alpha) - 1)[edges]
    d2 = cx.edge_rows(tris[:, [0, 1, 0, 2, 1, 2]]).reshape(-1, 3)
    d3 = cx.key_rows(tris, tets[:, list(combinations(range(4), 3))]).reshape(-1, 4)
    r1, r2, r3 = (_gf2_rank([sum(1 << f for f in row) for row in d.tolist()])
                  for d in (d1, d2, d3))
    b0 = int(in_alpha.sum()) - r1
    b1 = len(edges) - r1 - r2
    b2 = len(tris) - r2 - r3
    return b0, b1, b2


def classify_event(balls, cx, violation, delta=None):
    """Name the topological event of a Condition II violation.

    The touching point is located, tested against the rest of the diagram,
    and the Betti numbers on the two sides of the crossing decide between
    the event types of the violating tuple size.
    """
    if violation.condition != "II":
        raise Unclassifiable("only Condition II events change the surface")
    simplex = tuple(violation.simplex)
    centers, radii = balls.centers, balls.radii
    scale = balls.scale
    delta = delta if delta is not None else 1e-3 * scale

    if len(simplex) == 2:
        i, j = simplex
        u = centers[j] - centers[i]
        d = np.linalg.norm(u)
        u = u / d
        point = centers[i] + radii[i] * u
        mover, direction = j, u
    elif len(simplex) == 3:
        triples = cx._triple_table
        row = cx.key_rows(triples.ijk, sorted(simplex))[0]
        if row < 0 or triples.collinear[row]:
            raise Unclassifiable(f"no radical center for triple {simplex}")
        point = triples.center[row]
        mover = simplex[2]
        direction = centers[mover] - point
        nd = np.linalg.norm(direction)
        if nd < 1e-12 * scale:
            raise Unclassifiable("degenerate separation direction")
        direction = direction / nd
    elif len(simplex) == 4:
        point, mover, direction = _closest_corner(cx, simplex)
    else:
        raise Unclassifiable(f"unsupported tuple size {len(simplex)}")

    gaps = np.sqrt(np.einsum("ij,ij->i", centers - point, centers - point)) - radii
    others = [m for m in range(balls.n) if m not in simplex]
    if others and float(gaps[others].min()) < -1e-9 * scale:
        return "interior_nongeneric"

    try:
        before, after = [], []
        for sign in (-1.0, 1.0):
            c = centers.copy()
            c[mover] = c[mover] + sign * delta * direction
            side = build_alpha_complex(type(balls)(c, radii, balls.weights),
                                       strict=False)
            (before if sign < 0 else after).append(betti_numbers(side))
        (b0a, b1a, b2a), (b0b, b1b, b2b) = before[0], after[0]
    except DegenerateState as exc:
        raise Unclassifiable(str(exc)) from exc

    if len(simplex) == 2:
        if b0a != b0b:
            return "merge_split_components"
        if b1a != b1b:
            return "close_break_loop"
    elif len(simplex) == 3:
        if b1a != b1b:
            return "fill_open_tunnel"
        if b2a != b2b:
            return "complete_puncture_shell"
    else:
        if b2a != b2b:
            return "start_drown_void"
    return "interior_nongeneric"


def _closest_corner(cx, quad):
    """Corner of some sub-triple of the quad lying on the fourth sphere."""
    balls = cx.balls
    triples = cx._triple_table
    best = None
    for tri in combinations(quad, 3):
        m = next(v for v in quad if v not in tri)
        row = cx.key_rows(triples.ijk, sorted(tri))[0]
        if row < 0 or not triples.h_sq[row] > 0:
            continue
        for p in cx.corner_points([row])[0]:
            gap = abs(np.linalg.norm(p - balls.centers[m]) - balls.radii[m])
            if best is None or gap < best[0]:
                direction = balls.centers[m] - p
                nd = np.linalg.norm(direction)
                if nd == 0.0:
                    continue
                best = (gap, p, m, direction / nd)
    if best is None:
        raise Unclassifiable("no corner of the quad lies near the fourth sphere")
    return best[1], best[2], best[3]


# -- gradient probe along a motion path ------------------------------------

@dataclass(frozen=True)
class ProbeRow:
    tau: float
    gauss: float = None
    grad_norm: float = None
    defined: bool = False
    note: str = ""


@dataclass(frozen=True)
class SideLimits:
    tau: float
    grad_minus: np.ndarray
    grad_plus: np.ndarray

    @property
    def max_gap(self):
        return float(np.abs(self.grad_minus - self.grad_plus).max())


@dataclass
class ProbeResult:
    rows: list
    flagged: list = field(default_factory=list)
    limits: list = field(default_factory=list)


def gradient_jump_probe(balls, t, tau_range, steps, side_delta=None):
    """Sample curvature and gradient along the path x + tau * t.

    States where the evaluation raises DegenerateState are flagged, and the
    gradient is re-evaluated a small offset to either side of each flagged
    tau to expose one-sided limits.  A state where two centres coincide is
    reported as an undefined row without limits: the gradient diverges as
    the centres meet.
    """
    t = as_momentum(t, balls.n)
    tau_min, tau_max = map(float, tau_range)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    taus = np.linspace(tau_min, tau_max, steps)
    delta = side_delta if side_delta is not None else 1e-4 * (tau_max - tau_min)
    x0 = balls.state
    rows = []
    flagged = []
    limits = []
    for tau in taus:
        state = balls.with_state(x0 + tau * t.ravel())
        try:
            ev = evaluate(state)
            rows.append(ProbeRow(tau=float(tau), gauss=ev.gauss,
                                 grad_norm=float(np.linalg.norm(ev.gradient.flat)),
                                 defined=True))
        except (DegenerateState, CoincidentCenters) as exc:
            rows.append(ProbeRow(tau=float(tau), defined=False, note=str(exc)))
            if isinstance(exc, DegenerateState):
                flagged.append(float(tau))
    for tau in flagged:
        try:
            g_minus = evaluate(balls.with_state(x0 + (tau - delta) * t.ravel())).gradient
            g_plus = evaluate(balls.with_state(x0 + (tau + delta) * t.ravel())).gradient
        except (DegenerateState, CoincidentCenters):
            continue
        limits.append(SideLimits(tau=tau, grad_minus=g_minus.per_ball,
                                 grad_plus=g_plus.per_ball))
    return ProbeResult(rows=rows, flagged=flagged, limits=limits)
