"""General-position checking and classification of topological events.

Condition I concerns the dimensions of Voronoi intersections (flips in the
weighted Delaunay mosaic), Condition II the dimensions of sphere
intersections (tangencies).  Violations of II at the surface are where the
curvature gradient jumps; the probe walks a motion path and reports
one-sided gradient limits around flagged states.  The report is a view of
the residual columns the build keeps, one per decision, and the Betti
numbers read the complex's tables as columns, rows found by key.
"""

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .complexes import build_alpha_complex
from .errors import CoincidentCenters, DegenerateState, Unclassifiable
from .geometry import EPS_GEO, as_momentum, triple_points
from .pipeline import evaluate

class Violation(NamedTuple):
    condition: str          # "I" or "II"
    simplex: tuple
    residual: float
    event_class: str = None


class DegeneracyReport(NamedTuple):
    violations: list
    min_residual: float

    @property
    def generic(self):
        return not self.violations


def general_position_check(balls, cx=None, tol=1e-6):
    """Residuals of the state against every general-position violation that
    can change the complex, its boundary or the measures.

    A view of the residual columns the build of ``cx`` keeps (built with
    strict=False when None): the violations are ``cx.records(tol)``, which
    at tol = cx.tol are the records the strict build refuses.  Residuals
    are lengths; ``min_residual``, the least over every column, serves as
    the distance-to-degeneracy metric even when no violation is below
    ``tol``.
    """
    if cx is None:
        cx = build_alpha_complex(balls, strict=False)
    return DegeneracyReport(violations=[Violation(*record) for record in cx.records(tol)],
                            min_residual=cx.min_residual)


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
        # A pair record's residual is the pair's gap; a smaller one marks an
        # alpha circle whose arcs are undecided, with no tangency to cross.
        if cx._pair_gap[i, j] > violation.residual:
            raise Unclassifiable(f"the arcs of circle {simplex} are undecided")
        u = centers[j] - centers[i]
        d = np.linalg.norm(u)
        u = u / d
        point = centers[i] + radii[i] * u
        mover, direction = j, u
    elif len(simplex) == 3:
        # A sphere touching an alpha circle need not meet both its spheres
        # in circles, so the triple is solved here, not read off the table.
        collinear, center, _, _ = triple_points(centers, radii, np.array([sorted(simplex)]),
                                                EPS_GEO)
        if collinear[0]:
            raise Unclassifiable(f"no radical center for triple {simplex}")
        point = center[0]
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

class ProbeRow(NamedTuple):
    tau: float
    gauss: float = None
    grad_norm: float = None
    defined: bool = False
    note: str = ""


class SideLimits(NamedTuple):
    tau: float
    grad_minus: np.ndarray
    grad_plus: np.ndarray

    @property
    def max_gap(self):
        return float(np.abs(self.grad_minus - self.grad_plus).max())


class ProbeResult(NamedTuple):
    rows: list
    flagged: list
    limits: list


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
