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
from .geometry import EPS_GEO, as_momentum, row_norms, triple_points
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


# The event of a Condition II crossing by tuple size: the names of a change
# of b0, b1 and b2 across it, None where no such change can happen.
_EVENTS = {2: ("merge_split_components", "close_break_loop", None),
           3: (None, "fill_open_tunnel", "complete_puncture_shell"),
           4: (None, None, "start_drown_void")}


def classify_event(balls, cx, violation):
    """Name the topological event of a Condition II violation.

    Each tuple size picks the touching point p and the ball m that moves.
    A point p inside another ball is an interior event; otherwise x_m moves
    1e-3 * scale to either side along x_m - p, and the first of b0, b1 and
    b2 that differs between the sides and has a name in ``_EVENTS`` names
    the event.
    """
    if violation.condition != "II":
        raise Unclassifiable("only Condition II events change the surface")
    simplex = tuple(violation.simplex)
    # A pair record's residual is the pair's gap; a smaller one marks an
    # alpha circle whose arcs are undecided, with no tangency to cross.
    if len(simplex) == 2 and cx._pair_gap[simplex] > violation.residual:
        raise Unclassifiable(f"the arcs of circle {simplex} are undecided")
    point, mover = _touching_point(balls, cx, simplex)
    centers, radii, scale = balls.centers, balls.radii, balls.scale
    direction = centers[mover] - point
    norm = np.linalg.norm(direction)
    if norm < 1e-12 * scale:
        raise Unclassifiable("degenerate separation direction")
    gaps = np.sqrt(np.einsum("ij,ij->i", centers - point, centers - point)) - radii
    if (np.delete(gaps, simplex) < -cx.tol).any():
        return "interior_nongeneric"
    x, step = balls.state, np.zeros((balls.n, 3))
    step[mover] = 1e-3 * scale * (direction / norm)
    try:
        sides = [betti_numbers(build_alpha_complex(balls.with_state(x + sign * step.ravel()),
                                                   strict=False)) for sign in (-1.0, 1.0)]
    except DegenerateState as exc:
        raise Unclassifiable(str(exc)) from exc
    return next((name for name, before, after in zip(_EVENTS[len(simplex)], *sides)
                 if name and before != after), "interior_nongeneric")


def _touching_point(balls, cx, simplex):
    """The point p where the spheres of ``simplex`` touch, and the ball m
    that moves across the tangency."""
    centers, radii = balls.centers, balls.radii
    if len(simplex) == 2:
        i, j = simplex
        u = centers[j] - centers[i]
        d = np.linalg.norm(u)
        # Where ball j holds ball i, the spheres touch on i's far side from x_j.
        side = -1.0 if radii[i] < radii[j] and d < radii[j] else 1.0
        return centers[i] + side * radii[i] * (u / d), j
    if len(simplex) == 3:
        # A sphere touching an alpha circle need not meet both its spheres
        # in circles, so the triple is solved here, not read off the table.
        collinear, center, _, _ = triple_points(centers, radii, np.sort([simplex]), EPS_GEO)
        if collinear[0]:
            raise Unclassifiable(f"no radical center for triple {simplex}")
        return center[0], simplex[2]
    if len(simplex) != 4:
        raise Unclassifiable(f"unsupported tuple size {len(simplex)}")
    # The corner of a face nearest the sphere the face leaves out, and that
    # sphere's ball: the first least gap in face order (the order of
    # itertools.combinations), then p_plus before p_minus.
    triples = cx._triple_table
    rows = cx.key_rows(triples.ijk, np.sort(list(combinations(simplex, 3)), axis=1))
    live = rows >= 0
    live[live] = triples.h_sq[rows[live]] > 0
    if not live.any():
        raise Unclassifiable("no corner of the quad lies near the fourth sphere")
    fourth = np.array(simplex[::-1])[live]     # face f leaves out simplex[3 - f]
    corners = cx.corner_points(rows[live])
    gaps = np.abs(row_norms(corners - centers[fourth, None]) - radii[fourth, None])
    face, corner = divmod(int(np.argmin(gaps)), 2)
    return corners[face, corner], fourth[face]


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


def gradient_jump_probe(balls, t, tau_range, steps):
    """Sample curvature and gradient along the path x + tau * t.

    States where the evaluation raises DegenerateState are flagged, and the
    gradient's one-sided limits at each flagged tau are one evaluation of
    the stack of the two states 1e-4 of the tau range to either side; a
    stack that holds a degenerate state gives no limits.  A state where two
    centres coincide is reported as an undefined row without limits: the
    gradient diverges as the centres meet.
    """
    t = as_momentum(t, balls.n)
    tau_min, tau_max = map(float, tau_range)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    taus = np.linspace(tau_min, tau_max, steps)
    delta = 1e-4 * (tau_max - tau_min)
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
            sides = evaluate(balls.with_states([x0 + (tau - delta) * t.ravel(),
                                                x0 + (tau + delta) * t.ravel()]))
            grad_minus, grad_plus = sides.gradient.per_ball.reshape(2, balls.n, 3)
        except (DegenerateState, CoincidentCenters):
            continue
        limits.append(SideLimits(tau=tau, grad_minus=grad_minus, grad_plus=grad_plus))
    return ProbeResult(rows=rows, flagged=flagged, limits=limits)
