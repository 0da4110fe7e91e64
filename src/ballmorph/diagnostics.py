"""General-position checking and classification of topological events.

Condition I concerns the dimensions of Voronoi intersections (flips in the
weighted Delaunay mosaic), Condition II the dimensions of sphere
intersections (tangencies).  Violations of II at the surface are where the
curvature gradient jumps; the probe walks a motion path and reports
one-sided gradient limits around flagged states.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .complexes import build_alpha_complex
from .errors import CoincidentCenters, DegenerateState, Unclassifiable
from .geometry import as_momentum
from .pipeline import evaluate

EVENT_CLASSES = (
    "merge_split_components",
    "close_break_loop",
    "fill_open_tunnel",
    "complete_puncture_shell",
    "start_drown_void",
    "interior_nongeneric",
)


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
    strict=False when None): ``tol`` only picks the records reported as
    violations.  Residuals are lengths (power gaps are divided by the
    diagram scale); ``min_residual`` over all records serves as the
    distance-to-degeneracy metric even when no violation is below ``tol``.
    Records come in the order pairs, circle triples, the corners of each
    triple against every fourth sphere, then candidate quads.
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

    iu, ju = np.triu_indices(n, k=1)
    pair_res = cx._pair_gap[iu, ju]
    note(pair_res, lambda k: ("II", (int(iu[k]), int(ju[k]))))

    # The discriminant h^2 is the smooth residual of the two-point
    # intersection folding away; state-space distance scales with it.
    # Collinear centres (no radical center) are a Condition I record at 0.
    tris = sorted(cx._triple_raw)
    raw = [cx._triple_raw[t] for t in tris]
    tri_res = np.array([0.0 if r is None else abs(r[2]) / scale for r in raw])
    note(tri_res, lambda k: ("I" if raw[k] is None else "II", tris[k]))

    live = [k for k, r in enumerate(raw) if r is not None and r[2] > 0.0]
    z = np.array([raw[k][0] for k in live]).reshape(-1, 3)
    axis = np.array([raw[k][1] for k in live]).reshape(-1, 3)
    h = np.sqrt([raw[k][2] for k in live])[:, None]
    diff = np.stack([z + h * axis, z - h * axis], axis=1)[:, :, None, :] - balls.centers
    corner_gap = np.abs(np.sqrt(np.einsum("tsmj,tsmj->tsm", diff, diff)) - radii)
    members = np.array([tris[k] for k in live], dtype=int).reshape(-1, 3)
    corner_gap[np.arange(len(live))[:, None], :, members] = math.inf
    note(corner_gap, lambda k: ("II", tuple(sorted(tris[live[k // (2 * n)]]
                                                   + (int(k % n),)))))

    five_res = np.empty(0)
    if cx._quads is not None:
        idx, coplanar, excess, tie, fifth = cx._quads
        # Flattening tets matter only when the quad is locally Delaunay, so
        # a small determinant is reported but kept out of the metric.  Only
        # a tie in the minimal power changes the mosaic.
        five_res = np.where(excess <= 2.0 * tol * scale, tie / (2.0 * scale), math.inf)
        note(np.stack([coplanar * scale, five_res], axis=1),
             lambda k: ("I", tuple(int(v) for v in idx[k // 2])
                        + ((int(fifth[k // 2]),) if k % 2 else ())))

    min_res = min((float(r.min()) for r in (pair_res, tri_res, corner_gap, five_res)
                   if r.size), default=math.inf)
    return DegeneracyReport(violations=violations, min_residual=min_res)


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
    verts = sorted(v for v, d in cx.vertices.items() if d.in_alpha)
    edges, tris, tets = sorted(cx.edges), sorted(cx.triangles), sorted(cx.tetrahedra)
    v_idx = {v: m for m, v in enumerate(verts)}
    e_idx = {e: m for m, e in enumerate(edges)}
    t_idx = {t: m for m, t in enumerate(tris)}
    d1 = [(1 << v_idx[e[0]]) | (1 << v_idx[e[1]]) for e in edges]
    d2 = []
    for t in tris:
        row = 0
        for e in combinations(t, 2):
            row |= 1 << e_idx[tuple(sorted(e))]
        d2.append(row)
    d3 = []
    for q in tets:
        row = 0
        for t in combinations(q, 3):
            row |= 1 << t_idx[tuple(sorted(t))]
        d3.append(row)
    r1 = _gf2_rank(d1)
    r2 = _gf2_rank(d2)
    r3 = _gf2_rank(d3)
    b0 = len(verts) - r1
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
        raw = cx._triple_raw.get(tuple(sorted(simplex)))
        if raw is None:
            raise Unclassifiable(f"no radical center for triple {simplex}")
        point = raw[0]
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
    best = None
    for tri in combinations(quad, 3):
        m = next(v for v in quad if v not in tri)
        raw = cx._triple_raw.get(tuple(sorted(tri)))
        if raw is None or raw[2] <= 0:
            continue
        z, axis, h_sq = raw
        for p in (z + math.sqrt(h_sq) * axis, z - math.sqrt(h_sq) * axis):
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
