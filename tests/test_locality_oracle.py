"""Brute-force oracles for the neighbour-local parts of the construction.

The build enumerates candidate simplices as cliques of the circle graph,
takes the exposed arcs of a circle S_ij from the exposed corners of its
alpha triangles, and ``nu_i_mc`` and ``mc_boundary_integrals`` compare
each sample against the balls that meet B_i.  The references here are the
all-tuple and all-ball versions: the ``combinations`` filters, the
arc-cover loop over every ball (``conftest.brute_cover``) with the sweep
that complements the union of its intervals, and the samplers with a
power column for every ball.
Cliques and sample counts must agree exactly.  Arcs must have the same
corner keys in the same cyclic order, extents within 1e-12, the same
empty and full circles, and every degeneracy the cover loop records must
be among the build's records.

The build runs each of its tests over the balls that meet every member
ball.  ``dense_reference`` runs the same tests over every ball, with the
(rows, n) kernels and argmin/argmax tie-breaks, on the build's own pair
and triple tables; decisions, tetrahedra, records at every tolerance and
the least residuals must be identical.
"""

import math
from itertools import combinations, product

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex, mc_boundary_integrals, nu_i_mc
from ballmorph.complexes import TWO_PI, _extend_cliques, plane_basis
from ballmorph.errors import DegenerateState
from ballmorph.geometry import EPS_GEO
from ballmorph.oracles import _MC_BLOCK, _ball_block, _unit_directions
from conftest import brute_cover, edge_arcs, pair, union_measure
from test_near_tangency import planted_draw


def brute_cliques(circle):
    """Circle-graph pairs, triples and quads by filtering all tuples."""
    n = circle.shape[0]
    return [np.array([t for t in combinations(range(n), size)
                      if all(circle[a, b] for a, b in combinations(t, 2))],
                     dtype=int).reshape(-1, size)
            for size in (2, 3, 4)]


def brute_nu_count(balls, i, samples, seed):
    """Samples of ball i that no other ball beats on power, all columns."""
    inside = 0
    for block_idx, done in enumerate(range(0, samples, _MC_BLOCK)):
        count = min(_MC_BLOCK, samples - done)
        pts = _ball_block(balls, i, seed, block_idx, count)
        d = pts[:, None, :] - balls.centers[None, :, :]
        pows = np.einsum("pij,pij->pi", d, d) - balls.radii[None, :] ** 2
        others = np.delete(pows, i, axis=1)
        inside += int(np.sum(pows[:, i] <= others.min(axis=1))) if others.size else count
    return inside


def brute_exposed_count(balls, i, samples, seed):
    """Samples on sphere i outside every other ball, all columns."""
    exposed = 0
    for block, done in enumerate(range(0, samples, _MC_BLOCK)):
        count = min(_MC_BLOCK, samples - done)
        v = _unit_directions(seed, (i + 1) * (1 << 22) + block, count)
        pts = balls.centers[i] + balls.radii[i] * v
        d = pts[:, None, :] - balls.centers[None, :, :]
        pows = np.einsum("pij,pij->pi", d, d) - balls.radii[None, :] ** 2
        pows[:, i] = np.inf
        exposed += int(np.sum(pows.min(axis=1) >= 0.0))
    return exposed


def sweep_arcs(cx, edge, covered):
    """Exposed arcs of S_ij as the complement of the union of the covered
    intervals, each (start key, end key, extent), with the ("II", simplex,
    gap) records of event angles closer than tol from different balls.

    Angles are swept relative to the start of the first covered interval,
    which begins the sweep inside covered territory, so no arc wraps
    across the base point.
    """
    if not covered:
        return [(None, None, TWO_PI)], []
    base = covered[0][0]
    base_start_ref = covered[0][3]
    events = []   # (relative angle, +1 cover starts / -1 cover ends, corner ref)
    depth = 0     # covers containing the base angle
    for start, extent, m, start_ref, end_ref in covered:
        s_rel = (start - base) % TWO_PI
        if s_rel == 0.0 or s_rel + extent > TWO_PI:
            depth += 1
        if s_rel > 0.0:
            events.append((s_rel, 1, start_ref))
        e_rel = (s_rel + extent) % TWO_PI
        events.append((e_rel if e_rel != 0.0 else TWO_PI, -1, end_ref))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    tol_ang = cx.tol / max(pair(cx, *edge).r, cx.tol)
    records = [("II", tuple(sorted(set(edge) | {r1.occluder, r2.occluder})), a2 - a1)
               for (a1, _, r1), (a2, _, r2) in zip(events, events[1:])
               if a2 - a1 < tol_ang and r1.occluder != r2.occluder]
    exposure_start = None     # (relative angle, corner ref)
    arcs = []
    for ang, delta, ref in events:
        depth += delta
        if delta == -1 and depth == 0:
            exposure_start = (ang, ref)
        elif delta == 1 and depth == 1 and exposure_start is not None:
            arcs.append((exposure_start[1].key, ref.key, ang - exposure_start[0]))
            exposure_start = None
    if exposure_start is not None:
        # Exposure runs to the base angle, where the first cover begins.
        arcs.append((exposure_start[1].key, base_start_ref.key,
                     TWO_PI - exposure_start[0]))
    return arcs, records


def check_arcs(cx, seen):
    """The corner-built arcs of every alpha circle against the cover loop."""
    built = {(c, s) for c, s, _ in cx.degeneracies}
    boundary = set(cx.boundary_edges())
    for edge in map(tuple, cx.edge_keys.tolist()):
        covered, full, records = brute_cover(cx, *edge)
        want = []
        if not full:
            want, sweep_records = sweep_arcs(cx, edge, covered)
            records += sweep_records
        assert {(c, s) for c, s, _ in records} <= built, edge
        got = [(a.start.key if a.start else None, a.end.key if a.end else None, a.extent)
               for a in edge_arcs(cx, edge)]
        assert len(got) == len(want), edge
        if want:
            keys = [w[:2] for w in want]
            assert got[0][:2] in keys, edge
            shift = keys.index(got[0][:2])
            want = want[shift:] + want[:shift]
        for g, w in zip(got, want):
            assert g[:2] == w[:2] and abs(g[2] - w[2]) <= 1e-12, edge
        assert (edge in boundary) == bool(want), edge
        # No alpha circle lies in a single ball (that ball would win the
        # whole disk), so a covered circle is covered by several.
        seen["covered" if not got else "exposed" if got[0][0] is None else "partial"] += 1
        seen["records"] += bool(records)


def check_draw(balls, strict, nu_balls, seen):
    """Compare every local path with its reference on one diagram."""
    cx = build_alpha_complex(balls, strict=strict)
    want = brute_cliques(cx._circle)
    got = [np.arange(balls.n)[:, None]]
    for _ in want:
        got.append(_extend_cliques(cx._circle, got[-1]))
    for w, g in zip(want, got[1:], strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    # The build's candidate pairs and triples are the first two levels.
    assert np.array_equal(cx._pair_keys, want[0])
    assert np.array_equal(cx._triple_table.ijk, want[1])
    check_arcs(cx, seen)
    _, sigmas, _ = mc_boundary_integrals(balls, 2000, seed=3)
    for i in nu_balls:
        assert round(sigmas[i] * 2000) == brute_exposed_count(balls, i, 2000, seed=3), i
        est, _ = nu_i_mc(balls, i, 5000, seed=3)
        want_count = brute_nu_count(balls, i, 5000, seed=3)
        assert round(est * 5000) == want_count, i
        seen["nu_zero" if want_count == 0 else "nu_part" if want_count < 5000 else "nu_one"] += 1


def shapes():
    """Diagrams that put a ball exactly where a screen or a tolerance decides.

    * ball 2 contains the whole circle S_01 without crossing either sphere,
      and B_0 and B_1 lie inside it, so nu_0 is 0;
    * sphere 2 is within tol/2 of the circle S_01, outside it in its plane;
    * ball 1 is disjoint from B_0 by tol/2;
    * ball 2 holds the circle S_01 and its sphere passes within tol/2 of
      it, so sphere 0 (1) comes within tol of S_12 (S_02), while the
      corner discriminant h^2 of 012 is 6.5 times its band.
    """
    rho = math.sqrt(0.75)
    yield BallSet([[0, 0, 0], [1, 0, 0], [0.5, 0.2, 0], [3.0, 1.0, 0.5]],
                  [1.0, 1.0, 3.0, 1.0], [1, 1, 1, 1])
    centers = [[0, 0, 0], [1, 0, 0], [0.5, 0, 0], [0.3, -0.8, 0.4]]
    radii = [1.0, 1.0, 0.5, 0.6]
    tol = EPS_GEO * max(radii)
    centers[2] = [0.5, rho + 0.5 + tol / 2, 0.0]
    yield BallSet(centers, radii, [1, 1, 1, 1])
    radii = [1.0, 0.7, 0.8]
    tol = EPS_GEO * max(radii)
    yield BallSet([[0, 0, 0], [1.7 + tol / 2, 0, 0], [0.2, 1.2, 0.1]], radii, [1, 1, 1])
    tol = EPS_GEO
    yield BallSet([[0, 0, 0], [1, 0, 0], [0.5, rho - 1.0 + tol / 2, 0]], [1.0, 1.0, 1.0])


def plant(rng, balls):
    """Move one ball to within tol/2 of an alpha circle S_ij of the diagram,
    from outside in the radical plane; None when the diagram has no alpha
    circle."""
    pairs = build_alpha_complex(balls, strict=False).edge_keys.tolist()
    if not pairs:
        return None
    i, j = pairs[rng.integers(len(pairs))]
    m = int(rng.choice([k for k in range(balls.n) if k not in (i, j)]))
    xi, xj = balls.centers[i], balls.centers[j]
    ri, rj, rm = balls.radii[i], balls.radii[j], balls.radii[m]
    d = float(np.linalg.norm(xi - xj))
    u = (xi - xj) / d
    depth = 0.5 * (d + (ri ** 2 - rj ** 2) / d)
    rho = math.sqrt(ri ** 2 - depth ** 2)
    e1, _ = plane_basis(u)
    centers = balls.centers.copy()
    tol = EPS_GEO * balls.scale
    centers[m] = xi - depth * u + (rho + rm + tol / 2) * e1
    return BallSet(centers, balls.radii, balls.weights)


def test_local_paths_match_brute_force():
    rng = np.random.default_rng(20261018)
    seen = {"partial": 0, "exposed": 0, "covered": 0, "records": 0,
            "nu_zero": 0, "nu_part": 0,
            "nu_one": 0, "strict": 0, "loose": 0, "planted": 0}
    for balls in shapes():
        check_draw(balls, False, range(balls.n), seen)
    for draw_idx in range(28):
        n = int(rng.integers(4, 41))
        spread = (1.1 if draw_idx % 4 < 2 else 2.5) * n ** (1.0 / 3.0)
        balls = BallSet(rng.uniform(0.0, spread, size=(n, 3)),
                        rng.uniform(0.2, 2.5, size=n), rng.uniform(-2, 2, size=n))
        strict = draw_idx % 2 == 0
        if draw_idx % 7 == 3:
            balls = plant(rng, balls) or balls
            strict = False
            seen["planted"] += 1
        try:
            check_draw(balls, strict, rng.choice(n, 2, replace=False).tolist(), seen)
        except DegenerateState:
            continue
        seen["strict" if strict else "loose"] += 1
    # Both build modes ran, and every outcome the screens decide occurred.
    assert min(seen.values()) > 0, seen


def test_union_measure_wrapping():
    # First interval wraps past 2*pi and overlaps the second.
    segs = [(5.8, 1.0, None), (0.2, 0.5, None)]
    overlap = (5.8 + 1.0 - 2 * np.pi) - 0.2
    assert union_measure(segs) == pytest.approx(1.5 - overlap, abs=1e-14)
    segs = [(1.0, 2.0, None), (2.0, 2.0, None)]
    assert union_measure(segs) == pytest.approx(3.0)


def dense_powers(pts, balls):
    """The power of each point in ``pts`` (shape (k, 3)) to every ball."""
    d = pts[:, None, :] - balls.centers
    return np.einsum("...j,...j->...", d, d) - balls.radii ** 2


def dense_circle_gaps(cx):
    """The gap of every sphere to touching each alpha circle, inf at its own."""
    balls, pairs = cx.balls, cx.edge_pairs
    g = balls.centers[None, :, :] - pairs.center[:, None, :]
    g_u = np.einsum("emk,ek->em", g, pairs.u_ij)
    b = np.linalg.norm(g - g_u[:, :, None] * pairs.u_ij[:, None, :], axis=2)
    rho = pairs.r[:, None]
    gap = np.minimum(np.abs(np.hypot(g_u, b - rho) - balls.radii),
                     np.abs(np.hypot(g_u, b + rho) - balls.radii))
    gap[np.arange(len(gap))[:, None], cx.edge_keys] = np.inf
    return gap


def dense_reference(cx):
    """The build's decisions and residual columns with every test over all
    the balls, read off the build's pair and triple tables."""
    balls, tol, n = cx.balls, cx.tol, cx.balls.n
    ref = {}
    keys, table = cx._pair_keys, cx._pair_table
    pows = dense_powers(table.center, balls)
    rows = np.arange(len(keys))
    own = pows[rows, keys[:, 0]]
    pows[rows[:, None], keys] = np.inf
    centre = keys[table.has_circle & (own <= pows.min(axis=1) + tol ** 2)]
    # The Voronoi intervals of the live triples on their radical lines.
    tri = cx._triple_table
    live = np.flatnonzero(tri.h_sq > tol * balls.scale)
    idx, center, axis = tri.ijk[live], tri.center[live], tri.axis[live]
    half = np.sqrt(tri.h_sq[live])
    rows = np.arange(len(live))
    other = np.ones((len(live), n), dtype=bool)
    other[rows[:, None], idx] = False
    pows = dense_powers(center, balls)
    inter = pows[rows, idx[:, 0], None] - pows
    along = axis @ (balls.centers - balls.centers[0]).T
    slope = 2.0 * (along - along[rows, idx[:, 0], None])
    tiny = np.abs(slope) < 1e-300
    bound = np.where(tiny, 0.0, -inter / np.where(tiny, 1.0, slope))
    lo = np.where(other & ~tiny & (slope < 0), bound, -np.inf)
    hi = np.where(other & ~tiny & (slope > 0), bound, np.inf)
    binding = np.column_stack([lo.argmax(axis=1), hi.argmin(axis=1)])
    ends = np.column_stack([lo[rows, binding[:, 0]], hi[rows, binding[:, 1]]])
    feasible = ~(other & tiny & (inter > 0)).any(axis=1) & (ends[:, 0] <= ends[:, 1])
    a, b = np.maximum(ends[:, 0], -half), np.minimum(ends[:, 1], half)
    nu = np.where(feasible & (b > a), (b - a) / (2.0 * half), 0.0)
    accept = nu > 0.0
    ref["triangles"] = (idx[accept], nu[accept])
    # The signed gap of each corner to every other sphere.
    diff = cx.corner_points(live)[:, :, None, :] - balls.centers
    gaps = np.where(other[:, None, :], np.sqrt(np.einsum("tsmj,tsmj->tsm", diff, diff))
                    - balls.radii, np.inf)
    ref["exposed"] = gaps.min(axis=2)[accept] > 0.0
    ref["corner"] = np.full((len(tri.ijk), 2, n), np.inf)
    ref["corner"][live] = gaps
    # The tetrahedra at the ends of V_ijk inside the corner segments.
    t, end = np.nonzero(accept[:, None] & (np.abs(ends) < half[:, None]))
    t, end = (v[cx._circle[idx[t], binding[t, end, None]].all(axis=1)] for v in (t, end))
    quads = np.sort(np.column_stack([idx[t], binding[t, end]]), axis=1)
    codes, first = np.unique(quads @ n ** np.arange(3, -1, -1), return_index=True)
    ref["tets"] = np.column_stack(np.unravel_index(codes, (n,) * 4))
    t, end = t[first], end[first]
    ref["tet_vertex"] = center[t] + ends[t, end, None] * axis[t]
    # The edges: the centre test, closed under the faces of the triangles.
    sides = cx.triangle_table.ijk[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)
    ref["edges"] = np.unique(np.concatenate([centre, sides]), axis=0)
    ref["circle"] = dense_circle_gaps(cx)
    # The circles without exposed corners are whole when their point on e1
    # is exposed; a sphere without arcs, when its point x_i + r_i z is.
    tris = cx.triangle_table
    cornered = cx.edge_rows(tris.ijk[tris.exposed.any(axis=1)][:, [0, 1, 0, 2, 1, 2]])
    bare = np.setdiff1d(np.arange(len(cx.edge_keys)), cornered)
    pairs = cx.edge_pairs
    e1, _ = plane_basis(pairs.u_ij)
    pows = dense_powers(pairs.center[bare] + pairs.r[bare][:, None] * e1[bare], balls)
    pows[np.arange(len(bare))[:, None], cx.edge_keys[bare]] = np.inf
    ref["whole"] = bare[pows.min(axis=1) >= 0.0]
    on = np.zeros(n, dtype=bool)
    on[cx.edge_keys[cx.arcs.edge]] = True
    rest = np.flatnonzero(cx.in_alpha & ~on)
    pows = dense_powers(balls.centers[rest] + balls.radii[rest, None] * np.array([0.0, 0.0, 1.0]),
                        balls)
    pows[np.arange(len(rest)), rest] = np.inf
    on[rest] = pows.min(axis=1) >= 0.0
    ref["on_boundary"] = on
    z = ref["tet_vertex"]
    pows = dense_powers(z, balls)
    ties = np.abs(pows - pows[np.arange(len(z)), ref["tets"][:, 0], None]) / balls.scale
    ties[np.arange(len(z))[:, None], ref["tets"]] = np.inf
    ref["ties"] = ties
    return ref


def dense_records(cx, ref, tol):
    """The records below ``tol`` from the all-ball gaps, in the build's order."""
    def within(condition, keys, gaps):
        r, m = np.nonzero(gaps < tol)
        keys = keys.tolist()
        return [(condition, tuple(sorted([*keys[a], b])), g)
                for a, b, g in zip(r.tolist(), m.tolist(), gaps[r, m].tolist())]

    tri = cx._triple_table
    out = within("II", np.arange(cx.balls.n)[:, None], cx._pair_gap)
    out += [("I" if c else "II", tuple(key), g) for key, c, g in zip(
        tri.ijk.tolist(), tri.collinear.tolist(), tri.gap.tolist()) if g < tol]
    corner = ref["corner"]
    t, s = np.nonzero(np.abs(corner.min(axis=2)) < tol)
    out += within("II", tri.ijk[t], np.abs(corner[t, s]))
    t = np.flatnonzero(ref["ties"].min(axis=1, initial=np.inf) < tol)
    out += within("I", ref["tets"][t], ref["ties"][t])
    e = np.flatnonzero(ref["circle"].min(axis=1, initial=np.inf) < tol)
    out += within("II", cx.edge_keys[e], ref["circle"][e])
    return out + [("II", tuple(key), 0.0) for key in cx.edge_keys[cx._arc_gap < tol].tolist()]


def near_miss_draw():
    """Three unit balls with a live corner p, and a fourth ball that misses
    B_0 by 1e-3 near the ray from x_0 through p, about 1.1e-3 from p.  Its
    nearest point on B_0 is 0.01 from p, clear of the circles through p,
    so no gap to a corner or circle ties with the pair gap.  Returns the
    balls and p's gap to sphere 3."""
    centers = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.6, 1.0, 0.1]])
    p = build_alpha_complex(BallSet(centers, np.ones(3)), strict=False).corner_points([0])[0, 0]
    v = p + 0.01 * np.array([0.0, 0.0, 1.0])
    x = (1.0 + 0.3 + 1e-3) * v / np.linalg.norm(v)
    return BallSet(np.vstack([centers, x]), [1.0, 1.0, 1.0, 0.3]), np.linalg.norm(p - x) - 0.3


def locality_cases():
    """Seeded draws at test density and sparse with wide radii, the planted
    near-tangency draws, the 3x3x3 unit lattice at spacings 1.0 and 1.2,
    and the near-miss draw."""
    rng = np.random.default_rng(20261020)
    for k in range(24):
        n = int(rng.integers(4, 41))
        wide = k % 2 == 0
        yield BallSet(rng.uniform(0.0, (1.6 if wide else 1.1) * n ** (1.0 / 3.0), size=(n, 3)),
                      rng.uniform(*((0.2, 2.5) if wide else (0.7, 1.3)), size=n),
                      rng.uniform(-2.0, 2.0, size=n))
    planted = np.random.default_rng(4)
    for _ in range(600):
        yield planted_draw(planted)[0]
    lattice = np.array(list(product(range(3), repeat=3)), dtype=float)
    for spacing in (1.0, 1.2):
        yield BallSet(lattice * spacing, np.ones(len(lattice)))
    yield near_miss_draw()[0]


def test_local_kernels_match_dense_kernels():
    # Each test over the balls that meet every member ball, with the
    # near-miss re-check in the records, decides as the all-ball kernels do.
    for case, balls in enumerate(locality_cases()):
        cx = build_alpha_complex(balls, strict=False)
        ref = dense_reference(cx)
        tris = cx.triangle_table
        tested = tris.nu > 0.0       # the rest are faces added by closure
        assert np.array_equal(tris.ijk[tested], ref["triangles"][0]), case
        assert tris.nu[tested].tobytes() == ref["triangles"][1].tobytes(), case
        assert np.array_equal(tris.exposed[tested], ref["exposed"]), case
        assert np.array_equal(cx.tet_keys, ref["tets"]), case
        assert cx._tet_vertex.tobytes() == ref["tet_vertex"].tobytes(), case
        assert np.array_equal(cx.edge_keys, ref["edges"]), case
        assert np.array_equal(cx.arcs.edge[cx.arcs.full], ref["whole"]), case
        assert np.array_equal(cx.on_boundary, ref["on_boundary"]), case
        for tol in (cx.tol, 1e-6, 1e-2):
            assert cx.records(tol) == dense_records(cx, ref, tol), (case, tol)
        corner = np.abs(ref["corner"].min(axis=2, initial=np.inf))
        pair, tri = cx._pair_gap.min(), cx._triple_table
        assert cx.min_residual == min(
            pair, tri.gap.min(initial=np.inf), corner.min(initial=np.inf), cx._arc_gap.min(initial=np.inf),
            ref["ties"].min(initial=np.inf), ref["circle"].min(initial=np.inf)), case
        assert cx.condition2_margin == min(pair, tri.gap[~tri.collinear].min(initial=np.inf),
                                           corner.min(initial=np.inf)), case


def test_near_miss_corner_is_rechecked():
    # Ball 3 misses B_0, so it is none of the balls the build tests corner
    # p of 012 against; its record comes from the re-check of the corners
    # of ball 0, whose near miss is 1e-3.
    balls, gap = near_miss_draw()
    cx = build_alpha_complex(balls, strict=False)
    assert cx._near_miss[0] == pytest.approx(1e-3, rel=1e-9)
    assert np.isinf(cx._corner_gap[0]).all() and 1e-3 < gap < 1.2e-3
    listed = [g for _, simplex, g in cx.records(1e-2) if simplex == (0, 1, 2, 3)]
    assert any(g == pytest.approx(gap, rel=1e-9) for g in listed), listed
    assert [r for r in cx.records(1e-6) if r[1] == (0, 1, 2, 3)] == []
