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
"""

import math
from itertools import combinations

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex, mc_boundary_integrals, nu_i_mc
from ballmorph.complexes import TWO_PI, _extend_cliques, plane_basis
from ballmorph.errors import DegenerateState
from ballmorph.geometry import EPS_GEO
from ballmorph.oracles import _MC_BLOCK, _ball_block, _unit_directions
from conftest import brute_cover, edge_arcs, pair, union_measure


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
