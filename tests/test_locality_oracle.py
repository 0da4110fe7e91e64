"""Brute-force oracles for the neighbour-local parts of the construction.

The build enumerates candidate simplices as cliques of the circle graph,
the arc cover of a circle S_ij visits only the balls that a distance bound
cannot rule out, and ``nu_i_mc`` and ``mc_boundary_integrals`` compare
each sample against the balls that meet B_i.  The references here are the
all-tuple and all-ball versions they replace: the ``combinations``
filters, the arc-cover loop over every ball and the samplers with a power
column for every ball.
Agreement must be exact: the same arrays in the same order, the same
covered intervals and degeneracy records, the same sample counts.
"""

import math
from itertools import combinations

import numpy as np

from ballmorph import BallSet, build_alpha_complex, mc_boundary_integrals, nu_i_mc
from ballmorph.complexes import TWO_PI, CornerRef, EdgeData, _circle_cliques, \
    _cover_intervals, plane_basis
from ballmorph.errors import DegenerateState
from ballmorph.geometry import EPS_GEO
from ballmorph.oracles import _MC_BLOCK, _ball_block, _unit_directions


def brute_cliques(circle):
    """Circle-graph pairs, triples and quads by filtering all tuples."""
    n = circle.shape[0]
    return [np.array([t for t in combinations(range(n), size)
                      if all(circle[a, b] for a, b in combinations(t, 2))],
                     dtype=int).reshape(-1, size)
            for size in (2, 3, 4)]


def brute_cover(cx, i, j, data):
    """The arc-cover loop over every ball m other than i and j."""
    balls = cx.balls
    pg = data.pair
    q, rho = pg.center, pg.r
    u, e1, e2 = pg.u_ij, data.e1, data.e2
    out = []
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
            cx.degeneracies.append(("II", tuple(sorted((i, j, m))),
                                    min(abs(dmin - rm), abs(dmax - rm))))
        if dmin >= rm:
            continue
        if dmax <= rm:
            return [], True
        tg = cx.triple(i, j, m)
        if tg is None:
            cx.degeneracies.append(("II", tuple(sorted((i, j, m))), cx.tol))
            continue
        key = tuple(sorted((i, j, m)))
        angles = {}
        for tag, p in ((1, tg.p_plus), (-1, tg.p_minus)):
            rel = p - q
            angles[tag] = (math.atan2(rel @ e2, rel @ e1) % TWO_PI, p)
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
                    CornerRef(key, start_tag, m, start_p, start_ang),
                    CornerRef(key, end_tag, m, end_p, (start_ang + extent) % TWO_PI)))
    return out, False


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


def cover_record(fn, cx, i, j, data):
    """fn's covered intervals, full flag and the degeneracy records it
    appended, with the records taken back off the complex."""
    before = len(cx.degeneracies)
    covered, full = fn(cx, i, j, data)
    records = cx.degeneracies[before:]
    del cx.degeneracies[before:]
    flat = [(s, e, m, a.key, a.occluder, a.point.tobytes(), a.angle,
             b.key, b.occluder, b.point.tobytes(), b.angle)
            for s, e, m, a, b in covered]
    return flat, full, records


def check_draw(balls, strict, nu_balls, seen):
    """Compare every local path with its reference on one diagram."""
    cx = build_alpha_complex(balls, strict=strict)
    want = brute_cliques(cx._circle)
    got = _circle_cliques(cx._circle)
    for w, g in zip(want, got, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if len(want[2]):
        assert np.array_equal(cx._quads[0], want[2])
    else:
        assert cx._quads is None
    # Every circle pair, in or out of the complex, so that covers by balls
    # that cross neither sphere are exercised too.
    for i, j in want[0].tolist():
        pg = cx.pair(i, j)
        if not pg.has_circle:
            continue
        e1, e2 = plane_basis(pg.u_ij)
        data = EdgeData(pair=pg, e1=e1, e2=e2)
        ref = cover_record(brute_cover, cx, i, j, data)
        assert cover_record(_cover_intervals, cx, i, j, data) == ref, (i, j)
        seen["covered"] += bool(ref[0])
        seen["full"] += ref[1]
        seen["records"] += bool(ref[2])
    _, sigmas, _ = mc_boundary_integrals(balls, 2000, seed=3)
    for i in nu_balls:
        assert round(sigmas[i] * 2000) == brute_exposed_count(balls, i, 2000, seed=3), i
        est, _ = nu_i_mc(balls, i, 5000, seed=3)
        want_count = brute_nu_count(balls, i, 5000, seed=3)
        assert round(est * 5000) == want_count, i
        seen["nu_zero" if want_count == 0 else "nu_part" if want_count < 5000 else "nu_one"] += 1


def shapes():
    """Diagrams that put a ball exactly where a locality screen decides.

    * ball 2 contains the whole circle S_01 without crossing either sphere,
      and B_0 and B_1 lie inside it, so nu_0 is 0;
    * sphere 2 is within tol/2 of the circle S_01, outside it in its plane;
    * ball 1 is disjoint from B_0 by tol/2.
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


def plant(rng, balls):
    """Move one ball to within tol/2 of a circle S_ij of the diagram, from
    outside in the radical plane; None when the diagram has no circle."""
    circle = np.triu(build_alpha_complex(balls, strict=False)._circle, 1)
    pairs = np.argwhere(circle)
    if not len(pairs):
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
    seen = {"covered": 0, "full": 0, "records": 0, "nu_zero": 0, "nu_part": 0,
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
