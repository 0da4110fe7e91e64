"""Brute-force oracle for general_position_check.

``scan_general_position`` rescans every pair, triple and quadruple of
balls, one tuple at a time, and solves each radical centre, corner point
and orthocentre on its own.  The library's check is a view over the
geometry the alpha-complex build already computed in batches, so
agreement here checks that the view reads every record family, in the
same order and against the same residual definitions.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex
from ballmorph.diagnostics import general_position_check
from ballmorph.geometry import EPS_GEO
from conftest import two_balls
from test_diagnostics import five_spheres_through_origin, hexagon_ring, \
    tetra_through_origin


def radical_center(centers, radii, tri):
    """Point of equal power in the plane of the three centres, with the
    plane normal; None for collinear centres."""
    xi, xj, xk = centers[list(tri)]
    ri, rj, rk = radii[list(tri)]
    a1, a2 = xj - xi, xk - xi
    nrm = np.cross(a1, a2)
    area2 = np.linalg.norm(nrm)
    if area2 <= (EPS_GEO * max(ri, rj, rk)) ** 2:
        return None
    b1 = 0.5 * (xj @ xj - rj ** 2 - xi @ xi + ri ** 2)
    b2 = 0.5 * (xk @ xk - rk ** 2 - xi @ xi + ri ** 2)
    g = np.array([[a1 @ a1, a1 @ a2], [a1 @ a2, a2 @ a2]])
    s, t = np.linalg.solve(g, np.array([b1 - a1 @ xi, b2 - a2 @ xi]))
    return xi + s * a1 + t * a2, nrm / area2


def scan_general_position(balls, tol):
    """Ordered (condition, simplex, residual) violations and min_residual."""
    n = balls.n
    centers, radii = balls.centers, balls.radii
    scale = balls.scale
    violations = []
    min_res = math.inf

    def note(cond, simplex, res, affects_min=True):
        nonlocal min_res
        if affects_min:
            min_res = min(min_res, res)
        if res < tol:
            violations.append((cond, tuple(simplex), float(res)))

    pair_circle = {}
    for i, j in combinations(range(n), 2):
        d = float(np.linalg.norm(centers[i] - centers[j]))
        res = min(abs(d - (radii[i] + radii[j])), abs(d - abs(radii[i] - radii[j])))
        note("II", (i, j), res)
        pair_circle[(i, j)] = abs(radii[i] - radii[j]) < d < radii[i] + radii[j]

    corner_points = {}
    for tri in combinations(range(n), 3):
        if not all(pair_circle[p] for p in combinations(tri, 2)):
            continue
        rc = radical_center(centers, radii, tri)
        if rc is None:
            note("I", tri, 0.0)
            continue
        z, axis = rc
        h_sq = radii[tri[0]] ** 2 - float(np.dot(z - centers[tri[0]], z - centers[tri[0]]))
        note("II", tri, abs(h_sq) / scale)
        if h_sq > 0:
            h = math.sqrt(h_sq)
            corner_points[tri] = (z + h * axis, z - h * axis)

    for tri, points in corner_points.items():
        for p in points:
            gaps = np.sqrt(np.einsum("ij,ij->i", centers - p, centers - p)) - radii
            for m in range(n):
                if m not in tri:
                    note("II", tuple(sorted(tri + (m,))), abs(float(gaps[m])))

    for quad in combinations(range(n), 4):
        if not all(pair_circle[p] for p in combinations(quad, 2)):
            continue
        xi = centers[quad[0]]
        rows = 2.0 * (centers[list(quad[1:])] - xi)
        rhs = (np.einsum("ij,ij->i", centers[list(quad[1:])], centers[list(quad[1:])])
               - radii[list(quad[1:])] ** 2 - xi @ xi + radii[quad[0]] ** 2)
        det = np.linalg.det(rows)
        row_scale = np.prod(np.linalg.norm(rows, axis=1))
        note("I", quad, abs(det) / max(row_scale, 1e-300) * scale, affects_min=False)
        if abs(det) < 1e-12 * max(row_scale, 1e-300):
            continue
        z = np.linalg.solve(rows, rhs)
        pows = np.einsum("ij,ij->i", centers - z, centers - z) - radii ** 2
        others = [m for m in range(n) if m not in quad]
        if not others:
            continue
        gaps = pows[others] - pows[quad[0]]
        m = others[int(np.argmin(np.abs(gaps)))]
        if pows[quad[0]] <= pows.min() + tol * 2.0 * scale:
            note("I", quad + (m,), float(np.min(np.abs(gaps))) / (2.0 * scale))

    return violations, min_res


def family(cond, simplex):
    return {("II", 2): "pair", ("I", 3): "collinear", ("II", 3): "h2",
            ("II", 4): "corner", ("I", 4): "coplanarity", ("I", 5): "five_ball"}[
        (cond, len(simplex))]


def draw(rng, n):
    centers = rng.uniform(0.0, 1.6 * n ** (1.0 / 3.0), size=(n, 3))
    return BallSet(centers, rng.uniform(0.2, 2.5, size=n), rng.uniform(-2, 2, size=n))


def shapes():
    yield two_balls(d=2.0)
    yield tetra_through_origin(1.0)
    yield hexagon_ring(np.full(6, 0.55))
    yield hexagon_ring(np.array([0.5, 0.55, 0.55, 0.55, 0.55, 0.5]))
    # Every quad ties with the remaining ball, so the check reports its
    # five-ball degeneracies.
    yield five_spheres_through_origin()
    rng = np.random.default_rng(20261017)
    for _ in range(24):
        yield draw(rng, int(rng.integers(4, 31)))


def test_view_matches_brute_force_scan():
    seen = dict.fromkeys(("pair", "h2", "corner", "coplanarity", "five_ball"), 0)
    for case, balls in enumerate(shapes()):
        cx = build_alpha_complex(balls, strict=False)
        for tol in (1e-6, 1e-2):
            want, want_min = scan_general_position(balls, tol)
            got = general_position_check(balls, cx, tol=tol)
            assert [(v.condition, v.simplex) for v in got.violations] == \
                [(c, s) for c, s, _ in want], (case, tol)
            bound = 1e-12 * balls.scale
            for v, (_, _, res) in zip(got.violations, want):
                assert abs(v.residual - res) <= bound, (case, tol, v, res)
            assert got.min_residual == pytest.approx(want_min, rel=0, abs=bound)
            for c, s, _ in want:
                if family(c, s) in seen:
                    seen[family(c, s)] += 1
    # Every record family reported violations, so dropping one fails above.
    assert min(seen.values()) > 0, seen
