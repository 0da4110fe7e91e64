"""Brute-force oracle for general_position_check.

``scan_general_position`` rescans every pair and candidate triple of
balls one tuple at a time, and takes the alpha edges and tetrahedra from
the brute-force nerve oracles of test_nerve_oracle, not from the build.
It solves each radical centre, corner point, Voronoi vertex and circle on
its own.  The library's check is a view of the residual columns the build
keeps, one per decision, so agreement here checks that the view reads
every record family, in the same order and against the same residual
definitions.  Only the flag on circles whose corners do not alternate
comes from the build: the arc walk has its own oracle in
test_locality_oracle.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex
from ballmorph.complexes import plane_basis
from ballmorph.diagnostics import general_position_check
from ballmorph.geometry import EPS_GEO
from conftest import two_balls
from test_diagnostics import five_spheres_through_origin, hexagon_ring, \
    tetra_through_origin
from test_near_tangency import planted_draw
from test_nerve_oracle import oracle_edge, oracle_tetrahedra


def radical_center(centers, radii, tri):
    """Point of equal power in the plane of the three centres, with the
    plane normal; None for collinear centres."""
    xi, xj, xk = centers[list(tri)]
    ri, rj, rk = radii[list(tri)]
    a1, a2 = xj - xi, xk - xi
    nrm = np.cross(a1, a2)
    area2 = np.linalg.norm(nrm)
    if area2 <= EPS_GEO * np.linalg.norm(a1) * np.linalg.norm(a2):
        return None
    b1 = 0.5 * (xj @ xj - rj ** 2 - xi @ xi + ri ** 2)
    b2 = 0.5 * (xk @ xk - rk ** 2 - xi @ xi + ri ** 2)
    g = np.array([[a1 @ a1, a1 @ a2], [a1 @ a2, a2 @ a2]])
    s, t = np.linalg.solve(g, np.array([b1 - a1 @ xi, b2 - a2 @ xi]))
    return xi + s * a1 + t * a2, nrm / area2


def plane_gap(centers, radii, tri):
    """The least distance between the radical planes of collinear centres,
    each plane where (t - t_a)^2 - r_a^2 = (t - t_b)^2 - r_b^2 on the line."""
    u = centers[tri[1]] - centers[tri[0]]
    u /= np.linalg.norm(u)
    t = {a: float((centers[a] - centers[tri[0]]) @ u) for a in tri}
    at = [(t[a] ** 2 - t[b] ** 2 - radii[a] ** 2 + radii[b] ** 2) / (2.0 * (t[a] - t[b]))
          for a, b in combinations(tri, 2)]
    return min(abs(p - q) for p, q in combinations(at, 2))


def circle_gaps(balls, i, j):
    """Per sphere m, the least |d - r_m| over the distances d from x_m to
    the points of S_ij nearest to and farthest from it."""
    xi, xj = balls.centers[i], balls.centers[j]
    ri, rj = balls.radii[i], balls.radii[j]
    d = float(np.linalg.norm(xj - xi))
    u = (xj - xi) / d
    depth = 0.5 * (d + (ri ** 2 - rj ** 2) / d)
    q, rho = xi + depth * u, math.sqrt(ri ** 2 - depth ** 2)
    e1, e2 = plane_basis(u)
    gaps = {}
    for m in range(balls.n):
        if m not in (i, j):
            g = balls.centers[m] - q
            b = math.hypot(g @ e1, g @ e2)
            near, far = (math.sqrt(g @ g + rho ** 2 + sign * 2.0 * rho * b) for sign in (-1, 1))
            gaps[m] = min(abs(near - balls.radii[m]), abs(far - balls.radii[m]))
    return gaps


def scan_general_position(balls, tol, arc_edges):
    """Ordered (family, condition, simplex, residual) violations and
    min_residual.  ``arc_edges`` are the alpha edges whose arcs are
    undecided."""
    n = balls.n
    centers, radii = balls.centers, balls.radii
    scale = balls.scale
    violations = []
    residuals = [math.inf]

    def note(name, cond, key, gaps):
        """A row with a residual per sphere m (``gaps``, a dict): its
        residual is the least, and below tol each m within tol is a record."""
        residuals.append(min(gaps.values(), default=math.inf))
        if residuals[-1] < tol:
            violations.extend((name, cond, tuple(sorted(key + (m,))), float(g))
                              for m, g in sorted(gaps.items()) if g < tol)

    pair_circle = {}
    for i, j in combinations(range(n), 2):
        d = float(np.linalg.norm(centers[i] - centers[j]))
        gap = min(abs(d - (radii[i] + radii[j])), abs(d - abs(radii[i] - radii[j])))
        note("pair", "II", (i,), {j: gap})
        pair_circle[(i, j)] = abs(radii[i] - radii[j]) < d < radii[i] + radii[j]

    corners = []
    for tri in combinations(range(n), 3):
        if not all(pair_circle[p] for p in combinations(tri, 2)):
            continue
        rc = radical_center(centers, radii, tri)
        if rc is None:
            note("collinear", "I", tri[:2], {tri[2]: plane_gap(centers, radii, tri)})
            continue
        z, axis = rc
        h_sq = radii[tri[0]] ** 2 - float((z - centers[tri[0]]) @ (z - centers[tri[0]]))
        note("h2", "II", tri[:2], {tri[2]: abs(h_sq) / scale})
        if h_sq > EPS_GEO * scale ** 2:
            h = math.sqrt(h_sq)
            corners += [(tri, z + h * axis), (tri, z - h * axis)]

    for tri, p in corners:
        gaps = {m: float(np.linalg.norm(p - centers[m]) - radii[m])
                for m in range(n) if m not in tri}
        # The exposure decision is the sign of the nearest sphere's gap.
        nearest = min(gaps.values(), default=math.inf)
        residuals.append(abs(nearest))
        if abs(nearest) < tol:
            violations.extend(("corner", "II", tuple(sorted(tri + (m,))), abs(g))
                              for m, g in gaps.items() if abs(g) < tol)

    for quad in oracle_tetrahedra(balls):
        x0 = centers[quad[0]]
        rows = 2.0 * (centers[list(quad[1:])] - x0)
        rhs = [(centers[m] @ centers[m] - radii[m] ** 2) - (x0 @ x0 - radii[quad[0]] ** 2)
               for m in quad[1:]]
        z = np.linalg.solve(rows, rhs)
        pows = np.einsum("ij,ij->i", centers - z, centers - z) - radii ** 2
        note("five_ball", "I", quad,
             {m: abs(pows[m] - pows[quad[0]]) / scale for m in range(n) if m not in quad})

    edges = [e for e in combinations(range(n), 2) if oracle_edge(balls, *e)[0]]
    for i, j in edges:
        note("circle", "II", (i, j), circle_gaps(balls, i, j))
    for edge in edges:
        if edge in arc_edges:
            residuals.append(0.0)
            violations.append(("arc", "II", edge, 0.0))
    return violations, min(residuals)


def draw(rng, n):
    centers = rng.uniform(0.0, 1.6 * n ** (1.0 / 3.0), size=(n, 3))
    return BallSet(centers, rng.uniform(0.2, 2.5, size=n), rng.uniform(-2, 2, size=n))


def shapes():
    yield two_balls(d=2.0)
    yield tetra_through_origin(1.0)
    yield hexagon_ring(np.full(6, 0.55))
    yield hexagon_ring(np.array([0.5, 0.55, 0.55, 0.55, 0.55, 0.5]))
    # Every tetrahedron ties with the remaining ball.
    yield five_spheres_through_origin()
    # Collinear centres whose radical planes of 01 and 02 are 0.0069 apart.
    yield BallSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [1.0, 1.0, 1.74])
    # A planted pair tangency that leaves sphere 7 within 1e-6 of the
    # alpha circle S_13.
    rng = np.random.default_rng(4)
    yield [planted_draw(rng) for _ in range(5)][-1][0]
    rng = np.random.default_rng(20261017)
    for _ in range(24):
        yield draw(rng, int(rng.integers(4, 31)))


def test_view_matches_brute_force_scan():
    seen = dict.fromkeys(("pair", "collinear", "h2", "corner", "five_ball", "circle", "arc"), 0)
    for case, balls in enumerate(shapes()):
        cx = build_alpha_complex(balls, strict=False)
        arc_edges = {tuple(key) for key in cx.edge_keys[cx._arc_gap == 0.0].tolist()}
        for tol in (1e-6, 1e-2):
            want, want_min = scan_general_position(balls, tol, arc_edges)
            got = general_position_check(balls, cx, tol=tol)
            assert [(v.condition, v.simplex) for v in got.violations] == \
                [(c, s) for _, c, s, _ in want], (case, tol)
            bound = 1e-12 * balls.scale
            for v, (_, _, _, res) in zip(got.violations, want):
                assert abs(v.residual - res) <= bound, (case, tol, v, res)
            assert got.min_residual == pytest.approx(want_min, rel=0, abs=bound)
            for name, _, _, _ in want:
                seen[name] += 1
    # Every record family reported violations, so dropping one fails above.
    assert min(seen.values()) > 0, seen
