"""Brute-force nerve oracles for the vertex, edge and tetrahedron decisions.

Vertex i is in the alpha complex iff B_i meets the power cell V_i, and edge
ij iff the disk of S_ij meets the Voronoi facet V_ij.  The oracle measures
both distances by projecting onto the cell; the construction decides them
from the centre tests plus closure under faces, so agreement here checks
that closure supplies exactly the vertices and edges whose centres lie
outside their cells.  Tetrahedron ijkl is in the complex iff its
orthocentre, the point of equal power to the four balls, lies in them and
in no other ball's cell; the construction reads it off the ends of the
triangles' Voronoi intervals instead.
"""

import math
from itertools import combinations

import numpy as np

from ballmorph import BallSet, build_alpha_complex
from ballmorph.complexes import plane_basis
from ballmorph.errors import DegenerateState
from test_diagnostics import five_spheres_through_origin


def distance_to_polyhedron(a_mat, b_vec):
    """Distance from the origin to {z : A z <= b} in R^d, None when empty.

    The nearest point is the projection of the origin onto the affine hull
    of at most d linearly independent active facets, so trying every such
    set of facets is exhaustive.
    """
    m, dim = a_mat.shape
    slack = 1e-9 * (1.0 + np.abs(b_vec))
    if np.all(b_vec >= -slack):
        return 0.0
    best = None
    for size in range(1, min(dim, m) + 1):
        sets = np.array(list(combinations(range(m), size)))
        rows = a_mat[sets]                                   # (s, size, d)
        gram = rows @ rows.transpose(0, 2, 1)
        ok = np.abs(np.linalg.det(gram)) > 1e-12 * np.prod(
            np.einsum("skd,skd->sk", rows, rows), axis=1)
        if not ok.any():
            continue
        lam = np.linalg.solve(gram[ok], b_vec[sets[ok]][:, :, None])
        pts = np.einsum("skd,sk->sd", rows[ok], lam[:, :, 0])
        feasible = np.all(pts @ a_mat.T <= b_vec + slack, axis=1)
        if feasible.any():
            dist = float(np.sqrt(np.einsum("sd,sd->s", pts, pts)[feasible].min()))
            best = dist if best is None else min(best, dist)
    return best


def cell_halfspaces(balls, i, skip):
    """Rows of pow_i <= pow_m for m not in skip, in coordinates y = x - x_i."""
    keep = [m for m in range(balls.n) if m not in skip]
    d = balls.centers[keep] - balls.centers[i]
    b = np.einsum("ij,ij->i", d, d) - balls.radii[keep] ** 2 + balls.radii[i] ** 2
    return 2.0 * d, b


def oracle_vertex(balls, i):
    """Distance from x_i to V_i against r_i."""
    a_mat, b_vec = cell_halfspaces(balls, i, (i,))
    dist = distance_to_polyhedron(a_mat, b_vec)
    return dist is not None and dist <= balls.radii[i], dist


def oracle_edge(balls, i, j):
    """In-plane distance from the circle centre q_ij to V_ij against r_ij."""
    xi, xj = balls.centers[i], balls.centers[j]
    ri, rj = balls.radii[i], balls.radii[j]
    d = float(np.linalg.norm(xi - xj))
    if not abs(ri - rj) < d < ri + rj:
        return False, None
    u = (xi - xj) / d
    depth = 0.5 * (d + (ri ** 2 - rj ** 2) / d)
    rho = np.sqrt(ri ** 2 - depth ** 2)
    a3, b3 = cell_halfspaces(balls, i, (i, j))
    e1, e2 = plane_basis(u)
    # z = (s, t) parametrizes q_ij + s e1 + t e2, and q_ij - x_i = -depth u.
    a2 = np.stack([a3 @ e1, a3 @ e2], axis=1)
    b2 = b3 + depth * (a3 @ u)
    dist = distance_to_polyhedron(a2, b2)
    return dist is not None and dist <= rho, dist


def draw(rng, n):
    centers = rng.uniform(0.0, 1.6 * n ** (1.0 / 3.0), size=(n, 3))
    return BallSet(centers, rng.uniform(0.2, 2.5, size=n), rng.uniform(-2, 2, size=n))


def test_vertex_and_edge_decisions_match_brute_force_nerve():
    rng = np.random.default_rng(19950601)
    seen = {"vertex_outside_in": 0, "vertex_outside_out": 0,
            "edge_outside_in": 0, "edge_outside_out": 0, "strict": 0, "loose": 0}
    for draw_idx in range(24):
        balls = draw(rng, int(rng.integers(8, 31)))
        strict = draw_idx % 2 == 0
        try:
            cx = build_alpha_complex(balls, strict=strict)
        except DegenerateState:
            continue
        seen["strict" if strict else "loose"] += 1
        for i in range(balls.n):
            want, dist = oracle_vertex(balls, i)
            assert cx.in_alpha[i] == want, (draw_idx, i, dist)
            if dist:
                seen["vertex_outside_in" if want else "vertex_outside_out"] += 1
        for i, j in combinations(range(balls.n), 2):
            want, dist = oracle_edge(balls, i, j)
            got = cx.edge_rows((i, j))[0] >= 0
            assert got == want, (draw_idx, (i, j), dist)
            if dist:
                seen["edge_outside_in" if want else "edge_outside_out"] += 1
    # Both builds ran, and both sides of each closure decision occurred.
    assert min(seen.values()) > 0, seen


def oracle_tetrahedra(balls):
    """The 4-tuples whose orthocentre, solved from the three radical-plane
    equations, has own power <= 0 and no larger than any other ball's."""
    centers, radii = balls.centers, balls.radii
    quads = np.array(list(combinations(range(balls.n), 4)), dtype=int).reshape(-1, 4)
    rows = 2.0 * (centers[quads[:, 1:]] - centers[quads[:, :1]])
    sq = np.einsum("ij,ij->i", centers, centers) - radii ** 2
    rhs = sq[quads[:, 1:]] - sq[quads[:, :1]]
    solid = (np.abs(np.linalg.det(rows))
             >= 1e-12 * np.prod(np.linalg.norm(rows, axis=2), axis=1))
    quads = quads[solid]
    z = np.linalg.solve(rows[solid], rhs[solid][:, :, None])[:, :, 0]
    diff = z[:, None, :] - centers
    pows = np.einsum("qmj,qmj->qm", diff, diff) - radii ** 2
    own = pows[np.arange(len(quads)), quads[:, 0]]
    pows[np.arange(len(quads))[:, None], quads] = math.inf
    return [tuple(q) for q in quads[(own <= 0.0) & (pows.min(axis=1) >= own)].tolist()]


def test_tetrahedra_match_brute_force_orthocentres():
    rng = np.random.default_rng(19950602)
    cases = [(five_spheres_through_origin(), False)]
    cases += [(draw(rng, int(rng.integers(4, 31))), k % 2 == 0) for k in range(24)]
    seen = {"strict": 0, "loose": 0, "tets": 0}
    for case, (balls, strict) in enumerate(cases):
        try:
            cx = build_alpha_complex(balls, strict=strict)
        except DegenerateState:
            continue
        want = oracle_tetrahedra(balls)
        assert [tuple(key) for key in cx.tet_keys.tolist()] == want, case
        seen["strict" if strict else "loose"] += 1
        seen["tets"] += len(want)
    assert min(seen.values()) > 0, seen
