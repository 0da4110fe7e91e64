"""Fractional measures of the boundary simplices.

sigma_i is the exposed area fraction of sphere i, sigma_ij the exposed
length fraction of circle S_ij, sigma_ijk the exposed fraction of the two
corner points, and nu_ijk the fraction of the corner segment inside the
Voronoi edge.  sigma_i is a flat Gauss-Bonnet sum over the boundary
circuits of the sphere: the walk only links corner keys, the arcs add
their extents times their cap depths, and each corner's turn is an angle
of its normal spherical triangle, read from the complex's corner table.
With the pair and triple records of the complex, these give the weighted
volume exactly (intrinsic.weighted_volume); the ball volume fraction nu_i
is left to the Monte Carlo cross-check oracles.nu_i_mc.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class FractionalMeasures:
    """The measures as arrays aligned with the complex's sorted keys."""

    sigma_v: np.ndarray     # sigma_i of every ball, 0 off the boundary
    sigma_e: np.ndarray     # sigma_ij of the alpha edges in key order
    sigma_t: np.ndarray     # 0, 1/2 or 1 for the alpha triangles in key order
    nu_t: np.ndarray        # nu_ijk for the alpha triangles in key order


def sigma_ij(balls, cx, edge):
    """Fraction of circle S_ij outside all other balls: the extents of its
    exposed arcs over 2 pi."""
    data = cx.edges.get(tuple(sorted(edge)))
    if data is None:
        return 0.0
    return sum(arc.extent for arc in data.arcs) / TWO_PI


def sigma_ijk(balls, cx, tri):
    """Exposed corner count over two: 0, 1/2 or 1."""
    data = cx.triangles.get(tuple(sorted(tri)))
    return 0.0 if data is None else 0.5 * data.exposed_count


def nu_ijk(balls, cx, tri):
    """Fraction of the corner segment inside the Voronoi edge V_ijk."""
    data = cx.triangles.get(tuple(sorted(tri)))
    return 0.0 if data is None else data.nu


def sigma_i(balls, cx, i):
    """Exposed area fraction of sphere i by spherical Gauss-Bonnet.

    Boundary circuits are walked with the exposed region on the left.  A
    circuit encloses 2 pi, plus extent * cos_cap for each arc on a cap of
    signed depth cos_cap = xi_i / r_i, minus the turn at each corner.  The
    turn from circle S_ij to S_ik at a corner of spheres i, j, k is the
    angle at i of their normal triangle.  Nesting is resolved by reducing
    the total modulo the sphere area.
    """
    vd = cx.vertices.get(i)
    if vd is None or not vd.in_alpha or not vd.on_boundary:
        return 0.0
    if not vd.boundary_edges:
        return 1.0   # whole sphere exposed (boundary flag rules out covered)
    total = 0.0
    by_entry = {}    # corner key -> (key of the next corner, extent * cos_cap)
    # Key order fixes the summation order of the full circles.
    for edge in vd.boundary_edges:
        data = cx.edges[edge]
        pg = data.pair
        cos_cap = (pg.xi_i if i == pg.i else pg.xi_j) / balls.radii[i]
        for arc in data.arcs:
            if arc.full_circle:
                total += TWO_PI * (1.0 + cos_cap)
                continue
            # Arcs are stored ccw around u_ij, which is clockwise around the
            # cap axis -u_ij of the pair's first sphere and keeps its exposed
            # region on the left; the second sphere walks them backwards.
            enter, leave = (arc.start, arc.end) if i == pg.i else (arc.end, arc.start)
            if enter.key in by_entry:
                raise DegenerateState("more than two arcs meet at a corner",
                                      simplex=enter.triangle)
            by_entry[enter.key] = (leave.key, arc.extent * cos_cap)
    unused = set(by_entry)
    while unused:
        corners = cx.corner_table
        start = key = min(unused)
        area = TWO_PI
        while True:
            if key not in unused:
                raise DegenerateState("boundary circuit on sphere does not close",
                                      simplex=(i,))
            unused.remove(key)
            key, arc_term = by_entry[key]
            tri = key[0]
            area += arc_term - corners.angles[corners.row[tri], tri.index(i)]
            if key == start:
                break
        total += area
    # Each circuit contributes the solid angle on its left; nested circuits
    # overshoot by full spheres, which the modulus removes.
    return (float(total) % FOUR_PI) / FOUR_PI


def compute_measures(balls, cx):
    """All fractional measures of the boundary simplices of the complex."""
    sigma_v = np.zeros(balls.n)
    for i in cx.boundary_vertices():
        sigma_v[i] = sigma_i(balls, cx, i)
    tris = [data for _, data in sorted(cx.triangles.items())]
    return FractionalMeasures(
        sigma_v=sigma_v,
        sigma_e=np.array([sigma_ij(balls, cx, e) for e in sorted(cx.edges)]),
        sigma_t=np.array([0.5 * data.exposed_count for data in tris]),
        nu_t=np.array([data.nu for data in tris]))
