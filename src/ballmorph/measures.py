"""Fractional measures of the boundary simplices.

sigma_i is the exposed area fraction of sphere i, sigma_ij the exposed
length fraction of circle S_ij, sigma_ijk the exposed fraction of the two
corner points, and nu_ijk the fraction of the corner segment inside the
Voronoi edge.  With the pair and triple records of the complex, these
give the weighted volume exactly (intrinsic.weighted_volume); the ball
volume fraction nu_i is left to the Monte Carlo cross-check
oracles.nu_i_mc.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateState
from .geometry import cross3

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


@dataclass
class FractionalMeasures:
    sigma_v: dict = field(default_factory=dict)     # vertex -> sigma_i
    sigma_e: dict = field(default_factory=dict)     # edge -> sigma_ij
    sigma_t: dict = field(default_factory=dict)     # triangle -> 0, 1/2 or 1
    nu_t: dict = field(default_factory=dict)        # triangle -> nu_ijk

    def sigma_edge(self, e):
        return self.sigma_e.get(tuple(sorted(e)), 0.0)


def sigma_ij(balls, cx, edge):
    """Fraction of circle S_ij outside all other balls: the extents of its
    exposed arcs over 2 pi."""
    data = cx.edges.get(tuple(sorted(edge)))
    if data is None or not data.in_alpha:
        return 0.0
    return sum(arc.extent for arc in data.arcs) / TWO_PI


def sigma_ijk(balls, cx, tri):
    """Exposed corner count over two: 0, 1/2 or 1."""
    data = cx.triangles.get(tuple(sorted(tri)))
    if data is None or not data.in_alpha:
        return 0.0
    return 0.5 * data.exposed_count


def nu_ijk(balls, cx, tri):
    """Fraction of the corner segment inside the Voronoi edge V_ijk."""
    data = cx.triangles.get(tuple(sorted(tri)))
    if data is None or not data.in_alpha:
        return 0.0
    return data.nu


@dataclass(frozen=True)
class _Segment:
    """Directed boundary piece on a sphere: one arc walked with the exposed
    region on its left (the occluding cap on its right)."""

    partner: int
    enter_key: tuple
    exit_key: tuple
    enter_point: np.ndarray
    exit_point: np.ndarray
    extent: float
    cos_cap: float                 # signed cap depth xi_s / r_s
    axis: np.ndarray               # unit vector from this sphere toward partner
    center: np.ndarray             # circle center


def _sphere_segments(balls, cx, s):
    """All boundary arcs on sphere s oriented for the region walk."""
    segments = []
    lone = []
    # Key order fixes the summation order of the lone caps in sigma_i.
    for key in cx.vertices[s].boundary_edges:
        data = cx.edges[key]
        pg = data.pair
        t = key[0] if key[1] == s else key[1]
        if s == pg.i:
            axis = -pg.u_ij
            xi_s = pg.xi_i
        else:
            axis = pg.u_ij
            xi_s = pg.xi_j
        cos_cap = xi_s / balls.radii[s]
        for arc in data.arcs:
            if arc.full_circle:
                lone.append(cos_cap)
                continue
            if s == pg.i:
                # Stored ccw direction is already clockwise around the axis.
                enter, leave = arc.start, arc.end
            else:
                enter, leave = arc.end, arc.start
            segments.append(_Segment(partner=t,
                                     enter_key=enter.key, exit_key=leave.key,
                                     enter_point=enter.point, exit_point=leave.point,
                                     extent=arc.extent, cos_cap=cos_cap,
                                     axis=axis, center=pg.center))
    return segments, lone


def sigma_i(balls, cx, i):
    """Exposed area fraction of sphere i by spherical Gauss-Bonnet.

    Boundary circuits are walked with the exposed region on the left; each
    circuit contributes the area on its left, and nesting is resolved by
    reducing the total modulo the sphere area.
    """
    vd = cx.vertices.get(i)
    if vd is None or not vd.in_alpha or not vd.on_boundary:
        return 0.0
    segments, lone = _sphere_segments(balls, cx, i)
    if not segments and not lone:
        return 1.0   # whole sphere exposed (boundary flag rules out covered)
    total = 0.0
    for cos_cap in lone:
        total += TWO_PI * (1.0 + cos_cap)
    by_entry = {}
    for seg in segments:
        if seg.enter_key in by_entry:
            raise DegenerateState("more than two arcs meet at a corner",
                                  simplex=seg.enter_key[0])
        by_entry[seg.enter_key] = seg
    unused = set(by_entry)
    r_i = balls.radii[i]
    x_i = balls.centers[i]
    while unused:
        start_key = min(unused)
        circuit = []
        key = start_key
        while True:
            if key not in unused:
                raise DegenerateState("boundary circuit on sphere does not close",
                                      simplex=(i,))
            circuit.append(by_entry[key])
            unused.discard(key)
            key = circuit[-1].exit_key
            if key == start_key:
                break
            if key not in by_entry:
                raise DegenerateState("boundary circuit on sphere does not close",
                                      simplex=(i,))
        area = TWO_PI
        for seg in circuit:
            area += seg.extent * seg.cos_cap
        for seg, nxt in zip(circuit, circuit[1:] + circuit[:1]):
            p = seg.exit_point
            t_in = _cw_tangent(p, seg.center, seg.axis)
            t_out = _cw_tangent(p, nxt.center, nxt.axis)
            normal = (p - x_i) / r_i
            turn = math.atan2(float(normal @ cross3(t_in, t_out)),
                              float(t_in @ t_out))
            area -= turn
        total += area
    # Each circuit contributes the solid angle on its left; nested circuits
    # overshoot by full spheres, which the modulus removes.
    return (total % FOUR_PI) / FOUR_PI


def _cw_tangent(p, center, axis):
    """Unit tangent of the cap circle at p, clockwise around the cap axis."""
    t = cross3(p - center, axis)
    return t / np.linalg.norm(t)


def compute_measures(balls, cx):
    """All fractional measures of the boundary simplices of the complex."""
    out = FractionalMeasures()
    for i in cx.boundary_vertices():
        out.sigma_v[i] = sigma_i(balls, cx, i)
    for e, data in sorted(cx.edges.items()):
        if data.in_alpha:
            out.sigma_e[e] = sigma_ij(balls, cx, e)
    for t, data in sorted(cx.triangles.items()):
        if data.in_alpha:
            out.sigma_t[t] = 0.5 * data.exposed_count
            out.nu_t[t] = data.nu
    return out
