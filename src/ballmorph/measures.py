"""Fractional measures of the boundary simplices.

sigma_i is the exposed area fraction of sphere i, sigma_ij the exposed
length fraction of circle S_ij, sigma_ijk the exposed fraction of the two
corner points, and nu_ijk the fraction of the corner segment inside the
Voronoi edge.  sigma_ij sums the extents of its circle's rows of the arc
table, and sigma_i is a flat Gauss-Bonnet sum over the links the arcs make
between corners, each turn an angle of the corner's normal triangle, from
the corner table, and each circuit's 2 pi on the link that enters its
least corner, so one bincount adds every sphere's terms.
sigma_ijk and nu_ijk are columns of the triangle table.  With the pair
and triple tables of the complex, these give the weighted volume exactly
(intrinsic.weighted_volume); the ball volume fraction nu_i is left to the
Monte Carlo cross-check oracles.nu_i_mc.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateState

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


class FractionalMeasures(NamedTuple):
    """The measures as arrays aligned with the complex's sorted keys."""

    sigma_v: np.ndarray     # sigma_i of every ball, 0 off the boundary
    sigma_e: np.ndarray     # sigma_ij of the alpha edges in key order
    sigma_t: np.ndarray     # 0, 1/2 or 1 for the alpha triangles in key order
    nu_t: np.ndarray        # nu_ijk for the alpha triangles in key order


def sigma_ij(balls, cx, edge):
    """Fraction of circle S_ij outside all other balls: the extents of its
    exposed arcs over 2 pi."""
    row = cx.edge_rows(sorted(edge))[0]
    return 0.0 if row < 0 else float(_arc_sums(cx)[row] / TWO_PI)


def _arc_sums(cx):
    """Each alpha edge's arc extents, added in the arc table's row order;
    a Condition II record raises."""
    cx.require_generic(("II",))
    return np.bincount(cx.arcs.edge, cx.arcs.extent, minlength=len(cx.edge_keys))


def sigma_ijk(balls, cx, tri):
    """Exposed corner count over two: 0, 1/2 or 1."""
    row = cx.key_rows(cx.triangle_table.ijk, sorted(tri))[0]
    return 0.0 if row < 0 else float(0.5 * cx.triangle_table.exposed[row].sum())


def nu_ijk(balls, cx, tri):
    """Fraction of the corner segment inside the Voronoi edge V_ijk."""
    row = cx.key_rows(cx.triangle_table.ijk, sorted(tri))[0]
    return 0.0 if row < 0 else float(cx.triangle_table.nu[row])


def sigma_i(balls, cx, i):
    """Exposed area fraction of sphere i: its entry of compute_measures."""
    if not 0 <= i < balls.n or not cx.on_boundary[i]:
        return 0.0
    return float(compute_measures(balls, cx).sigma_v[i])


def _sphere_sigmas(balls, cx):
    """sigma_i of every ball, meaningful on the boundary (1 with no arc).

    Arcs run ccw around u_ij: clockwise around the cap axis -u_ij of the
    first sphere, so with its exposed region on the left, and the second
    sphere walks them backwards.  So each arc links, on each of its spheres,
    the corner it enters to the corner it leaves, with extent * cos_cap on
    a cap of signed depth cos_cap = xi / r.  A circuit encloses 2 pi plus
    its links minus its turns, a whole circle 2 pi (1 + cos_cap), and the
    modulus by the sphere area resolves nesting; a Condition II record raises.
    """
    cx.require_generic(("II",))
    arcs, n = cx.arcs, balls.n
    # One entry per arc and sphere, the arc's first sphere first.
    sphere = cx.edge_keys[arcs.edge].ravel()
    row = np.arange(2 * len(arcs.edge)) // 2
    xi = np.column_stack([cx.edge_pairs.xi_i, cx.edge_pairs.xi_j])
    cos_cap = xi[arcs.edge].ravel() / balls.radii[sphere]
    full = arcs.full[row]
    whole, link = np.flatnonzero(full), np.flatnonzero(~full)
    link = link[np.argsort(sphere[link], kind="stable")]
    terms = _circuits(cx, sphere[link], row[link], link % 2,
                      arcs.extent[row[link]] * cos_cap[link])
    # bincount adds each sphere's whole circles in key order, then its links.
    total = np.bincount(np.concatenate([sphere[whole], sphere[link]]),
                        np.concatenate([TWO_PI * (1.0 + cos_cap[whole]), terms]), minlength=n)
    return np.where(np.bincount(sphere, minlength=n) > 0, total % FOUR_PI / FOUR_PI, 1.0)


def _circuits(cx, sphere, row, side, arc_term):
    """The term of each link that walks the arc row ``row`` from end
    ``side`` (sorted by sphere, each sphere's in row order; ``arc_term`` is
    extent * cos_cap): arc_term minus the turn at the corner it leaves, plus
    2 pi on the link that enters its circuit's least corner key, so that
    each circuit's links add up to its area.  Raises DegenerateState at the
    first sphere where two links enter one corner or that does not close.
    """
    arcs, count = cx.arcs, len(row)
    if not count:
        return arc_term
    corner = 2 * arcs.corner + (arcs.tag > 0)    # ordered as the corner keys
    span = corner.max() + 1
    enter, leave = (sphere * span + corner[row, end] for end in (side, 1 - side))
    order = np.argsort(enter, kind="stable")
    ordered = enter[order]
    repeat = order[1:][ordered[1:] == ordered[:-1]].min(initial=count)
    at = np.minimum(np.searchsorted(ordered, leave), count - 1)
    found = ordered[at] == leave
    nxt = order[at]             # the link that goes on from where each one leaves
    open_ = ~found | (np.bincount(nxt[found], minlength=count) > 1)[nxt]
    first = sphere[open_].min(initial=cx.balls.n)
    if repeat < count and sphere[repeat] <= first:
        tri = cx.edge_keys[arcs.edge[row[repeat]]].tolist() + [arcs.occluder[row, side][repeat]]
        raise DegenerateState("more than two arcs meet at a corner",
                              simplex=sorted(int(v) % cx.balls.size for v in tri))
    if open_.any():
        raise DegenerateState("boundary circuit on sphere does not close",
                              simplex=(int(first) % cx.balls.size,))
    corners = cx.corner_table
    out = arcs.corner[row, 1 - side]
    turn = corners.angles[out, np.argmax(corners.ijk[out] == sphere[:, None], axis=1)]
    # Pointer doubling: the least corner key on each link's circuit.
    least, ahead = enter, nxt
    for _ in range(int(np.bincount(sphere).max()).bit_length()):    # circuits stay on a sphere
        least, ahead = np.minimum(least, least[ahead]), ahead[ahead]
    return arc_term - turn + np.where(enter == least, TWO_PI, 0.0)


def compute_measures(balls, cx):
    """All fractional measures of the boundary simplices of the complex."""
    tris = cx.triangle_table
    return FractionalMeasures(sigma_v=np.where(cx.on_boundary, _sphere_sigmas(balls, cx), 0.0),
                              sigma_e=_arc_sums(cx) / TWO_PI,
                              sigma_t=0.5 * tris.exposed.sum(axis=1), nu_t=tris.nu)
