"""Weighted intrinsic volumes of the ball union.

Sums run over unordered boundary simplices; the coefficients are fixed so
that the unweighted Gaussian curvature reproduces 2*pi times the Euler
characteristic of the surface and the mean curvature matches the additive
(normal cycle) value.  The volume is exact as well: the divergence theorem
reduces each clipped ball B_i cap V_i to its exposed sphere patch and the
clipped disks of its alpha edges, whose areas reduce in turn to exposed
arcs and clipped corner segments (Edelsbrunner and Koehl, PNAS 2003).
Every sum reads columns: the pair rows of the alpha edges, the corner
table, and the triangle table with the centres and half-lengths of its
rows of the candidate triple table.  Every sum is one np.bincount over
per-state bins, each state's terms added in key order after its start, so
it rounds the same on every Python version; a plain set is one state and
gives a float, a stack one value per state.
"""

import math
from typing import NamedTuple

import numpy as np

from .geometry import row_dots, row_norms

FOUR_PI = 4.0 * math.pi


class IntrinsicVolumes(NamedTuple):
    volume: float
    area: float
    mean: float
    gauss: float
    gauss_patch: float     # sphere-patch part of the Gaussian curvature
    gauss_arc: float
    gauss_corner: float


def _sum(balls, terms, first=None, start=0.0):
    """start plus an array of terms, added left to right in key order: a
    float, or for a stack one value per state, each term in the state of
    its simplex's ``first`` ball (the term's own ball when None) and
    ``start`` one value or one per state.  One bincount adds each state's
    bin in sequence, its start first."""
    states = balls.n // balls.size
    first = np.arange(balls.n) if first is None else first
    total = np.bincount(np.concatenate([np.arange(states), first // balls.size]),
                        np.concatenate([np.broadcast_to(start, states), terms]), minlength=states)
    return total if balls.stacked else float(total[0])


def weighted_area(balls, cx, measures):
    """4*pi sum of w_i sigma_i r_i^2 over boundary vertices."""
    return FOUR_PI * _sum(balls, balls.weights * measures.sigma_v * np.square(balls.radii))


def weighted_mean(balls, cx, measures):
    """Patch term minus the reentrant arc term of the mean curvature."""
    w = balls.weights
    i, j = cx.edge_keys.T
    pairs = cx.edge_pairs
    patch = FOUR_PI * _sum(balls, w * measures.sigma_v * balls.radii)
    arc = _sum(balls, 0.5 * (w[i] + w[j]) * measures.sigma_e * pairs.phi * pairs.r, i)
    return patch - math.pi * arc


def weighted_gauss(balls, cx, measures):
    """Weighted Gaussian curvature with its patch/arc/corner breakdown."""
    w = balls.weights
    i, j = cx.edge_keys.T
    patch = FOUR_PI * _sum(balls, w * measures.sigma_v)
    arc = 0.0 - _sum(balls, math.pi * (w[i] + w[j]) * measures.sigma_e * cx.edge_pairs.lam, i)
    corners = cx.corner_table
    geo, wc = corners.geo, w[corners.ijk]
    a_i, a_j, a_k = geo.alphas
    corner = _sum(balls, 2.0 * corners.sigma * (a_i * wc[:, 0] + a_j * wc[:, 1]
                                                + a_k * wc[:, 2]) * geo.area, corners.ijk[:, 0])
    return patch + arc + corner, (patch, arc, corner)


def weighted_volume(balls, cx, measures):
    """Weighted volume sum_i w_i vol(B_i cap V_i), exact from the complex.

    By the divergence theorem about x_i,

        vol(B_i cap V_i) = (r_i 4 pi r_i^2 sigma_i + sum_j xi_i F_ij) / 3,

    with F_ij the area of the disk of S_ij clipped to V_ij.  By the same
    theorem in the radical plane about the circle centre q_ij,

        F_ij = pi r_ij^2 sigma_ij + 1/2 sum_k h_ijk l_ijk,

    where l_ijk = 2 nu_ijk r_ijk is the clipped corner segment and h_ijk its
    signed distance from q_ij, positive towards x_k.
    """
    pairs, keys, tris, triples = cx.edge_pairs, cx.edge_keys, cx.triangle_table, cx._triple_table
    disk = math.pi * pairs.r_sq * measures.sigma_e
    live = np.flatnonzero(measures.nu_t > 0.0)
    triple = tris.triple[live]
    # Per triangle abc the sides ab, ac and bc, each with its third ball.
    sides = tris.ijk[live][:, [0, 1, 2, 0, 2, 1, 1, 2, 0]].reshape(-1, 3)
    at = cx.edge_rows(sides[:, :2])
    u = pairs.u_ij[at]
    g = balls.centers[sides[:, 2]] - balls.centers[sides[:, 0]]
    g -= row_dots(g, u)[:, None] * u
    h = row_dots(np.repeat(triples.center[triple], 3, axis=0) - pairs.center[at], g) / row_norms(g)
    seg = np.repeat(2.0 * measures.nu_t[live] * np.sqrt(triples.h_sq[triple]), 3)
    np.add.at(disk, at, 0.5 * h * seg)
    w = balls.weights
    i, j = keys.T
    total = _sum(balls, (w[i] * pairs.xi_i + w[j] * pairs.xi_j) * disk, i,
                 FOUR_PI * _sum(balls, w * measures.sigma_v * balls.radii ** 3))
    return total / 3.0


def intrinsic_volumes(balls, cx, measures):
    """All four weighted intrinsic volumes at the current state."""
    vol = weighted_volume(balls, cx, measures)
    area = weighted_area(balls, cx, measures)
    mean = weighted_mean(balls, cx, measures)
    gauss, (g_patch, g_arc, g_corner) = weighted_gauss(balls, cx, measures)
    return IntrinsicVolumes(volume=vol, area=area, mean=mean, gauss=gauss,
                            gauss_patch=g_patch, gauss_arc=g_arc,
                            gauss_corner=g_corner)
