"""Weighted intrinsic volumes of the ball union.

Sums run over unordered boundary simplices; the coefficients are fixed so
that the unweighted Gaussian curvature reproduces 2*pi times the Euler
characteristic of the surface and the mean curvature matches the additive
(normal cycle) value.  The volume is exact as well: the divergence theorem
reduces each clipped ball B_i cap V_i to its exposed sphere patch and the
clipped disks of its alpha edges, whose areas reduce in turn to exposed
arcs and clipped corner segments (Edelsbrunner and Koehl, PNAS 2003).
"""

import math
from dataclasses import dataclass

import numpy as np

from .sphtri import corner_geometry

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class IntrinsicVolumes:
    volume: float
    area: float
    mean: float
    gauss: float
    gauss_patch: float     # sphere-patch part of the Gaussian curvature
    gauss_arc: float
    gauss_corner: float


def weighted_area(balls, cx, measures):
    """4*pi sum of w_i sigma_i r_i^2 over boundary vertices."""
    return FOUR_PI * sum(balls.weights[i] * s * balls.radii[i] ** 2
                         for i, s in sorted(measures.sigma_v.items()))


def weighted_mean(balls, cx, measures):
    """Patch term minus the reentrant arc term of the mean curvature."""
    patch = FOUR_PI * sum(balls.weights[i] * s * balls.radii[i]
                          for i, s in sorted(measures.sigma_v.items()))
    arc = 0.0
    for (i, j), sig in sorted(measures.sigma_e.items()):
        if sig == 0.0:
            continue
        pg = cx.pair(i, j)
        arc += (0.5 * (balls.weights[i] + balls.weights[j])
                * sig * pg.phi * pg.r)
    return patch - math.pi * arc


def weighted_gauss(balls, cx, measures):
    """Weighted Gaussian curvature with its patch/arc/corner breakdown."""
    w = balls.weights
    patch = FOUR_PI * sum(w[i] * s for i, s in sorted(measures.sigma_v.items()))
    arc = 0.0
    for (i, j), sig in sorted(measures.sigma_e.items()):
        if sig == 0.0:
            continue
        arc -= math.pi * (w[i] + w[j]) * sig * cx.pair(i, j).lam
    corner = 0.0
    for (i, j, k), sig in sorted(measures.sigma_t.items()):
        if sig == 0.0:
            continue
        geo = corner_geometry(cx.pair(i, j).cos_phi, cx.pair(j, k).cos_phi,
                              cx.pair(k, i).cos_phi)
        a_i, a_j, a_k = geo.alphas
        corner += 2.0 * sig * (a_i * w[i] + a_j * w[j] + a_k * w[k]) * geo.area
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
    disk = {}
    for (i, j), sig in sorted(measures.sigma_e.items()):
        disk[(i, j)] = math.pi * cx.pair(i, j).r_sq * sig
    for tri, nu in sorted(measures.nu_t.items()):
        if nu <= 0.0:
            continue
        tg = cx.triangles[tri].triple
        seg = 2.0 * nu * tg.half_length
        a, b, c = tri
        for i, j, k in ((a, b, c), (a, c, b), (b, c, a)):
            pg = cx.pair(i, j)
            g = balls.centers[k] - balls.centers[i]
            g -= (g @ pg.u_ij) * pg.u_ij
            h = float((tg.center - pg.center) @ g) / float(np.linalg.norm(g))
            disk[(i, j)] += 0.5 * h * seg
    w, r = balls.weights, balls.radii
    total = FOUR_PI * sum(w[i] * s * r[i] ** 3
                          for i, s in sorted(measures.sigma_v.items()))
    for (i, j), area in disk.items():
        pg = cx.pair(i, j)
        total += (w[i] * pg.xi_i + w[j] * pg.xi_j) * area
    return float(total) / 3.0


def intrinsic_volumes(balls, cx, measures):
    """All four weighted intrinsic volumes at the current state."""
    vol = weighted_volume(balls, cx, measures)
    area = weighted_area(balls, cx, measures)
    mean = weighted_mean(balls, cx, measures)
    gauss, (g_patch, g_arc, g_corner) = weighted_gauss(balls, cx, measures)
    return IntrinsicVolumes(volume=vol, area=area, mean=mean, gauss=gauss,
                            gauss_patch=g_patch, gauss_arc=g_arc,
                            gauss_corner=g_corner)
