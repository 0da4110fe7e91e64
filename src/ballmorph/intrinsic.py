"""Weighted intrinsic volumes of the ball union.

Sums run over unordered boundary simplices; the coefficients are fixed so
that the unweighted Gaussian curvature reproduces 2*pi times the Euler
characteristic of the surface and the mean curvature matches the additive
(normal cycle) value.
"""

import math
from dataclasses import dataclass

from .sphtri import corner_geometry

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class IntrinsicVolumes:
    volume: float          # Monte Carlo estimate; nan when not requested
    volume_std_error: float
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


def weighted_volume(balls, measures):
    """Weighted ball-volume sum from the Monte Carlo Voronoi fractions."""
    if not measures.nu_v:
        return float("nan"), float("nan")
    est = 0.0
    var = 0.0
    for i, (nu, se) in sorted(measures.nu_v.items()):
        coef = (FOUR_PI / 3.0) * balls.weights[i] * balls.radii[i] ** 3
        est += coef * nu
        var += (coef * se) ** 2
    return est, math.sqrt(var)


def intrinsic_volumes(balls, cx, measures):
    """All four weighted intrinsic volumes at the current state."""
    vol, vol_se = weighted_volume(balls, measures)
    area = weighted_area(balls, cx, measures)
    mean = weighted_mean(balls, cx, measures)
    gauss, (g_patch, g_arc, g_corner) = weighted_gauss(balls, cx, measures)
    return IntrinsicVolumes(volume=vol, volume_std_error=vol_se, area=area,
                            mean=mean, gauss=gauss, gauss_patch=g_patch,
                            gauss_arc=g_arc, gauss_corner=g_corner)
