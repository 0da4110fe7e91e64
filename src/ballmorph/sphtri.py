"""Spherical trigonometry of normal triangles at ball corners.

A corner of the diagram is split among the three spheres meeting there by
decomposing the spherical triangle of their unit normals into three
quadrangles (circumcenter connected to the side midpoints).  The angles of
the same triangle are the turns of the spheres' boundary circuits at the
corner, which measures.sigma_i sums.  Everything is parametrized by the
squared cosines of the half side-lengths, a = cos^2(phi_ij / 2) etc., which
keeps all formulas rational up to square roots and makes the derivatives
short.  Every formula reads the product of sines of these parameters from
``_radicand``, in one precision.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoIntersection, NonRealizableTriangle


def product_of_sines(a, b, c):
    """4abc - (a+b+c-1)^2.

    Equals sin(s) sin(s-phi_ij) sin(s-phi_jk) sin(s-phi_ki) for a spherical
    triangle with half-perimeter s; nonpositive iff the side lengths violate
    a triangle inequality.  Accepts scalars or arrays.
    """
    return 4.0 * a * b * c - (a + b + c - 1.0) ** 2


def _radicand(a, b, c):
    """product_of_sines evaluated on np.longdouble inputs.

    The expression cancels catastrophically for thin triangles and next to
    a corner-sign flip; the extended precision keeps the areas, the angles
    and the derivatives, which all divide by or take the root of it, tight.
    """
    return float(product_of_sines(np.longdouble(a), np.longdouble(b),
                                  np.longdouble(c)))


def triangle_area(a, b, c):
    """Area of the spherical triangle with squared half-side cosines a, b, c.

    Lies in (0, 2*pi); areas above pi occur when a + b + c < 1.
    """
    u = _radicand(a, b, c)
    if u <= 0.0:
        raise NonRealizableTriangle(f"product of sines is {u:.3e}")
    t = math.sqrt(min(u / (4.0 * a * b * c), 1.0))
    s = 2.0 * math.asin(t)
    if a + b + c < 1.0:
        s = 2.0 * math.pi - s
    return s


def darea_da(a, b, c):
    """Partial derivative of triangle_area in its first argument."""
    u = _radicand(a, b, c)
    if u <= 0.0:
        raise NonRealizableTriangle(f"product of sines is {u:.3e}")
    # b + c first: for an isosceles darea_da(x, r, r) that is 2r exactly,
    # which keeps the rounding small next to a corner-sign flip.
    return (b + c - a - 1.0) / (a * math.sqrt(u))


def vertex_angle(cos_ij, cos_jk, cos_ki):
    """Angle at vertex i of the spherical triangle with the three side
    cosines, in (0, pi).

    By the spherical law of cosines, with sin(ij) sin(ki) sin(angle) =
    2 sqrt(u) for the product of sines u of the squared half-side cosines.
    At a corner of spheres i, j and k it is the turn of sphere i's exposed
    boundary where it passes from one of the circles S_ij, S_ki to the other.
    """
    u = _radicand(0.5 * (1.0 + cos_ij), 0.5 * (1.0 + cos_jk), 0.5 * (1.0 + cos_ki))
    if u <= 0.0:
        raise NonRealizableTriangle(f"product of sines is {u:.3e}")
    return math.atan2(2.0 * math.sqrt(u), cos_jk - cos_ij * cos_ki)


def cap_half_radius(a, b, c):
    """cos^2(R/2) for the radius R of the cap through the triangle vertices.

    Always in (1/2, 1): the formula picks the circumcenter with R < pi/2.
    """
    u = _radicand(a, b, c)
    if u <= 0.0:
        raise NonRealizableTriangle(f"product of sines is {u:.3e}")
    v = u + 4.0 * (1.0 - a) * (1.0 - b) * (1.0 - c)
    if v <= 0.0:
        raise NonRealizableTriangle(f"cap denominator is {v:.3e}")
    return 0.5 + 0.5 * math.sqrt(u / v)


def dcap_da(a, b, c):
    """Partial derivative of cap_half_radius in its first argument."""
    u = _radicand(a, b, c)
    if u <= 0.0:
        raise NonRealizableTriangle(f"product of sines is {u:.3e}")
    v = u + 4.0 * (1.0 - a) * (1.0 - b) * (1.0 - c)
    if v <= 0.0:
        raise NonRealizableTriangle(f"cap denominator is {v:.3e}")
    return (1.0 - b) * (1.0 - c) * ((a - 1.0) ** 2 - (b - c) ** 2) / (
        math.sqrt(u) * v * math.sqrt(v))


def corner_signs(a, b, c):
    """Orientation signs of the three isosceles cone triangles.

    The sign attached to vertex i is -1 exactly when the circumcenter and
    the vertex lie on opposite sides of the great circle through the other
    two vertices; the boundary case counts as +1.  At most one sign is -1.
    """
    sgm_i = 1 if a + c <= 1.0 + b else -1
    sgm_j = 1 if a + b <= 1.0 + c else -1
    sgm_k = 1 if b + c <= 1.0 + a else -1
    return sgm_i, sgm_j, sgm_k


def _iso_area(x, r):
    """Area of the isosceles triangle with base parameter x and legs r.

    Zero where the triangle flattens (the circumcenter on side x, where its
    corner sign flips); triangle_area raises there instead.
    """
    u = _radicand(x, r, r)
    if u <= 0.0:
        return 0.0
    t = math.sqrt(min(u / (4.0 * x * r * r), 1.0))
    # x + 2r - 1 > 0 because r > 1/2, so the small-area branch always applies.
    return 2.0 * math.asin(t)


@dataclass(frozen=True)
class CornerGeometry:
    """Normal spherical triangle of a corner and its quadrangle split.

    ``a``, ``b``, ``c`` are the squared half-side cosines of sides ij, jk
    and ki.  Quadrangle areas satisfy quad_i + quad_j + quad_k = area, and
    the fractions alpha sum to one.
    """

    a: float
    b: float
    c: float
    area: float
    cap_r: float                      # cos^2(R/2) of the circumcap
    signs: tuple                      # (sgm_i, sgm_j, sgm_k)
    quads: tuple                      # (quad_i, quad_j, quad_k)
    alphas: tuple                     # area fractions, sum to 1


def quadrangle_areas(a, b, c):
    """Split the triangle area into the three vertex quadrangles.

    Returns (quad_i, quad_j, quad_k); their sum equals triangle_area(a,b,c).
    """
    return _split(a, b, c, cap_half_radius(a, b, c), corner_signs(a, b, c))


def _split(a, b, c, r, signs):
    """quadrangle_areas for a given circumcap parameter r and corner signs."""
    sgm_i, sgm_j, sgm_k = signs
    iso_a = _iso_area(a, r)   # over side ij, apex at the circumcenter
    iso_b = _iso_area(b, r)   # over side jk
    iso_c = _iso_area(c, r)   # over side ki
    quad_i = 0.5 * (sgm_k * iso_a + sgm_j * iso_c)
    quad_j = 0.5 * (sgm_i * iso_b + sgm_k * iso_a)
    quad_k = 0.5 * (sgm_j * iso_c + sgm_i * iso_b)
    return quad_i, quad_j, quad_k


def corner_geometry(cos_ij, cos_jk, cos_ki):
    """Build the corner split from the three normal-angle cosines."""
    a = 0.5 * (1.0 + cos_ij)
    b = 0.5 * (1.0 + cos_jk)
    c = 0.5 * (1.0 + cos_ki)
    area = triangle_area(a, b, c)
    r = cap_half_radius(a, b, c)
    signs = corner_signs(a, b, c)
    quads = _split(a, b, c, r, signs)
    # Normalizing by the quadrangle sum (equal to the area up to rounding)
    # keeps the fractions summing to one exactly.
    total = quads[0] + quads[1] + quads[2]
    alphas = tuple(q / total for q in quads)
    return CornerGeometry(a=a, b=b, c=c, area=area, cap_r=r, signs=signs,
                          quads=quads, alphas=alphas)


def quad_area_gradient(corner, pair_ij, pair_jk, pair_ki):
    """Coefficients of the quadrangle-area derivatives under ball motion.

    For the corner of balls (i, j, k) with pair data for its three edges,
    returns three triples (p, q, s), each = (c_ij, c_jk, c_ki), such that

        quad_i' = p[0] <u_ij, t_i - t_j> + p[1] <u_jk, t_j - t_k>
                  + p[2] <u_ki, t_k - t_i>

    and analogously quad_j' with q, quad_k' with s.
    """
    a, b, c = corner.a, corner.b, corner.c
    r = corner.cap_r
    sgm_i, sgm_j, sgm_k = corner.signs

    dr_da = dcap_da(a, b, c)
    dr_db = dcap_da(b, a, c)
    dr_dc = dcap_da(c, a, b)

    # d(squared cosine)/d(angle) = -sin(phi)/2, then d(angle)/d(distance),
    # which is 1 / r_ij.
    def edge_factor(pair):
        return -0.5 * math.sqrt(max(0.0, 1.0 - pair.cos_phi ** 2))

    if not (pair_ij.has_circle and pair_jk.has_circle and pair_ki.has_circle):
        raise NoIntersection("corner edges must properly intersect")
    da_dd = edge_factor(pair_ij) / pair_ij.r
    db_dd = edge_factor(pair_jk) / pair_jk.r
    dc_dd = edge_factor(pair_ki) / pair_ki.r

    # The isosceles area over side x with legs r is triangle_area(x, r, r),
    # symmetric in its last two arguments.
    dA_dx, dA_dr = darea_da(a, r, r), 2.0 * darea_da(r, a, r)
    dB_dx, dB_dr = darea_da(b, r, r), 2.0 * darea_da(r, b, r)
    dC_dx, dC_dr = darea_da(c, r, r), 2.0 * darea_da(r, c, r)

    # Derivatives of the three isosceles areas with respect to the three
    # center distances; the base side depends on its own distance both
    # directly and through the cap radius.
    dA = ((dA_dx + dA_dr * dr_da) * da_dd,
          dA_dr * dr_db * db_dd,
          dA_dr * dr_dc * dc_dd)
    dB = (dB_dr * dr_da * da_dd,
          (dB_dx + dB_dr * dr_db) * db_dd,
          dB_dr * dr_dc * dc_dd)
    dC = (dC_dr * dr_da * da_dd,
          dC_dr * dr_db * db_dd,
          (dC_dx + dC_dr * dr_dc) * dc_dd)

    p = tuple(0.5 * (sgm_k * dA[m] + sgm_j * dC[m]) for m in range(3))
    q = tuple(0.5 * (sgm_i * dB[m] + sgm_k * dA[m]) for m in range(3))
    s = tuple(0.5 * (sgm_j * dC[m] + sgm_i * dB[m]) for m in range(3))
    return p, q, s
