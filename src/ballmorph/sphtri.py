"""Spherical trigonometry of normal triangles at ball corners.

A corner of the diagram is split among the three spheres meeting there by
decomposing the spherical triangle of their unit normals into three
quadrangles (circumcenter connected to the side midpoints).  The angles of
the same triangle are the turns of the spheres' boundary circuits at the
corner, which measures.sigma_i sums.  Everything is parametrized by the
squared cosines of the half side-lengths, a = cos^2(phi_ij / 2) etc., which
keeps all formulas rational up to square roots and makes the derivatives
short.  Every formula takes one corner's scalars or arrays over a table of
corners (complexes.CornerTable), with the same bits per corner either way,
and reads the product of sines from one ``_radicand`` evaluation per call.
"""

from typing import NamedTuple

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
    return np.float64(product_of_sines(np.longdouble(a), np.longdouble(b),
                                       np.longdouble(c)))


def _positive(u, name="product of sines"):
    """u, after raising NonRealizableTriangle at its first entry <= 0."""
    bad = np.flatnonzero(u <= 0.0)
    if bad.size:
        raise NonRealizableTriangle(f"{name} is {np.ravel(u)[bad[0]]:.3e}",
                                    index=int(bad[0]))
    return u


def triangle_area(a, b, c):
    """Area of the spherical triangle with squared half-side cosines a, b, c.

    Lies in (0, 2*pi); areas above pi occur when a + b + c < 1.
    """
    u = _positive(_radicand(a, b, c))
    s = 2.0 * np.arcsin(np.sqrt(np.minimum(u / (4.0 * a * b * c), 1.0)))
    return np.where(a + b + c < 1.0, 2.0 * np.pi - s, s)[()]


def darea_da(a, b, c):
    """Partial derivative of triangle_area in its first argument."""
    u = _positive(_radicand(a, b, c))
    # b + c first: for an isosceles darea_da(x, r, r) that is 2r exactly,
    # which keeps the rounding small next to a corner-sign flip.
    return (b + c - a - 1.0) / (a * np.sqrt(u))


def vertex_angle(cos_ij, cos_jk, cos_ki):
    """Angle at vertex i of the spherical triangle with the three side
    cosines, in (0, pi).

    By the spherical law of cosines, with sin(ij) sin(ki) sin(angle) =
    2 sqrt(u) for the product of sines u of the squared half-side cosines.
    At a corner of spheres i, j and k it is the turn of sphere i's exposed
    boundary where it passes from one of the circles S_ij, S_ki to the other.
    """
    u = _positive(_radicand(0.5 * (1.0 + cos_ij), 0.5 * (1.0 + cos_jk),
                            0.5 * (1.0 + cos_ki)))
    return np.arctan2(2.0 * np.sqrt(u), cos_jk - cos_ij * cos_ki)


def _cap_terms(a, b, c):
    """The product of sines u and the cap denominator v of cap_half_radius."""
    u = _positive(_radicand(a, b, c))
    v = _positive(u + 4.0 * (1.0 - a) * (1.0 - b) * (1.0 - c), "cap denominator")
    return u, v


def cap_half_radius(a, b, c):
    """cos^2(R/2) for the radius R of the cap through the triangle vertices.

    Always in (1/2, 1): the formula picks the circumcenter with R < pi/2.
    """
    u, v = _cap_terms(a, b, c)
    return 0.5 + 0.5 * np.sqrt(u / v)


def dcap_da(a, b, c):
    """Partial derivative of cap_half_radius in its first argument."""
    u, v = _cap_terms(a, b, c)
    return (1.0 - b) * (1.0 - c) * (np.square(a - 1.0) - np.square(b - c)) / (
        np.sqrt(u) * v * np.sqrt(v))


def corner_signs(a, b, c):
    """Orientation signs of the three isosceles cone triangles.

    The sign attached to vertex i is -1 exactly when the circumcenter and
    the vertex lie on opposite sides of the great circle through the other
    two vertices; the boundary case counts as +1.  At most one sign is -1.
    """
    return (np.where(a + c <= 1.0 + b, 1, -1)[()],
            np.where(a + b <= 1.0 + c, 1, -1)[()],
            np.where(b + c <= 1.0 + a, 1, -1)[()])


def _iso_area(x, r):
    """Area of the isosceles triangle with base parameter x and legs r.

    Zero where the triangle flattens (the circumcenter on side x, where its
    corner sign flips); triangle_area raises there instead.
    """
    u = _radicand(x, r, r)
    # x + 2r - 1 > 0 because r > 1/2, so the small-area branch always applies.
    return 2.0 * np.arcsin(np.sqrt(np.minimum(np.where(u > 0.0, u, 0.0)
                                              / (4.0 * x * r * r), 1.0)))


class CornerGeometry(NamedTuple):
    """Normal spherical triangle of a corner and its quadrangle split.

    ``a``, ``b``, ``c`` are the squared half-side cosines of sides ij, jk
    and ki.  Quadrangle areas satisfy quad_i + quad_j + quad_k = area, and
    the fractions alpha sum to one.  Each field (each tuple entry) is a
    scalar for one corner, or an array with one entry per corner.
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
    return _corner(a, b, c).quads


def corner_geometry(cos_ij, cos_jk, cos_ki):
    """Build the corner split from the three normal-angle cosines."""
    return _corner(0.5 * (1.0 + cos_ij), 0.5 * (1.0 + cos_jk), 0.5 * (1.0 + cos_ki))


def _corner(a, b, c):
    """The CornerGeometry of the squared half-side cosines a, b and c."""
    area = triangle_area(a, b, c)
    r = cap_half_radius(a, b, c)
    sgm_i, sgm_j, sgm_k = signs = corner_signs(a, b, c)
    # Over sides ij, jk and ki, apex at the circumcenter, in one evaluation.
    iso_a, iso_b, iso_c = _iso_area(np.stack([a, b, c]), r)
    quads = (0.5 * (sgm_k * iso_a + sgm_j * iso_c),
             0.5 * (sgm_i * iso_b + sgm_k * iso_a),
             0.5 * (sgm_j * iso_c + sgm_i * iso_b))
    # Normalizing by the quadrangle sum (equal to the area up to rounding)
    # keeps the fractions summing to one exactly.
    total = quads[0] + quads[1] + quads[2]
    return CornerGeometry(a=a, b=b, c=c, area=area, cap_r=r, signs=signs, quads=quads,
                          alphas=tuple(q / total for q in quads))


def quad_area_gradient(corner, pair_ij, pair_jk, pair_ki):
    """Coefficients of the quadrangle-area derivatives under ball motion.

    For the corner of balls (i, j, k) with pair data for its three edges
    (PairTable rows: one row's values for one corner, or one row per corner
    of a table), returns three triples (p, q, s), each = (c_ij, c_jk, c_ki), such that

        quad_i' = p[0] <u_ij, t_i - t_j> + p[1] <u_jk, t_j - t_k>
                  + p[2] <u_ki, t_k - t_i>

    and analogously quad_j' with q, quad_k' with s.
    """
    x = (corner.a, corner.b, corner.c)
    r = corner.cap_r
    sgm_i, sgm_j, sgm_k = corner.signs
    pairs = (pair_ij, pair_jk, pair_ki)
    dr = (dcap_da(x[0], x[1], x[2]), dcap_da(x[1], x[0], x[2]), dcap_da(x[2], x[0], x[1]))
    if not all(np.all(pair.has_circle) for pair in pairs):
        raise NoIntersection("corner edges must properly intersect")
    # d(squared cosine)/d(angle) = -sin(phi)/2, then d(angle)/d(distance),
    # which is 1 / r_ij.
    dd = [-0.5 * np.sqrt(np.maximum(0.0, 1.0 - pair.cos_phi * pair.cos_phi)) / pair.r
          for pair in pairs]

    # The isosceles area over side n with legs r is triangle_area(x_n, r, r),
    # symmetric in its last two arguments.  It depends on each center
    # distance through the cap radius, and on its own side's directly too.
    diso = []
    for n in range(3):
        d_dx, d_dr = darea_da(x[n], r, r), 2.0 * darea_da(r, x[n], r)
        diso.append([(d_dx + d_dr * dr[m] if m == n else d_dr * dr[m]) * dd[m]
                     for m in range(3)])
    dA, dB, dC = diso

    p = tuple(0.5 * (sgm_k * dA[m] + sgm_j * dC[m]) for m in range(3))
    q = tuple(0.5 * (sgm_i * dB[m] + sgm_k * dA[m]) for m in range(3))
    s = tuple(0.5 * (sgm_j * dC[m] + sgm_i * dB[m]) for m in range(3))
    return p, q, s
