import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ballmorph import build_alpha_complex
from ballmorph.geometry import pair_table
from ballmorph.serial import parse_diagram
from ballmorph.sphtri import cap_half_radius, corner_geometry, \
    corner_signs, darea_da, dcap_da, product_of_sines, \
    quad_area_gradient, quadrangle_areas, triangle_area, vertex_angle
from ballmorph.errors import GeometryError, NoIntersection, NonRealizableTriangle
from conftest import corners, pair, random_triangle_params, spherical_triangle_excess


def four_sine_product(phi_ij, phi_jk, phi_ki):
    s = 0.5 * (phi_ij + phi_jk + phi_ki)
    return (math.sin(s) * math.sin(s - phi_ij) * math.sin(s - phi_jk)
            * math.sin(s - phi_ki))


def lhuilier_area(phi_ij, phi_jk, phi_ki):
    s = 0.5 * (phi_ij + phi_jk + phi_ki)
    t = math.sqrt(max(0.0, math.tan(s / 2) * math.tan((s - phi_ij) / 2)
                      * math.tan((s - phi_jk) / 2) * math.tan((s - phi_ki) / 2)))
    return 4.0 * math.atan(t)


def corner_from_normals(v):
    """Corner split of the spherical triangle with unit vertices v[0..2]."""
    return corner_geometry(float(v[0] @ v[1]), float(v[1] @ v[2]), float(v[2] @ v[0]))


def circumcenter(v):
    """Unit vector equidistant from the three vertices, on the cap side R < pi/2."""
    # Equal dot products with all three vertices: z is orthogonal to both
    # difference vectors, and the dot products are positive for R < pi/2.
    z = np.cross(v[1] - v[0], v[2] - v[0])
    z /= np.linalg.norm(z)
    return -z if z @ (v[0] + v[1] + v[2]) < 0 else z


def arc_midpoint(p, q):
    return (p + q) / np.linalg.norm(p + q)


def test_product_of_sines_octant():
    assert product_of_sines(0.5, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_product_of_sines_degenerate_sides():
    # phi_ki = phi_ij + phi_jk puts the three arcs on one great circle.
    phi_ij, phi_jk = 0.7, 0.9
    phi_ki = phi_ij + phi_jk
    a = math.cos(phi_ij / 2) ** 2
    b = math.cos(phi_jk / 2) ** 2
    c = math.cos(phi_ki / 2) ** 2
    assert product_of_sines(a, b, c) == pytest.approx(0.0, abs=1e-15)
    assert four_sine_product(phi_ij, phi_jk, phi_ki) == pytest.approx(0.0, abs=1e-15)


def test_product_of_sines_matches_four_sine_product(rng):
    a, b, c, v = random_triangle_params(rng, size=500)
    phi = np.arccos(np.clip(2 * np.stack([a, b, c], axis=1) - 1, -1, 1))
    for m in range(500):
        lhs = four_sine_product(*phi[m])
        rhs = product_of_sines(a[m], b[m], c[m])
        assert abs(lhs - rhs) <= 1e-12


def test_triangle_area_octant():
    assert triangle_area(0.5, 0.5, 0.5) == pytest.approx(math.pi / 2, abs=1e-14)


def test_triangle_area_symmetry(rng):
    a, b, c, _ = random_triangle_params(rng)
    assert triangle_area(a, b, c) == pytest.approx(triangle_area(b, a, c), abs=1e-14)
    assert triangle_area(a, b, c) == pytest.approx(triangle_area(c, b, a), abs=1e-14)


def test_triangle_area_matches_lhuilier(rng):
    for _ in range(200):
        a, b, c, _ = random_triangle_params(rng)
        phi = [math.acos(2 * x - 1) for x in (a, b, c)]
        assert triangle_area(a, b, c) == pytest.approx(lhuilier_area(*phi), abs=1e-12)


def test_triangle_area_beyond_hemisphere():
    # Equilateral triangle with sides just under 2*pi/3 covers almost half
    # the sphere; the area must come out near 2*pi, not near zero.
    phi = 2 * math.pi / 3 - 1e-3
    a = math.cos(phi / 2) ** 2
    area = triangle_area(a, a, a)
    assert area > math.pi
    assert area == pytest.approx(lhuilier_area(phi, phi, phi), abs=1e-9)


def test_triangle_area_rejects_nonrealizable():
    with pytest.raises(NonRealizableTriangle):
        triangle_area(0.99, 0.99, 0.01)


def test_cap_half_radius_octant():
    r = cap_half_radius(0.5, 0.5, 0.5)
    assert r == pytest.approx(0.5 + 0.5 / math.sqrt(3), abs=1e-14)
    # Consistency with tan^2(R) = 2 for the octant circumcap.
    big_r = 2 * math.acos(math.sqrt(r))
    assert math.tan(big_r) ** 2 == pytest.approx(2.0, rel=1e-12)


def test_cap_half_radius_shrink_limit():
    # Shrinking the triangle toward a point sends the circumcap parameter
    # to 1; at eps = 1e-5 cancellation in the radicand is still benign.
    x = 1.0 - 1e-5
    assert cap_half_radius(x, x, x) == pytest.approx(1.0, abs=1e-4)


def test_cap_half_radius_matches_circumcenter_construction(rng):
    for _ in range(100):
        a, b, c, v = random_triangle_params(rng)
        geo = corner_from_normals(v)
        z = circumcenter(v)
        cos_r = float(z @ v[0])
        assert 2 * geo.cap_r - 1 == pytest.approx(cos_r, abs=1e-10)
        # Equal angular distance to all three vertices.
        assert float(z @ v[1]) == pytest.approx(cos_r, abs=1e-12)
        assert float(z @ v[2]) == pytest.approx(cos_r, abs=1e-12)


def test_corner_signs_octant_all_positive():
    assert corner_signs(0.5, 0.5, 0.5) == (1, 1, 1)


def test_corner_signs_boundary_case_is_positive():
    # Pythagoras equality a + c = 1 + b.
    a, b = 0.8, 0.5
    c = 1 + b - a
    assert corner_signs(a, b, c)[0] == 1


def test_corner_signs_obtuse_matches_side_test(rng):
    saw_negative = 0
    for _ in range(300):
        a, b, c, v = random_triangle_params(rng)
        signs = corner_from_normals(v).signs
        z = circumcenter(v)
        # Side of the great circle through the two opposite vertices: the
        # circumcenter and the vertex agree in the sign of the triple product.
        for m, (p, q, r) in enumerate(((v[0], v[1], v[2]),
                                       (v[1], v[2], v[0]),
                                       (v[2], v[0], v[1]))):
            plane = np.cross(q, r)
            side_vertex = float(plane @ p)
            side_center = float(plane @ z)
            expected = 1 if side_vertex * side_center >= 0 else -1
            assert signs[m] == expected
            if expected == -1:
                saw_negative += 1
    assert saw_negative > 0


def test_quadrangle_areas_octant():
    qi, qj, qk = quadrangle_areas(0.5, 0.5, 0.5)
    assert qi == pytest.approx(math.pi / 6, abs=1e-13)
    assert qj == pytest.approx(math.pi / 6, abs=1e-13)
    assert qk == pytest.approx(math.pi / 6, abs=1e-13)
    geo = corner_geometry(0.0, 0.0, 0.0)
    assert geo.alphas == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-13)


def test_quadrangle_isosceles_symmetry(rng):
    for _ in range(20):
        a, _, c, _ = random_triangle_params(rng)
        b = a  # sides ij and jk equal: swapping them maps quad_i <-> quad_k
        if product_of_sines(a, b, c) <= 0:
            continue
        qi, qj, qk = quadrangle_areas(a, b, c)
        qi2, qj2, qk2 = quadrangle_areas(b, a, c)
        assert qi == pytest.approx(qi2, abs=1e-13)
        assert qj == pytest.approx(qj2, abs=1e-13)


def test_quadrangle_partition_and_polygon_oracle(rng):
    checked_polygon = 0
    for _ in range(200):
        a, b, c, v = random_triangle_params(rng)
        geo = corner_from_normals(v)
        assert sum(geo.quads) == pytest.approx(geo.area, abs=1e-10)
        assert sum(geo.alphas) == pytest.approx(1.0, abs=1e-12)
        if geo.signs == (1, 1, 1):
            # Quadrangle (n_i, m_k, z, m_j), with m_k and m_j the midpoints
            # of sides ij and ki: triangulate and use Girard.
            z = circumcenter(v)
            m_k, m_j = arc_midpoint(v[0], v[1]), arc_midpoint(v[2], v[0])
            area = (spherical_triangle_excess(v[0], m_k, z)
                    + spherical_triangle_excess(v[0], z, m_j))
            assert geo.quads[0] == pytest.approx(area, abs=1e-10)
            checked_polygon += 1
    assert checked_polygon > 50


def test_quadrangle_continuity_across_sign_flip():
    # Family crossing the right-angle boundary a + c = 1 + b at t = 0: the
    # isosceles piece whose sign flips vanishes there, so the areas are
    # continuous.
    b, c = 0.45, 0.8
    a0 = 1 + b - c
    for eps in (1e-7, 1e-9):
        lo = quadrangle_areas(a0 - eps, b, c)
        hi = quadrangle_areas(a0 + eps, b, c)
        assert np.allclose(lo, hi, atol=1e-5 * math.sqrt(eps) + 1e-8)


def test_darea_octant_and_fd(rng):
    assert darea_da(0.5, 0.5, 0.5) == pytest.approx(-2.0, abs=1e-13)
    for _ in range(60):
        a, b, c, _ = random_triangle_params(rng)
        h = 1e-6
        # Margin keeps the FD truncation error below the comparison tolerance.
        if product_of_sines(a, b, c) <= 1e-3:
            continue
        fd = (triangle_area(a + h, b, c) - triangle_area(a - h, b, c)) / (2 * h)
        assert darea_da(a, b, c) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_darea_argument_symmetry(rng):
    a, b, c, _ = random_triangle_params(rng)
    # The derivative in the second argument is the first-argument formula
    # with the first two parameters swapped.
    h = 1e-7
    fd_b = (triangle_area(a, b + h, c) - triangle_area(a, b - h, c)) / (2 * h)
    assert darea_da(b, a, c) == pytest.approx(fd_b, rel=1e-5)


def test_dcap_octant_and_fd(rng):
    val = dcap_da(0.5, 0.5, 0.5)
    assert val == pytest.approx(0.0625 / (0.5 * 0.75 ** 1.5), rel=1e-12)
    h = 1e-6
    fd = (cap_half_radius(0.5 + h, 0.5, 0.5) - cap_half_radius(0.5 - h, 0.5, 0.5)) / (2 * h)
    assert val == pytest.approx(fd, rel=1e-6)
    for _ in range(60):
        a, b, c, _ = random_triangle_params(rng)
        if product_of_sines(a, b, c) <= 1e-3:
            continue
        fd = (cap_half_radius(a + h, b, c) - cap_half_radius(a - h, b, c)) / (2 * h)
        assert dcap_da(a, b, c) == pytest.approx(fd, rel=1e-5, abs=1e-9)


def exact_radicand(a, b, c):
    """product_of_sines of the float inputs in exact rational arithmetic."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return 4 * a * b * c - (a + b + c - 1) ** 2


def test_derivatives_next_to_corner_sign_flip_match_exact_radicand():
    # The isosceles triangle (x, r, r) flattens at x = (2r - 1)^2, where the
    # circumcenter crosses side x and its corner sign flips; its product of
    # sines cancels to ~1e-8 there.  Reference: exact rationals up to the
    # final float division and square roots.
    worst = 0.0
    for r in (0.55, 0.6, 0.7, 0.8, 0.9):
        for delta in (1e-8, 3e-8, 1e-7, 1e-6):
            x = (2 * r - 1) ** 2 + delta
            for a, b, c in ((x, r, r), (r, x, r)):
                fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
                want = float((fb + fc - fa - 1) / fa) / math.sqrt(
                    float(exact_radicand(a, b, c)))
                worst = max(worst, abs(darea_da(a, b, c) / want - 1.0))
            u = exact_radicand(x, r, r)
            v = u + 4 * (1 - Fraction(x)) * (1 - Fraction(r)) ** 2
            want = float((1 - Fraction(r)) ** 2 * (Fraction(x) - 1) ** 2 / v) / (
                math.sqrt(float(u)) * math.sqrt(float(v)))
            worst = max(worst, abs(dcap_da(x, r, r) / want - 1.0))
    assert worst <= 1e-10


def test_vertex_angle_octant():
    assert vertex_angle(0.0, 0.0, 0.0) == math.pi / 2


def test_vertex_angle_rejects_nonrealizable():
    with pytest.raises(NonRealizableTriangle):
        vertex_angle(-1.0, -1.0, -1.0)


def test_vertex_angles_sum_to_pi_plus_area(rng):
    a, b, c, _ = random_triangle_params(rng, size=2000)
    worst = 0.0
    for x, y, z in zip((2 * a - 1).tolist(), (2 * b - 1).tolist(), (2 * c - 1).tolist()):
        total = vertex_angle(x, y, z) + vertex_angle(y, z, x) + vertex_angle(z, x, y)
        worst = max(worst, abs(total - math.pi - corner_geometry(x, y, z).area))
    assert worst <= 1e-12


def test_dcap_symmetric_in_trailing_arguments(rng):
    a, b, c, _ = random_triangle_params(rng)
    assert dcap_da(a, b, c) == pytest.approx(dcap_da(a, c, b), rel=1e-13)
    # Equal trailing arguments: the (b - c)^2 correction vanishes.
    h = 1e-6
    fd = (cap_half_radius(b + h, b, b) - cap_half_radius(b - h, b, b)) / (2 * h)
    assert dcap_da(b, b, b) == pytest.approx(fd, rel=1e-5)


def test_dangle_ddist_values():
    # quad_area_gradient takes d phi_ij / d|x_i - x_j| as 1 / r_ij.
    def dangle_ddist(r_i, r_j, d):
        return 1.0 / pair_table(np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]]),
                                np.array([r_i, r_j]), np.array([[0, 1]])).r[0]

    # Normal angle of two unit spheres: phi(d) = arccos(1 - d^2/2).
    h = 1e-7
    def phi(d):
        return math.acos((2 - d * d) / 2.0)
    fd = (phi(1 + h) - phi(1 - h)) / (2 * h)
    assert dangle_ddist(1.0, 1.0, 1.0) == pytest.approx(2 / math.sqrt(3), rel=1e-12)
    assert dangle_ddist(1.0, 1.0, 1.0) == pytest.approx(fd, rel=1e-7)
    # Divergence toward external tangency.
    assert dangle_ddist(1.0, 1.0, 1.9999999) > 1e3

    def phi21(d):
        return math.acos((4 + 1 - d * d) / 4.0)
    fd21 = (phi21(2 + h) - phi21(2 - h)) / (2 * h)
    assert dangle_ddist(2.0, 1.0, 2.0) == pytest.approx(fd21, rel=1e-7)


def _corner_from_centers(centers, radii):
    sides = ((0, 1), (1, 2), (2, 0))
    rows = pair_table(np.asarray(centers), np.asarray(radii), np.array(sides))
    pgs = {side: rows.take(m) for m, side in enumerate(sides)}
    geo = corner_geometry(pgs[(0, 1)].cos_phi, pgs[(1, 2)].cos_phi,
                          pgs[(2, 0)].cos_phi)
    return geo, pgs


def test_quad_area_gradient_matches_fd(rng):
    checked = 0
    while checked < 40:
        centers = rng.uniform(0, 1.3, size=(3, 3))
        radii = rng.uniform(0.8, 1.2, size=3)
        try:
            geo, pgs = _corner_from_centers(centers, radii)
        except Exception:
            continue
        if product_of_sines(geo.a, geo.b, geo.c) < 1e-4:
            continue
        if min(product_of_sines(x, geo.cap_r, geo.cap_r)
               for x in (geo.a, geo.b, geo.c)) < 1e-4:
            continue
        try:
            p, q, s = quad_area_gradient(geo, pgs[(0, 1)], pgs[(1, 2)], pgs[(2, 0)])
        except NonRealizableTriangle:
            continue
        t = rng.normal(size=(3, 3))
        h = 1e-6

        def quads_at(tau):
            c2 = centers + tau * t
            geo2, _ = _corner_from_centers(c2, radii)
            return np.array(geo2.quads)

        fd = (quads_at(h) - quads_at(-h)) / (2 * h)
        u01 = (centers[0] - centers[1]) / np.linalg.norm(centers[0] - centers[1])
        u12 = (centers[1] - centers[2]) / np.linalg.norm(centers[1] - centers[2])
        u20 = (centers[2] - centers[0]) / np.linalg.norm(centers[2] - centers[0])
        rates = np.array([float(u01 @ (t[0] - t[1])),
                          float(u12 @ (t[1] - t[2])),
                          float(u20 @ (t[2] - t[0]))])
        analytic = np.array([np.dot(p, rates), np.dot(q, rates), np.dot(s, rates)])
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-6)
        checked += 1


def test_quad_area_gradient_partition_and_translation(rng):
    centers = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    radii = np.ones(3)
    geo, pgs = _corner_from_centers(centers, radii)
    p, q, s = quad_area_gradient(geo, pgs[(0, 1)], pgs[(1, 2)], pgs[(2, 0)])
    total = np.array(p) + np.array(q) + np.array(s)
    h = 1e-6

    def area_at(tau, tm):
        geo2, _ = _corner_from_centers(centers + tau * tm, radii)
        return geo2.area

    # The quadrangles partition the triangle, so the summed coefficients
    # reproduce the full-area derivative along any motion.
    t = rng.normal(size=(3, 3))
    u01 = (centers[0] - centers[1]) / np.linalg.norm(centers[0] - centers[1])
    u12 = (centers[1] - centers[2]) / np.linalg.norm(centers[1] - centers[2])
    u20 = (centers[2] - centers[0]) / np.linalg.norm(centers[2] - centers[0])
    rates = np.array([float(u01 @ (t[0] - t[1])),
                      float(u12 @ (t[1] - t[2])),
                      float(u20 @ (t[2] - t[0]))])
    fd = (area_at(h, t) - area_at(-h, t)) / (2 * h)
    assert float(total @ rates) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    # Rigid translation changes nothing.
    shift = np.tile(np.array([1.0, -0.3, 0.2]), (3, 1))
    fd0 = (area_at(h, shift) - area_at(-h, shift)) / (2 * h)
    assert fd0 == pytest.approx(0.0, abs=1e-8)


def test_quad_area_gradient_requires_intersection_circles():
    # A side whose spheres meet in no circle has no normal angle to move.
    geo, pgs = _corner_from_centers(np.eye(3), np.ones(3))
    apart = pair_table(np.array([[0.0, 0, 0], [3.0, 0, 0]]), np.ones(2),
                       np.array([[0, 1]])).take(0)
    assert not apart.has_circle
    with pytest.raises(NoIntersection):
        quad_area_gradient(geo, pgs[(0, 1)], apart, pgs[(2, 0)])


def split_columns(geo, grads):
    """Every number of a corner split and its quadrangle derivatives, one
    row per corner: (1, 20) for a scalar call, (corners, 20) for arrays."""
    values = [geo.a, geo.b, geo.c, geo.area, geo.cap_r, *geo.signs, *geo.quads,
              *geo.alphas, *(x for coeffs in grads for x in coeffs)]
    return np.array([np.ravel(v) for v in values], dtype=float).T


def test_corner_formulas_on_arrays_carry_the_scalar_bits(rng):
    # 200 random realizable corners, evaluated once as arrays: every row
    # holds the bytes of the scalar calls on that corner.
    refs, centers, radii = [], [], []
    while len(refs) < 200:
        c = rng.uniform(0, 1.3, size=(3, 3))
        r = rng.uniform(0.8, 1.2, size=3)
        try:
            geo, pgs = _corner_from_centers(c, r)
            grads = quad_area_gradient(geo, pgs[(0, 1)], pgs[(1, 2)], pgs[(2, 0)])
        except GeometryError:
            continue
        angles = (vertex_angle(pgs[(0, 1)].cos_phi, pgs[(1, 2)].cos_phi, pgs[(2, 0)].cos_phi),)
        refs.append(np.append(split_columns(geo, grads)[0], angles))
        centers.append(c)
        radii.append(r)
    first = 3 * np.arange(len(refs))[:, None]
    ij, jk, ki = (pair_table(np.concatenate(centers), np.concatenate(radii), first + side)
                  for side in (np.array([0, 1]), np.array([1, 2]), np.array([2, 0])))
    geo = corner_geometry(ij.cos_phi, jk.cos_phi, ki.cos_phi)
    table = np.column_stack([split_columns(geo, quad_area_gradient(geo, ij, jk, ki)),
                             vertex_angle(ij.cos_phi, jk.cos_phi, ki.cos_phi)])
    assert [row.tobytes() for row in table] == [ref.tobytes() for ref in refs]


@pytest.mark.parametrize("name", ["g20", "g60"])
def test_corner_table_rows_carry_the_scalar_bits(name):
    # Each row of a complex's corner table equals the scalar calls on the
    # corner's pair records, byte for byte, and its corner signs agree with
    # the side test on the corner's unit normals, which no formula shares.
    balls = parse_diagram(str(Path(__file__).parent / "data" / f"{name}.txt"))
    cx = build_alpha_complex(balls)
    table = cx.corner_table
    tris = cx.triangle_table
    assert [tuple(key) for key in table.ijk.tolist()] == [
        tuple(key) for key, exposed in zip(tris.ijk.tolist(), tris.exposed) if exposed.any()]
    cols = split_columns(table.geo, quad_area_gradient(table.geo, *table.sides))
    negative = 0
    for m, (i, j, k) in enumerate(table.ijk.tolist()):
        pij, pjk, pki = pair(cx, i, j), pair(cx, j, k), pair(cx, k, i)
        cos = (pij.cos_phi, pjk.cos_phi, pki.cos_phi)
        geo = corner_geometry(*cos)
        ref = split_columns(geo, quad_area_gradient(geo, pij, pjk, pki))[0]
        assert cols[m].tobytes() == ref.tobytes(), (i, j, k)
        angles = [vertex_angle(*cos), vertex_angle(*cos[1:], cos[0]),
                  vertex_angle(cos[2], *cos[:2])]
        assert table.angles[m].tobytes() == np.array(angles).tobytes(), (i, j, k)
        assert table.u[m].tobytes() == np.array([pij.u_ij, pjk.u_ij, -pki.u_ij]).tobytes()
        assert table.sigma[m] == 0.5 * tris.exposed[cx.key_rows(tris.ijk, (i, j, k))[0]].sum()
        # Normals at a corner point: v_a . v_b is cos phi_ab.
        point = corners(cx, i, j, k)[0]
        v = (point - balls.centers[[i, j, k]]) / balls.radii[[i, j, k]][:, None]
        z = circumcenter(v)
        for col, (p, q, r) in enumerate(((v[0], v[1], v[2]), (v[1], v[2], v[0]),
                                         (v[2], v[0], v[1]))):
            plane = np.cross(q, r)
            expected = 1 if float(plane @ p) * float(plane @ z) >= 0 else -1
            assert cols[m, 5 + col] == expected, (i, j, k, col)
            negative += expected == -1
    assert len(table.ijk) > 10 and negative > 0
