import numpy as np
import pytest

from ballmorph.errors import CoincidentCenters, GeometryError
from ballmorph.geometry import EPS_GEO, pair_table, triple_points
from conftest import make_config


def power_distance(a, center, radius):
    """Power of point a with respect to a ball: |a - x_i|^2 - r_i^2."""
    d = np.asarray(a, dtype=float) - center
    return float(d @ d) - radius ** 2


def pair_row(centers, radii):
    """The one row of pair_table for the balls (centers[0], radii[0]) and
    (centers[1], radii[1])."""
    return pair_table(np.array(centers, dtype=float), np.array(radii, dtype=float),
                      np.array([[0, 1]])).take(0)


class DegenerateTriple(GeometryError):
    """Three spheres do not meet in two distinct points."""


def triple_corners(centers, radii, eps=EPS_GEO):
    """The points p_plus and p_minus where three spheres meet, from the
    one-row call of triple_points; raises DegenerateTriple when the centers
    are collinear or the spheres meet in fewer than two points (within
    tolerance)."""
    centers, radii = np.array(centers, dtype=float), np.array(radii, dtype=float)
    collinear, center, axis, h_sq = triple_points(centers, radii, np.array([[0, 1, 2]]), eps)
    if collinear[0]:
        raise DegenerateTriple("centers are collinear")
    h_sq = float(h_sq[0])
    if h_sq <= (eps * radii.max()) ** 2:
        raise DegenerateTriple(f"spheres do not meet in two points (h^2={h_sq:.3e})")
    return center[0] + np.sqrt(h_sq) * axis[0], center[0] - np.sqrt(h_sq) * axis[0]


def test_power_distance_reference_points():
    assert power_distance([0, 0, 0], np.zeros(3), 1.0) == -1.0
    assert power_distance([1, 0, 0], np.zeros(3), 1.0) == 0.0
    assert power_distance([2, 0, 0], np.zeros(3), 1.0) == 3.0


def test_pair_geometry_equal_unit_balls():
    pg = pair_row([[0, 0, 0], [1, 0, 0]], [1.0, 1.0])
    assert pg.xi_i == pytest.approx(0.5, abs=1e-15)
    assert pg.r == pytest.approx(np.sqrt(3) / 2, abs=1e-15)
    # Law of cosines between the outward normals at an intersection point.
    assert pg.phi == pytest.approx(np.arccos((1 + 1 - 1) / 2.0), abs=1e-14)


def test_pair_geometry_external_tangency_has_no_circle():
    pg = pair_row([[0, 0, 0], [2, 0, 0]], [1.0, 1.0])
    assert pg.xi_i == pytest.approx(1.0)
    assert not pg.has_circle
    assert pg.r == 0.0


def test_pair_geometry_unequal_radii_against_planar_oracle():
    # Intersection circle of x^2+y^2=4 and (x-2)^2+y^2=1 in the plane:
    # x = (d^2 + r0^2 - r1^2) / (2 d), radius from the first circle.
    x = (4.0 + 4.0 - 1.0) / 4.0
    r = np.sqrt(4.0 - x ** 2)
    pg = pair_row([[0, 0, 0], [2.0, 0, 0]], [2.0, 1.0])
    assert pg.xi_i == pytest.approx(1.75, abs=1e-15)
    assert pg.xi_i == pytest.approx(x)
    assert pg.r == pytest.approx(r, abs=1e-14)


def test_pair_geometry_orientation_consistency(rng):
    for _ in range(50):
        c = rng.normal(size=(2, 3))
        r = rng.uniform(0.5, 2.0, size=2)
        if np.linalg.norm(c[0] - c[1]) < 1e-3:
            continue
        pg = pair_row(c, r)
        qg = pair_row(c[::-1], r[::-1])
        assert pg.xi_i + pg.xi_j == pytest.approx(pg.d, rel=1e-14)
        assert np.allclose(pg.u_ij, -qg.u_ij)
        assert pg.r_sq == pytest.approx(qg.r_sq, rel=1e-12)
        if pg.has_circle:
            assert pg.phi == pytest.approx(qg.phi, rel=1e-13)


def test_pair_geometry_coincident_centers():
    with pytest.raises(CoincidentCenters):
        pair_row([[0, 0, 0], [0, 0, 1e-12]], [1.0, 1.0])


def test_triple_geometry_octant_points():
    centers = np.eye(3)
    p_plus, p_minus = triple_corners(centers, np.ones(3))
    assert np.allclose(p_minus, [0, 0, 0], atol=1e-14)
    assert np.allclose(p_plus, [2 / 3, 2 / 3, 2 / 3], atol=1e-14)
    normals_minus = [p_minus - c for c in centers]
    assert np.allclose(normals_minus[0], [-1, 0, 0], atol=1e-14)
    assert np.allclose(normals_minus[1], [0, -1, 0], atol=1e-14)
    assert np.allclose(normals_minus[2], [0, 0, -1], atol=1e-14)
    for na, nb in ((0, 1), (1, 2), (2, 0)):
        assert normals_minus[na] @ normals_minus[nb] == pytest.approx(0.0, abs=1e-14)


def test_triple_geometry_near_tangent_raises():
    with pytest.raises(DegenerateTriple):
        triple_corners([[1.9, 0, 0], [0, 1, 0], [0, 0, 1]], np.ones(3))


def test_triple_points_lie_on_all_spheres(rng):
    hits = 0
    while hits < 30:
        c = rng.uniform(0, 1.4, size=(3, 3))
        r = rng.uniform(0.8, 1.3, size=3)
        try:
            points = triple_corners(c, r)
        except DegenerateTriple:
            continue
        hits += 1
        for p in points:
            for m in range(3):
                err = abs(np.linalg.norm(p - c[m]) - r[m])
                assert err <= 1e-12 * r[m]


def test_normal_angle_matches_pair_angle(rng):
    hits = 0
    while hits < 20:
        c = rng.uniform(0, 1.4, size=(3, 3))
        r = rng.uniform(0.8, 1.3, size=3)
        try:
            points = triple_corners(c, r)
        except DegenerateTriple:
            continue
        hits += 1
        pg = pair_row(c[:2], r[:2])
        for p in points:
            normals = [(p - c[m]) / r[m] for m in range(3)]
            ang = np.arccos(np.clip(normals[0] @ normals[1], -1, 1))
            assert abs(ang - pg.phi) < 1e-10


def test_state_round_trip(rng):
    balls, _ = make_config(rng, 5, require_triangle=False, margin=None)
    x = balls.state
    again = balls.with_state(x)
    assert np.array_equal(again.centers, balls.centers)
    # coordinate 3i+l of the state is coordinate l of center i
    assert x[3 * 2 + 1] == balls.centers[2, 1]
