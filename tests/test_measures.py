import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex, compute_measures, nu_i_mc, \
    nu_ijk, sigma_i, sigma_ij, sigma_ij_prime, sigma_ijk, term_e
from ballmorph.complexes import plane_basis
from ballmorph.errors import DegenerateState
from ballmorph.oracles import mc_boundary_integrals
from ballmorph.serial import parse_diagram
from conftest import brute_sigma_ij, corners, edge_arcs, make_config, octant_balls, pair, \
    random_rotation, triangle_keys, two_balls, vector_sigma_i


def circle_sampling_fraction(balls, cx, edge, samples=1_000_000):
    """Dense angular sampling of the circle S_ij against all other balls."""
    pg = pair(cx, *edge)
    e1, e2 = plane_basis(pg.u_ij)
    alphas = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    pts = (pg.center[None, :]
           + pg.r * (np.cos(alphas)[:, None] * e1[None, :]
                     + np.sin(alphas)[:, None] * e2[None, :]))
    covered = np.zeros(samples, dtype=bool)
    for m in range(balls.n):
        if m in edge:
            continue
        d2 = np.einsum("ij,ij->i", pts - balls.centers[m], pts - balls.centers[m])
        covered |= d2 < balls.radii[m] ** 2
    return 1.0 - covered.mean()


def segment_sampling_fraction(balls, cx, tri, samples=1_000_000):
    """Dense sampling of the corner segment against the Voronoi condition."""
    table = cx._triple_table
    row = cx.key_rows(table.ijk, sorted(tri))[0]
    half = math.sqrt(table.h_sq[row])
    s = np.linspace(-half, half, samples)
    pts = table.center[row][None, :] + s[:, None] * table.axis[row][None, :]
    pows = (np.einsum("pij,pij->pi", pts[:, None, :] - balls.centers[None, :, :],
                      pts[:, None, :] - balls.centers[None, :, :])
            - balls.radii[None, :] ** 2)
    own = pows[:, tri[0]]
    keep = [m for m in range(balls.n) if m not in tri]
    if not keep:
        return 1.0
    return float((own <= pows[:, keep].min(axis=1)).mean())


def test_sigma_i_single_ball():
    balls = BallSet([[0, 0, 0]], [1.0])
    cx = build_alpha_complex(balls)
    assert sigma_i(balls, cx, 0) == 1.0


def test_sigma_i_two_equal_balls():
    balls = two_balls(d=1.0)
    cx = build_alpha_complex(balls)
    # Exposed fraction of a sphere cut by one cap: (1 + xi/r) / 2.
    assert sigma_i(balls, cx, 0) == pytest.approx(0.75, abs=1e-14)
    assert sigma_i(balls, cx, 1) == pytest.approx(0.75, abs=1e-14)


def test_sigma_i_nested_ball():
    balls = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5])
    cx = build_alpha_complex(balls)
    assert sigma_i(balls, cx, 1) == 0.0
    assert sigma_i(balls, cx, 0) == 1.0


def test_sigma_i_matches_monte_carlo(rng):
    for _ in range(4):
        balls, cx = make_config(rng, int(rng.integers(4, 9)))
        _, sig_mc, err = mc_boundary_integrals(balls, 200_000, seed=3)
        for i in cx.boundary_vertices():
            se = max(err[i], 1e-6)
            assert abs(sigma_i(balls, cx, i) - sig_mc[i]) <= 4.0 * se


def test_sigma_i_matches_vector_turns():
    # Turns from the normal triangles against turns between tangent vectors.
    rng = np.random.default_rng(211)
    worst = 0.0
    corners = 0
    for _ in range(200):
        balls, cx = make_config(rng, int(rng.integers(3, 20)), require_triangle=False)
        for i in cx.boundary_vertices():
            worst = max(worst, abs(sigma_i(balls, cx, i) - vector_sigma_i(balls, cx, i)))
        corners += int(cx.triangle_table.exposed.sum())
    assert corners > 1000
    assert worst <= 1e-12


def lattice(shape, spacing, shift=0.0):
    """Unit balls on a cubic lattice: four or more meet at each corner point."""
    centers = np.array(list(product(*map(range, shape))), dtype=float) * spacing + shift
    return BallSet(centers, np.ones(len(centers)))


@pytest.mark.parametrize("shape, spacing, simplex", [((2, 2, 2), 1.2, (0, 1, 2, 3)),
                                                     ((3, 3, 3), 1.2, (0, 1, 3, 4)),
                                                     ((3, 3, 3), 1.4, (0, 1, 3, 4))])
def test_measures_name_the_least_condition_ii_record(shape, spacing, simplex):
    # The loose build keeps the arcs of a lattice, whose corners tie; which
    # corners are exposed is a tie-break of rounding, so the measures,
    # sigma_i of a boundary sphere, and the readers of the arc table
    # (sigma_ij, sigma_ij' and term e of an alpha edge) name the least
    # Condition II record instead of returning a number.
    balls = lattice(shape, spacing)
    cx = build_alpha_complex(balls, strict=False)
    edge = tuple(cx.edge_keys[0].tolist())
    t = np.ones((balls.n, 3))
    for measure in (lambda: compute_measures(balls, cx),
                    lambda: sigma_i(balls, cx, cx.boundary_vertices()[0]),
                    lambda: sigma_ij(balls, cx, edge),
                    lambda: sigma_ij_prime(balls, cx, edge, t),
                    lambda: term_e(balls, cx)):
        with pytest.raises(DegenerateState) as info:
            measure()
        assert str(info.value) == (f"state violates Condition II at simplex {simplex} "
                                   "(residual 0.000e+00)")
        assert info.value.simplex == simplex


@pytest.mark.parametrize("shape, spacing, sphere", [((3, 3, 3), 1.2, 13),
                                                    ((3, 3, 3), 1.4, 5)])
def test_sigma_i_names_the_sphere_whose_circuit_does_not_close(shape, spacing, sphere):
    # With the lattice's records cleared, the links of its arcs on some
    # sphere form no permutation of its corners; the measures name the
    # first such sphere.
    balls = lattice(shape, spacing)
    cx = build_alpha_complex(balls, strict=False)
    cx.degeneracies = []
    with pytest.raises(DegenerateState) as info:
        compute_measures(balls, cx)
    assert str(info.value) == "boundary circuit on sphere does not close"
    assert info.value.simplex == (sphere,)


def test_lattice_measures_raise_or_match_monte_carlo():
    # 180 loose lattices (6 shapes, spacings 1.0 to 1.5, 5 shifts): the
    # measures raise DegenerateState or give every sigma_i within 5 standard
    # errors (plus 2e-3) of Monte Carlo at 4,000 samples per sphere.  Without
    # the refusal of Condition II records, dozens of them return a wrong
    # sigma_i in silence.
    outcomes = {"raised": 0, "matched": 0}
    shifts = [np.zeros(3), np.array([0.3, -1.7, 2.9]), np.array([10.1, 3.3, -7.7]),
              np.array([123.4, -56.7, 8.9]), 1e3 * np.array([1.0, 0.7, 0.3])]
    for shape, spacing, shift in product([(1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3),
                                          (2, 3, 3), (3, 3, 3)],
                                         [1.0, 1.1, 1.2, 1.3, 1.4, 1.5], shifts):
        balls = lattice(shape, spacing, shift)
        cx = build_alpha_complex(balls, strict=False)
        try:
            sigma = compute_measures(balls, cx).sigma_v
        except DegenerateState:
            outcomes["raised"] += 1
            continue
        _, mc, err = mc_boundary_integrals(balls, 4000, seed=1)
        assert np.all(np.abs(sigma - mc) <= 5.0 * err + 2e-3), (shape, spacing, shift)
        outcomes["matched"] += 1
    assert outcomes == {"raised": 150, "matched": 30}


@pytest.mark.parametrize("name", ["g20", "g60"])
def test_single_simplex_measures_are_the_compute_measures_bytes(name):
    # sigma_i, sigma_ij, sigma_ijk and nu_ijk take the same path as
    # compute_measures; a ball off the boundary or out of range, a pair that
    # is no alpha edge and a candidate triple that is no alpha triangle
    # have 0, and so does sigma_ij' of a pair that is no alpha edge.
    balls = parse_diagram(str(Path(__file__).parent / "data" / f"{name}.txt"))
    cx = build_alpha_complex(balls)
    measures = compute_measures(balls, cx)
    assert len(cx.boundary_vertices()) > 10 and len(cx.edge_keys) > 20
    assert not measures.sigma_v.all()
    for i in range(balls.n):
        assert np.float64(sigma_i(balls, cx, i)).tobytes() == measures.sigma_v[i].tobytes(), i
    assert sigma_i(balls, cx, -1) == 0.0 and sigma_i(balls, cx, balls.n) == 0.0
    rows = cx.edge_rows(cx._pair_keys)
    assert sorted(rows[rows >= 0].tolist()) == list(range(len(cx.edge_keys)))
    zero = np.float64(0.0)
    for e, row in zip(cx._pair_keys.tolist(), rows.tolist()):
        want = measures.sigma_e[row] if row >= 0 else zero
        assert np.float64(sigma_ij(balls, cx, e)).tobytes() == want.tobytes(), e
    apart = next(e for e in combinations(range(balls.n), 2)
                 if cx.key_rows(cx._pair_keys, e)[0] < 0)
    t = np.random.default_rng(5).normal(size=(balls.n, 3))
    others = cx._pair_keys[rows < 0].tolist() + [list(apart)]
    assert len(others) > 1
    # An index out of range is no ball: (i - 1, j + n) has the key code of
    # the alpha edge ij.
    partial = (cx.edge_keys[:, 0] > 0) & (measures.sigma_e > 0.0) & (measures.sigma_e < 1.0)
    i, j = cx.edge_keys[partial][0].tolist()
    others.append([i - 1, j + balls.n])
    for e in others:
        assert sigma_ij(balls, cx, e) == 0.0 and sigma_ij_prime(balls, cx, e, t) == 0.0, e
    tris = triangle_keys(cx)
    assert len(tris) > 10 and measures.sigma_t.any() and measures.nu_t.any()
    for row, t in enumerate(tris):
        assert np.float64(sigma_ijk(balls, cx, t)).tobytes() == measures.sigma_t[row].tobytes(), t
        assert np.float64(nu_ijk(balls, cx, t)).tobytes() == measures.nu_t[row].tobytes(), t
    others = [t for t in map(tuple, cx._triple_table.ijk.tolist()) if t not in tris]
    assert others
    for t in others:
        assert sigma_ijk(balls, cx, t) == 0.0 and nu_ijk(balls, cx, t) == 0.0, t
    # (i, j - 1, k + n) has the key code of the alpha triangle ijk.
    i, j, k = next(t for row, t in enumerate(tris) if t[1] > t[0] + 1
                   and measures.sigma_t[row] > 0.0 and measures.nu_t[row] > 0.0)
    assert sigma_ijk(balls, cx, (i, j - 1, k + balls.n)) == 0.0
    assert nu_ijk(balls, cx, (i, j - 1, k + balls.n)) == 0.0


def test_sigma_ij_two_balls_full_circle():
    balls = two_balls(d=1.0)
    cx = build_alpha_complex(balls)
    assert sigma_ij(balls, cx, (0, 1)) == 1.0


def test_sigma_ij_octant_against_dense_sampling():
    balls = octant_balls()
    cx = build_alpha_complex(balls)
    val = sigma_ij(balls, cx, (0, 1))
    approx = circle_sampling_fraction(balls, cx, (0, 1))
    assert val == pytest.approx(approx, abs=2e-6)
    # Closed form for the symmetric three-ball arrangement.
    assert val == pytest.approx(1 - math.acos(1 / math.sqrt(3)) / math.pi, abs=1e-12)


def test_sigma_ij_fully_covered_circle():
    balls = BallSet([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]], [1.0, 1.0, 1.0])
    cx = build_alpha_complex(balls)
    assert sigma_ij(balls, cx, (0, 1)) == 0.0


def test_sigma_ij_equals_arc_extent_sum(rng):
    for _ in range(8):
        balls, cx = make_config(rng, int(rng.integers(3, 9)))
        for e in cx.boundary_edges():
            arcs = edge_arcs(cx, e)
            total = sum(a.extent for a in arcs) / (2 * np.pi)
            assert sigma_ij(balls, cx, e) == total
            # The independent side: the union of the cover intervals.
            assert total == pytest.approx(brute_sigma_ij(cx, e), abs=1e-10)


def test_sigma_ijk_octant_both_corners():
    balls = octant_balls()
    cx = build_alpha_complex(balls)
    assert sigma_ijk(balls, cx, (0, 1, 2)) == 1.0
    assert nu_ijk(balls, cx, (0, 1, 2)) == 1.0


def test_sigma_ijk_fourth_ball_over_one_corner():
    # Cover the corner at (2,2,2)/3 with a small fourth ball.
    balls = BallSet([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.8, 0.8, 0.8]],
                    [1.0, 1.0, 1.0, 0.35])
    cx = build_alpha_complex(balls)
    assert (0, 1, 2) in triangle_keys(cx)
    p_plus, p_minus = corners(cx, 0, 1, 2)
    covered_plus = np.linalg.norm(p_plus - balls.centers[3]) < balls.radii[3]
    covered_minus = np.linalg.norm(p_minus - balls.centers[3]) < balls.radii[3]
    assert covered_plus and not covered_minus
    assert sigma_ijk(balls, cx, (0, 1, 2)) == 0.5


def test_sigma_ijk_both_corners_covered():
    balls = BallSet([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                     [0.8, 0.8, 0.8], [-0.14, -0.14, -0.14]],
                    [1.0, 1.0, 1.0, 0.35, 0.3])
    cx = build_alpha_complex(balls)
    assert (0, 1, 2) in triangle_keys(cx)
    assert sigma_ijk(balls, cx, (0, 1, 2)) == 0.0
    assert nu_ijk(balls, cx, (0, 1, 2)) > 0.0


def test_nu_ijk_partial_cover_against_sampling():
    balls = BallSet([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.9, 0.9, 0.9]],
                    [1.0, 1.0, 1.0, 0.6])
    cx = build_alpha_complex(balls)
    val = nu_ijk(balls, cx, (0, 1, 2))
    assert 0.0 < val < 1.0
    approx = segment_sampling_fraction(balls, cx, (0, 1, 2))
    assert val == pytest.approx(approx, abs=2e-6)


def test_nu_i_mc_single_ball():
    balls = BallSet([[0, 0, 0]], [1.0])
    est, se = nu_i_mc(balls, 0, 50_000, seed=1)
    assert (est, se) == (1.0, 0.0)


def test_nu_i_mc_two_balls_against_cap_volume():
    balls = two_balls(d=1.0)
    est, se = nu_i_mc(balls, 0, 400_000, seed=7)
    # Spherical cap of height 1/2 on the unit ball: the Voronoi fraction is
    # 1 - pi h^2 (3 - h) / 3 / (4 pi / 3) = 27/32.
    h = 0.5
    exact = 1.0 - (math.pi * h * h * (3 * 1.0 - h) / 3.0) / (4 * math.pi / 3)
    assert exact == pytest.approx(27 / 32)
    assert abs(est - exact) <= 3.0 * se


def test_nu_i_mc_nested_ball():
    balls = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5])
    est, se = nu_i_mc(balls, 1, 20_000, seed=2)
    assert est <= 3.0 * se + 1e-12


def test_nu_i_mc_reproducible_and_prefix_stable():
    balls = two_balls(d=1.0)
    a = nu_i_mc(balls, 0, 150_000, seed=11)
    b = nu_i_mc(balls, 0, 150_000, seed=11)
    assert a == b
    c = nu_i_mc(balls, 0, 150_000, seed=12)
    assert a != c


def test_measures_rigid_motion_invariance(rng):
    balls, cx = make_config(rng, 6)
    m0 = compute_measures(balls, cx)
    q = random_rotation(rng)
    shift = rng.normal(size=3)
    moved = BallSet(balls.centers @ q.T + shift, balls.radii, balls.weights)
    cx2 = build_alpha_complex(moved)
    m1 = compute_measures(moved, cx2)
    # The measures are arrays aligned with each complex's sorted keys.
    assert cx.boundary_vertices() == cx2.boundary_vertices()
    for i in cx.boundary_vertices():
        assert m0.sigma_v[i] == pytest.approx(m1.sigma_v[i], abs=1e-10)
    assert cx.edge_keys.tolist() == cx2.edge_keys.tolist()
    for e in range(len(cx.edge_keys)):
        assert m0.sigma_e[e] == pytest.approx(m1.sigma_e[e], abs=1e-10)
    assert triangle_keys(cx) == triangle_keys(cx2)
    for t in range(len(cx.triangle_table.ijk)):
        assert m0.sigma_t[t] == m1.sigma_t[t]
        assert m0.nu_t[t] == pytest.approx(m1.nu_t[t], abs=1e-10)


def test_sigma_values_in_range(rng):
    for _ in range(5):
        balls, cx = make_config(rng, int(rng.integers(3, 10)))
        m = compute_measures(balls, cx)
        for v in m.sigma_v[cx.boundary_vertices()]:
            assert 0.0 < v <= 1.0
        for v in m.sigma_e:
            assert 0.0 <= v <= 1.0
        for v in m.sigma_t:
            assert v in (0.0, 0.5, 1.0)
        for v in m.nu_t:
            assert 0.0 <= v <= 1.0
