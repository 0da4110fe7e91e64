import dataclasses
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex, compute_measures, complexes, euler, \
    term_h, weighted_gauss
from ballmorph.cli import main
from ballmorph.complexes import plane_basis
from ballmorph.diagnostics import general_position_check
from ballmorph.errors import CoincidentCenters, DegenerateState, GeometryError
from ballmorph.geometry import EPS_GEO, PairTable, pair_table, triple_points
from ballmorph.oracles import fd_gradient
from ballmorph.pipeline import evaluate
from ballmorph.serial import parse_diagram
from conftest import brute_sigma_ij, corners, edge_arcs, make_config, octant_balls, pair, \
    random_rotation, tetrahedron_keys, triangle_keys, two_balls
from test_near_tangency import planted_draw


def test_single_ball():
    balls = BallSet([[0, 0, 0]], [1.0])
    cx = build_alpha_complex(balls)
    assert cx.alpha_simplices() == [(0,)]
    assert cx.on_boundary[0]
    assert euler(cx) == euler(cx).__class__(chi_alpha=1, chi_surface=2)


def test_two_overlapping_balls():
    cx = build_alpha_complex(two_balls(d=1.0))
    assert cx.alpha_simplices() == [(0,), (1,), (0, 1)]
    e = euler(cx)
    assert (e.chi_alpha, e.chi_surface) == (1, 2)
    arcs = edge_arcs(cx, (0, 1))
    assert len(arcs) == 1 and arcs[0].full_circle
    assert arcs[0].extent == pytest.approx(2 * np.pi)


def test_two_distant_balls():
    cx = build_alpha_complex(two_balls(d=3.0))
    assert cx.alpha_simplices() == [(0,), (1,)]
    e = euler(cx)
    assert (e.chi_alpha, e.chi_surface) == (2, 4)


def test_four_ball_tetrahedron_complex():
    pts = np.array([[0, 0, 0], [1.2, 0, 0], [0.6, 1.1, 0], [0.6, 0.4, 1.1]])
    cx = build_alpha_complex(BallSet(pts, np.ones(4)))
    assert len(cx.tet_keys) == 1
    assert len(cx.triangle_table.ijk) == 4
    assert len(cx.edge_keys) == 6
    e = euler(cx)
    assert (e.chi_alpha, e.chi_surface) == (1, 2)   # 4 - 6 + 4 - 1 = 1


def test_octant_arcs_end_at_triple_corners():
    cx = build_alpha_complex(octant_balls())
    arcs = edge_arcs(cx, (0, 1))
    assert len(arcs) == 1
    arc = arcs[0]
    assert arc.start.triangle == (0, 1, 2)
    assert arc.end.triangle == (0, 1, 2)
    assert {arc.start.tag, arc.end.tag} == {1, -1}
    # Endpoint positions are the two triple points.
    pts = dict(zip((1, -1), corners(cx, 0, 1, 2)))
    assert np.allclose(arc.start.point, pts[arc.start.tag], atol=1e-12)
    assert np.allclose(arc.end.point, pts[arc.end.tag], atol=1e-12)


def test_fully_occluded_circle_yields_no_arcs():
    # Ball 2 swallows the intersection circle of balls 0 and 1 (but not the
    # balls themselves), so the edge contributes no arcs.
    balls = BallSet([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]], [1.0, 1.0, 1.0])
    cx = build_alpha_complex(balls)
    assert edge_arcs(cx, (0, 1)) == []


def test_collinear_triple_is_one_condition_i_record():
    # Centres 0, 1 and 2 on a line with radii 1, 1 and sqrt 3: the radical
    # planes of 01 and 02 coincide at 1/2.  Rotated and shifted, the cross
    # product of the centre differences rounds to a few ulps, not zero;
    # the sine of the angle at x_0 still marks the triple collinear, so no
    # NaN or meaningless radical centre is computed and Condition I names it.
    rng = np.random.default_rng(0)
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    for draw in range(40):
        centers = line @ random_rotation(rng).T + rng.uniform(-5.0, 5.0, size=3)
        balls = BallSet(centers, [1.0, 1.0, math.sqrt(3.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cx = build_alpha_complex(balls, strict=False)
        assert cx._triple_table.collinear.tolist() == [True], draw
        assert ("I", (0, 1, 2)) in [record[:2] for record in cx.degeneracies], draw


def test_tangency_raises_degenerate_state():
    with pytest.raises(DegenerateState):
        build_alpha_complex(two_balls(d=2.0))
    cx = build_alpha_complex(two_balls(d=2.0), strict=False)
    assert any(cond == "II" and simplex == (0, 1)
               for cond, simplex, _ in cx.degeneracies)


def cyclic_gap_count(cx, edge):
    """Arc gaps around a boundary edge, counted from its cyclic triangle fan."""
    i, j = edge
    pg = pair(cx, i, j)
    e1, e2 = plane_basis(pg.u_ij)
    tris = sorted(t for t in triangle_keys(cx) if i in t and j in t)
    if not tris:
        return 1
    angles = []
    for t in tris:
        k = next(v for v in t if v not in (i, j))
        rel = cx.balls.centers[k] - pg.center
        angles.append((math.atan2(rel @ e2, rel @ e1) % (2 * math.pi), k))
    angles.sort()
    gaps = 0
    for (a1, k1), (a2, k2) in zip(angles, angles[1:] + angles[:1]):
        quad = tuple(sorted({i, j, k1, k2}))
        # A tetrahedron fills only the wedge between its two apexes that
        # subtends less than pi around the edge.
        wedge = (a2 - a1) % (2 * math.pi)
        joined = len(quad) == 4 and quad in tetrahedron_keys(cx) and wedge < math.pi
        if not joined:
            gaps += 1
    return gaps


def test_gap_count_equals_arc_count(rng):
    for _ in range(10):
        balls, cx = make_config(rng, int(rng.integers(4, 10)))
        for e in cx.boundary_edges():
            gaps = cyclic_gap_count(cx, e)
            assert gaps == len(edge_arcs(cx, e)), (e, gaps, len(edge_arcs(cx, e)))


def test_face_closure(rng):
    for _ in range(6):
        balls, cx = make_config(rng, int(rng.integers(4, 11)))
        for tri in triangle_keys(cx):
            for a in tri:
                assert cx.in_alpha[a]
            for side in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
                assert cx.edge_rows(side)[0] >= 0
        for quad in tetrahedron_keys(cx):
            for m in range(4):
                tri = tuple(sorted(set(quad) - {quad[m]}))
                assert tri in triangle_keys(cx)


def test_boundary_triangle_exposure_counts(rng):
    for _ in range(6):
        balls, cx = make_config(rng, int(rng.integers(4, 10)))
        for tri, exposed in zip(triangle_keys(cx), cx.triangle_table.exposed.tolist()):
            if any(exposed):
                assert sum(exposed) in (1, 2)
                # Exposure matches a direct point-in-ball test.
                for point, flag in zip(corners(cx, *tri), exposed):
                    gaps = (np.linalg.norm(balls.centers - point, axis=1)
                            - balls.radii)
                    gaps[list(tri)] = np.inf
                    assert flag == bool(gaps.min() > 0)


def test_nested_ball_not_in_alpha():
    balls = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5])
    cx = build_alpha_complex(balls)
    assert cx.in_alpha[0] and cx.on_boundary[0]
    assert not cx.in_alpha[1]
    assert cx.edge_rows((0, 1))[0] < 0
    e = euler(cx)
    assert (e.chi_alpha, e.chi_surface) == (1, 2)


def test_arc_extents_sum_to_exposed_measure(rng):
    for _ in range(8):
        balls, cx = make_config(rng, int(rng.integers(3, 9)))
        for e in cx.boundary_edges():
            total = sum(a.extent for a in edge_arcs(cx, e))
            covered = 2 * np.pi * (1.0 - brute_sigma_ij(cx, e))
            assert total + covered == pytest.approx(2 * np.pi, abs=1e-9)


def same_bits(a, b):
    """Equal type and bits: arrays byte for byte, scalars by repr (which
    round-trips floats and tells -0.0 from 0.0)."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


def row_mismatches(a, b):
    return [name for name in PairTable._fields
            if not same_bits(getattr(a, name), getattr(b, name))]


def table_draws(rng):
    """Random draws at test density and planted near-tangency draws."""
    for _ in range(40):
        n = int(rng.integers(3, 30))
        yield BallSet(rng.uniform(0.0, 1.1 * n ** (1.0 / 3.0), size=(n, 3)),
                      rng.uniform(0.7, 1.3, size=n), rng.uniform(-2.0, 2.0, size=n))
    planted = np.random.default_rng(4)
    for _ in range(120):
        yield planted_draw(planted)[0]


def test_pair_table_rows_are_pair_geometry_bit_for_bit(rng):
    # The build's one batched pass gives every candidate pair, and every
    # alpha triangle's triple, the bits of the one-row call.
    pairs = 0
    for balls in table_draws(rng):
        try:
            cx = build_alpha_complex(balls, strict=False)
        except GeometryError:
            continue
        for i, j in cx._pair_keys.tolist():
            pg = pair(cx, i, j)
            ref = pair_table(balls.centers, balls.radii, np.array([[i, j]])).take(0)
            assert row_mismatches(pg, ref) == [], (i, j)
            assert row_mismatches(pair(cx, j, i), pg) == [], (i, j)
            pairs += 1
        table = cx._triple_table
        for key, row in zip(triangle_keys(cx), cx.triangle_table.triple.tolist()):
            _, center, axis, h_sq = triple_points(balls.centers, balls.radii,
                                                  np.array([key]), EPS_GEO)
            for name, ref in (("center", center), ("axis", axis), ("h_sq", h_sq)):
                assert getattr(table, name)[[row]].tobytes() == ref.tobytes(), (key, name)
            # The arcs' corner points are center +/- sqrt(h_sq) axis, bit for bit.
            points = center + np.sqrt(h_sq) * np.array([[1.0], [-1.0]]) * axis
            assert cx.corner_points([row]).tobytes() == points[None].tobytes(), key
    assert pairs > 1000


def test_pair_table_raises_coincident_centers():
    centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1e-12]])
    radii = np.ones(3)
    table = pair_table(centers, radii, np.array([[0, 1], [0, 2]]))
    assert table.has_circle.tolist() == [True, True]
    with pytest.raises(CoincidentCenters, match="balls 1 and 2"):
        pair_table(centers, radii, np.array([[0, 1], [1, 2]]))


def test_non_realizable_corner_raises_degenerate_state_naming_it():
    # Every reader of a corner's normal triangle (sigma_i's turns, K's
    # corner sum, the corner gradient) meets one check in the corner table,
    # which names the first triangle whose triangle inequality fails.
    balls = parse_diagram(str(Path(__file__).parent / "data" / "g20.txt"))
    measures = compute_measures(balls, build_alpha_complex(balls))
    cx = build_alpha_complex(balls)
    tri = min(key for key, exposed in zip(triangle_keys(cx), cx.triangle_table.exposed)
              if exposed.any())
    # phi_ij = pi exceeds phi_jk + phi_ki.
    key = tri[:2]
    cx._pair_table.cos_phi[cx.key_rows(cx._pair_keys, key)] = -1.0
    for stage in (lambda: compute_measures(balls, cx),
                  lambda: weighted_gauss(balls, cx, measures),
                  lambda: term_h(balls, cx, measures)):
        with pytest.raises(DegenerateState, match="product of sines is") as info:
            stage()
        assert info.value.simplex == tri


def arrays_only(value):
    """Whether ``value`` is an array, or a tuple, namedtuple or frozen
    dataclass of such values."""
    if isinstance(value, np.ndarray):
        return True
    if dataclasses.is_dataclass(value):
        return (type(value).__dataclass_params__.frozen
                and all(arrays_only(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return isinstance(value, tuple) and all(map(arrays_only, value))


@pytest.mark.parametrize("name", ["g20", "g60", "lattice"])
def test_complex_is_arrays_with_simplices_in_key_order(name):
    # Each simplex kind is a key-ordered array or table, before and after
    # the measures and the gradient read the complex: no dict or list of
    # per-simplex records is left on it, only the list of degeneracy
    # records.  alpha_simplices() lists each dimension in key order.
    if name == "lattice":
        centers = np.array(list(itertools.product(range(3), repeat=3)), dtype=float)
        balls = BallSet(centers, np.ones(len(centers)))
        cxs = [build_alpha_complex(balls, strict=False)]
    else:
        balls = parse_diagram(str(Path(__file__).parent / "data" / f"{name}.txt"))
        ev = evaluate(balls)
        cxs = [build_alpha_complex(balls), ev.cx]
        assert ev.gradient.flat.any()
    for cx in cxs:
        for attr, value in vars(cx).items():
            table = ((hasattr(value, "_fields") or dataclasses.is_dataclass(value))
                     and arrays_only(value))
            assert (attr == "degeneracies" or value is balls or table
                    or isinstance(value, (np.ndarray, float))), attr
        simplices = cx.alpha_simplices()
        assert all(type(s) is tuple for s in simplices)
        for dim in range(1, 5):
            block = [s for s in simplices if len(s) == dim]
            assert block and block == sorted(set(block)), dim


@pytest.mark.parametrize("name", ["g20", "g60"])
def test_pipeline_makes_no_quad(name, monkeypatch, capsys):
    # The build reads the tetrahedra off the triangles' Voronoi intervals,
    # and the general-position report reads the build's residual columns:
    # the pipeline, the check and ``degeneracy`` extend the circle-graph
    # cliques to triples only, and solve no candidate quad.
    sizes = []
    extend = complexes._extend_cliques
    monkeypatch.setattr(complexes, "_extend_cliques",
                        lambda circle, rows: sizes.append(rows.shape[1]) or extend(circle, rows))
    path = str(Path(__file__).parent / "data" / f"{name}.txt")
    ev = evaluate(parse_diagram(path))
    assert ev.volumes.gauss and ev.gradient.flat.any()
    assert general_position_check(ev.balls, ev.cx).generic
    assert main(["degeneracy", "--input", path]) == 0
    assert capsys.readouterr().out.endswith("no violations\n")
    assert sizes == [1, 2, 1, 2]


def flat_quad_draw(rng, weights):
    """A planar rhombus of four pairwise-overlapping balls and a fifth ball
    off its plane, with random radii, rotated and shifted."""
    a, b = rng.uniform(0.5, 0.8, size=2)
    centers = np.array([[a, 0, 0], [0, b, 0], [-a, 0, 0], [0, -b, 0],
                        [*rng.uniform(-0.3, 0.3, size=2), rng.uniform(0.7, 1.1)]])
    centers = centers @ random_rotation(rng).T + rng.uniform(-3.0, 3.0, size=3)
    return BallSet(centers, rng.uniform(0.9, 1.3, size=5), weights)


def test_flat_quads_evaluate():
    # Balls 0-3 have coplanar centres, so their radical-plane system is
    # singular and they have no orthocentre: no tetrahedron, and nothing
    # for the build to refuse.  Nor does the check report the coplanarity,
    # which is no decision of the build.
    rng = np.random.default_rng(23)
    for draw in range(40):
        weights = np.ones(5) if draw % 2 else rng.uniform(-2.0, 2.0, size=5)
        balls = flat_quad_draw(rng, weights)
        ev = evaluate(balls)
        assert all(math.isfinite(v) for v in (ev.volumes.volume, ev.volumes.area,
                                              ev.volumes.mean, ev.volumes.gauss)), draw
        fd = fd_gradient(lambda bs: evaluate(bs).gauss, balls)
        gap = np.abs(ev.gradient.flat - fd).max()
        assert gap / max(1.0, float(np.abs(fd).max())) <= 1e-5, draw
        if draw % 2:
            assert ev.gauss == pytest.approx(2.0 * math.pi * euler(ev.cx).chi_surface,
                                             abs=1e-8), draw
        report = general_position_check(balls, ev.cx)
        assert ("I", (0, 1, 2, 3)) not in [(v.condition, v.simplex) for v in report.violations]


def test_tetrahedra_are_circle_cliques_at_a_tangency():
    # Balls 0 and 1 touch at T, and spheres 2 and 3 pass through T, so a
    # corner of triangle 023 is where ball 1 binds, within rounding of the
    # corner segment's end.  The loose build still makes no tetrahedron
    # whose spheres do not pairwise meet in circles: every face is a
    # candidate triple.
    rng = np.random.default_rng(31)
    for draw in range(200):
        touch = np.array([1.0, 0.0, 0.0])
        centers = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                            *(touch + 0.8 * rng.normal(size=(2, 3)))])
        radii = np.append([1.0, 1.0], np.linalg.norm(centers[2:] - touch, axis=1))
        centers = centers @ random_rotation(rng).T + rng.uniform(-2.0, 2.0, size=3)
        cx = build_alpha_complex(BallSet(centers, radii), strict=False)
        faces = cx.key_rows(cx._triple_table.ijk, cx.tet_keys[:, list(itertools.combinations(
            range(4), 3))])
        assert (faces >= 0).all(), draw


@pytest.mark.parametrize("shape, triangles, added, tets", [((2, 2, 2), 47, 19, 29),
                                                          ((3, 3, 3), 347, 146, 256)])
def test_face_closure_adds_lattice_triangles(shape, triangles, added, tets):
    # Unit balls on a cubic lattice at spacing 1: four or more spheres meet
    # at each corner point, and the loose build accepts tetrahedra whose
    # faces the triangle test rejected.  Closure adds those faces with nu 0
    # and no exposed corner, and keeps the table in key order.
    centers = np.array(list(itertools.product(*map(range, shape))), dtype=float)
    cx = build_alpha_complex(BallSet(centers, np.ones(len(centers))), strict=False)
    tris = cx.triangle_table
    keys = triangle_keys(cx)
    assert (len(keys), len(cx.tet_keys)) == (triangles, tets)
    assert keys == sorted(set(keys))
    assert tris.triple.tolist() == cx.key_rows(cx._triple_table.ijk, tris.ijk).tolist()
    for quad in tetrahedron_keys(cx):
        for tri in itertools.combinations(quad, 3):
            assert tri in keys
    closed = tris.nu == 0.0
    assert int(closed.sum()) == added
    assert not tris.exposed[closed].any()
    assert [tuple(s) for s in cx.alpha_simplices() if len(s) == 3] == keys


def test_loose_build_memory_is_bounded():
    # Every test of the build but the five-ball tie runs over the balls that
    # meet the row's balls, so no (rows, n, 3) array is formed: one loose
    # build of the n=320 draw at test density peaks near 15 MB under
    # tracemalloc, where the all-ball kernels reached 120 MB.
    n = 320
    rng = np.random.default_rng(n)
    balls = BallSet(rng.uniform(0.0, 1.1 * n ** (1.0 / 3.0), size=(n, 3)),
                    rng.uniform(0.7, 1.3, size=n), rng.uniform(-2.0, 2.0, size=n))
    tracemalloc.start()
    try:
        build_alpha_complex(balls, strict=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20, peak
