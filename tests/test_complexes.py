import math

import numpy as np
import pytest

from ballmorph import BallSet, boundary_arcs, build_alpha_complex, euler
from ballmorph.errors import DegenerateState
from conftest import brute_sigma_ij, make_config, octant_balls, two_balls


def test_single_ball():
    balls = BallSet([[0, 0, 0]], [1.0])
    cx = build_alpha_complex(balls)
    assert cx.alpha_simplices() == [(0,)]
    assert cx.vertices[0].on_boundary
    assert euler(cx) == euler(cx).__class__(chi_alpha=1, chi_surface=2)


def test_two_overlapping_balls():
    cx = build_alpha_complex(two_balls(d=1.0))
    assert cx.alpha_simplices() == [(0,), (1,), (0, 1)]
    e = euler(cx)
    assert (e.chi_alpha, e.chi_surface) == (1, 2)
    arcs = boundary_arcs(cx, (0, 1))
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
    assert len(cx.tetrahedra) == 1
    assert len(cx.triangles) == 4
    assert len(cx.edges) == 6
    e = euler(cx)
    assert (e.chi_alpha, e.chi_surface) == (1, 2)   # 4 - 6 + 4 - 1 = 1


def test_octant_arcs_end_at_triple_corners():
    cx = build_alpha_complex(octant_balls())
    arcs = boundary_arcs(cx, (0, 1))
    assert len(arcs) == 1
    arc = arcs[0]
    assert arc.start.triangle == (0, 1, 2)
    assert arc.end.triangle == (0, 1, 2)
    assert {arc.start.tag, arc.end.tag} == {1, -1}
    # Endpoint positions are the two triple points.
    tg = cx.triple(0, 1, 2)
    pts = {1: tg.p_plus, -1: tg.p_minus}
    assert np.allclose(arc.start.point, pts[arc.start.tag], atol=1e-12)
    assert np.allclose(arc.end.point, pts[arc.end.tag], atol=1e-12)


def test_fully_occluded_circle_yields_no_arcs():
    # Ball 2 swallows the intersection circle of balls 0 and 1 (but not the
    # balls themselves), so the edge contributes no arcs.
    balls = BallSet([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]], [1.0, 1.0, 1.0])
    cx = build_alpha_complex(balls)
    assert boundary_arcs(cx, (0, 1)) == []


def test_tangency_raises_degenerate_state():
    with pytest.raises(DegenerateState):
        build_alpha_complex(two_balls(d=2.0))
    cx = build_alpha_complex(two_balls(d=2.0), strict=False)
    assert any(cond == "II" and simplex == (0, 1)
               for cond, simplex, _ in cx.degeneracies)


def cyclic_gap_count(cx, edge):
    """Arc gaps around a boundary edge, counted from its cyclic triangle fan."""
    i, j = edge
    data = cx.edges[edge]
    tris = sorted(t for t in cx.triangles
                  if cx.triangles[t].in_alpha and i in t and j in t)
    if not tris:
        return 1
    angles = []
    for t in tris:
        k = next(v for v in t if v not in (i, j))
        rel = cx.balls.centers[k] - data.pair.center
        angles.append((math.atan2(rel @ data.e2, rel @ data.e1) % (2 * math.pi), k))
    angles.sort()
    gaps = 0
    for (a1, k1), (a2, k2) in zip(angles, angles[1:] + angles[:1]):
        quad = tuple(sorted({i, j, k1, k2}))
        # A tetrahedron fills only the wedge between its two apexes that
        # subtends less than pi around the edge.
        wedge = (a2 - a1) % (2 * math.pi)
        joined = (len(quad) == 4 and quad in cx.tetrahedra
                  and cx.tetrahedra[quad].in_alpha and wedge < math.pi)
        if not joined:
            gaps += 1
    return gaps


def test_gap_count_equals_arc_count(rng):
    for _ in range(10):
        balls, cx = make_config(rng, int(rng.integers(4, 10)))
        for e in cx.boundary_edges():
            gaps = cyclic_gap_count(cx, e)
            assert gaps == len(cx.edges[e].arcs), (e, gaps, len(cx.edges[e].arcs))


def test_face_closure(rng):
    for _ in range(6):
        balls, cx = make_config(rng, int(rng.integers(4, 11)))
        for tri, tdata in cx.triangles.items():
            if not tdata.in_alpha:
                continue
            for a in tri:
                assert cx.vertices[a].in_alpha
            for pair in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
                assert pair in cx.edges and cx.edges[pair].in_alpha
        for quad in cx.tetrahedra:
            for m in range(4):
                tri = tuple(sorted(set(quad) - {quad[m]}))
                assert tri in cx.triangles and cx.triangles[tri].in_alpha


def test_boundary_triangle_exposure_counts(rng):
    for _ in range(6):
        balls, cx = make_config(rng, int(rng.integers(4, 10)))
        for tri, tdata in cx.triangles.items():
            if tdata.on_boundary:
                assert tdata.exposed_count in (1, 2)
                # Exposure matches a direct point-in-ball test.
                tg = tdata.triple
                for point, flag in ((tg.p_plus, tdata.exposed_plus),
                                    (tg.p_minus, tdata.exposed_minus)):
                    gaps = (np.linalg.norm(balls.centers - point, axis=1)
                            - balls.radii)
                    gaps[list(tri)] = np.inf
                    assert flag == bool(gaps.min() > 0)


def test_nested_ball_not_in_alpha():
    balls = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5])
    cx = build_alpha_complex(balls)
    assert cx.vertices[0].in_alpha and cx.vertices[0].on_boundary
    assert not cx.vertices[1].in_alpha
    assert (0, 1) not in cx.edges
    e = euler(cx)
    assert (e.chi_alpha, e.chi_surface) == (1, 2)


def test_arc_extents_sum_to_exposed_measure(rng):
    for _ in range(8):
        balls, cx = make_config(rng, int(rng.integers(3, 9)))
        for e in cx.boundary_edges():
            data = cx.edges[e]
            total = sum(a.extent for a in data.arcs)
            covered = 2 * np.pi * (1.0 - brute_sigma_ij(cx, e))
            assert total + covered == pytest.approx(2 * np.pi, abs=1e-9)
