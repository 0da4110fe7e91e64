import math
from fractions import Fraction

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex
from ballmorph.diagnostics import _quad_residuals, betti_numbers, classify_event, \
    general_position_check, gradient_jump_probe
from conftest import make_config, random_rotation, two_balls


def hexagon_ring(radii):
    ang = np.arange(6) * math.pi / 3
    centers = np.stack([np.cos(ang), np.sin(ang), np.zeros(6)], axis=1)
    return BallSet(centers, radii)


def tetra_through_origin(scale=1.0):
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    v /= np.linalg.norm(v[0])
    return BallSet(v, np.full(4, scale))


def five_spheres_through_origin():
    # A fifth unit sphere through the origin: every quad ties with the
    # remaining ball.
    tet = tetra_through_origin(1.0)
    fifth = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    return BallSet(np.vstack([tet.centers, fifth]), np.ones(5))


def test_report_tangent_pair():
    report = general_position_check(two_balls(d=2.0), tol=1e-6)
    assert any(v.condition == "II" and v.simplex == (0, 1)
               and v.residual < 1e-12 for v in report.violations)


def test_report_generic_config(rng):
    balls, cx = make_config(rng, 7)
    report = general_position_check(balls, cx, tol=1e-6)
    assert report.violations == []
    assert report.min_residual > 1e-6
    assert report.generic


def test_report_four_spheres_through_point():
    balls = tetra_through_origin(1.0)
    report = general_position_check(balls, tol=1e-6)
    quads = [v for v in report.violations
             if v.condition == "II" and len(v.simplex) == 4]
    assert quads and quads[0].simplex == (0, 1, 2, 3)


@pytest.mark.parametrize("offset", [4e-10, 1e-7, 1e-5])
def test_quad_orthocentre_off_a_nearly_collinear_first_triple(offset):
    # Balls 0, 1 and 2 are collinear but for ``offset`` (a Condition I
    # triple at 4e-10), so the radical line of 012 is far away or missing;
    # each quad's orthocentre still comes off a well-conditioned face.  Its
    # excess and five-ball tie match the exact rational orthocentre to 1e-6
    # relative, the quads' own conditioning: a quad through 0, 1 and 2 has a
    # determinant of about ``offset``, so a float solve of it is off by 3e-7
    # at 4e-10.  Read off the radical line of 012, they are NaN at 4e-10 and
    # off by 2e-2 at 1e-7.
    centers = np.array([[0, 0, 0], [1, 0, 0], [2, offset, 0], [1, 1, 0.8], [1.1, 0.4, -0.7]])
    balls = BallSet(centers, [1.2, 1.2, 1.2, 1.2, 1.1])
    cx = build_alpha_complex(balls, strict=False)
    assert cx._triple_table.collinear[0] == (offset < 1e-9)
    quads, _, excess, tie, _ = _quad_residuals(balls, cx)
    assert len(quads) == 5
    for quad, got_excess, got_tie in zip(quads.tolist(), excess, tie):
        x = [[Fraction(v) for v in row] for row in centers.tolist()]
        pw = [float(r) ** 2 for r in balls.radii]
        rows = [[2 * (a - b) for a, b in zip(x[m], x[quad[0]])] for m in quad[1:]]
        rhs = [sum(v * v for v in x[m]) - pw[m] - sum(v * v for v in x[quad[0]]) + pw[quad[0]]
               for m in quad[1:]]
        z = solve_exact(rows, rhs)
        pows = [sum((a - b) ** 2 for a, b in zip(x[m], z)) - Fraction(pw[m]) for m in range(5)]
        fifth = next(m for m in range(5) if m not in quad)
        want_excess, want_tie = pows[quad[0]] - min(pows), abs(pows[fifth] - pows[quad[0]])
        assert abs(got_excess - want_excess) <= 1e-6 * max(want_excess, 1), (quad, got_excess)
        assert abs(got_tie - want_tie) <= 1e-6 * max(want_tie, 1), (quad, got_tie)


def solve_exact(rows, rhs):
    """The solution of a 3x3 system of Fractions by Cramer's rule."""
    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return [det([row[:d] + [b] + row[d + 1:] for row, b in zip(rows, rhs)]) / det(rows)
            for d in range(3)]


def test_min_residual_rigid_invariance(rng):
    balls, _ = make_config(rng, 6)
    r0 = general_position_check(balls, tol=1e-6).min_residual
    q = random_rotation(rng)
    moved = BallSet(balls.centers @ q.T + rng.normal(size=3), balls.radii,
                    balls.weights)
    r1 = general_position_check(moved, tol=1e-6).min_residual
    assert r1 == pytest.approx(r0, rel=1e-9)


def test_betti_numbers_reference_shapes():
    single = BallSet([[0, 0, 0]], [1.0])
    assert betti_numbers(build_alpha_complex(single)) == (1, 0, 0)
    assert betti_numbers(build_alpha_complex(two_balls(d=3.0))) == (2, 0, 0)
    assert betti_numbers(build_alpha_complex(two_balls(d=1.0))) == (1, 0, 0)
    ring = hexagon_ring(np.full(6, 0.55))
    assert betti_numbers(build_alpha_complex(ring)) == (1, 1, 0)
    void = tetra_through_origin(0.95)
    assert betti_numbers(build_alpha_complex(void)) == (1, 0, 1)
    filled = tetra_through_origin(1.1)
    assert betti_numbers(build_alpha_complex(filled)) == (1, 0, 0)


def test_classify_merge_split():
    balls = two_balls(d=2.0)
    cx = build_alpha_complex(balls, strict=False)
    report = general_position_check(balls, cx, tol=1e-6)
    v = next(v for v in report.violations if v.simplex == (0, 1))
    assert classify_event(balls, cx, v) == "merge_split_components"


def test_classify_interior_tangency():
    balls = BallSet([[0, 0, 0], [2, 0, 0], [1.0, 0.3, 0]], [1.0, 1.0, 0.5])
    cx = build_alpha_complex(balls, strict=False)
    report = general_position_check(balls, cx, tol=1e-6)
    v = next(v for v in report.violations if v.simplex == (0, 1))
    assert classify_event(balls, cx, v) == "interior_nongeneric"


def test_classify_close_break_loop():
    radii = np.array([0.5, 0.55, 0.55, 0.55, 0.55, 0.5])
    balls = hexagon_ring(radii)
    cx = build_alpha_complex(balls, strict=False)
    report = general_position_check(balls, cx, tol=1e-6)
    v = next(v for v in report.violations if v.simplex == (0, 5))
    assert classify_event(balls, cx, v) == "close_break_loop"


def test_classify_start_drown_void():
    balls = tetra_through_origin(1.0)
    cx = build_alpha_complex(balls, strict=False)
    report = general_position_check(balls, cx, tol=1e-6)
    v = next(v for v in report.violations
             if v.condition == "II" and len(v.simplex) == 4)
    assert classify_event(balls, cx, v) == "start_drown_void"


def test_probe_smooth_chamber(rng):
    balls, _ = make_config(rng, 4)
    t = np.zeros((4, 3))
    t[0] = 0.01 * rng.normal(size=3)
    result = gradient_jump_probe(balls, t, (0.0, 1.0), 7)
    assert all(row.defined for row in result.rows)
    assert result.flagged == []


def test_probe_flags_surface_tangency_and_gauss_jump():
    # Ball 1 slides toward ball 0; external tangency at tau = 0.5.
    balls = BallSet([[0, 0, 0], [2.5, 0, 0]], [1.0, 1.0])
    t = np.array([[0.0, 0, 0], [-1.0, 0, 0]])
    result = gradient_jump_probe(balls, t, (0.0, 1.0), 11)
    assert result.flagged == [pytest.approx(0.5)]
    before = [r.gauss for r in result.rows if r.defined and r.tau < 0.5]
    after = [r.gauss for r in result.rows if r.defined and r.tau > 0.5]
    jump = after[-1] - before[0]
    assert jump / (2 * math.pi) == pytest.approx(round(jump / (2 * math.pi)), abs=1e-9)
    assert round(jump / (2 * math.pi)) == -2
    # Equal weights: the gradient vanishes in both chambers.
    assert result.limits and result.limits[0].max_gap <= 1e-10


def test_probe_side_limits_jump_with_weights():
    # Unequal radii and weights: the pair term varies with distance, so the
    # gradient genuinely jumps when the balls attach (tangency at tau=0.6).
    balls = BallSet([[0, 0, 0], [2.2, 0, 0]], [1.0, 0.6], [1.0, -0.5])
    t = np.array([[0.0, 0, 0], [-1.0, 0, 0]])
    result = gradient_jump_probe(balls, t, (0.0, 1.0), 11, side_delta=1e-5)
    assert result.flagged == [pytest.approx(0.6)]
    lim = result.limits[0]
    assert lim.grad_minus.shape == (2, 3)
    assert lim.grad_plus.shape == (2, 3)
    # Disjoint side: zero gradient; overlapping side: a genuine gradient.
    assert np.abs(lim.grad_minus).max() <= 1e-10
    assert lim.max_gap > 0.1
