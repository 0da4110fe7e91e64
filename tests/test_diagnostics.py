import math

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex
from ballmorph.cli import main
from ballmorph.diagnostics import _touching_point, betti_numbers, classify_event, \
    general_position_check, gradient_jump_probe
from ballmorph.errors import DegenerateState, Unclassifiable
from ballmorph.pipeline import evaluate
from conftest import make_config, random_rotation, serialize_diagram, two_balls
from test_complexes import flat_quad_draw
from test_near_tangency import planted_draw


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


def test_five_ball_ties_are_lengths():
    # Every record is a length, so scaling the shape by s scales every
    # residual by s and names the same simplices; the refusal names the
    # same least record.  A power of two scales each float operation
    # exactly; a five-ball tie kept as a power would scale by s^2.
    base = five_spheres_through_origin()

    def build(s):
        balls = BallSet(base.centers * s, base.radii * s)
        with pytest.raises(DegenerateState) as info:
            build_alpha_complex(balls)
        return build_alpha_complex(balls, strict=False).degeneracies, info.value

    want, refusal = build(1.0)
    assert any(cond == "I" and len(simplex) == 5 for cond, simplex, _ in want)
    for s in (2.0 ** -10, 2.0 ** 10):
        got, exc = build(s)
        assert [record[:2] for record in got] == [record[:2] for record in want], s
        assert [r for _, _, r in got] == pytest.approx([s * r for _, _, r in want],
                                                       rel=1e-12, abs=0.0), s
        assert (exc.simplex, exc.residual) == (refusal.simplex, s * refusal.residual), s


def agreement_cases():
    """Flat quads, a collinear triple with distinct radical planes, the
    planted pair tangencies and unfiltered draws at test density."""
    rng = np.random.default_rng(23)
    for draw in range(40):
        yield flat_quad_draw(rng, np.ones(5) if draw % 2 else rng.uniform(-2.0, 2.0, size=5))
    yield BallSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [1.2, 1.2, 1.2])
    rng = np.random.default_rng(4)
    for _ in range(600):
        yield planted_draw(rng)[0]
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(6, 40))
        yield BallSet(rng.uniform(0.0, 1.1 * n ** (1.0 / 3.0), size=(n, 3)),
                      rng.uniform(0.7, 1.3, size=n), rng.uniform(-2.0, 2.0, size=n))


def test_report_at_the_build_tolerance_is_the_refusal():
    # At tol = cx.tol the report lists exactly the loose build's records,
    # and it is generic exactly when the strict evaluation succeeds;
    # otherwise the evaluation names the report's least record.
    outcomes = {"generic": 0, "refused": 0}
    for case, balls in enumerate(agreement_cases()):
        cx = build_alpha_complex(balls, strict=False)
        report = general_position_check(balls, cx, tol=cx.tol)
        records = [(v.condition, v.simplex, v.residual) for v in report.violations]
        assert records == cx.degeneracies, case
        try:
            evaluate(balls)
        except DegenerateState as exc:
            assert not report.generic, case
            least = min(records, key=lambda record: record[2])
            assert (exc.simplex, exc.residual) == least[1:], case
            outcomes["refused"] += 1
        else:
            assert report.generic, case
            outcomes["generic"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("draw, simplex", [(4, (1, 3, 7)), (158, (1, 3, 4)), (190, (0, 2, 3)),
                                           (321, (0, 4, 6)), (513, (1, 2, 3))])
def test_circle_tangencies_reach_the_report(draw, simplex, tmp_path, capsys):
    # In these planted draws a sphere lies within 1e-6 of an alpha circle
    # while the triple's h^2 residual, a power band, does not: the circle
    # family lists the tangency, and ``degeneracy`` classifies it.
    rng = np.random.default_rng(4)
    for _ in range(draw + 1):
        balls, _ = planted_draw(rng)
    cx = build_alpha_complex(balls, strict=False)
    triples = cx._triple_table
    row = cx.key_rows(triples.ijk, simplex)[0]
    assert row < 0 or triples.gap[row] >= 1e-6
    gaps = [v.residual for v in general_position_check(balls, cx).violations
            if v.simplex == simplex]
    assert len(gaps) == 1 and gaps[0] < 1e-6
    path = tmp_path / "draw.txt"
    path.write_text(serialize_diagram(balls))
    assert main(["degeneracy", "--input", str(path)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if f"simplex {simplex}" in line)
    assert line.startswith("condition II") and " event " in line
    assert "unclassifiable" not in line


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


def test_classify_internal_tangency_inside_the_larger_ball():
    # Ball 1 holds ball 0 and touches it at (-0.5, 0, 0): moving ball 1
    # across the tangency keeps one component.
    balls = BallSet([[0, 0, 0], [0.5, 0, 0]], [0.5, 1.0])
    cx = build_alpha_complex(balls, strict=False)
    v = next(v for v in general_position_check(balls, cx, tol=1e-6).violations
             if v.simplex == (0, 1))
    assert classify_event(balls, cx, v) == "interior_nongeneric"


def test_pair_touching_point_lies_on_both_spheres():
    u = np.array([2.0, -1.0, 2.0]) / 3.0
    # External, ball 1 holding ball 0, and ball 0 holding ball 1.
    for radii, d in (([0.5, 0.7], 1.2), ([0.5, 1.2], 0.7), ([1.2, 0.5], 0.7)):
        balls = BallSet([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3] + d * u], radii)
        point, mover = _touching_point(balls, build_alpha_complex(balls, strict=False), (0, 1))
        assert mover == 1
        assert np.linalg.norm(point - balls.centers, axis=1) == pytest.approx(radii)


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
    # The corners tie, so the arcs of circle S_02 are undecided: a record
    # of the pair, 0.37 from tangency, with no event to name.
    v = next(v for v in report.violations if v.simplex == (0, 2))
    assert v.residual == 0.0
    with pytest.raises(Unclassifiable, match="undecided"):
        classify_event(balls, cx, v)


def test_classify_triple_events():
    # Three unit spheres with centres on a triangle of circumradius 1 meet
    # in one point, its circumcentre: moving ball 2 either fills the hole
    # of the ring there or opens it, so b1 changes.
    tri = np.array([[0, 0, 0], [math.sqrt(3), 0, 0], [math.sqrt(3) / 2, 1.5, 0]])
    for centers, event in ((tri, "fill_open_tunnel"),
                           # A fourth ball over the hole: while the three
                           # overlap, the space under it is a cavity, and it
                           # opens with the hole, so b2 changes.
                           (np.vstack([tri - tri.mean(axis=0), [0, 0, 1.2]]),
                            "complete_puncture_shell")):
        balls = BallSet(centers, np.ones(len(centers)))
        cx = build_alpha_complex(balls, strict=False)
        found = [v for v in general_position_check(balls, cx, tol=1e-6).violations
                 if v.simplex == (0, 1, 2)]
        assert found
        assert [classify_event(balls, cx, v) for v in found] == [event] * len(found)


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
    result = gradient_jump_probe(balls, t, (0.0, 1.0), 11)
    assert result.flagged == [pytest.approx(0.6)]
    lim = result.limits[0]
    assert lim.grad_minus.shape == (2, 3)
    assert lim.grad_plus.shape == (2, 3)
    # Disjoint side: zero gradient; overlapping side: a genuine gradient.
    assert np.abs(lim.grad_minus).max() <= 1e-10
    assert lim.max_gap > 0.1
