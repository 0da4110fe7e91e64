import math

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex, compute_measures, \
    directional_derivative, evaluate, fd_directional, gauss_gradient, sigma_i_prime, \
    sigma_ij_prime, term_d, term_e, term_f, term_h, weighted_gauss
from ballmorph.diagnostics import general_position_check
from ballmorph.errors import DimensionMismatch
from ballmorph.geometry import pair_table
from ballmorph.gradient import arc_endpoint_data
from ballmorph.measures import sigma_i, sigma_ij
from conftest import edge_arcs, make_config, octant_balls, rigid_generators, two_balls


def along(vec, t):
    """Directional derivative <vec, t> of a per-ball gradient term."""
    return float(np.sum(vec * t))


def two_ball_pair(**kwargs):
    """The pair-table row of the two balls of two_balls(**kwargs)."""
    balls = two_balls(**kwargs)
    return pair_table(balls.centers, balls.radii, np.array([[0, 1]])).take(0)


def test_lambda_pair_values():
    pair = two_ball_pair(d=1.0)
    assert pair.lam == pytest.approx(1.0, abs=1e-14)
    assert pair.dlam_dd == pytest.approx(1.0, abs=1e-14)

    # Equal radii r: lambda = d / r for every admissible distance.
    r = 1.3
    for d in (0.5, 1.0, 2.0):
        pair = two_ball_pair(d=d, r0=r, r1=r)
        assert pair.lam == pytest.approx(d / r, rel=1e-14)
        assert pair.dlam_dd == pytest.approx(1 / r, rel=1e-14)

    pair = two_ball_pair(d=2.0, r0=2.0, r1=1.0)
    assert pair.lam == pytest.approx(1.75 / 2.0 + 0.25, abs=1e-14)
    h = 1e-6

    def lam_at(d):
        return two_ball_pair(d=d, r0=2.0, r1=1.0).lam

    fd = (lam_at(2 + h) - lam_at(2 - h)) / (2 * h)
    assert pair.dlam_dd == pytest.approx(fd, abs=1e-8)


def test_sigma_i_prime_two_balls_separating():
    balls = two_balls(d=1.0)
    cx = build_alpha_complex(balls)
    m = compute_measures(balls, cx)
    t = np.zeros((2, 3))
    t[0] = [-1.0, 0, 0]   # ball 0 moves away from ball 1 at unit rate
    val = sigma_i_prime(balls, cx, m, 0, t)
    assert val == pytest.approx(0.25, abs=1e-12)

    def f(bs):
        return sigma_i(bs, build_alpha_complex(bs), 0)

    fd = fd_directional(f, balls, t, step=1e-6)
    assert val == pytest.approx(fd, abs=1e-8)


def test_sigma_i_prime_translation_and_interior():
    balls = two_balls(d=1.0)
    cx = build_alpha_complex(balls)
    m = compute_measures(balls, cx)
    t = np.tile([0.4, 0.2, -0.7], (2, 1))
    assert sigma_i_prime(balls, cx, m, 0, t) == pytest.approx(0.0, abs=1e-14)
    nested = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5])
    cxn = build_alpha_complex(nested)
    mn = compute_measures(nested, cxn)
    assert sigma_i_prime(nested, cxn, mn, 1, t) == 0.0


def test_sigma_i_prime_matches_fd(rng):
    checked = 0
    while checked < 10:
        balls, cx = make_config(rng, int(rng.integers(3, 7)))
        m = compute_measures(balls, cx)
        i = cx.boundary_vertices()[0]
        t = rng.normal(size=(balls.n, 3))

        def f(bs):
            return sigma_i(bs, build_alpha_complex(bs), i)

        fd = fd_directional(f, balls, t, step=1e-6)
        an = sigma_i_prime(balls, cx, m, i, t)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1


def test_sigma_ij_prime_full_circle_and_rotation(rng):
    balls = two_balls(d=1.0)
    cx = build_alpha_complex(balls)
    assert arc_endpoint_data(balls, cx).edge.size == 0
    t = rng.normal(size=(2, 3))
    assert sigma_ij_prime(balls, cx, (0, 1), t) == 0.0

    balls = octant_balls()
    cx = build_alpha_complex(balls)
    for gen in rigid_generators(balls):
        val = sigma_ij_prime(balls, cx, (0, 1), gen)
        assert val == pytest.approx(0.0, abs=1e-12)


def test_sigma_ij_prime_matches_fd(rng):
    checked = 0
    while checked < 10:
        balls, cx = make_config(rng, int(rng.integers(3, 7)))
        edges = [e for e in cx.boundary_edges()
                 if any(not a.full_circle for a in edge_arcs(cx, e))]
        if not edges:
            continue
        e = edges[int(rng.integers(len(edges)))]
        t = rng.normal(size=(balls.n, 3))

        def f(bs):
            return sigma_ij(bs, build_alpha_complex(bs), e)

        fd = fd_directional(f, balls, t, step=1e-6)
        an = sigma_ij_prime(balls, cx, e, t)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1


def test_term_d_basics(rng):
    single = BallSet([[0, 0, 0]], [1.0], [2.0])
    cx = build_alpha_complex(single)
    m = compute_measures(single, cx)
    assert np.all(term_d(single, cx, m) == 0.0)

    balls, cx = make_config(rng, 5)
    m = compute_measures(balls, cx)
    t = np.tile(rng.normal(size=3), (balls.n, 1))
    s = along(term_d(balls, cx, m), t)
    assert s == pytest.approx(0.0, abs=1e-10)


def test_term_d_two_balls_fd():
    balls = two_balls(d=1.0, w0=1.0, w1=0.0)
    cx = build_alpha_complex(balls)
    m = compute_measures(balls, cx)
    t = np.array([[0.3, 0.1, -0.4], [-0.6, 0.2, 0.5]])
    s = along(term_d(balls, cx, m), t)

    def patch_term(bs):
        c2 = build_alpha_complex(bs)
        return 4 * math.pi * sum(
            bs.weights[i] * sigma_i(bs, c2, i) for i in range(bs.n))

    fd = fd_directional(patch_term, balls, t, step=1e-6)
    assert s == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_term_e_basics_and_fd(rng):
    balls = two_balls(d=1.0)
    cx = build_alpha_complex(balls)
    assert np.all(term_e(balls, cx) == 0.0)

    balls = octant_balls(weights=(0.5, -1.2, 2.0))
    cx = build_alpha_complex(balls)
    for gen in rigid_generators(balls):
        s = along(term_e(balls, cx), gen)
        assert s == pytest.approx(0.0, abs=1e-10)

    t = rng.normal(size=(3, 3))
    s = along(term_e(balls, cx), t)
    # Against finite differences of the arc fractions with the projected
    # normal lengths held fixed.
    total = 0.0
    for e in cx.boundary_edges():
        lam = pair_table(balls.centers, balls.radii, np.array([e])).lam[0]
        w = balls.weights[e[0]] + balls.weights[e[1]]

        def f(bs, e=e):
            return sigma_ij(bs, build_alpha_complex(bs), e)

        fd = fd_directional(f, balls, t, step=1e-6)
        total += -math.pi * w * lam * fd
    assert s == pytest.approx(total, rel=1e-5, abs=1e-8)


def test_term_f_values():
    balls = two_balls(d=1.0)
    cx = build_alpha_complex(balls)
    m = compute_measures(balls, cx)
    sep = np.array([[-1.0, 0, 0], [0.0, 0, 0]])   # ball 0 moves away: d' = 1
    s = along(term_f(balls, cx, m), sep)
    # With unit weights the patch and arc terms cancel (the unweighted
    # curvature is constant), so f' = -d' = -2*pi here.
    sd = along(term_d(balls, cx, m), sep)
    assert sd == pytest.approx(2 * math.pi, abs=1e-10)
    assert s == pytest.approx(-2 * math.pi, abs=1e-10)

    t = np.tile([0.4, 0.2, -0.7], (2, 1))
    s = along(term_f(balls, cx, m), t)
    assert s == pytest.approx(0.0, abs=1e-14)
    perp = np.array([[0.0, 1.0, 0], [0.0, -1.0, 0]])
    s = along(term_f(balls, cx, m), perp)
    assert s == pytest.approx(0.0, abs=1e-14)


def test_term_h_octant_fd(rng):
    balls = octant_balls(weights=(1.0, 2.0, 3.0))
    cx = build_alpha_complex(balls)
    m = compute_measures(balls, cx)
    two = two_balls(d=1.0)
    cx2 = build_alpha_complex(two)
    assert np.all(term_h(two, cx2, compute_measures(two, cx2)) == 0.0)

    for gen in rigid_generators(balls):
        s = along(term_h(balls, cx, m), gen)
        assert s == pytest.approx(0.0, abs=1e-10)

    t = rng.normal(size=(3, 3))
    s = along(term_h(balls, cx, m), t)

    def corner_term(bs):
        c2 = build_alpha_complex(bs)
        m2 = compute_measures(bs, c2)
        return weighted_gauss(bs, c2, m2)[1][2]

    fd = fd_directional(corner_term, balls, t, step=1e-6)
    assert s == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_gradient_parts_match_fd_of_breakdown(rng):
    """Each part of G against central differences of its own part of K: d
    of the patch sum, e + f of the arc sum and h of the corner sum, on
    weighted configurations with partial arcs."""
    def parts(bs):
        c2 = build_alpha_complex(bs)
        return np.array(weighted_gauss(bs, c2, compute_measures(bs, c2))[1])

    checked = 0
    while checked < 12:
        balls, cx = make_config(rng, int(rng.integers(4, 10)), margin=1e-2)
        if all(arc.full_circle for e in cx.boundary_edges() for arc in edge_arcs(cx, e)):
            continue
        g = gauss_gradient(balls, cx, compute_measures(balls, cx))
        t = rng.normal(size=(balls.n, 3))
        t /= np.linalg.norm(t)
        fd = fd_directional(parts, balls, t, step=1e-5)
        for an, f in zip((along(g.d, t), along(g.e + g.f, t), along(g.h, t)), fd):
            assert abs(an - f) <= 1e-5 * max(1.0, abs(f))
        checked += 1


def test_gauss_gradient_null_cases(rng):
    single = BallSet([[0, 0, 0]], [1.0], [3.7])
    cx = build_alpha_complex(single)
    g = gauss_gradient(single, cx, compute_measures(single, cx))
    assert np.all(g.per_ball == 0.0)

    balls, cx = make_config(rng, 7, weights="ones")
    m = compute_measures(balls, cx)
    g = gauss_gradient(balls, cx, m)
    assert float(np.abs(g.per_ball).max()) <= 1e-8


def test_gauss_gradient_rigid_null_space(rng):
    balls, cx = make_config(rng, 8)
    m = compute_measures(balls, cx)
    g = gauss_gradient(balls, cx, m)
    for gen in rigid_generators(balls):
        assert abs(directional_derivative(g, gen)) <= 1e-9


def test_gradient_terms_are_equivariant(rng):
    """Rotating and translating the centres maps each term's rows to rows
    times Q^T, and permuting the balls permutes the rows.  The pair-force
    terms d and f hold this to 1e-12 of max|G|.  e and h carry the
    conditioning of their states: e's endpoint rows divide by g_t, which
    is small next to a tangency, and h's isosceles derivatives cancel next
    to a corner-sign flip, where they grow like one over the root of the
    isosceles radicand.  Both stay under 1e-12 on these draws, but reach
    4e-11 (e) and 3e-9 (h) on draws of other seeds."""
    for _ in range(20):
        balls, cx = make_config(rng, int(rng.integers(4, 16)))
        g = gauss_gradient(balls, cx, compute_measures(balls, cx))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = BallSet(balls.centers @ q.T + rng.normal(size=3) * 3.0, balls.radii,
                        balls.weights)
        perm = rng.permutation(balls.n)
        permuted = BallSet(balls.centers[perm], balls.radii[perm], balls.weights[perm])
        g_moved, g_perm = evaluate(moved).gradient, evaluate(permuted).gradient
        scale = float(np.abs(g.per_ball).max())
        for name, tol in (("d", 1e-12), ("e", 1e-8), ("f", 1e-12), ("h", 1e-8)):
            rows = getattr(g, name)
            assert np.abs(getattr(g_moved, name) - rows @ q.T).max() <= tol * scale, name
            assert np.abs(getattr(g_perm, name) - rows[perm]).max() <= tol * scale, name


def test_outputs_do_not_move_under_large_translations():
    """Shifting the diagram by s (1, 0.7, 0.3) changes no simplex and moves
    V, A, M and K by at most 1e-10 relative and G by at most 1e-8 of max|G|:
    every radical centre is solved relative to a member centre.  The centres
    and the shifts lie on a grid of 2^-24, so each shifted state is the exact
    translate.  min_residual holds 1e-8 relative up to s = 1e4; at 1e5 it
    carries one rounding of an absolute corner point (about 2e-11 at
    |x| = 1.2e5) on a residual of about 1e-4, so it holds 1e-7 there."""
    rng = np.random.default_rng(5)
    for _ in range(3):
        balls, _ = make_config(rng, 30, margin=1e-3)
        balls = BallSet(np.round(balls.centers * 2.0 ** 24) / 2.0 ** 24, balls.radii,
                        balls.weights)
        ev, residual = evaluate(balls), general_position_check(balls).min_residual
        g = ev.gradient.per_ball
        for s, res_tol in ((1e3, 1e-8), (1e4, 1e-8), (1e5, 1e-7)):
            shift = np.round(s * np.array([1.0, 0.7, 0.3]) * 2.0 ** 24) / 2.0 ** 24
            moved = evaluate(BallSet(balls.centers + shift, balls.radii, balls.weights))
            assert moved.cx.alpha_simplices() == ev.cx.alpha_simplices()
            for name in ("volume", "area", "mean", "gauss"):
                want = getattr(ev.volumes, name)
                assert abs(getattr(moved.volumes, name) - want) <= 1e-10 * abs(want), (s, name)
            assert np.abs(moved.gradient.per_ball - g).max() <= 1e-8 * np.abs(g).max(), s
            moved_res = general_position_check(moved.balls).min_residual
            assert abs(moved_res - residual) <= res_tol * residual, s


def test_gauss_gradient_matches_fd(rng):
    for _ in range(5):
        balls, cx = make_config(rng, int(rng.integers(4, 11)))
        m = compute_measures(balls, cx)
        g = gauss_gradient(balls, cx, m)
        for _ in range(4):
            t = rng.normal(size=(balls.n, 3))
            fd = fd_directional(lambda bs: evaluate(bs).gauss, balls, t,
                                step=1e-5)
            an = directional_derivative(g, t)
            assert abs(an - fd) <= 1e-5 * max(1.0, abs(fd))


def test_directional_derivative_basics(rng):
    balls, cx = make_config(rng, 5)
    m = compute_measures(balls, cx)
    g = gauss_gradient(balls, cx, m)
    assert directional_derivative(g, np.zeros((5, 3))) == 0.0
    t = np.zeros(15)
    t[7] = 1.0
    assert directional_derivative(g, t) == pytest.approx(g.flat[7])
    with pytest.raises(DimensionMismatch):
        directional_derivative(g, np.zeros(12))
