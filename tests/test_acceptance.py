"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance over
the stated number of random inputs and prints a PASS line (run with -s to
see them).  Random data is seeded, so the suite is reproducible.
"""

import math

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex, compute_measures, \
    directional_derivative, euler, evaluate, fd_directional, gauss_gradient, \
    mc_boundary_integrals, sigma_i_prime, sigma_ij_prime, weighted_gauss
from ballmorph.cli import main
from ballmorph.diagnostics import gradient_jump_probe
from ballmorph.geometry import pair_table
from ballmorph.errors import DegenerateState, NonRealizableTriangle, OracleDegenerate
from ballmorph.measures import sigma_i, sigma_ij
from ballmorph.sphtri import cap_half_radius, corner_geometry, darea_da, dcap_da, \
    product_of_sines, quad_area_gradient, quadrangle_areas, triangle_area
from conftest import brute_sigma_ij, edge_arcs, make_config, random_triangle_params, \
    rigid_generators, serialize_diagram, two_balls

TWO_PI = 2 * math.pi


def test_acceptance_1_gauss_bonnet():
    """Unweighted curvature reproduces 2*pi times the surface Euler number."""
    rng = np.random.default_rng(101)
    worst = 0.0
    # Analytic anchor cases: overlapping pair (one sphere) and disjoint pair.
    anchors = [(two_balls(d=1.0), 4 * math.pi), (two_balls(d=3.0), 8 * math.pi)]
    for balls, expected in anchors:
        cx = build_alpha_complex(balls)
        k, _ = weighted_gauss(balls, cx, compute_measures(balls, cx))
        assert k == pytest.approx(expected, abs=1e-10)
    for trial in range(100):
        n = int(rng.integers(2, 15))
        balls, cx = make_config(rng, n, weights="ones", require_triangle=False)
        m = compute_measures(balls, cx)
        k, _ = weighted_gauss(balls, cx, m)
        chi_s = euler(cx).chi_surface
        err = abs(k - TWO_PI * chi_s) / max(1.0, abs(k))
        worst = max(worst, err)
        assert err <= 1e-8, (trial, n, k, chi_s)
    print(f"\nACCEPTANCE 1 Gauss-Bonnet on 100 configs: PASS (worst rel {worst:.2e})")


def test_acceptance_2_four_sine_identity():
    """Product-of-sines identity over 1e5 random realizable triangles."""
    rng = np.random.default_rng(102)
    a, b, c, _ = random_triangle_params(rng, size=100_000)
    phi_ij = np.arccos(np.clip(2 * a - 1, -1, 1))
    phi_jk = np.arccos(np.clip(2 * b - 1, -1, 1))
    phi_ki = np.arccos(np.clip(2 * c - 1, -1, 1))
    s = 0.5 * (phi_ij + phi_jk + phi_ki)
    lhs = np.sin(s) * np.sin(s - phi_ij) * np.sin(s - phi_jk) * np.sin(s - phi_ki)
    rhs = product_of_sines(a, b, c)
    gap = float(np.abs(lhs - rhs).max())
    assert gap <= 1e-12
    print(f"ACCEPTANCE 2 four-sine identity on 1e5 triples: PASS (max gap {gap:.2e})")


def test_acceptance_3_gradient_matches_fd():
    """<G, t> matches central differences on 50 configs x 20 momenta."""
    rng = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    for trial in range(50):
        n = int(rng.integers(3, 13))
        # Comfortable genericity margin: near tangency folds the curvature
        # varies on the scale of the fold distance, so the h = 1e-5 central
        # difference itself loses accuracy before the analytic gradient does.
        balls, cx = make_config(rng, n, margin=1e-2)
        m = compute_measures(balls, cx)
        grad = gauss_gradient(balls, cx, m)
        done = 0
        while done < 20:
            # Unit momenta: FD truncation is cubic in |t| but the derivative
            # only linear, so normalizing buys a factor 3n of accuracy.
            t = rng.normal(size=(balls.n, 3))
            t /= np.linalg.norm(t)
            try:
                fd = fd_directional(lambda bs: evaluate(bs).gauss, balls, t, step=1e-5)
            except OracleDegenerate:
                continue
            an = directional_derivative(grad, t)
            err = abs(an - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
            assert err <= 1e-5, (trial, n, an, fd)
            done += 1
            checked += 1
    assert checked == 1000
    print(f"ACCEPTANCE 3 gradient vs FD (50x20): PASS (worst rel {worst:.2e})")


def test_acceptance_4_null_spaces():
    """Zero gradient at equal weights; rigid motions in the null space."""
    rng = np.random.default_rng(104)
    worst_eq = 0.0
    worst_rigid = 0.0
    for _ in range(10):
        balls, cx = make_config(rng, int(rng.integers(3, 11)), weights="ones")
        g = gauss_gradient(balls, cx, compute_measures(balls, cx))
        worst_eq = max(worst_eq, float(np.abs(g.per_ball).max()))
    assert worst_eq <= 1e-8
    for _ in range(10):
        balls, cx = make_config(rng, int(rng.integers(3, 11)))
        g = gauss_gradient(balls, cx, compute_measures(balls, cx))
        for gen in rigid_generators(balls):
            worst_rigid = max(worst_rigid, abs(directional_derivative(g, gen)))
    assert worst_rigid <= 1e-9
    print(f"ACCEPTANCE 4 null spaces: PASS (equal-w {worst_eq:.2e}, rigid {worst_rigid:.2e})")


def _fd_scalar(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_acceptance_5_sub_derivatives():
    """Every sub-derivative matches finite differences at 1e-5 relative."""
    rng = np.random.default_rng(105)
    tol = 1e-5

    def check(an, fd, tag):
        assert abs(an - fd) <= tol * max(1.0, abs(fd)), (tag, an, fd)

    # Spherical-triangle area and cap-radius partials.
    done = 0
    while done < 1000:
        a, b, c, _ = random_triangle_params(rng)
        if product_of_sines(a, b, c) < 1e-3:
            continue
        check(darea_da(a, b, c), _fd_scalar(lambda x: triangle_area(x, b, c), a),
              "darea")
        check(dcap_da(a, b, c), _fd_scalar(lambda x: cap_half_radius(x, b, c), a),
              "dcap")
        done += 1

    # Normal-angle and projected-length derivatives in the center distance.
    done = 0
    while done < 1000:
        r_i, r_j = rng.uniform(0.6, 1.5, size=2)
        d = rng.uniform(abs(r_i - r_j) + 0.05, r_i + r_j - 0.05)

        def phi(x):
            return math.acos((r_i ** 2 + r_j ** 2 - x * x) / (2 * r_i * r_j))

        def pair_at(x):
            bb = two_balls(d=x, r0=r_i, r1=r_j)
            return pair_table(bb.centers, bb.radii, np.array([[0, 1]])).take(0)

        def lam(x):
            return pair_at(x).lam

        # quad_area_gradient takes d phi_ij / d|x_i - x_j| as 1 / r_ij.
        pair = pair_at(d)
        check(1.0 / pair.r, _fd_scalar(phi, d), "dangle")
        check(pair.dlam_dd, _fd_scalar(lam, d), "dlam")
        done += 1

    # Patch- and arc-fraction derivatives on small configurations.
    done = 0
    while done < 1000:
        balls, cx = make_config(rng, int(rng.integers(3, 6)))
        m = compute_measures(balls, cx)
        i = int(rng.choice(cx.boundary_vertices()))
        t = rng.normal(size=(balls.n, 3))

        def f_sigma_i(bs):
            return sigma_i(bs, build_alpha_complex(bs), i)

        try:
            fd = fd_directional(f_sigma_i, balls, t, step=1e-6)
        except OracleDegenerate:
            continue
        check(sigma_i_prime(balls, cx, m, i, t), fd, "sigma_i'")

        edges = [e for e in cx.boundary_edges()
                 if any(not arc.full_circle for arc in edge_arcs(cx, e))]
        if edges:
            e = edges[int(rng.integers(len(edges)))]

            def f_sigma_ij(bs):
                return sigma_ij(bs, build_alpha_complex(bs), e)

            try:
                fd = fd_directional(f_sigma_ij, balls, t, step=1e-6)
            except OracleDegenerate:
                continue
            check(sigma_ij_prime(balls, cx, e, t), fd, "sigma_ij'")
        done += 1

    # Quadrangle-area gradients at random three-ball corners.
    done = 0
    while done < 1000:
        centers = rng.uniform(0, 1.3, size=(3, 3))
        radii = rng.uniform(0.8, 1.2, size=3)
        balls = BallSet(centers, radii)
        try:
            build_alpha_complex(balls)
        except DegenerateState:
            continue
        pgs = {}
        try:
            rows = pair_table(balls.centers, balls.radii, np.array([[0, 1], [1, 2], [0, 2]]))
            pgs = {side: rows.take(m) for m, side in enumerate(((0, 1), (1, 2), (2, 0)))}
            if not all(p.has_circle for p in pgs.values()):
                continue
            geo = corner_geometry(pgs[(0, 1)].cos_phi, pgs[(1, 2)].cos_phi,
                                  pgs[(2, 0)].cos_phi)
        except (NonRealizableTriangle, DegenerateState):
            continue
        if product_of_sines(geo.a, geo.b, geo.c) < 1e-3:
            continue
        if min(product_of_sines(x, geo.cap_r, geo.cap_r)
               for x in (geo.a, geo.b, geo.c)) < 1e-3:
            continue
        p, q, s = quad_area_gradient(geo, pgs[(0, 1)], pgs[(1, 2)], pgs[(2, 0)])
        t = rng.normal(size=(3, 3))
        h = 1e-6

        def quads_at(tau):
            cc = centers + tau * t
            vals = []
            for (x, y) in ((0, 1), (1, 2), (2, 0)):
                dd = np.linalg.norm(cc[x] - cc[y])
                vals.append((radii[x] ** 2 + radii[y] ** 2 - dd * dd)
                            / (2 * radii[x] * radii[y]))
            aa, bb, ccc = (0.5 * (1 + v) for v in vals)
            return np.array(quadrangle_areas(aa, bb, ccc))

        fd = (quads_at(h) - quads_at(-h)) / (2 * h)
        u01 = (centers[0] - centers[1]) / np.linalg.norm(centers[0] - centers[1])
        u12 = (centers[1] - centers[2]) / np.linalg.norm(centers[1] - centers[2])
        u20 = (centers[2] - centers[0]) / np.linalg.norm(centers[2] - centers[0])
        rates = np.array([float(u01 @ (t[0] - t[1])), float(u12 @ (t[1] - t[2])),
                          float(u20 @ (t[2] - t[0]))])
        for an, f, tag in zip((np.dot(p, rates), np.dot(q, rates), np.dot(s, rates)),
                              fd, ("quad_i'", "quad_j'", "quad_k'")):
            check(an, f, tag)
        done += 1
    print("ACCEPTANCE 5 sub-derivative FD checks (1000 each): PASS")


def test_acceptance_6_corner_split_identities():
    """Fraction sum and quadrangle partition on 1e4 random corners."""
    rng = np.random.default_rng(106)
    obtuse = 0
    worst_alpha = 0.0
    worst_split = 0.0
    done = 0
    while done < 10_000:
        a, b, c, _ = random_triangle_params(rng)
        # Margin against sliver triangles: their area fractions grow beyond
        # 1e3, where three-term float sums cannot resolve 1e-12 at all.
        if product_of_sines(a, b, c) < 1e-5:
            continue
        geo = corner_geometry(2 * a - 1, 2 * b - 1, 2 * c - 1)
        worst_alpha = max(worst_alpha, abs(sum(geo.alphas) - 1.0))
        worst_split = max(worst_split, abs(sum(geo.quads) - geo.area))
        if -1 in geo.signs:
            obtuse += 1
        done += 1
    assert worst_alpha <= 1e-12
    assert worst_split <= 1e-10
    assert obtuse > 500
    print(f"ACCEPTANCE 6 corner splits on 1e4 corners: PASS "
          f"(alpha {worst_alpha:.2e}, split {worst_split:.2e}, {obtuse} obtuse)")


def test_acceptance_7_measure_consistency():
    """Analytic sphere fractions vs Monte Carlo; arc sums vs the union of
    the all-ball cover intervals."""
    rng = np.random.default_rng(107)
    worst_edges = 0.0
    for trial in range(20):
        balls, cx = make_config(rng, int(rng.integers(3, 9)),
                                require_triangle=False)
        _, sig_mc, err = mc_boundary_integrals(balls, 1_000_000, seed=1000 + trial)
        for i in cx.boundary_vertices():
            val = sigma_i(balls, cx, i)
            floor = math.sqrt(max(val * (1 - val), 1e-12) / 1_000_000)
            assert abs(val - sig_mc[i]) <= 3.0 * max(err[i], floor), (trial, i)
        for e in cx.boundary_edges():
            total = sum(arc.extent for arc in edge_arcs(cx, e)) / TWO_PI
            gap = abs(brute_sigma_ij(cx, e) - total)
            worst_edges = max(worst_edges, gap)
            assert gap <= 1e-10
    print(f"ACCEPTANCE 7 measures vs MC and arc sums: PASS (edge gap {worst_edges:.2e})")


def flip_state(tau):
    """Scripted flip path: two tets sharing a triangle swap to three around
    the new edge as apex 3 moves through the shared circumsphere wall
    between tau = 0.85 and 0.9."""
    centers = np.array([
        [0.0, 0.0, 0.0], [1.3, 0.0, 0.0], [0.6, 1.2, 0.0],
        [0.65, 0.45, 1.1], [0.6, 0.38, -1.05]])
    t = np.zeros((5, 3))
    t[3] = [0.05, -0.1, -0.6]
    return BallSet(centers + tau * t, [1.6, 1.7, 1.65, 1.6, 1.75],
                   [0.5, -1.0, 1.5, 0.7, -0.3])


def test_acceptance_8_continuity_behavior():
    """Flip crossings keep the gradient continuous; surface tangencies jump
    the unweighted curvature by multiples of 2*pi and are flagged."""
    def tets_at(tau):
        return tuple(sorted(map(tuple, build_alpha_complex(flip_state(tau)).tet_keys.tolist())))

    def grad_at(tau):
        bs = flip_state(tau)
        cx = build_alpha_complex(bs)
        return gauss_gradient(bs, cx, compute_measures(bs, cx)).per_ball

    before = tets_at(0.85)
    after = tets_at(0.9)
    assert before != after and len(before) == 2 and len(after) == 3
    lo, hi = 0.85, 0.9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            if tets_at(mid) == before:
                lo = mid
            else:
                hi = mid
        except DegenerateState:
            hi = mid
    tau_star = 0.5 * (lo + hi)
    delta = 1e-4
    limits = {}
    for side in (-1, 1):
        g1 = grad_at(tau_star + side * delta)
        g2 = grad_at(tau_star + side * delta / 2)
        limits[side] = 2 * g2 - g1    # linear extrapolation to tau*
    flip_gap = float(np.abs(limits[-1] - limits[1]).max())
    assert flip_gap <= 1e-6

    # Scripted surface tangency: unweighted pair attaching at tau = 0.5.
    balls = BallSet([[0, 0, 0], [2.5, 0, 0]], [1.0, 1.0])
    t2 = np.array([[0.0, 0, 0], [-1.0, 0, 0]])
    result = gradient_jump_probe(balls, t2, (0.0, 1.0), 11)
    assert result.flagged == [pytest.approx(0.5)]
    before_k = [r.gauss for r in result.rows if r.defined and r.tau < 0.5]
    after_k = [r.gauss for r in result.rows if r.defined and r.tau > 0.5]
    jump = after_k[0] - before_k[-1]
    assert abs(jump / TWO_PI - round(jump / TWO_PI)) <= 1e-6
    assert round(jump / TWO_PI) != 0
    print(f"ACCEPTANCE 8 continuity: PASS (flip limit gap {flip_gap:.2e}, "
          f"tangency jump {jump / TWO_PI:.0f} * 2pi, crossing flagged)")


def test_flip_band_raises_or_keeps_chi():
    """Within 5e-11 of acceptance 8's flip, a strict build either names the
    five-ball tie or keeps the Euler characteristic of both sides."""
    def tets_at(tau):
        return build_alpha_complex(flip_state(tau), strict=False).tet_keys.tolist()

    before = tets_at(0.85)
    lo, hi = 0.85, 0.9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tets_at(mid) == before else (lo, mid)
    tau_star = 0.5 * (lo + hi)
    chi = set()
    for side in (-1, 1):
        ev = evaluate(flip_state(tau_star + side * 1e-6))
        assert np.isfinite(ev.gradient.flat).all()
        chi.add(euler(ev.cx).chi_alpha)
    assert len(chi) == 1
    outcomes = {"raised": 0, "built": 0}
    for tau in tau_star + np.linspace(-5e-11, 5e-11, 101):
        try:
            cx = build_alpha_complex(flip_state(tau))
        except DegenerateState as exc:
            assert len(exc.simplex) == 5 and "Condition I " in str(exc), tau
            outcomes["raised"] += 1
            continue
        assert {euler(cx).chi_alpha} == chi, tau
        outcomes["built"] += 1
    print(f"FLIP BAND: {outcomes} within 5e-11 of tau* = {tau_star!r}")


def test_acceptance_9_reproducibility(tmp_path):
    """Identical input and seed give byte-identical JSON documents."""
    rng = np.random.default_rng(109)
    balls, _ = make_config(rng, 6)
    diagram = tmp_path / "balls.txt"
    diagram.write_text(serialize_diagram(balls))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["grad", "--input", str(diagram), "--json", str(out),
                     "--mc-samples", "30000", "--seed", "7"])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # Monte Carlo totals are split-invariant: per-block streams make any
    # chunking reproduce the serial estimate (blocks are fixed-size).
    from ballmorph import nu_i_mc
    est_a = nu_i_mc(balls, 0, 100_000, seed=5)
    est_b = nu_i_mc(balls, 0, 100_000, seed=5)
    assert est_a == est_b
    print("ACCEPTANCE 9 reproducibility: PASS (byte-identical JSON)")
