import builtins
import math
from pathlib import Path

import numpy as np
import pytest

from ballmorph import BallSet, build_alpha_complex, compute_measures, euler, evaluate, \
    intrinsic_volumes, weighted_area, weighted_gauss, weighted_mean, weighted_volume
from ballmorph.oracles import mc_weighted_volume
from ballmorph.serial import parse_diagram, parse_diagram_text
from conftest import make_config, random_rotation, two_balls
from test_stacks import fd_states

import gen
import run as perfbench

FOUR_PI = 4 * math.pi


def lens_mean_curvature(r, d):
    """Normal-cycle mean curvature of the intersection of two equal balls.

    Smooth part: two caps of height r - d/2 with H = 1/r; edge part: half
    the circle length times the (convex) normal-angle jump.
    """
    xi = d / 2.0
    h = r - xi
    r_c = math.sqrt(r * r - xi * xi)
    phi = math.acos((2 * r * r - d * d) / (2 * r * r))
    return 2.0 * (2 * math.pi * h) + 0.5 * (2 * math.pi * r_c) * phi


def lens_volume(r, d):
    h = r - d / 2.0
    return 2.0 * math.pi * h * h * (3 * r - h) / 3.0


def cap_volume(r, h):
    return math.pi * h * h * (3 * r - h) / 3.0


def setup(balls):
    cx = build_alpha_complex(balls)
    return cx, compute_measures(balls, cx)


def volume(balls):
    cx, m = setup(balls)
    return weighted_volume(balls, cx, m)


def test_gauss_single_ball():
    balls = BallSet([[0, 0, 0]], [1.0])
    cx, m = setup(balls)
    k, _ = weighted_gauss(balls, cx, m)
    assert k == pytest.approx(FOUR_PI, abs=1e-12)


def test_gauss_two_overlapping_balls():
    balls = two_balls(d=1.0)
    cx, m = setup(balls)
    k, (patch, arc, corner) = weighted_gauss(balls, cx, m)
    assert patch == pytest.approx(FOUR_PI * 1.5, abs=1e-12)
    assert arc == pytest.approx(-2 * math.pi, abs=1e-12)
    assert corner == 0.0
    assert k == pytest.approx(FOUR_PI, abs=1e-12)


def test_gauss_disjoint_weighted():
    balls = two_balls(d=3.0, w0=2.0, w1=3.0)
    cx, m = setup(balls)
    k, _ = weighted_gauss(balls, cx, m)
    assert k == pytest.approx(FOUR_PI * 5.0, abs=1e-12)


def test_area_values():
    balls = BallSet([[0, 0, 0]], [1.0])
    cx, m = setup(balls)
    assert weighted_area(balls, cx, m) == pytest.approx(FOUR_PI)
    balls = two_balls(d=1.0)
    cx, m = setup(balls)
    assert weighted_area(balls, cx, m) == pytest.approx(FOUR_PI * 1.5, abs=1e-12)
    nested = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5], [1.0, 5.0])
    cx, m = setup(nested)
    assert weighted_area(nested, cx, m) == pytest.approx(FOUR_PI, abs=1e-12)


def test_mean_against_additivity_oracle():
    balls = BallSet([[0, 0, 0]], [1.0])
    cx, m = setup(balls)
    assert weighted_mean(balls, cx, m) == pytest.approx(FOUR_PI)
    balls = two_balls(d=1.0)
    cx, m = setup(balls)
    # M(union) = M(B0) + M(B1) - M(lens), all unweighted.
    expected = 2 * FOUR_PI - lens_mean_curvature(1.0, 1.0)
    assert weighted_mean(balls, cx, m) == pytest.approx(expected, abs=1e-12)
    far = two_balls(d=3.0, r0=1.0, r1=0.8, w0=2.0, w1=0.5)
    cx, m = setup(far)
    assert weighted_mean(far, cx, m) == pytest.approx(
        FOUR_PI * (2.0 * 1.0 + 0.5 * 0.8), abs=1e-12)


def test_volume_against_lens_oracle():
    assert volume(BallSet([[0, 0, 0]], [1.0])) == pytest.approx(FOUR_PI / 3, rel=1e-12)
    expected = 2 * FOUR_PI / 3 - lens_volume(1.0, 1.0)
    assert volume(two_balls(d=1.0)) == pytest.approx(expected, rel=1e-12)
    assert volume(two_balls(d=1.0, w0=0.0, w1=0.0)) == 0.0


def test_volume_closed_forms():
    # One ball anywhere: 4 pi / 3 w r^3.
    one = BallSet([[0.3, -1.0, 2.0]], [1.7], [2.5])
    assert volume(one) == pytest.approx(2.5 * FOUR_PI / 3 * 1.7 ** 3, rel=1e-12)
    # Unequal lens with weights: each ball loses the cap beyond the radical
    # plane, at distance xi_i = (d^2 + r_i^2 - r_j^2) / 2d from its centre.
    r0, r1, d, w0, w1 = 1.0, 0.7, 1.2, 2.0, -0.5
    xi0 = (d * d + r0 * r0 - r1 * r1) / (2 * d)
    clipped0 = FOUR_PI / 3 * r0 ** 3 - cap_volume(r0, r0 - xi0)
    clipped1 = FOUR_PI / 3 * r1 ** 3 - cap_volume(r1, r1 - (d - xi0))
    assert volume(two_balls(d=d, r0=r0, r1=r1, w0=w0, w1=w1)) == pytest.approx(
        w0 * clipped0 + w1 * clipped1, rel=1e-12)
    # The power plane of a small ball lying past the larger centre: xi_0 > r_1.
    r0, r1, d = 1.3, 0.6, 1.1
    xi0 = (d * d + r0 * r0 - r1 * r1) / (2 * d)
    expected = (FOUR_PI / 3 * (r0 ** 3 + r1 ** 3) - cap_volume(r0, r0 - xi0)
                - cap_volume(r1, r1 - (d - xi0)))
    assert volume(two_balls(d=d, r0=r0, r1=r1)) == pytest.approx(expected, rel=1e-12)
    # A nested ball owns no volume, whatever its weight.
    nested = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5], [1.5, 5.0])
    assert volume(nested) == pytest.approx(1.5 * FOUR_PI / 3, rel=1e-12)
    # Disjoint balls add.
    far = two_balls(d=3.0, r0=1.0, r1=0.8, w0=2.0, w1=0.5)
    assert volume(far) == pytest.approx(FOUR_PI / 3 * (2.0 + 0.5 * 0.8 ** 3), rel=1e-12)


def test_volume_linear_in_weights_and_zero_weights(rng):
    balls, cx = make_config(rng, 8)
    m = compute_measures(balls, cx)
    v = weighted_volume(balls, cx, m)
    other = rng.uniform(-2.0, 2.0, size=balls.n)
    v_other = weighted_volume(balls.with_weights(other), cx, m)
    v_sum = weighted_volume(balls.with_weights(balls.weights + other), cx, m)
    assert v_sum == pytest.approx(v + v_other, rel=1e-13, abs=1e-13 * abs(v))
    assert weighted_volume(balls.with_weights(3.0 * balls.weights), cx, m) == \
        pytest.approx(3.0 * v, rel=1e-13)
    assert weighted_volume(balls.with_weights(np.zeros(balls.n)), cx, m) == 0.0


def test_volume_rigid_motion_and_permutation(rng):
    for _ in range(4):
        balls, _ = make_config(rng, int(rng.integers(5, 12)))
        v = volume(balls)
        q = random_rotation(rng)
        moved = BallSet(balls.centers @ q.T + rng.normal(size=3), balls.radii,
                        balls.weights)
        assert volume(moved) == pytest.approx(v, rel=1e-10)
        perm = rng.permutation(balls.n)
        shuffled = BallSet(balls.centers[perm], balls.radii[perm], balls.weights[perm])
        assert volume(shuffled) == pytest.approx(v, rel=1e-10)


def _volume_z(balls, samples, seed):
    est, se = mc_weighted_volume(balls, samples, seed)
    return (volume(balls) - est) / se


def test_volume_against_monte_carlo(rng):
    # Random weights: every ball's clipped volume enters with its own sign.
    for trial in range(6):
        balls, _ = make_config(rng, int(rng.integers(4, 13)))
        assert abs(_volume_z(balls, 40_000, trial)) <= 3.0
    # The compute-volume inputs of perfbench: n=40, unit weights, with 10-11
    # balls whose centres lie outside their own power cells.
    wl = perfbench.WORKLOADS["compute-volume"]
    for seed in (1, 2, 3):
        text, _, _ = gen.make_input(seed, wl.n, wl.weights, wl.bands)
        balls = parse_diagram_text(text)
        buried = gen.buried_centres(balls.centers, balls.radii)
        assert 10 <= buried <= 11
        assert abs(_volume_z(balls, 20_000, seed)) <= 3.0


def test_gauss_bonnet_random_configs(rng):
    for _ in range(12):
        balls, cx = make_config(rng, int(rng.integers(3, 13)), weights="ones",
                                require_triangle=False)
        m = compute_measures(balls, cx)
        k, _ = weighted_gauss(balls, cx, m)
        chi_s = euler(cx).chi_surface
        assert abs(k - 2 * math.pi * chi_s) <= 1e-8 * max(1.0, abs(k))


def test_gauss_bonnet_to_rounding_on_unit_weights():
    # K adds patch, arc and corner parts of size up to ~100 here; with unit
    # weights it must still land on 2 pi chi to 1e-12.
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(400):
        balls, cx = make_config(rng, int(rng.integers(2, 16)), weights="ones",
                                require_triangle=False)
        k, _ = weighted_gauss(balls, cx, compute_measures(balls, cx))
        worst = max(worst, abs(k - 2 * math.pi * euler(cx).chi_surface))
    assert worst <= 1e-12


def test_rigid_motion_invariance(rng):
    balls, cx = make_config(rng, 7)
    m = compute_measures(balls, cx)
    k0, _ = weighted_gauss(balls, cx, m)
    a0 = weighted_area(balls, cx, m)
    m0 = weighted_mean(balls, cx, m)
    q = random_rotation(rng)
    moved = BallSet(balls.centers @ q.T + rng.normal(size=3), balls.radii,
                    balls.weights)
    cx2 = build_alpha_complex(moved)
    m2 = compute_measures(moved, cx2)
    k1, _ = weighted_gauss(moved, cx2, m2)
    assert k1 == pytest.approx(k0, rel=1e-10, abs=1e-10)
    assert weighted_area(moved, cx2, m2) == pytest.approx(a0, rel=1e-10)
    assert weighted_mean(moved, cx2, m2) == pytest.approx(m0, rel=1e-10)


def test_linearity_in_weights(rng):
    balls, cx = make_config(rng, 6)
    m = compute_measures(balls, cx)
    doubled = balls.with_weights(2.0 * balls.weights)
    m2 = compute_measures(doubled, cx)
    for fn in (weighted_area, weighted_mean):
        assert fn(doubled, cx, m2) == pytest.approx(2 * fn(balls, cx, m), rel=1e-13)
    k1, _ = weighted_gauss(balls, cx, m)
    k2, _ = weighted_gauss(doubled, cx, m2)
    assert k2 == pytest.approx(2 * k1, rel=1e-13, abs=1e-12)


def test_intrinsic_volumes_bundle(rng):
    balls, cx = make_config(rng, 5)
    m = compute_measures(balls, cx)
    vols = intrinsic_volumes(balls, cx, m)
    assert vols.gauss == pytest.approx(
        vols.gauss_patch + vols.gauss_arc + vols.gauss_corner, rel=1e-12)
    assert vols.volume == weighted_volume(balls, cx, m)


PLAIN_SUM = builtins.sum


def compensated_sum(iterable, start=0):
    """Python's sum with floats added as CPython 3.12 and later add them:
    Neumaier's compensated sum, the compensation added at the end when it
    is finite and not zero.  Anything but plain floats goes to the plain
    sum."""
    items = list(iterable)
    if type(start) not in (int, float) or any(type(v) is not float for v in items):
        return PLAIN_SUM(items, start)
    total, comp = float(start), 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def outputs(balls):
    """The bytes of V, A, M, K and G of a fresh evaluation."""
    ev = evaluate(balls)
    vols = ev.volumes
    return [np.asarray(getattr(vols, f)).tobytes() for f in ("volume", "area", "mean", "gauss")] \
        + [ev.gradient.per_ball.tobytes()]


def test_sums_do_not_depend_on_the_interpreters_sum(monkeypatch):
    # Python's sum of floats rounds after each addition up to 3.11 and
    # compensates from 3.12 on, so an output that goes through it would
    # depend on the interpreter.  Every output must keep its bytes when sum
    # compensates, on g20 and on a stack of its FD states.
    balls = parse_diagram(str(Path(__file__).parent / "data" / "g20.txt"))
    cases = [balls, balls.with_states(fd_states(balls, 3))]
    want = [outputs(b) for b in cases]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([1e16, 1.0, -1e16]) == 1.0      # 0.0 if each addition rounds
    assert [outputs(b) for b in cases] == want
