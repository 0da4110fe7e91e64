from pathlib import Path

import numpy as np
import pytest

import gen
import run as perfbench
from ballmorph import BallSet, evaluate, fd_directional, fd_gradient, mc_boundary_integrals, \
    pipeline
from ballmorph.cli import main
from ballmorph.geometry import pair_table
from ballmorph.serial import parse_diagram, parse_diagram_text
from ballmorph.errors import OracleDegenerate
from conftest import make_config, two_balls


def test_fd_directional_constant_function(rng):
    balls, _ = make_config(rng, 4)
    t = rng.normal(size=(4, 3))
    val = fd_directional(lambda bs: 3.25, balls, t)
    assert val == 0.0


def test_fd_directional_lambda_oracle():
    balls = two_balls(d=1.0)
    t = np.array([[-1.0, 0, 0], [0.0, 0, 0]])   # separates at unit rate

    def lam(bs):
        return pair_table(bs.centers, bs.radii, np.array([[0, 1]])).lam[0]

    # For equal unit radii lambda(d) = d.
    assert fd_directional(lam, balls, t) == pytest.approx(1.0, abs=1e-8)


def test_fd_directional_equal_weights_curvature(rng):
    balls, _ = make_config(rng, 5, weights="ones")
    t = rng.normal(size=(5, 3))
    fd = fd_directional(lambda bs: evaluate(bs).gauss, balls, t)
    assert fd == pytest.approx(0.0, abs=1e-7)


def test_fd_directional_degenerate_crossing():
    # Perpendicular motion keeps both probe states inside the tangency band.
    balls = two_balls(d=2.0)
    t = np.array([[0.0, 0, 0], [0.0, 1e-3, 0]])
    with pytest.raises(OracleDegenerate):
        fd_directional(lambda bs: evaluate(bs).gauss, balls, t, step=1e-5)


def test_fd_step_must_be_positive():
    balls = two_balls(d=1.0)
    for step in (0.0, -1e-5):
        with pytest.raises(ValueError):
            fd_directional(lambda bs: 0.0, balls, np.zeros((2, 3)), step=step)
        with pytest.raises(ValueError):
            fd_gradient(lambda bs: 0.0, balls, step=step)


def test_fd_gradient_single_ball():
    balls = BallSet([[0, 0, 0]], [1.0], [2.0])
    grad = fd_gradient(lambda bs: evaluate(bs).gauss, balls)
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_fd_gradient_translation_components_cancel(rng):
    balls, _ = make_config(rng, 4)
    grad = fd_gradient(lambda bs: evaluate(bs).gauss, balls).reshape(4, 3)
    # Rigid translation invariance: per-axis components sum to zero.
    assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-6)


def test_mc_boundary_integrals_reference_cases():
    single = BallSet([[0, 0, 0]], [1.0])
    areas, sigmas, errs = mc_boundary_integrals(single, 10_000, seed=0)
    assert sigmas[0] == 1.0 and errs[0] == 0.0
    assert areas[0] == pytest.approx(4 * np.pi)

    pair = two_balls(d=1.0)
    areas, sigmas, errs = mc_boundary_integrals(pair, 300_000, seed=1)
    for i in range(2):
        assert abs(sigmas[i] - 0.75) <= 3.0 * max(errs[i], 1e-9)

    nested = BallSet([[0, 0, 0], [0.2, 0, 0]], [1.0, 0.5])
    _, sigmas, _ = mc_boundary_integrals(nested, 20_000, seed=2)
    assert sigmas[1] == 0.0


def test_mc_reproducible_across_splits():
    balls = two_balls(d=1.0)
    a = mc_boundary_integrals(balls, 150_000, seed=9)
    b = mc_boundary_integrals(balls, 150_000, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_mc_error_scales_with_sample_count():
    balls = two_balls(d=1.0)
    ratios = []
    for seed in range(5):
        _, _, err1 = mc_boundary_integrals(balls, 40_000, seed=seed)
        _, _, err4 = mc_boundary_integrals(balls, 160_000, seed=seed)
        ratios.append(err4[0] / err1[0])
    assert np.mean(ratios) <= 0.6


def test_prefix_stability_of_sample_blocks():
    # The first samples of a block do not depend on how many are drawn.
    from ballmorph.oracles import _ball_block
    balls = two_balls(d=1.0)
    a = _ball_block(balls, 0, seed=4, block_idx=0, count=100)
    b = _ball_block(balls, 0, seed=4, block_idx=0, count=1000)
    assert np.array_equal(a, b[:100])


def fd_loop(fn, balls, step=1e-5):
    """fd_gradient as one fd_directional per coordinate."""
    grad = np.zeros(3 * balls.n)
    e_m = np.zeros_like(grad)
    for m in range(grad.size):
        e_m[m] = 1.0
        grad[m] = fd_directional(fn, balls, e_m, step)
        e_m[m] = 0.0
    return grad


def gauss(bs):
    return evaluate(bs).gauss


def test_fd_gradient_is_the_directional_loop_bit_for_bit():
    data = Path(__file__).parent / "data"
    sets = [parse_diagram(str(data / f"{name}.txt")) for name in ("g08", "g12", "g20")]
    wl = perfbench.WORKLOADS["fdcheck-small"]
    for seed in (1, 2, 3):
        sets.append(parse_diagram_text(gen.make_input(seed, wl.n, wl.weights, wl.bands)[0]))
    for balls in sets:
        assert fd_gradient(gauss, balls).tobytes() == fd_loop(gauss, balls).tobytes()


def fd_errors(balls):
    """The OracleDegenerate messages of fd_gradient and of the loop."""
    messages = []
    for fd in (fd_gradient, fd_loop):
        with pytest.raises(OracleDegenerate) as info:
            fd(gauss, balls)
        messages.append(str(info.value))
    return messages


def test_fd_gradient_degenerate_message_is_the_loops():
    # Ball 0's -x state is within the band of the (0, 1) tangency.
    balls = BallSet([[0, 0, 0], [-2.0 - 1e-5, 0, 0], [0.3, 1.6, 0.2]], [1.0, 1.0, 0.9],
                    [1.0, -0.5, 2.0])
    fast, loop = fd_errors(balls)
    assert fast == loop and "simplex (0, 1)" in fast
    # Its -x state touches ball 1 and its +y state, closer still, ball 2:
    # the first state's tangency is the one to name.
    balls = BallSet([[0, 0, 0], [-2.0 - 1e-5 + 3e-10, 0, 0], [0, 2.0 + 1e-5 + 1e-11, 0]],
                    [1.0, 1.0, 1.0])
    fast, loop = fd_errors(balls)
    assert fast == loop and "simplex (0, 1)" in fast


def test_fd_gradient_objective_returns_one_value_per_state():
    balls = two_balls(d=1.0)
    for fn in (lambda bs: 1.0, lambda bs: np.zeros(5), lambda bs: np.zeros((6, 1))):
        with pytest.raises(ValueError):
            fd_gradient(fn, balls)


def test_fdcheck_builds_once_per_ball(monkeypatch, capsys):
    # One build for the analytic gradient and one per ball for its six
    # displaced states.
    calls = []
    build = pipeline.build_alpha_complex

    def counted(balls, *args, **kwargs):
        calls.append(balls.n)
        return build(balls, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_alpha_complex", counted)
    data = Path(__file__).parent / "data"
    assert main(["fdcheck", "--input", str(data / "g08.txt")]) == 0
    capsys.readouterr()
    assert calls == [8] + [48] * 8
