"""Stacks of states: one build and one evaluation over several states.

``BallSet.with_states`` stacks the states of one ball set; the build
decides each state over its own balls, V, A, M and K are one value per
state, and the gradient terms d, e, f and h one block of n rows per state.
Each value must be the bits of that state's own evaluation, and a
stack that holds degenerate states must raise what its first such state
raises alone, in that state's own indices.
"""

import numpy as np
import pytest

import gen
import run as perfbench
from ballmorph import BallSet, build_alpha_complex, evaluate
from ballmorph.errors import CoincidentCenters, DegenerateState
from ballmorph.serial import parse_diagram_text
from conftest import make_config
from test_near_tangency import planted_draw

FIELDS = ("volume", "area", "mean", "gauss")


def fd_states(balls, b, step=1e-5):
    """The six displaced states of ball b, +x, -x, +y, -y, +z and -z."""
    x = balls.state
    xs = []
    for m in range(3 * b, 3 * b + 3):
        e = np.zeros_like(x)
        e[m] = 1.0
        xs += [x + step * e, x - step * e]
    return np.array(xs)


def alone(balls, x):
    """The volumes of the state x evaluated alone, or its DegenerateState."""
    try:
        return evaluate(balls.with_state(x)).volumes
    except DegenerateState as exc:
        return exc


def assert_stack_matches(balls, xs):
    """evaluate of the stack against each state alone; returns how many of
    the states raised alone."""
    singles = [alone(balls, x) for x in xs]
    raised = [s for s in singles if isinstance(s, DegenerateState)]
    if raised:
        with pytest.raises(DegenerateState) as info:
            evaluate(balls.with_states(xs)).volumes
        want = raised[0]
        assert (str(info.value), info.value.simplex, info.value.residual) == (
            str(want), want.simplex, want.residual)
        return len(raised)
    vols = evaluate(balls.with_states(xs)).volumes
    for field in FIELDS:
        got = getattr(vols, field)
        assert got.shape == (len(xs),)
        want = np.array([getattr(single, field) for single in singles])
        assert got.tobytes() == want.tobytes(), field
    return 0


def test_stack_layout():
    balls = BallSet([[0, 0, 0], [1.5, 0, 0]], [1.0, 0.8], [2.0, -1.0])
    xs = fd_states(balls, 1)
    stack = balls.with_states(xs)
    assert (stack.n, stack.size, stack.stacked) == (12, 2, True)
    assert stack.centers.tobytes() == xs.reshape(12, 3).tobytes()
    assert stack.radii.tolist() == [1.0, 0.8] * 6 and stack.weights.tolist() == [2.0, -1.0] * 6
    weighted = stack.with_weights(np.ones(12))
    assert (weighted.size, weighted.stacked) == (2, True)
    assert (balls.size, balls.stacked) == (2, False)


def test_stack_volumes_are_each_states_bits(rng):
    for n in (3, 4, 6, 9, 13, 20, 30):
        balls, _ = make_config(rng, n)
        b = int(rng.integers(n))
        assert assert_stack_matches(balls, fd_states(balls, b)) == 0
        # States far apart from each other, each a draw of its own.
        xs = [balls.state + rng.normal(scale=0.05, size=3 * n) for _ in range(4)]
        assert_stack_matches(balls, np.array(xs))


def test_stack_volumes_on_perfbench_inputs():
    for name in ("fdcheck-small", "compute-volume", "grad-large"):
        wl = perfbench.WORKLOADS[name]
        for seed in (1, 2, 3):
            text, _, _ = gen.make_input(seed, wl.n, wl.weights, wl.bands)
            balls = parse_diagram_text(text)
            assert assert_stack_matches(balls, fd_states(balls, seed)) == 0


def assert_stack_gradient_matches(balls, xs):
    """Each state's rows of the stack's gradient terms d, e, f and h are the
    bits of that state's own evaluation."""
    grad = evaluate(balls.with_states(xs)).gradient
    for s, x in enumerate(xs):
        single = evaluate(balls.with_state(x)).gradient
        for term in "defh":
            got = getattr(grad, term).reshape(len(xs), balls.n, 3)[s]
            assert got.tobytes() == getattr(single, term).tobytes(), (s, term)


def test_stack_gradient_is_each_states_bits(rng):
    # The draws of the volume tests above, and the benchmark's inputs.
    for n in (3, 4, 6, 9, 13, 20, 30):
        balls, _ = make_config(rng, n)
        b = int(rng.integers(n))
        assert_stack_gradient_matches(balls, fd_states(balls, b))
        xs = [balls.state + rng.normal(scale=0.05, size=3 * n) for _ in range(4)]
        assert_stack_gradient_matches(balls, np.array(xs))
    for name in ("fdcheck-small", "compute-volume", "grad-large"):
        wl = perfbench.WORKLOADS[name]
        for seed in (1, 2, 3):
            text, _, _ = gen.make_input(seed, wl.n, wl.weights, wl.bands)
            balls = parse_diagram_text(text)
            assert_stack_gradient_matches(balls, fd_states(balls, seed))


def test_stack_of_planted_tangencies_raises_as_its_first_state():
    # Each planted draw with four nearby states: some cross the tangency or
    # sit inside its band and raise alone, some do not.
    rng = np.random.default_rng(4)
    raised = stacks = 0
    for _ in range(600):
        balls, _ = planted_draw(rng)
        x = balls.state
        xs = [x] + [x + rng.normal(size=x.size) * 10.0 ** rng.uniform(-13.0, -5.0)
                    for _ in range(4)]
        count = assert_stack_matches(balls, np.array(xs))
        raised += count
        stacks += 0 < count < len(xs)
    assert raised > 300 and stacks > 50


def test_stack_refusal_names_the_first_degenerate_state():
    # State 1 is within the band of the (0, 1) tangency, state 2 closer to
    # the (0, 2) one; the least residual of the whole stack is state 2's.
    balls = BallSet([[0, 0, 0], [-2.5, 0, 0], [0, 2.5, 0]], [1.0, 1.0, 1.0])
    x = balls.state
    xs = np.array([x, x.copy(), x.copy()])
    xs[1, 3] = -2.0 - 3e-10
    xs[2, 7] = 2.0 + 1e-11
    with pytest.raises(DegenerateState) as info:
        build_alpha_complex(balls.with_states(xs))
    assert info.value.simplex == (0, 1) and info.value.residual == pytest.approx(3e-10)
    assert_stack_matches(balls, xs)


def test_stack_of_a_thousand_states_is_each_states_bits():
    # Steps of 0.2 change which balls meet and which spheres cross from
    # state to state.  A state that raises alone is left out: the stack
    # would raise as that state does (tested above).
    rng = np.random.default_rng(32)
    balls, _ = make_config(rng, 8)
    xs, singles = [], []
    while len(xs) < 1000:
        x = balls.state + rng.normal(scale=0.2, size=3 * balls.n)
        try:
            single = evaluate(balls.with_state(x))
            single.volumes
        except (DegenerateState, CoincidentCenters):
            continue
        xs.append(x)
        singles.append(single)
    stack = evaluate(balls.with_states(xs))
    cx = stack.cx
    for mask in (cx._meet, cx._circle):
        assert len({state.tobytes() for state in mask.reshape(len(xs), -1)}) > 100
    for field in FIELDS:
        want = np.array([getattr(single.volumes, field) for single in singles])
        assert getattr(stack.volumes, field).tobytes() == want.tobytes(), field
    state = cx.tet_keys[:, 0] // balls.n
    for s, single in enumerate(singles):
        assert cx.tet_keys[state == s].tobytes() == (single.cx.tet_keys + s * balls.n).tobytes()


def test_stack_of_55200_balls():
    # 13,800 states of a four-ball tetrahedron: 55,200 balls, past the
    # 55,108 whose fourth power, a key code of four indices, fits int64.
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    balls = BallSet(corners, [1.1, 1.0, 1.2, 0.9], [1.0, -0.5, 2.0, 0.3])
    single = evaluate(balls)
    assert single.cx.tet_keys.tolist() == [[0, 1, 2, 3]]
    stack = evaluate(balls.with_states(np.tile(balls.state, (13800, 1))))
    assert stack.cx.tet_keys.tolist() == (4 * np.arange(13800)[:, None] + np.arange(4)).tolist()
    assert stack.volumes.gauss.tobytes() == np.full(13800, single.volumes.gauss).tobytes()


def test_stack_coincident_centers_name_local_indices():
    balls = BallSet([[0, 0, 0], [1.5, 0, 0], [0, 1.5, 0], [1.5, 1.5, 0]], np.ones(4))
    x = balls.state
    bad = x.copy()
    bad[9:] = bad[3:6]          # ball 3 onto ball 1
    with pytest.raises(CoincidentCenters) as single:
        build_alpha_complex(balls.with_state(bad))
    with pytest.raises(CoincidentCenters) as stacked:
        build_alpha_complex(balls.with_states([x, x, bad, bad]))
    assert str(stacked.value) == str(single.value) == \
        "balls 1 and 3 have coincident centers"
