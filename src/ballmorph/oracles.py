"""Independent verification engines.

Central finite differences for every analytic derivative and Monte Carlo
estimators for the boundary measures and the volume.  These deliberately
share no code with the analytic implementations they check: sampling here
is raw point classification, and the FD driver only moves ball centers.
``fd_gradient`` evaluates its objective once per ball, on a stack of the
ball's six displaced states (BallSet.with_states), whose build decides
each state over its own balls and whose sums are taken per state, so each
difference has the bits of one evaluation per state and the fixed cost of
a call is paid n times instead of 6n.

Every Monte Carlo sample is a pure function of (seed, ball, block, index):
each block draws from a Philox stream jumped by a key of its own, so any
chunking of the work reproduces the identical estimate.  A sample of ball
i is classified against the balls that overlap B_i only (centre distance
below r_i + r_m + tol).  A ball m farther away has power above 2 r_m tol
everywhere in B_i, while a point of B_i has power at most 0 for i up to
rounding (about 1e-16 |x| r_i, far below 2 r_m tol unless the coordinates
are ~1e6 times the radii), so no comparison with m can change outcome.
The overlapping balls are taken one at a time, so the working set is a few
block-sized vectors whatever their number.  Both estimators are one block
loop, ``_fraction``, with their own draw and hit test.
"""

import math
import numpy as np

from .errors import DegenerateState, OracleDegenerate
from .geometry import EPS_GEO, as_momentum

_MC_BLOCK = 1 << 16
FOUR_PI = 4.0 * math.pi


def fd_directional(fn, balls, t, step=1e-5):
    """Central difference of fn along momentum t: (f(x+ht) - f(x-ht)) / 2h
    with h = ``step``."""
    _check_step(step)
    t = as_momentum(t, balls.n)
    x = balls.state
    f_plus = _probe(fn, balls.with_state(x + step * t.ravel()))
    f_minus = _probe(fn, balls.with_state(x - step * t.ravel()))
    return (f_plus - f_minus) / (2.0 * step)


def fd_gradient(fn, balls, step=1e-5):
    """Central differences of fn along each of the 3n unit momenta.

    ``fn`` takes a stack of states (BallSet.with_states) and returns one
    value per state.  It is called once per ball, on the stack of the
    ball's six displaced states, +x, -x, +y, -y, +z and -z, so one build
    serves six differences.  Each value is the bits of fd_directional along
    the unit momentum, and a stack with a degenerate state raises the
    OracleDegenerate of its first one, in its own indices.
    """
    _check_step(step)
    x = balls.state
    grad = np.zeros(3 * balls.n)
    e_m = np.zeros_like(grad)
    for b in range(balls.n):
        xs = []
        for m in range(3 * b, 3 * b + 3):
            e_m[m] = 1.0
            xs += [x + step * e_m, x - step * e_m]
            e_m[m] = 0.0
        values = np.asarray(_probe(fn, balls.with_states(xs)), dtype=float)
        if values.shape != (6,):
            raise ValueError("the objective must return one value per state of the stack, "
                             f"6, not an array of shape {values.shape}")
        grad[3 * b:3 * b + 3] = (values[0::2] - values[1::2]) / (2.0 * step)
    return grad


def _check_step(step):
    if not step > 0:
        raise ValueError("finite-difference step must be positive")


def _probe(fn, balls):
    """fn at one probe state; a DegenerateState there is OracleDegenerate."""
    try:
        return fn(balls)
    except DegenerateState as exc:
        raise OracleDegenerate(
            f"finite-difference probe crossed a degenerate state: {exc}") from exc


def _fraction(samples, draw, hit):
    """The fraction of ``samples`` points that ``hit`` accepts, and its
    standard error; ``draw(block, count)`` gives block ``block``'s points."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hits = 0
    for block, done in enumerate(range(0, samples, _MC_BLOCK)):
        hits += int(np.count_nonzero(hit(draw(block, min(_MC_BLOCK, samples - done)))))
    p_hat = hits / samples
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / samples)


def mc_boundary_integrals(balls, samples, seed):
    """Monte Carlo exposure fractions of every sphere.

    Returns (areas, sigmas, std_errors): uniform points on each sphere are
    classified against the other balls.
    """
    areas = np.zeros(balls.n)
    sigmas = np.zeros(balls.n)
    errors = np.zeros(balls.n)
    for i in range(balls.n):
        near = _overlapping(balls, i)
        centers, radii2 = balls.centers[near], balls.radii[near] ** 2

        def draw(block, count):
            pts = _unit_directions(seed, (i + 1) * (1 << 22) + block, count)
            pts *= balls.radii[i]
            pts += balls.centers[i]
            return pts

        def exposed(pts):
            free = np.ones(len(pts), dtype=bool)
            d = np.empty_like(pts)
            for m in range(len(near)):
                free &= _power(pts, centers[m], radii2[m], d) >= 0.0
            return free

        sigmas[i], errors[i] = _fraction(samples, draw, exposed)
        areas[i] = FOUR_PI * balls.radii[i] ** 2 * sigmas[i]
    return areas, sigmas, errors


def nu_i_mc(balls, i, samples, seed):
    """Monte Carlo estimate of the Voronoi volume fraction of ball i.

    Uniform samples in the ball are tested for power minimality.
    """
    cols = np.concatenate(([i], _overlapping(balls, i)))
    centers, radii2 = balls.centers[cols], balls.radii[cols] ** 2

    def minimal(pts):
        d = np.empty_like(pts)
        own = _power(pts, centers[0], radii2[0], d)
        best = np.full(len(pts), np.inf)
        for m in range(1, len(cols)):
            np.minimum(best, _power(pts, centers[m], radii2[m], d), out=best)
        return own <= best

    return _fraction(samples, lambda block, count: _ball_block(balls, i, seed, block, count),
                     minimal)


def mc_weighted_volume(balls, samples, seed):
    """Monte Carlo estimate of the weighted volume sum_i w_i vol(B_i cap V_i)
    and its standard error, from nu_i_mc at ``samples`` points per ball."""
    est = 0.0
    var = 0.0
    for i in range(balls.n):
        nu, se = nu_i_mc(balls, i, samples, seed)
        coef = (FOUR_PI / 3.0) * balls.weights[i] * balls.radii[i] ** 3
        est += coef * nu
        var += (coef * se) ** 2
    return est, math.sqrt(var)


def _overlapping(balls, i):
    """Indices of the balls other than i whose centres lie within
    r_i + r_m + tol of x_i."""
    dist = np.linalg.norm(balls.centers - balls.centers[i], axis=1)
    near = dist < balls.radii[i] + balls.radii + EPS_GEO * balls.scale
    near[i] = False
    return np.nonzero(near)[0]


def _unit_directions(seed, jump, count):
    """``count`` uniform unit vectors from the Philox stream of ``seed``
    jumped ``jump`` times."""
    from numpy.random import Generator, Philox   # loaded only when sampling
    v = Generator(Philox(key=np.uint64(seed)).jumped(jump)).normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v


def _ball_block(balls, i, seed, block_idx, count):
    # Separate substreams for directions and radii keep every sample a pure
    # function of (seed, ball, block, index), whatever the block is cut to.
    from numpy.random import Generator, Philox
    base = 2 * (i * (1 << 20) + block_idx)
    v = _unit_directions(seed, base, count)
    # x_i + r_i (u^(1/3) v), formed in place to spare block-sized temporaries.
    u = Generator(Philox(key=np.uint64(seed)).jumped(base + 1)).random(count)
    np.power(u, 1.0 / 3.0, out=u)
    v *= u[:, None]
    v *= balls.radii[i]
    v += balls.centers[i]
    return v


def _power(pts, center, radius2, d):
    """Power of every point w.r.t. one ball; d is scratch of pts' shape."""
    np.subtract(pts, center, out=d)
    return np.einsum("pj,pj->p", d, d) - radius2
