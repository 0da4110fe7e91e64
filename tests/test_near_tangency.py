"""Planted near-tangencies: no wrong number in silence.

Every other random test filters its draws to a degeneracy margin above
1e-4.  Here each draw plants one external or internal pair tangency with
a signed gap of 1e-13 to 1e-5 (the spheres just apart or just crossing),
n 3 to 13, unit weights.  A strict build must either raise
DegenerateState or return the Gauss-Bonnet value K = 2 pi chi(surface).
"""

import math

import numpy as np

from ballmorph import BallSet, build_alpha_complex, compute_measures, euler, \
    weighted_gauss
from ballmorph.errors import DegenerateState


def planted_draw(rng):
    n = int(rng.integers(3, 14))
    centers = rng.uniform(0.0, 1.1 * n ** (1.0 / 3.0), size=(n, 3))
    radii = rng.uniform(0.7, 1.3, size=n)
    gap = 10.0 ** rng.uniform(-13.0, -5.0) * rng.choice([-1.0, 1.0])
    i, j = rng.choice(n, size=2, replace=False)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    external = bool(rng.random() < 0.5)
    if external:
        dist = radii[i] + radii[j] + gap
    else:
        radii[j] = radii[i] - rng.uniform(0.1, 0.4)
        dist = radii[i] - radii[j] + gap
    centers[j] = centers[i] + dist * direction
    return BallSet(centers, radii), external


def test_planted_tangency_raises_or_is_exact():
    rng = np.random.default_rng(4)
    outcomes = {}
    worst = 0.0
    for _ in range(600):
        balls, external = planted_draw(rng)
        try:
            cx = build_alpha_complex(balls)
        except DegenerateState:
            outcomes[external, "raised"] = outcomes.get((external, "raised"), 0) + 1
            continue
        gauss = weighted_gauss(balls, cx, compute_measures(balls, cx))[0]
        worst = max(worst, abs(gauss - 2.0 * math.pi * euler(cx).chi_surface))
        outcomes[external, "built"] = outcomes.get((external, "built"), 0) + 1
    assert worst <= 1e-8
    # Both kinds of tangency reach both outcomes, so neither branch is vacuous.
    assert len(outcomes) == 4 and min(outcomes.values()) >= 50, outcomes
