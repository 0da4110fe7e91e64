"""Shared helpers: random generic configurations and small oracles."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ballmorph import BallSet
from ballmorph.complexes import build_alpha_complex
from ballmorph.errors import DegenerateState

# perfbench/ holds the benchmark's input generator (gen.py) and output
# checks (run.py); tests import both as they are.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


def make_config(rng, n, weights="random", require_triangle=True, margin=1e-4,
                spread=None):
    """Random ball set in general position, with its alpha complex.

    Rejection-samples until the construction succeeds, the degeneracy
    margin is met, and (optionally) at least one boundary triangle exists.
    """
    spread = spread if spread is not None else 1.1 * n ** (1.0 / 3.0)
    while True:
        centers = rng.uniform(0.0, spread, size=(n, 3))
        radii = rng.uniform(0.7, 1.3, size=n)
        if weights == "random":
            w = rng.uniform(-2.0, 2.0, size=n)
        else:
            w = np.full(n, float(weights) if weights != "ones" else 1.0)
        balls = BallSet(centers, radii, w)
        try:
            cx = build_alpha_complex(balls)
        except DegenerateState:
            continue
        if require_triangle and not cx.boundary_triangles():
            continue
        if margin is not None and cx.condition2_margin <= margin:
            continue
        return balls, cx


def octant_balls(weights=(1.0, 1.0, 1.0)):
    """Three unit balls whose corners sit at the origin and (2,2,2)/3."""
    return BallSet([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], [1.0, 1.0, 1.0],
                   list(weights))


def two_balls(d=1.0, r0=1.0, r1=1.0, w0=1.0, w1=1.0):
    return BallSet([[0.0, 0, 0], [d, 0, 0]], [r0, r1], [w0, w1])


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_triangle_params(rng, size=None):
    """Squared half-side cosines of spherical triangles from random vertices."""
    shape = (3, 3) if size is None else (size, 3, 3)
    v = rng.normal(size=shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    cos_ij = np.einsum("...j,...j->...", v[..., 0, :], v[..., 1, :])
    cos_jk = np.einsum("...j,...j->...", v[..., 1, :], v[..., 2, :])
    cos_ki = np.einsum("...j,...j->...", v[..., 2, :], v[..., 0, :])
    a = 0.5 * (1.0 + cos_ij)
    b = 0.5 * (1.0 + cos_jk)
    c = 0.5 * (1.0 + cos_ki)
    if size is None:
        return float(a), float(b), float(c), v
    return a, b, c, v


def spherical_triangle_excess(p, q, r):
    """Area of a spherical triangle from its vertex angles (Girard)."""
    def angle_at(a, b, c):
        u = b - a * (a @ b)
        w = c - a * (a @ c)
        return float(np.arccos(np.clip((u @ w) / (np.linalg.norm(u) * np.linalg.norm(w)),
                                       -1.0, 1.0)))
    return angle_at(p, q, r) + angle_at(q, r, p) + angle_at(r, p, q) - np.pi


def rigid_generators(balls):
    """Three translations and three rotations about the centroid."""
    n = balls.n
    cen = balls.centers.mean(axis=0)
    gens = []
    for ax in range(3):
        t = np.zeros((n, 3))
        t[:, ax] = 1.0
        gens.append(t)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = 1.0
        gens.append(np.cross(balls.centers - cen, e))
    return gens


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
