"""Elementary geometry of weighted balls.

Pairwise and triple sphere intersections and signed distances to radical
planes.  ``pair_table`` is the one pair kernel: one batched pass over many
pairs, with the normal projection length lambda_ij and its distance
derivative.  ``triple_points`` is the one triple kernel and the
program's one radical-centre solve, relative to each triple's first
centre; it gives the two points where three spheres meet.  All functions
are pure and operate on immutable inputs, and they square and sum with
numpy's array operations, never Python's float ``**`` or ``sum``.
"""

from typing import NamedTuple

import numpy as np

from .errors import CoincidentCenters, DimensionMismatch

# Single relative geometric tolerance; scaled by the largest radius of the
# ball set wherever a length is compared against it.
EPS_GEO = 1e-9


class BallSet:
    """A fixed collection of balls; the moving state is the stacked centers.

    ``with_states`` makes a stack: the balls of several states of one set,
    state after state, ``size`` balls each (``size`` is n for a plain set,
    a stack of one state).  A build of a stack decides each state over its
    own balls only, and its V, A, M and K are one value per state, each the
    bits of that state's own evaluation.
    """

    def __init__(self, centers, radii, weights=None):
        self.centers = np.array(centers, dtype=float)
        self.radii = np.array(radii, dtype=float)
        if self.centers.ndim != 2 or self.centers.shape[1] != 3:
            raise DimensionMismatch("centers must have shape (n, 3)")
        n = self.centers.shape[0]
        if self.radii.shape != (n,):
            raise DimensionMismatch("radii must have shape (n,)")
        if np.any(self.radii <= 0):
            raise ValueError("all radii must be positive")
        if weights is None:
            weights = np.ones(n)
        self.weights = np.array(weights, dtype=float)
        if self.weights.shape != (n,):
            raise DimensionMismatch("weights must have shape (n,)")
        if not (np.all(np.isfinite(self.centers)) and np.all(np.isfinite(self.radii))
                and np.all(np.isfinite(self.weights))):
            raise ValueError("centers, radii and weights must be finite")
        self.size = n            # balls per state

    @property
    def n(self):
        return self.centers.shape[0]

    @property
    def stacked(self):
        """Whether the set is a stack of more than one state."""
        return self.n > self.size

    def __len__(self):
        return self.n

    @property
    def scale(self):
        """Length scale used for tolerance comparisons."""
        return float(self.radii.max())

    @property
    def state(self):
        """State vector x in R^{3n}: coordinate 3i+l is coordinate l of x_i."""
        return self.centers.ravel().copy()

    def with_state(self, x):
        """New BallSet with centers replaced by the state vector x; a stack
        stays a stack."""
        x = np.asarray(x, dtype=float)
        if x.size != 3 * self.n:
            raise DimensionMismatch(f"state must have length {3 * self.n}")
        return self._stacked_like(BallSet(x.reshape(self.n, 3), self.radii, self.weights))

    def with_weights(self, weights):
        return self._stacked_like(BallSet(self.centers, self.radii, weights))

    def with_states(self, xs):
        """The stack of the states ``xs``, each a state vector of one state
        of this set (length 3 * size), in order."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 3 * self.size:
            raise DimensionMismatch(f"states must have shape (k, {3 * self.size})")
        k = xs.shape[0]
        stack = BallSet(xs.reshape(k * self.size, 3), np.tile(self.radii[:self.size], k),
                        np.tile(self.weights[:self.size], k))
        stack.size = self.size
        return stack

    def _stacked_like(self, balls):
        balls.size = self.size
        return balls


def cross_rows(a, b):
    """Cross products of the rows of two (k, 3) arrays, bit-identical to
    np.cross, whose axis handling costs more than the products on the short
    stacks the build passes."""
    out = np.empty(a.shape)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def as_momentum(t, n):
    """Validate a momentum and return it with shape (n, 3)."""
    t = np.asarray(t, dtype=float)
    if t.size != 3 * n:
        raise DimensionMismatch(f"momentum must have length {3 * n}, got {t.size}")
    return t.reshape(n, 3)


class PairTable(NamedTuple):
    """Intersection data of sphere pairs, one array row per pair.

    ``u_ij`` points from x_j to x_i.  ``xi_i`` and ``xi_j`` are the signed
    distances of the centers from the radical plane (xi_i + xi_j = d), and
    ``lam`` = xi_i / r_i + xi_j / r_j is the combined projected normal
    length.  The circle fields are meaningful only where ``has_circle``.
    """

    d: np.ndarray
    u_ij: np.ndarray                 # (k, 3)
    xi_i: np.ndarray
    xi_j: np.ndarray
    has_circle: np.ndarray
    center: np.ndarray               # (k, 3): circle center x_ij on the radical plane
    r_sq: np.ndarray                 # signed: r_i^2 - xi_i^2 (negative if no circle)
    r: np.ndarray                    # circle radius r_ij, 0 when tangent
    cos_phi: np.ndarray              # cosine of the normal angle phi_ij
    phi: np.ndarray                  # normal angle in (0, pi)
    lam: np.ndarray                  # xi_i / r_i + xi_j / r_j
    dlam_dd: np.ndarray              # derivative of lam in the center distance

    def take(self, rows):
        """The PairTable of the given rows, in their order."""
        return self._make(column[rows] for column in self)


def row_dots(a, b):
    """Dot products of the 3-vectors along the last axes of a and b.

    The stacked product is BLAS's dot per row, so each value is rounded
    exactly as a @ b of two single vectors (and np.linalg.norm) rounds it;
    einsum and sum reductions add the products in another order.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(v):
    """Euclidean norms of the 3-vectors along the last axis of v, each
    rounded as np.linalg.norm rounds a single vector."""
    return np.sqrt(row_dots(v, v))


def pair_table(centers, radii, idx):
    """Radical-plane and intersection-circle data of the index pairs ``idx``
    (rows into ``centers``), as a PairTable in the order of ``idx``.

    Raises CoincidentCenters when the centers of a pair are closer than
    EPS_GEO times its larger radius.  A missing intersection circle is
    reported through ``has_circle``, not an error.
    """
    ri, rj = radii[idx[:, 0]], radii[idx[:, 1]]
    scale = np.maximum(ri, rj)
    delta = centers[idx[:, 0]] - centers[idx[:, 1]]
    d = row_norms(delta)
    close = d <= EPS_GEO * scale
    if close.any():
        k = int(np.argmax(close))
        raise CoincidentCenters(f"balls {idx[k, 0]} and {idx[k, 1]} have coincident "
                                f"centers (d={d[k]:.3e})")
    u = delta / d[:, None]
    r2 = np.square(radii)
    ri2, rj2, d2 = r2[idx[:, 0]], r2[idx[:, 1]], np.square(d)
    xi_i = 0.5 * (d + (ri2 - rj2) / d)
    xi_j = d - xi_i
    r_sq = ri2 - np.square(xi_i)
    cos_phi = (ri2 + rj2 - d2) / (2.0 * ri * rj)
    return PairTable(
        d=d, u_ij=u, xi_i=xi_i, xi_j=xi_j,
        has_circle=r_sq > np.square(EPS_GEO * scale),
        center=centers[idx[:, 0]] - xi_i[:, None] * u,
        r_sq=r_sq, r=np.sqrt(np.where(r_sq > 0.0, r_sq, 0.0)), cos_phi=cos_phi,
        phi=np.arccos(np.clip(cos_phi, -1.0, 1.0)),
        lam=xi_i / ri + xi_j / rj,
        dlam_dd=(0.5 / ri + 0.5 / rj) - (0.5 / ri - 0.5 / rj) * (ri2 - rj2) / d2)


def triple_points(centers, radii, idx, eps):
    """Radical centres of the index triples ``idx`` (rows into ``centers``).

    Returns (collinear, center, axis, h_sq): ``collinear`` flags the rows
    whose sine of the angle at x_i, |a1 x a2| / (|a1| |a2|) with a1 =
    x_j - x_i and a2 = x_k - x_i, is at most the dimensionless ``eps``
    (rounding passes any bound on the area itself); the other three arrays
    hold, for the remaining rows in order, the point x_i + y of equal power
    in the plane of the centers, with y solved from a1 and a2 alone, the
    unit normal of that plane and h^2 = r_i^2 - |y|^2, the squared
    half-distance to the two points where the spheres meet (< 0: they miss).
    """
    xi = centers[idx[:, 0]]
    a1 = centers[idx[:, 1]] - xi
    a2 = centers[idx[:, 2]] - xi
    nrm = cross_rows(a1, a2)
    area2 = np.linalg.norm(nrm, axis=1)
    collinear = area2 <= eps * row_norms(a1) * row_norms(a2)
    keep = ~collinear
    idx = idx[keep]
    xi, a1, a2, nrm, area2 = xi[keep], a1[keep], a2[keep], nrm[keep], area2[keep]
    axis = nrm / area2[:, None]
    # pi_i(x_i + y) = pi_l(x_i + y)  <=>  <y, a_l> = b_l = (|a_l|^2 - r_l^2 + r_i^2) / 2,
    # solved within the plane as y = s a1 + t a2.
    g11, g12, g22 = (np.einsum("ij,ij->i", u, v) for u, v in ((a1, a1), (a1, a2), (a2, a2)))
    ri2 = radii[idx[:, 0]] ** 2
    b1 = 0.5 * (g11 - radii[idx[:, 1]] ** 2 + ri2)
    b2 = 0.5 * (g22 - radii[idx[:, 2]] ** 2 + ri2)
    det = g11 * g22 - g12 ** 2
    s = (g22 * b1 - g12 * b2) / det
    t = (g11 * b2 - g12 * b1) / det
    y = s[:, None] * a1 + t[:, None] * a2
    return collinear, xi + y, axis, ri2 - np.einsum("ij,ij->i", y, y)
