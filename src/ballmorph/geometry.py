"""Elementary geometry of weighted balls.

Pairwise and triple sphere intersections and signed distances to radical
planes.  ``pair_geometry`` is the one pair kernel (with the normal
projection length lambda_ij and its distance derivative), and
``triple_points`` the one triple kernel: the batched radical-centre solve
that gives the two points where three spheres meet.  All functions are
pure and operate on immutable inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentCenters, DegenerateTriple, DimensionMismatch, \
    NoIntersection

# Single relative geometric tolerance; scaled by the largest radius of the
# ball set wherever a length is compared against it.
EPS_GEO = 1e-9


@dataclass(frozen=True)
class Ball:
    """Closed ball with a real weight."""

    center: np.ndarray
    radius: float
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (3,):
            raise DimensionMismatch("ball center must be a 3-vector")
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")


class BallSet:
    """A fixed collection of balls; the moving state is the stacked centers."""

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

    @property
    def n(self):
        return self.centers.shape[0]

    def __len__(self):
        return self.n

    def ball(self, i):
        return Ball(self.centers[i], float(self.radii[i]), float(self.weights[i]))

    @property
    def scale(self):
        """Length scale used for tolerance comparisons."""
        return float(self.radii.max())

    @property
    def state(self):
        """State vector x in R^{3n}: coordinate 3i+l is coordinate l of x_i."""
        return self.centers.ravel().copy()

    def with_state(self, x):
        """New BallSet with centers replaced by the state vector x."""
        x = np.asarray(x, dtype=float)
        if x.size != 3 * self.n:
            raise DimensionMismatch(f"state must have length {3 * self.n}")
        return BallSet(x.reshape(self.n, 3), self.radii, self.weights)

    def with_weights(self, weights):
        return BallSet(self.centers, self.radii, weights)


def cross3(a, b):
    """Cross product of two 3-vectors, bit-identical to np.cross.

    Three scalar products in Python cost a fraction of np.cross, whose
    general broadcasting setup dominates on single vectors.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def as_momentum(t, n):
    """Validate a momentum and return it with shape (n, 3)."""
    t = np.asarray(t, dtype=float)
    if t.size != 3 * n:
        raise DimensionMismatch(f"momentum must have length {3 * n}, got {t.size}")
    return t.reshape(n, 3)


def power_distance(a, ball):
    """Power of point a with respect to a ball: |a - x_i|^2 - r_i^2."""
    a = np.asarray(a, dtype=float)
    d = a - ball.center
    return float(d @ d) - ball.radius ** 2


@dataclass(frozen=True)
class PairGeometry:
    """Intersection data of two spheres.

    ``u_ij`` points from x_j to x_i.  ``xi_i`` and ``xi_j`` are the signed
    distances of the centers from the radical plane (xi_i + xi_j = d), and
    ``lam`` = xi_i / r_i + xi_j / r_j is the combined projected normal
    length.  The circle fields are meaningful only when ``has_circle`` is
    true.
    """

    i: int
    j: int
    d: float
    u_ij: np.ndarray
    xi_i: float
    xi_j: float
    has_circle: bool
    center: np.ndarray = None        # circle center x_ij on the radical plane
    r_sq: float = None               # signed: r_i^2 - xi_i^2 (negative if no circle)
    r: float = None                  # circle radius r_ij, 0 when tangent
    cos_phi: float = None            # cosine of the normal angle phi_ij
    phi: float = None                # normal angle in (0, pi)
    lam: float = None                # xi_i / r_i + xi_j / r_j
    dlam_dd: float = None            # derivative of lam in the center distance


def pair_geometry(b_i, b_j, i=0, j=1, eps=EPS_GEO):
    """Radical-plane and intersection-circle data for two balls.

    Raises CoincidentCenters when the centers are closer than eps times the
    larger radius.  A missing intersection circle is reported through the
    ``has_circle`` flag, not an error.
    """
    scale = max(b_i.radius, b_j.radius)
    delta = b_i.center - b_j.center
    d = float(np.linalg.norm(delta))
    if d <= eps * scale:
        raise CoincidentCenters(f"balls {i} and {j} have coincident centers (d={d:.3e})")
    u = delta / d
    ri, rj = b_i.radius, b_j.radius
    xi_i = 0.5 * (d + (ri ** 2 - rj ** 2) / d)
    xi_j = d - xi_i
    r_sq = ri ** 2 - xi_i ** 2
    center = b_i.center - xi_i * u
    has_circle = r_sq > (eps * scale) ** 2
    if r_sq > 0:
        r = float(np.sqrt(r_sq))
    else:
        r = 0.0
    cos_phi = (ri ** 2 + rj ** 2 - d ** 2) / (2.0 * ri * rj)
    phi = float(np.arccos(np.clip(cos_phi, -1.0, 1.0))) if has_circle else None
    xi_i, xi_j = float(xi_i), float(xi_j)
    lam = xi_i / ri + xi_j / rj
    dlam = (0.5 / ri + 0.5 / rj) - (0.5 / ri - 0.5 / rj) * (ri ** 2 - rj ** 2) / d ** 2
    return PairGeometry(i=i, j=j, d=d, u_ij=u, xi_i=xi_i, xi_j=xi_j,
                        has_circle=bool(has_circle), center=center, r_sq=float(r_sq),
                        r=r, cos_phi=float(cos_phi), phi=phi, lam=lam, dlam_dd=dlam)


def lambda_pair(b_i, b_j):
    """Pair geometry of two spheres; raises NoIntersection unless they meet
    in a circle."""
    pg = pair_geometry(b_i, b_j)
    if not pg.has_circle:
        raise NoIntersection("spheres do not intersect in a circle")
    return pg


@dataclass(frozen=True)
class TripleGeometry:
    """The two points where three spheres meet.

    ``p_plus`` lies on the positive side of the plane of centers: the triple
    product of (x_j - x_i, x_k - x_i, P - x_i) is positive there.  ``axis``
    is the corresponding unit normal of the plane of centers.
    """

    i: int
    j: int
    k: int
    center: np.ndarray               # x_ijk: radical center in the plane of centers
    half_length: float               # r_ijk: half the distance between the two points
    axis: np.ndarray                 # unit normal of the center plane (orientation rule)
    p_plus: np.ndarray
    p_minus: np.ndarray

    def points(self):
        return self.p_plus, self.p_minus

    @classmethod
    def from_center(cls, key, center, axis, h):
        """The points center +/- h * axis of the triple with indices ``key``."""
        return cls(i=key[0], j=key[1], k=key[2], center=center, half_length=h,
                   axis=axis, p_plus=center + h * axis, p_minus=center - h * axis)


def triple_points(centers, radii, idx, area_eps):
    """Radical centres of the index triples ``idx`` (rows into ``centers``).

    Returns (collinear, center, axis, h_sq): ``collinear`` flags the rows
    whose doubled triangle area |(x_j - x_i) x (x_k - x_i)| is at most
    ``area_eps``; the other three arrays hold, for the remaining rows in
    order, the point of equal power in the plane of the centers, the unit
    normal of that plane and the squared half-distance h^2 from the centre
    to the two points where the spheres meet (negative when they miss).
    """
    xi = centers[idx[:, 0]]
    a1 = centers[idx[:, 1]] - xi
    a2 = centers[idx[:, 2]] - xi
    nrm = np.cross(a1, a2)
    area2 = np.linalg.norm(nrm, axis=1)
    collinear = area2 <= area_eps
    keep = ~collinear
    idx = idx[keep]
    xi, a1, a2, nrm, area2 = xi[keep], a1[keep], a2[keep], nrm[keep], area2[keep]
    axis = nrm / area2[:, None]
    # pi_i(p) = pi_j(p)  <=>  2 <p, x_j - x_i> = |x_j|^2 - r_j^2 - |x_i|^2 + r_i^2,
    # solved within the plane as p = x_i + s a1 + t a2.
    sq = np.einsum("ij,ij->i", centers, centers)
    b1 = 0.5 * (sq[idx[:, 1]] - radii[idx[:, 1]] ** 2
                - sq[idx[:, 0]] + radii[idx[:, 0]] ** 2)
    b2 = 0.5 * (sq[idx[:, 2]] - radii[idx[:, 2]] ** 2
                - sq[idx[:, 0]] + radii[idx[:, 0]] ** 2)
    g11 = np.einsum("ij,ij->i", a1, a1)
    g12 = np.einsum("ij,ij->i", a1, a2)
    g22 = np.einsum("ij,ij->i", a2, a2)
    det = g11 * g22 - g12 ** 2
    r1 = b1 - np.einsum("ij,ij->i", a1, xi)
    r2 = b2 - np.einsum("ij,ij->i", a2, xi)
    s = (g22 * r1 - g12 * r2) / det
    t = (g11 * r2 - g12 * r1) / det
    center = xi + s[:, None] * a1 + t[:, None] * a2
    h_sq = radii[idx[:, 0]] ** 2 - np.einsum("ij,ij->i", center - xi, center - xi)
    return collinear, center, axis, h_sq


def triple_geometry(b_i, b_j, b_k, i=0, j=1, k=2, eps=EPS_GEO):
    """Intersection points of three spheres.

    The points lie on the line through the radical center (the point of
    equal power in the plane of the centers) along the plane normal
    normalize((x_j - x_i) x (x_k - x_i)).  Raises DegenerateTriple when the
    centers are collinear or the spheres meet in fewer than two points
    (within tolerance).
    """
    scale = max(b_i.radius, b_j.radius, b_k.radius)
    collinear, center, axis, h_sq = triple_points(
        np.stack([b_i.center, b_j.center, b_k.center]),
        np.array([b_i.radius, b_j.radius, b_k.radius]), np.array([[0, 1, 2]]),
        (eps * scale) ** 2)
    if collinear[0]:
        raise DegenerateTriple("centers are collinear")
    h_sq = float(h_sq[0])
    if h_sq <= (eps * scale) ** 2:
        raise DegenerateTriple(
            f"spheres {(i, j, k)} do not meet in two points (h^2={h_sq:.3e})")
    return TripleGeometry.from_center((i, j, k), center[0], axis[0], float(np.sqrt(h_sq)))
