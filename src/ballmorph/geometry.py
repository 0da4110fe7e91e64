"""Elementary geometry of weighted balls.

Pairwise and triple sphere intersections, signed distances to radical
planes, and the unit vectors used throughout the gradient assembly.  All
functions are pure and operate on immutable inputs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentCenters, DegenerateTriple, DimensionMismatch

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
    distances of the centers from the radical plane (xi_i + xi_j = d).  The
    circle fields are meaningful only when ``has_circle`` is true.
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

    @property
    def u_ji(self):
        return -self.u_ij


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
    return PairGeometry(i=i, j=j, d=d, u_ij=u, xi_i=float(xi_i), xi_j=float(xi_j),
                        has_circle=bool(has_circle), center=center, r_sq=float(r_sq),
                        r=r, cos_phi=float(cos_phi), phi=phi)


@dataclass(frozen=True)
class TripleGeometry:
    """The two points where three spheres meet, with their normal frames.

    ``p_plus`` lies on the positive side of the plane of centers: the triple
    product of (x_j - x_i, x_k - x_i, P - x_i) is positive there.  ``axis``
    is the corresponding unit normal of the plane of centers, and ``u_ijk``
    the in-plane unit vector normal to u_ij with positive component toward
    u_ik.
    """

    i: int
    j: int
    k: int
    center: np.ndarray               # x_ijk: radical center in the plane of centers
    half_length: float               # r_ijk: half the distance between the two points
    axis: np.ndarray                 # unit normal of the center plane (orientation rule)
    p_plus: np.ndarray
    p_minus: np.ndarray
    normals_plus: tuple = field(default=None)   # (n_i, n_j, n_k) at p_plus
    normals_minus: tuple = field(default=None)

    def points(self):
        return self.p_plus, self.p_minus

    @classmethod
    def from_center(cls, balls, key, center, axis, h):
        """The points center +/- h * axis shared by the three ``balls``,
        whose indices are ``key``, with the outward normals there."""
        p_plus = center + h * axis
        p_minus = center - h * axis
        return cls(i=key[0], j=key[1], k=key[2], center=center, half_length=h,
                   axis=axis, p_plus=p_plus, p_minus=p_minus,
                   normals_plus=tuple((p_plus - b.center) / b.radius for b in balls),
                   normals_minus=tuple((p_minus - b.center) / b.radius for b in balls))


def triple_geometry(b_i, b_j, b_k, i=0, j=1, k=2, eps=EPS_GEO):
    """Intersection points of three spheres with outward normals.

    The points lie on the line through the radical center (the point of
    equal power in the plane of the centers) along the plane normal
    normalize((x_j - x_i) x (x_k - x_i)).  Raises DegenerateTriple when the
    centers are collinear or the spheres meet in fewer than two points
    (within tolerance).
    """
    xi, xj, xk = b_i.center, b_j.center, b_k.center
    a1 = xj - xi
    a2 = xk - xi
    nrm = cross3(a1, a2)
    area2 = np.linalg.norm(nrm)
    scale = max(b_i.radius, b_j.radius, b_k.radius)
    if area2 <= (eps * scale) ** 2:
        raise DegenerateTriple("centers are collinear")
    axis = nrm / area2
    # pi_i(p) = pi_j(p)  <=>  2 <p, xj - xi> = |xj|^2 - rj^2 - |xi|^2 + ri^2
    b1 = 0.5 * (xj @ xj - b_j.radius ** 2 - xi @ xi + b_i.radius ** 2)
    b2 = 0.5 * (xk @ xk - b_k.radius ** 2 - xi @ xi + b_i.radius ** 2)
    # Solve within the plane: p = xi + s*a1 + t*a2.
    g = np.array([[a1 @ a1, a1 @ a2], [a1 @ a2, a2 @ a2]])
    s, t = np.linalg.solve(g, np.array([b1 - a1 @ xi, b2 - a2 @ xi]))
    center = xi + s * a1 + t * a2
    h_sq = b_i.radius ** 2 - float(np.dot(center - xi, center - xi))
    if h_sq <= (eps * scale) ** 2:
        raise DegenerateTriple(
            f"spheres {(i, j, k)} do not meet in two points (h^2={h_sq:.3e})")
    return TripleGeometry.from_center((b_i, b_j, b_k), (i, j, k), center, axis,
                                      float(np.sqrt(h_sq)))


def u_edge(balls, i, j):
    """Unit vector from x_j to x_i."""
    delta = balls.centers[i] - balls.centers[j]
    return delta / np.linalg.norm(delta)

