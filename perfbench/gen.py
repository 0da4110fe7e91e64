"""Seeded input generator for the benchmark.

Uses numpy only and imports nothing from ``ballmorph``, so a given seed
yields byte-identical diagram files whatever commit of the library is
under test.  Configurations are rejection-sampled until the three
general-position margins computed here clear ``MARGIN``:

* the pair tangency gap  min(|d - (r_i + r_j)|, |d - |r_i - r_j||),
* the triple-corner discriminant h^2 (divided by the largest radius),
* the gap from each triple corner to every fourth sphere.

These are the Condition II residuals that ``general_position_check``
reports, recomputed here so that no generated input sits near a tangency.
Draws are also held to bands on their circle-pair, circle-triple and
buried-centre counts (``make_input``), and ``plant_tangencies`` adds the
exposed near-tangencies of the degeneracy workload.
"""

import math
from collections import namedtuple

import numpy as np

MARGIN = 1e-4
# Near-tangency left between a planted pair: inside the default
# ``ballmorph degeneracy --tol`` of 1e-6, yet clearly non-overlapping.
PLANT_GAP = 1e-8
# Clearance of a planted touching point from every other sphere.
PLANT_CLEARANCE = 0.05

Bands = namedtuple("Bands", "pairs triples buried")


def random_balls(rng, n):
    """Centers, radii at the density of the test suite's random configs."""
    spread = 1.1 * n ** (1.0 / 3.0)
    centers = rng.uniform(0.0, spread, size=(n, 3))
    radii = rng.uniform(0.7, 1.3, size=n)
    return centers, radii


def circle_graph(centers, radii):
    """Distances and the mask of pairs whose spheres meet in a circle."""
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    r_sum = radii[:, None] + radii[None, :]
    r_dif = np.abs(radii[:, None] - radii[None, :])
    circle = (r_dif < dist) & (dist < r_sum)
    np.fill_diagonal(circle, False)
    return dist, circle


def cliques(circle):
    """Pairs, triples and quads of balls that pairwise meet in circles."""
    n = circle.shape[0]
    pairs = [(i, j) for i, j in zip(*np.nonzero(np.triu(circle, 1)))]
    nbrs = [set(np.nonzero(circle[i])[0]) for i in range(n)]
    triples = [(i, j, k) for i, j in pairs
               for k in sorted(nbrs[i] & nbrs[j]) if k > j]
    quads = [(i, j, k, m) for i, j, k in triples
             for m in sorted(nbrs[i] & nbrs[j] & nbrs[k]) if m > k]
    return pairs, triples, quads


def generic_margin(centers, radii, skip_pairs=()):
    """Smallest Condition II residual over pairs, triples and corners.

    ``skip_pairs`` are planted tangencies left out of the pair test.
    Collinear circle triples count as zero margin.
    """
    n = centers.shape[0]
    scale = float(radii.max())
    dist, circle = circle_graph(centers, radii)
    iu, ju = np.triu_indices(n, k=1)
    r_sum = radii[:, None] + radii[None, :]
    r_dif = np.abs(radii[:, None] - radii[None, :])
    gap = np.minimum(np.abs(dist - r_sum), np.abs(dist - r_dif))
    keep = np.ones(iu.size, dtype=bool)
    for i, j in skip_pairs:
        keep &= ~((iu == min(i, j)) & (ju == max(i, j)))
    margin = float(gap[iu[keep], ju[keep]].min()) if keep.any() else math.inf

    _, triples, _ = cliques(circle)
    if not triples:
        return margin
    tri = np.array(triples)
    xi = centers[tri[:, 0]]
    u = centers[tri[:, 1]] - xi
    v = centers[tri[:, 2]] - xi
    ri2 = radii[tri[:, 0]] ** 2
    uu = np.einsum("ij,ij->i", u, u)
    uv = np.einsum("ij,ij->i", u, v)
    vv = np.einsum("ij,ij->i", v, v)
    det = uu * vv - uv ** 2
    if np.any(det <= 1e-12 * uu * vv):
        return 0.0
    # Radical center z = x_i + a u + b v in the plane of the three centers.
    bu = 0.5 * (uu - radii[tri[:, 1]] ** 2 + ri2)
    bv = 0.5 * (vv - radii[tri[:, 2]] ** 2 + ri2)
    a = (vv * bu - uv * bv) / det
    b = (uu * bv - uv * bu) / det
    zrel = a[:, None] * u + b[:, None] * v
    h_sq = ri2 - np.einsum("ij,ij->i", zrel, zrel)
    margin = min(margin, float(np.abs(h_sq).min()) / scale)

    real = h_sq > 0
    if not real.any():
        return margin
    axis = np.cross(u[real], v[real])
    axis /= np.linalg.norm(axis, axis=1)[:, None]
    h = np.sqrt(h_sq[real])[:, None]
    z = xi[real] + zrel[real]
    members = tri[real]
    for sign in (1.0, -1.0):
        p = z + sign * h * axis
        d = p[:, None, :] - centers[None, :, :]
        g = np.abs(np.sqrt(np.einsum("tmj,tmj->tm", d, d)) - radii[None, :])
        rows = np.arange(members.shape[0])
        for col in range(3):
            g[rows, members[:, col]] = math.inf
        margin = min(margin, float(g.min()))
    return margin


def buried_centres(centers, radii):
    """Number of balls whose centre lies outside their own power cell.

    Centre x_i is buried when another ball has lower power there:
    |x_i - x_m|^2 - r_m^2 < -r_i^2.  Each such ball costs the brute-force
    vertex test a projection onto its cell, so the count sets much of the
    build time.
    """
    diff = centers[:, None, :] - centers[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    lower = d2 < radii[None, :] ** 2 - radii[:, None] ** 2
    np.fill_diagonal(lower, False)
    return int(lower.any(axis=1).sum())


def in_bands(centers, radii, bands):
    """Whether the circle-pair, circle-triple and buried-centre counts all
    lie in their inclusive (low, high) bands."""
    circle = circle_graph(centers, radii)[1]
    n_pairs = int(circle.sum()) // 2
    n_buried = buried_centres(centers, radii)
    if not (bands.pairs[0] <= n_pairs <= bands.pairs[1]
            and bands.buried[0] <= n_buried <= bands.buried[1]):
        return False
    n_triples = len(cliques(circle)[1])
    return bands.triples[0] <= n_triples <= bands.triples[1]


def plant_tangencies(rng, centers, radii, count):
    """Move balls outward until ``count`` exposed external tangencies exist.

    For a random direction the extreme ball e is found and its nearest
    neighbour m is moved to touch e on the far side, at PLANT_GAP.  A plant
    is kept only when m then overlaps no other ball and the touching point
    is clear of every other sphere, so the event is a component merge.
    Returns the new centers and the sorted planted pairs, or None when
    ``count`` plants are not found.
    """
    centers = centers.copy()
    n = centers.shape[0]
    planted = []
    used = set()
    for _ in range(1000):
        if len(planted) == count:
            break
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        free = [k for k in range(n) if k not in used]
        e = max(free, key=lambda k: centers[k] @ direction + radii[k])
        rest = [k for k in free if k != e]
        m = min(rest, key=lambda k: np.linalg.norm(centers[k] - centers[e]))
        trial = centers.copy()
        trial[m] = centers[e] + (radii[e] + radii[m] + PLANT_GAP) * direction
        others = [k for k in range(n) if k not in (e, m)]
        d_m = np.linalg.norm(trial[others] - trial[m], axis=1)
        if np.any(d_m <= radii[others] + radii[m] + PLANT_CLEARANCE):
            continue
        touch = centers[e] + radii[e] * direction
        d_t = np.linalg.norm(trial[others] - touch, axis=1)
        if np.any(d_t <= radii[others] + PLANT_CLEARANCE):
            continue
        centers = trial
        planted.append((e, m))
        used.update((e, m))
    if len(planted) != count:
        return None
    return centers, [tuple(sorted(p)) for p in planted]


def diagram_text(centers, radii, weights):
    """Diagram file text; every float at 17 significant digits."""
    lines = [f"n {centers.shape[0]}"]
    for c, r, w in zip(centers, radii, weights):
        lines.append(" ".join(format(float(v), ".17g") for v in (*c, r, w)))
    return "\n".join(lines) + "\n"


def make_input(seed, n, weights, bands, planted=0):
    """(diagram text, planted pairs, candidate clique counts) for one input.

    ``weights`` is "random" (uniform in [-2, 2]) or "ones".  ``bands`` has
    inclusive (low, high) bands ``pairs``, ``triples`` and ``buried`` for
    the final configuration.  Draws outside them are rejected, which keeps
    the cost of one operation close across seeds.
    """
    rng = np.random.default_rng(seed)
    while True:
        centers, radii = random_balls(rng, n)
        plants = []
        if planted:
            found = plant_tangencies(rng, centers, radii, planted)
            if found is None:
                continue
            centers, plants = found
        if (in_bands(centers, radii, bands)
                and generic_margin(centers, radii, skip_pairs=plants) > MARGIN):
            break
    if weights == "random":
        w = rng.uniform(-2.0, 2.0, size=n)
    else:
        w = np.ones(n)
    counts = tuple(len(c) for c in cliques(circle_graph(centers, radii)[1]))
    return diagram_text(centers, radii, w), plants, counts
