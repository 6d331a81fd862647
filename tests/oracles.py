"""Independent brute-force oracles shared by the test modules, and the
datasets several of them draw on.

The oracles deliberately avoid the library's computation paths: enclosing
balls come from exhaustive candidate enumeration with a Gram-matrix
circumcenter solve (a triangle's radius and centre also in exact rational
arithmetic), couplings from extreme-point enumeration, and independent sets
from full subset search. ``randomized_independent_set`` is the constructive
side of the Caro-Wei bound: the rounding whose expected mass the bound
promises, which acceptance test A6 samples.
"""

import itertools
from fractions import Fraction

import numpy as np

from optloss.bounds import _vertex_weights
from optloss.data import from_arrays


def random_dataset(rng, n, k, d, spread):
    """n normal points in d dimensions times ``spread``, labels drawn from
    k classes with every class present; duplicates are kept apart."""
    pts = rng.normal(size=(n, d)) * spread
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)
    return from_arrays(pts, labels, merge_duplicates=False)


def triangle_dataset(side=1.0, masses=None):
    """An equilateral triangle with the given side, one vertex per class."""
    pts = side * np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    return from_arrays(pts, [0, 1, 2], masses=masses)


def ball_through_subset(points, subset):
    """Circumsphere of a subset via affine weights on the Gram matrix.

    Returns (center, radius) or None when no equidistant center exists in
    the subset's affine hull.
    """
    sub = np.asarray(points, dtype=float)[list(subset)]
    k = sub.shape[0]
    if k == 1:
        return sub[0], 0.0
    gram = sub @ sub.T
    sq = np.diag(gram)
    A = np.zeros((k + 1, k + 1))
    b = np.zeros(k + 1)
    A[:k, :k] = -2.0 * gram
    A[:k, k] = -1.0
    b[:k] = -sq
    A[k, :k] = 1.0
    b[k] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    lam = sol[:k]
    center = lam @ sub
    dist = np.linalg.norm(sub - center, axis=1)
    if dist.max() - dist.min() > 1e-7 * (1.0 + dist.max()):
        return None
    return center, float(dist.max())


def oracle_meb(points):
    """(centre, radius) of the smallest candidate ball, over all boundary
    subsets, that contains every point."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    best = None, np.inf
    for size in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            cand = ball_through_subset(points, subset)
            if cand is None:
                continue
            center, radius = cand
            if np.linalg.norm(points - center, axis=1).max() <= radius * (1 + 1e-12) + 1e-12:
                if radius < best[1]:
                    best = center, radius
    return best


def oracle_meb_radius(points):
    """Radius of ``oracle_meb``."""
    return oracle_meb(points)[1]


def exact_triangle_ball(points):
    """(squared radius, centre) of the enclosing ball of three points, in
    exact rational arithmetic on the float coordinates.

    With squared sides a, b, c: obtuse or right (2 max >= a + b + c), half
    the longest side and its midpoint; otherwise the circumball, with
    R^2 = abc / (2(ab + bc + ca) - (a^2 + b^2 + c^2)) and centre
    o + (|v|^2 (u.w) u - |u|^2 (v.w) v) / (2 |u x v|^2), where o is the
    vertex opposite the longest side, u and v run from it to the others,
    w = u - v and |u x v|^2 = |u|^2 |v|^2 - (u.v)^2 (Lagrange's identity, in
    any dimension). The centre is a list of Fractions.
    """
    p = [[Fraction(float(x)) for x in row] for row in points]

    def dot(s, t):
        return sum(x * y for x, y in zip(s, t))

    def minus(s, t):
        return [x - y for x, y in zip(s, t)]

    sides = [dot(minus(p[i], p[j]), minus(p[i], p[j])) for i, j in ((1, 2), (2, 0), (0, 1))]
    a, b, c = sides
    top = max(range(3), key=sides.__getitem__)
    o, x, y = p[top], p[(top + 1) % 3], p[(top + 2) % 3]
    if 2 * sides[top] >= a + b + c:
        return sides[top] / 4, [(s + t) / 2 for s, t in zip(x, y)]
    r2 = a * b * c / (2 * (a * b + b * c + c * a) - (a * a + b * b + c * c))
    u, v = minus(x, o), minus(y, o)
    w = minus(u, v)
    cross2 = dot(u, u) * dot(v, v) - dot(u, v) ** 2
    centre = [oi + (dot(v, v) * dot(u, w) * ui - dot(u, u) * dot(v, w) * vi) / (2 * cross2)
              for oi, ui, vi in zip(o, u, v)]
    return r2, centre


def exact_triangle_radius(points):
    """Enclosing-ball radius of three points from ``exact_triangle_ball``:
    the squared radius is exact, and only its float and its square root
    round."""
    return float(np.sqrt(float(exact_triangle_ball(points)[0])))


def sorted_triangle_radius(a, b, c):
    """Enclosing-ball radius of triangles from squared sides a, b, c, with the
    side lengths ordered by a sort.

    Obtuse or right: half the longest side. Acute: xyz / (4 * area) of the
    side lengths x >= y >= z, the area by Kahan's arrangement of Heron's
    formula, evaluated in the same operation order as the library.
    """
    a, b, c = (np.asarray(s, dtype=float) for s in (a, b, c))
    longest = np.maximum(np.maximum(a, b), c)
    obtuse = 2.0 * longest >= a + b + c
    x, y, z = np.sort(np.sqrt([a, b, c]), axis=0)[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        area4 = np.sqrt((x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z)))
        circum = x * y * z / area4
    return np.where(obtuse, np.sqrt(longest / 4.0), circum)


def oracle_class_only(a, priors):
    """Maximize the coupling objective over the extreme points of the
    symmetric doubly stochastic polytope, the symmetrized permutations."""
    k = a.shape[0]
    priors = np.asarray(priors, dtype=float)
    best = 0.0
    for perm in itertools.permutations(range(k)):
        s = np.zeros((k, k))
        for i, j in enumerate(perm):
            s[i, j] += 0.5
            s[j, i] += 0.5
        best = max(best, float(np.sum(priors[:, None] * a * s)))
    return best


def oracle_max_weight_independent(pairs, weights):
    """Exhaustive maximum-weight independent set over explicit pair edges."""
    n = len(weights)
    weights = np.asarray(weights, dtype=float)
    pair_set = {tuple(sorted(p)) for p in pairs}
    best = 0.0
    for mask in range(1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if any(
            (u, v) in pair_set for u, v in itertools.combinations(members, 2)
        ):
            continue
        best = max(best, float(weights[members].sum()))
    return best


def randomized_independent_set(graph, weights, seed=0):
    """Round a weight vector into an independent set of the pair graph.

    Simulates the first-arrival process of i.i.d. vertex draws proportional
    to w: a vertex joins the set when it arrives before all of its neighbors.
    Zero-weight vertices never arrive. Returns sorted vertex ids.
    """
    w = _vertex_weights(graph, weights)
    n = graph.num_vertices
    if not np.any(w > 0):
        raise ValueError("weights must not be all zero")
    rng = np.random.Generator(np.random.Philox(key=seed))
    with np.errstate(divide="ignore", over="ignore"):
        arrival = rng.exponential(size=n) / w  # inf where w == 0 or the quotient overflows
    # a neighbor arriving no later blocks a vertex
    u, v = graph.pairs.T
    blocked = np.zeros(n, dtype=bool)
    blocked[v[arrival[u] <= arrival[v]]] = True
    blocked[u[arrival[v] <= arrival[u]]] = True
    return np.flatnonzero((w > 0) & ~blocked)


def oracle_hyperedges(points, labels, epsilon, max_degree):
    """Every label-distinct subset of 2..max_degree points whose enclosing-ball
    radius, by ``oracle_meb_radius``, is at most epsilon * (1 + 1e-9).

    Returns {degree: sorted list of id tuples}; no downward-closure pruning.
    """
    points = np.asarray(points, dtype=float)
    out = {}
    for k in range(2, max_degree + 1):
        out[k] = [
            subset
            for subset in itertools.combinations(range(len(points)), k)
            if len({int(labels[i]) for i in subset}) == k
            and oracle_meb_radius(points[list(subset)]) <= epsilon * (1 + 1e-9)
        ]
    return out
