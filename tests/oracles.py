"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's computation paths: enclosing balls
come from exhaustive candidate enumeration with a Gram-matrix circumcenter
solve (triangles also in exact rational arithmetic), couplings from extreme-point enumeration, and independent sets from
full subset search.
"""

import itertools
from fractions import Fraction

import numpy as np


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


def exact_triangle_radius(points):
    """Enclosing-ball radius of three points in exact rational arithmetic.

    The squared sides a, b, c are exact in the input coordinates. Obtuse or
    right (2 max >= a + b + c): half the longest side; otherwise the
    circumradius, R^2 = abc / (2(ab + bc + ca) - (a^2 + b^2 + c^2)). Only
    the final square root rounds.
    """
    p = [[Fraction(float(x)) for x in row] for row in points]
    a, b, c = (sum((s - t) ** 2 for s, t in zip(p[i], p[j])) for i, j in ((1, 2), (2, 0), (0, 1)))
    longest = max(a, b, c)
    if 2 * longest >= a + b + c:
        return float(np.sqrt(float(longest / 4)))
    return float(np.sqrt(float(a * b * c / (2 * (a * b + b * c + c * a) - (a * a + b * b + c * c)))))


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
