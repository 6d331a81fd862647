"""Exact Euclidean primitives for epsilon-neighborhood intersection tests.

Everything here works on squared-distance matrices and minimum enclosing
balls. A set of points has a common point within distance epsilon of each
of them iff the radius of their minimum enclosing ball is at most epsilon
(closed balls throughout). The circumsphere formula has one implementation,
``circumradius_batch``, and the enclosing ball one algorithm, move-to-front
Welzl, in ``min_enclosing_ball``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "SingularDistanceMatrixError",
    "BallWitness",
    "squared_distance_matrix",
    "circumradius",
    "circumradius_batch",
    "min_enclosing_ball",
    "neighborhoods_intersect",
]

# Relative tolerance for containment / radius comparisons.
REL_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (dimension mismatch, non-finite values)."""


class SingularDistanceMatrixError(GeometryError):
    """``circumradius`` could not certify a circumsphere: the squared-distance
    matrix is singular or ill-conditioned, or the points have no real
    circumsphere in their affine hull. ``min_enclosing_ball`` needs none."""


@dataclass(frozen=True)
class BallWitness:
    """An enclosing ball together with the affine weights of its center.

    ``center`` equals ``support_weights @ points`` and the weights sum to 1;
    weights are nonnegative and vanish off the supporting subset.
    """

    center: np.ndarray
    radius: float
    support_weights: np.ndarray


def _as_point_array(points) -> np.ndarray:
    try:
        pts = np.asarray(points, dtype=float)
    except (ValueError, TypeError) as exc:
        raise GeometryError(f"points do not form a numeric array: {exc}") from exc
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise GeometryError(f"expected an n x d point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("points contain non-finite coordinates")
    return pts


def squared_distance_matrix(points) -> np.ndarray:
    """Pairwise squared Euclidean distances as a symmetric zero-diagonal matrix."""
    pts = _as_point_array(points)
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    # exact symmetry regardless of float summation order
    return (d2 + d2.T) / 2.0


def circumradius(d2: np.ndarray):
    """Radius and affine center weights of the circumsphere from squared distances.

    For points with squared-distance matrix D, the circumcenter is ``X @ alpha``
    with ``alpha = D^-1 1 / (1^T D^-1 1)`` and the radius is
    ``1 / sqrt(2 * 1^T D^-1 1)``. One item of ``circumradius_batch``; raises
    :class:`SingularDistanceMatrixError` where that batch flags the matrix
    (duplicate points, affinely dependent inputs, ill-conditioning, or no
    real circumsphere in the affine hull).

    Returns (radius, alpha).
    """
    d2 = np.asarray(d2, dtype=float)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise GeometryError(f"squared-distance matrix must be square, got {d2.shape}")
    if d2.shape[0] == 1:
        return 0.0, np.ones(1)
    radii, alphas, ok = circumradius_batch(d2[None])
    if not ok[0]:
        raise SingularDistanceMatrixError(
            "no certified circumsphere: singular or ill-conditioned distance matrix, "
            "or 1^T D^-1 1 <= 0"
        )
    return float(radii[0]), alphas[0]


def circumradius_batch(d2_stack: np.ndarray):
    """Vectorized circumradius over a stack of (k x k) squared-distance matrices.

    Returns (radii, alphas, ok) where ``ok[i]`` is False for matrices the
    formula could not certify (singular, ill-conditioned, or no real
    circumsphere); those entries hold NaN.
    """
    d2_stack = np.asarray(d2_stack, dtype=float)
    batch, k, k2 = d2_stack.shape
    if k != k2:
        raise GeometryError("expected a stack of square matrices")
    radii = np.full(batch, np.nan)
    alphas = np.full((batch, k), np.nan)
    ok = np.zeros(batch, dtype=bool)
    ones = np.ones((batch, k))
    try:
        x = np.linalg.solve(d2_stack, ones[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # at least one singular matrix in the batch: solve one by one
        x = np.full((batch, k), np.nan)
        for i in range(batch):
            try:
                x[i] = np.linalg.solve(d2_stack[i], ones[i])
            except np.linalg.LinAlgError:
                pass
    # a residual screen stands in for an explicit (expensive) condition number
    resid = np.abs(np.einsum("bij,bj->bi", d2_stack, x) - 1.0).max(axis=1)
    scale = 1.0 + np.abs(d2_stack).max(axis=(1, 2))
    denom = x.sum(axis=1)
    good = (
        np.isfinite(x).all(axis=1)
        & np.isfinite(denom)
        & (denom > 0.0)
        & (resid <= 1e-9 * scale)
    )
    idx = np.nonzero(good)[0]
    if idx.size:
        radii[idx] = np.sqrt(0.5 / denom[idx])
        alphas[idx] = x[idx] / denom[idx, None]
        ok[idx] = True
    return radii, alphas, ok


def _ball_through(points: np.ndarray, boundary: list[int]):
    """Smallest ball having the given points on its boundary (center, radius)."""
    if not boundary:
        return points[0] * np.nan, -np.inf  # sentinel: contains nothing
    base = points[boundary[0]]
    if len(boundary) == 1:
        return base, 0.0
    rel = points[boundary[1:]] - base  # rows span the affine hull directions
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    # center = base + rel^T t with rel (rel^T t) = rhs, solved in the hull
    t, *_ = np.linalg.lstsq(rel @ rel.T, rhs, rcond=None)
    center = base + rel.T @ t
    radius = float(np.linalg.norm(points[boundary] - center, axis=1).max())
    return center, radius


def _welzl(points: np.ndarray) -> tuple[np.ndarray, float, list[int]]:
    """Move-to-front Welzl: minimum enclosing ball over support sets.

    The points are scanned in a loop; a call nests only when a point joins
    the boundary, so the nesting depth is at most d + 1 however many points
    there are. Deterministic: the initial order comes from a fixed-seed
    shuffle, so identical inputs always produce identical output.
    """
    n, d = points.shape
    order = np.arange(n)
    np.random.Generator(np.random.Philox(key=20230921)).shuffle(order)
    order = order.tolist()

    def mtf(end: int, boundary: list[int]):
        center, radius = _ball_through(points, boundary)
        if len(boundary) == d + 1:
            return center, radius
        for i in range(end):
            p = order[i]
            if radius < 0.0 or np.linalg.norm(points[p] - center) > radius * (1 + REL_TOL) + 1e-14:
                center, radius = mtf(i, boundary + [p])
                order.insert(0, order.pop(i))
        return center, radius

    center, radius = mtf(n, [])
    dist = np.linalg.norm(points - center, axis=1)
    support = [i for i in range(n) if dist[i] >= radius * (1 - 1e-7) - 1e-12]
    return center, radius, support


def _support_weights(points: np.ndarray, center: np.ndarray, support: list[int]) -> np.ndarray:
    """Nonnegative affine weights on the support reproducing the center."""
    n = points.shape[0]
    sub = points[support]
    system = np.vstack([sub.T, np.ones(len(support))])
    target = np.concatenate([center, [1.0]])
    w, *_ = np.linalg.lstsq(system, target, rcond=None)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    w = w / total if total > 0 else np.full(len(support), 1.0 / len(support))
    alpha = np.zeros(n)
    alpha[support] = w
    return alpha


def min_enclosing_ball(points) -> BallWitness:
    """Smallest ball containing all points, with affine weights of its center.

    Duplicates are merged, then move-to-front Welzl finds the ball; the
    weights are nonnegative on its support and zero elsewhere.
    """
    pts = _as_point_array(points)
    n = pts.shape[0]
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    # representative original index of each unique row
    rep = np.full(uniq.shape[0], -1, dtype=int)
    for orig, u in enumerate(inverse):
        if rep[u] < 0:
            rep[u] = orig

    if uniq.shape[0] == 1:
        alpha = np.zeros(n)
        alpha[rep[0]] = 1.0
        return BallWitness(center=uniq[0].copy(), radius=0.0, support_weights=alpha)

    center, radius, support = _welzl(uniq)
    alpha_u = _support_weights(uniq, center, support)
    alpha = np.zeros(n)
    alpha[rep] = alpha_u
    return BallWitness(center=center, radius=float(radius), support_weights=alpha)


def neighborhoods_intersect(points, epsilon: float, rel_tol: float = REL_TOL):
    """Whether the closed epsilon-balls around all points share a common point.

    Returns (intersects, witness): the witness is the enclosing-ball center,
    which lies within epsilon of every input point, or None when the
    neighborhoods do not all intersect. Decision rule: enclosing-ball radius
    at most ``epsilon * (1 + rel_tol)``.
    """
    if epsilon < 0:
        raise GeometryError("epsilon must be nonnegative")
    ball = min_enclosing_ball(points)
    if ball.radius <= epsilon * (1.0 + rel_tol):
        return True, ball.center
    return False, None
