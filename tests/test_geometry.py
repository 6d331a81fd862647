"""Geometry primitives against brute-force candidate-ball oracles."""

import itertools

import numpy as np
import pytest
from oracles import ball_through_subset, oracle_meb_radius

from optloss.geometry import (
    REL_TOL,
    GeometryError,
    SingularDistanceMatrixError,
    circumradius,
    circumradius_batch,
    min_enclosing_ball,
    neighborhoods_intersect,
    squared_distance_matrix,
)


def test_squared_distance_single_point():
    assert np.array_equal(squared_distance_matrix([(0.0, 0.0)]), [[0.0]])


def test_squared_distance_3_4_5():
    d2 = squared_distance_matrix([(0.0, 0.0), (3.0, 4.0)])
    assert np.array_equal(d2, [[0.0, 25.0], [25.0, 0.0]])


def test_squared_distance_matches_direct_arithmetic():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    expected = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            expected[i, j] = sum((pts[i, t] - pts[j, t]) ** 2 for t in range(2))
    assert np.allclose(squared_distance_matrix(pts), expected, atol=1e-15)
    assert np.array_equal(expected[1], [1.0, 0.0, 2.0])
    assert expected[1, 2] == 2.0


def test_squared_distance_rejects_bad_input():
    with pytest.raises(GeometryError):
        squared_distance_matrix([(0.0, 0.0), (1.0,)])
    with pytest.raises(GeometryError):
        squared_distance_matrix([(0.0, np.nan)])


def test_circumradius_two_points():
    for d in (0.5, 1.0, 7.25):
        radius, alpha = circumradius(squared_distance_matrix([(0.0,), (d,)]))
        assert radius == pytest.approx(d / 2, rel=1e-12)
        assert np.allclose(alpha, [0.5, 0.5])


def test_circumradius_equilateral_triangle():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    radius, alpha = circumradius(squared_distance_matrix(pts))
    assert radius == pytest.approx(1 / np.sqrt(3), rel=1e-12)
    assert np.allclose(alpha, [1 / 3] * 3)


def test_circumradius_obtuse_triangle_negative_weight():
    pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.1)])
    radius, alpha = circumradius(squared_distance_matrix(pts))
    # frozen from the subset oracle: center (1, -4.95), radius 5.05
    center, expected = ball_through_subset(pts, (0, 1, 2))
    assert expected == pytest.approx(5.05, rel=1e-12)
    assert radius == pytest.approx(expected, rel=1e-9)
    assert radius > 1.0
    assert alpha[2] < 0  # the obtuse vertex sits outside the circumcenter hull


def test_circumradius_matches_oracle_on_random_simplices():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, d + 2))
        pts = rng.normal(size=(k, d))
        radius, alpha = circumradius(squared_distance_matrix(pts))
        center, expected = ball_through_subset(pts, tuple(range(k)))
        assert radius == pytest.approx(expected, rel=1e-8)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)


def test_circumradius_rejects_duplicates():
    with pytest.raises(SingularDistanceMatrixError):
        circumradius(squared_distance_matrix([(0.0, 0.0), (0.0, 0.0)]))


def test_circumradius_batch_agrees_with_scalar():
    rng = np.random.default_rng(5)
    stacks = np.array([
        squared_distance_matrix(rng.normal(size=(3, 4))) for _ in range(40)
    ])
    radii, alphas, ok = circumradius_batch(stacks)
    assert ok.all()
    for i in range(40):
        r, a = circumradius(stacks[i])
        assert radii[i] == pytest.approx(r, rel=1e-10)
        assert np.allclose(alphas[i], a, atol=1e-10)


def test_circumradius_batch_flags_singular_items():
    good = squared_distance_matrix([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    bad = squared_distance_matrix([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    radii, alphas, ok = circumradius_batch(np.array([good, bad]))
    assert ok[0] and not ok[1]
    assert np.isnan(radii[1])


def test_meb_single_point():
    ball = min_enclosing_ball([(0.0, 0.0)])
    assert ball.radius == 0.0
    assert np.array_equal(ball.center, [0.0, 0.0])
    assert np.array_equal(ball.support_weights, [1.0])


def test_meb_obtuse_triangle_diameter_ball():
    pts = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.1)]
    ball = min_enclosing_ball(pts)
    assert oracle_meb_radius(pts) == pytest.approx(1.0, rel=1e-12)
    assert ball.radius == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(ball.center, [1.0, 0.0], atol=1e-9)
    assert ball.support_weights[2] == pytest.approx(0.0, abs=1e-12)


def test_meb_equilateral_triangle():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    ball = min_enclosing_ball(pts)
    assert ball.radius == pytest.approx(1 / np.sqrt(3), rel=1e-9)
    assert np.allclose(ball.support_weights, [1 / 3] * 3, atol=1e-9)


def test_meb_handles_duplicates_and_collinear():
    pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    ball = min_enclosing_ball(pts)
    assert ball.radius == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(ball.center, [1.0, 0.0], atol=1e-9)
    w = ball.support_weights
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert (w >= -1e-12).all()


def test_meb_witness_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 11))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        ball = min_enclosing_ball(pts)
        dist = np.linalg.norm(pts - ball.center, axis=1)
        assert dist.max() <= ball.radius * (1 + 1e-9) + 1e-12
        w = ball.support_weights
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert (w >= -1e-12).all()
        assert np.allclose(w @ pts, ball.center, atol=1e-8)
        # never larger than any containing candidate ball through pairs/triples
        for size in (2, 3):
            for subset in itertools.combinations(range(n), size):
                cand = ball_through_subset(pts, subset)
                if cand is None:
                    continue
                center, radius = cand
                if np.linalg.norm(pts - center, axis=1).max() <= radius * (1 + 1e-12) + 1e-12:
                    assert ball.radius <= radius + 1e-9


def test_meb_agrees_with_circumradius_when_weights_nonnegative():
    rng = np.random.default_rng(3)
    found = 0
    while found < 20:
        pts = rng.normal(size=(3, 3))
        try:
            radius, alpha = circumradius(squared_distance_matrix(pts))
        except SingularDistanceMatrixError:
            continue
        if alpha.min() < 0:
            continue
        ball = min_enclosing_ball(pts)
        assert ball.radius == pytest.approx(radius, rel=1e-9)
        found += 1


def test_meb_many_points_no_recursion_error():
    # the support-set search must not nest once per point
    pts = np.random.default_rng(3000).normal(size=(3000, 3))
    ball = min_enclosing_ball(pts)
    dist = np.linalg.norm(pts - ball.center, axis=1)
    assert dist.max() <= ball.radius * (1 + REL_TOL)
    # optimality certificate: the center is a convex combination of points
    # on the sphere
    w = ball.support_weights
    assert (w >= 0).all() and w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w @ pts, ball.center, atol=1e-9)
    assert np.allclose(dist[w > 0], ball.radius, rtol=1e-9)


def test_meb_isometry_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, d = int(rng.integers(2, 7)), 4
        pts = rng.normal(size=(n, d))
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        shift = rng.normal(size=d)
        moved = pts @ rot.T + shift
        b1 = min_enclosing_ball(pts)
        b2 = min_enclosing_ball(moved)
        assert b2.radius == pytest.approx(b1.radius, rel=1e-9, abs=1e-12)
        assert np.allclose(b1.center @ rot.T + shift, b2.center, atol=1e-8)


def test_neighborhoods_two_points_boundary():
    eps = 0.75
    ok, witness = neighborhoods_intersect([(0.0, 0.0), (2 * eps, 0.0)], eps)
    assert ok
    assert np.allclose(witness, [eps, 0.0])
    ok, witness = neighborhoods_intersect(
        [(0.0, 0.0), (2 * eps * (1 + 1e-3), 0.0)], eps
    )
    assert not ok and witness is None


def test_neighborhoods_two_points_matches_distance_rule():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = rng.normal(size=(2, 3))
        eps = float(rng.uniform(0.1, 2.0))
        ok, _ = neighborhoods_intersect([a, b], eps)
        assert ok == (np.linalg.norm(a - b) <= 2 * eps * (1 + 1e-9))


def test_neighborhoods_pairwise_close_but_no_common_point():
    # equilateral side 1: pairwise balls intersect at eps = 0.55 but the
    # enclosing-ball radius 1/sqrt(3) = 0.577+ exceeds eps
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    eps = 0.55
    for i, j in itertools.combinations(range(3), 2):
        assert np.linalg.norm(pts[i] - pts[j]) <= 2 * eps
    ok, _ = neighborhoods_intersect(pts, eps)
    assert not ok
    ok, witness = neighborhoods_intersect(pts, 0.58)
    assert ok
    assert np.linalg.norm(pts - witness, axis=1).max() <= 0.58 * (1 + 1e-9)
