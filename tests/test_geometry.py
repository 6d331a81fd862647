"""Geometry primitives of the hypergraph module against brute-force
candidate-ball oracles."""

import itertools

import numpy as np
import pytest
from oracles import ball_through_subset, oracle_meb, oracle_meb_radius, sorted_triangle_radius

from optloss import hypergraph
from optloss.data import from_arrays
from optloss.hypergraph import (
    build_conflict_graph,
    circumradius_batch,
    edge_witness,
    extend_hyperedges,
)


def d2(points):
    """Squared-distance matrix, entry by entry from coordinate differences."""
    pts = np.asarray(points, dtype=float)
    return ((pts[:, None] - pts[None]) ** 2).sum(axis=2)


def one_item(points):
    """(radius, alpha) of one point set, a stack of one for ``circumradius_batch``;
    None where the batch flags it."""
    radii, alphas, ok = circumradius_batch(d2(points)[None])
    return (float(radii[0]), alphas[0]) if ok[0] else None


def test_circumradius_two_points():
    for d in (0.5, 1.0, 7.25):
        radius, alpha = one_item([(0.0,), (d,)])
        assert radius == pytest.approx(d / 2, rel=1e-12)
        assert np.allclose(alpha, [0.5, 0.5])


def test_circumradius_equilateral_triangle():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    radius, alpha = one_item(pts)
    assert radius == pytest.approx(1 / np.sqrt(3), rel=1e-12)
    assert np.allclose(alpha, [1 / 3] * 3)


def test_circumradius_obtuse_triangle_negative_weight():
    pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.1)])
    radius, alpha = one_item(pts)
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
        radius, alpha = one_item(pts)
        center, expected = ball_through_subset(pts, tuple(range(k)))
        assert radius == pytest.approx(expected, rel=1e-8)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)


def test_circumradius_rejects_duplicates():
    assert one_item([(0.0, 0.0), (0.0, 0.0)]) is None


def test_circumradius_batch_agrees_with_scalar():
    # a stack of 40 gives each item what a stack of one gives it
    rng = np.random.default_rng(5)
    points = rng.normal(size=(40, 3, 4))
    radii, alphas, ok = circumradius_batch(np.array([d2(pts) for pts in points]))
    assert ok.all()
    for i in range(40):
        r, a = one_item(points[i])
        assert radii[i] == pytest.approx(r, rel=1e-10)
        assert np.allclose(alphas[i], a, atol=1e-10)


def test_circumradius_batch_flags_singular_items():
    good = d2([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    bad = d2([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    radii, alphas, ok = circumradius_batch(np.array([good, bad]))
    assert ok[0] and not ok[1]
    assert np.isnan(radii[1])


def test_circumradius_batch_solves_a_stack_with_a_singular_item_at_once(monkeypatch):
    # two coincident points make two equal rows; that one matrix used to
    # send the whole stack through one solve per matrix
    rng = np.random.default_rng(21)
    points = rng.normal(size=(30, 4, 3))
    points[17, 2] = points[17, 0]
    stack = np.array([d2(pts) for pts in points])
    expected = [None if i == 17 else np.linalg.solve(stack[i], np.ones(4)) for i in range(30)]
    calls = []
    solve = np.linalg.solve

    def counting(*args):
        calls.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    radii, alphas, ok = circumradius_batch(stack)
    # the first solve raises on the singular matrix; the second has the
    # identity in its place
    assert calls == [(30, 4, 4)] * 2
    assert ok.tolist() == [i != 17 for i in range(30)]
    assert np.isnan(radii[17]) and np.isnan(alphas[17]).all()
    for i in np.flatnonzero(ok):
        # bit for bit what solving the matrix alone gives
        assert radii[i] == np.sqrt(0.5 / expected[i].sum())
        assert (alphas[i] == expected[i] / expected[i].sum()).all()


def slogdet_then_solve(stack):
    """The stack's solutions as found by marking every singular matrix with
    ``slogdet`` first: NaN rows there, the batched solve elsewhere."""
    singular = np.linalg.slogdet(stack)[0] == 0
    k = stack.shape[1]
    x = np.linalg.solve(np.where(singular[:, None, None], np.eye(k), stack),
                        np.ones((len(stack), k, 1)))[..., 0]
    x[singular] = np.nan
    return x


@pytest.mark.parametrize("coincident", [(), (0,), (3, 4, 11), tuple(range(16))])
def test_circumradius_batch_factors_a_regular_stack_once(monkeypatch, coincident):
    # slogdet factored every matrix a second time; it now runs only when the
    # solve raises, and marks the same matrices singular
    rng = np.random.default_rng(len(coincident))
    points = rng.normal(size=(16, 4, 3))
    points[list(coincident), 3] = points[list(coincident), 1]
    stack = np.array([d2(pts) for pts in points])
    # a coincident pair makes two equal rows, but rounding can leave the LU
    # without an exact zero pivot
    singular = np.linalg.slogdet(stack)[0] == 0
    assert singular.any() == bool(coincident)
    x = slogdet_then_solve(stack)
    denom = x.sum(axis=1)
    calls = []
    slogdet = np.linalg.slogdet

    def counting(*args):
        calls.append(args[0].shape)
        return slogdet(*args)

    monkeypatch.setattr(np.linalg, "slogdet", counting)
    radii, alphas, ok = circumradius_batch(stack)
    assert calls == ([(16, 4, 4)] if coincident else [])
    assert not ok[singular].any() and ok.sum() >= 16 - len(coincident)
    assert np.isnan(radii[~ok]).all() and np.isnan(alphas[~ok]).all()
    assert radii[ok].tobytes() == np.sqrt(0.5 / denom[ok]).tobytes()
    assert alphas[ok].tobytes() == (x[ok] / denom[ok, None]).tobytes()


def witness_ball(points):
    """``edge_witness`` of all the points, with its largest distance to them."""
    pts = np.asarray(points, dtype=float)
    centre = edge_witness(pts, range(len(pts)))
    return centre, float(np.linalg.norm(pts - centre, axis=1).max())


def test_meb_single_point():
    centre, radius = witness_ball([(0.0, 0.0)])
    assert radius == 0.0
    assert np.array_equal(centre, [0.0, 0.0])


def test_meb_obtuse_triangle_diameter_ball():
    pts = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.1)]
    centre, radius = witness_ball(pts)
    assert oracle_meb_radius(pts) == pytest.approx(1.0, rel=1e-12)
    assert radius == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(centre, [1.0, 0.0], atol=1e-9)


def test_meb_equilateral_triangle():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    centre, radius = witness_ball(pts)
    assert radius == pytest.approx(1 / np.sqrt(3), rel=1e-9)
    assert np.allclose(centre, pts.mean(axis=0), atol=1e-9)


def test_meb_handles_duplicates_and_collinear():
    pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    centre, radius = witness_ball(pts)
    assert radius == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(centre, [1.0, 0.0], atol=1e-9)


def test_meb_witness_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 11))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        centre, radius = witness_ball(pts)
        expected_centre, expected = oracle_meb(pts)
        assert radius <= expected * (1 + 1e-9) + 1e-12
        assert np.linalg.norm(centre - expected_centre) <= 1e-9 * expected + 1e-12
        # never larger than any containing candidate ball through pairs/triples
        for size in (2, 3):
            for subset in itertools.combinations(range(n), size):
                cand = ball_through_subset(pts, subset)
                if cand is None:
                    continue
                center, cand_radius = cand
                if np.linalg.norm(pts - center, axis=1).max() <= cand_radius * (1 + 1e-12) + 1e-12:
                    assert radius <= cand_radius + 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_witness_makes_one_circumball_call_per_subset_size(d, monkeypatch):
    # 10 points: one batch for each subset size 10 down to 4, where a search
    # through the faces makes one call per subset it visits
    calls = []

    def counting(d2_stack):
        calls.append(len(d2_stack))
        return circumball(d2_stack)

    circumball = hypergraph._circumball
    monkeypatch.setattr(hypergraph, "_circumball", counting)
    pts = np.random.default_rng(10 + d).normal(size=(10, d))
    centre, radius = witness_ball(pts)
    expected_centre, expected = oracle_meb(pts)
    assert len(calls) <= 10 - 3
    assert radius == pytest.approx(expected, rel=1e-9)
    assert np.linalg.norm(centre - expected_centre) <= 1e-9 * expected


def squared_sides(pts):
    """Squared side lengths (|p1 - p2|^2, |p2 - p0|^2, |p0 - p1|^2) of a triangle."""
    pts = np.asarray(pts, dtype=float)
    return [float(np.sum((pts[i] - pts[j]) ** 2)) for i, j in ((1, 2), (2, 0), (0, 1))]


def test_triangle_radius_selects_sides_as_the_sort_does():
    # the sides taken by min/max selection give the sorted sides' radius bit
    # for bit, whatever order the squared sides come in
    rng = np.random.default_rng(31)
    triangles = [squared_sides(rng.normal(size=(3, d)) * rng.uniform(0.01, 100.0))
                 for d in (2, 3, 7) for _ in range(300)]
    for h in rng.uniform(0.01, 5.0, size=50):
        triangles.append(squared_sides([(-1.0, 0.0), (1.0, 0.0), (0.0, h)]))  # isosceles
    triangles += [[1.0, 1.0, 1.0], [2.5, 2.5, 2.5],  # equilateral
                  [9.0, 16.0, 25.0], [1.0, 1.0, 2.0],  # right
                  squared_sides([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])]
    for pts in thin_needles(rng, 200):
        triangles.append(squared_sides(pts))
    base = float(rng.uniform(0.5, 2.0))
    triangles += [[0.0, base, base], [0.0, 0.0, 0.0], [0.0, 1.0, 4.0],  # zero side
                  [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]]  # ulp ties
    sides = np.array(triangles).T
    for order in itertools.permutations(range(3)):
        a, b, c = sides[list(order)]
        got = hypergraph._triangle_radius(a, b, c)
        want = sorted_triangle_radius(a, b, c)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def thin_needles(rng, count):
    """Needle-like triangles, acute or obtuse: a base of 1e-8..1e-4 under an
    apex 0.5..2 away, anywhere across the base."""
    out = []
    for _ in range(count):
        base = 10 ** rng.uniform(-8, -4)
        apex = (rng.uniform(-1.0, 1.0) * base, rng.uniform(0.5, 2.0))
        out.append(np.array([apex, (-base / 2, 0.0), (base / 2, 0.0)]) + rng.normal(size=2))
    return out


def test_meb_agrees_with_circumradius_when_weights_nonnegative():
    # three points in 3-D (closed form) and four in 4-D (the circumball rule)
    rng = np.random.default_rng(3)
    for k in (3, 4):
        found = 0
        while found < 20:
            pts = rng.normal(size=(k, k))
            found_ball = one_item(pts)
            if found_ball is None or found_ball[1].min() < 0:
                continue
            centre, radius = witness_ball(pts)
            assert radius == pytest.approx(found_ball[0], rel=1e-9)
            assert np.allclose(centre, found_ball[1] @ pts, atol=1e-9)
            found += 1


def test_meb_isometry_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, d = int(rng.integers(2, 7)), 4
        pts = rng.normal(size=(n, d))
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        shift = rng.normal(size=d)
        moved = pts @ rot.T + shift
        c1, r1 = witness_ball(pts)
        c2, r2 = witness_ball(moved)
        assert r2 == pytest.approx(r1, rel=1e-9, abs=1e-12)
        assert np.allclose(c1 @ rot.T + shift, c2, atol=1e-8)


def test_meb_ten_point_edge():
    # ten planar points: the largest 9-face, down to a triangle, gives the ball
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(10, 2))
    eps = oracle_meb_radius(pts)
    graph = extend_hyperedges(build_conflict_graph(from_arrays(pts, range(10)), eps), 10)
    assert graph.edge_counts()[10] == 1
    assert graph.radii[10][0] == pytest.approx(eps, rel=1e-9)
    centre, radius = witness_ball(pts)
    assert np.linalg.norm(centre - oracle_meb(pts)[0]) <= 1e-9 * eps
    assert radius <= eps * (1 + 1e-9)


def pair_conflicts(a, b, eps):
    """Whether the closed eps-neighborhoods of two points of two labels meet."""
    return build_conflict_graph(from_arrays([a, b], [0, 1]), eps).edge_counts() == {2: 1}


def test_neighborhoods_two_points_boundary():
    # closed balls: two points exactly 2 * eps apart conflict
    eps = 0.75
    assert pair_conflicts((0.0, 0.0), (2 * eps, 0.0), eps)
    graph = build_conflict_graph(from_arrays([(0.0, 0.0), (2 * eps, 0.0)], [0, 1]), eps)
    assert np.allclose(edge_witness(graph.points, (0, 1)), [eps, 0.0])
    assert not pair_conflicts((0.0, 0.0), (2 * eps * (1 + 1e-3), 0.0), eps)


def test_neighborhoods_two_points_matches_distance_rule():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = rng.normal(size=(2, 3))
        eps = float(rng.uniform(0.1, 2.0))
        assert pair_conflicts(a, b, eps) == (np.linalg.norm(a - b) <= 2 * eps * (1 + 1e-9))


def test_neighborhoods_pairwise_close_but_no_common_point():
    # equilateral side 1: pairwise balls intersect at eps = 0.55 but the
    # enclosing-ball radius 1/sqrt(3) = 0.577+ exceeds eps
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    ds = from_arrays(pts, [0, 1, 2])
    assert extend_hyperedges(build_conflict_graph(ds, 0.55), 3).edge_counts() == {2: 3}
    graph = extend_hyperedges(build_conflict_graph(ds, 0.58), 3)
    assert graph.edge_counts() == {2: 3, 3: 1}
    witness = edge_witness(graph.points, (0, 1, 2))
    assert np.linalg.norm(pts - witness, axis=1).max() <= 0.58 * (1 + 1e-9)
