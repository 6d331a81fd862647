"""Conflict hypergraph construction, truncation, incidence, serialization."""

import itertools
import json
import math

import numpy as np
import pytest
from oracles import (
    exact_triangle_radius,
    oracle_hyperedges,
    oracle_meb,
    oracle_meb_radius,
    random_dataset,
    triangle_dataset,
)

from optloss import bounds, hypergraph
from optloss.data import LabeledDataset, from_arrays, gen_gaussian
from optloss.hypergraph import (
    REL_TOL,
    build_conflict_graph,
    edge_witness,
    extend_hyperedges,
    graph_to_json,
    incidence,
    vertex_graph,
)
from optloss.lp_core import PackingLp, solve_packing


def test_collinear_chain_edges():
    eps = 0.4
    pts = [(0.0, 0.0), (2 * eps, 0.0), (4 * eps, 0.0)]
    graph = build_conflict_graph(from_arrays(pts, [0, 1, 2]), eps)
    assert graph.edge_list() == [(0, 1), (1, 2)]
    for e in graph.edge_list():
        assert np.allclose(
            edge_witness(graph.points, e), (np.array(pts[e[0]]) + pts[e[1]]) / 2
        )


def test_zero_epsilon_distinct_points_no_edges():
    graph = build_conflict_graph(from_arrays([(0.0, 0.0), (0.1, 0.0)], [0, 1]), 0.0)
    assert graph.edge_list() == []


def test_zero_epsilon_identical_points_different_labels_edge():
    graph = build_conflict_graph(from_arrays([(0.5, 0.5), (0.5, 0.5)], [0, 1]), 0.0)
    assert graph.edge_list() == [(0, 1)]


def test_zero_epsilon_every_edge_is_boundary_tight():
    # at eps = 0 an edge is a coincident point set, whose radius is exactly 0
    pts = [(0.5, 0.5)] * 3 + [(2.0, 0.0)]
    ds = from_arrays(pts, [0, 1, 2, 0], merge_duplicates=False)
    graph = extend_hyperedges(build_conflict_graph(ds, 0.0), 3)
    assert graph.edge_counts() == {2: 3, 3: 1}
    assert graph.boundary_tight_count() == 4


def test_same_class_pair_never_an_edge():
    graph = build_conflict_graph(
        from_arrays([(0.0, 0.0), (0.05, 0.0)], [1, 1], merge_duplicates=False), 0.5
    )
    assert graph.edge_list() == []


def test_degree2_edges_match_bruteforce_double_loop():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ds = random_dataset(rng, n=int(rng.integers(3, 25)), k=3, d=2, spread=1.0)
        eps = float(rng.uniform(0.1, 1.5))
        graph = build_conflict_graph(ds, eps)
        expected = set()
        for i in range(ds.num_points):
            for j in range(i + 1, ds.num_points):
                if ds.labels[i] != ds.labels[j] and np.linalg.norm(
                    ds.points[i] - ds.points[j]
                ) <= 2 * eps * (1 + 1e-9):
                    expected.add((i, j))
        assert set(graph.edge_list()) == expected


def layout_dataset(rng, k, d, largest=8):
    """Classes of unequal sizes, one of them a single point, under shuffled
    labels, with three points repeated under another class."""
    sizes = rng.integers(2, largest + 1, size=k)
    sizes[rng.integers(k)] = 1
    labels = rng.permutation(np.repeat(np.arange(k), sizes))
    pts = rng.normal(size=(labels.size, d))
    for i in rng.choice(labels.size, size=3, replace=False):
        pts[rng.choice(np.flatnonzero(labels != labels[i]))] = pts[i]
    return from_arrays(pts, labels, merge_duplicates=False)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_sweeps_match_double_loops_across_tiles(monkeypatch, k, d):
    # tiles of 3, 5 and 7 points cut the class strips mid-class, so pairs sit
    # on both sides of tile boundaries; at eps = 0 the edges are exactly the
    # coincident cross-class points
    rng = np.random.default_rng(10 * k + d)
    ds = layout_dataset(rng, k, d)
    n, pts, labels = ds.num_points, ds.points, ds.labels
    dist = {(i, j): np.linalg.norm(pts[i] - pts[j]) for i in range(n)
            for j in range(i + 1, n) if labels[i] != labels[j]}
    nearest = [min(dist[min(i, j), max(i, j)] for j in range(n) if labels[j] != labels[i])
               for i in range(n)]
    stats = [np.mean([nearest[i] for i in range(n) if labels[i] == c]) for c in range(k)]
    budgets = (0.0, 0.6)
    graphs = [build_conflict_graph(ds, eps) for eps in budgets]
    default_stats = bounds.class_distance_stats(ds)
    assert default_stats == pytest.approx(stats, rel=1e-12)
    for eps, graph in zip(budgets, graphs):
        expected = sorted(e for e, r in dist.items() if r <= 2 * eps * (1 + REL_TOL))
        assert graph.edge_list() == expected
        assert graph.radii[2] == pytest.approx([dist[e] / 2 for e in expected], rel=1e-12)
    assert len(graphs[0].pairs) >= 1
    for block in (3, 5, 7):
        monkeypatch.setattr(hypergraph, "SWEEP_BLOCK", block)
        for eps, graph in zip(budgets, graphs):
            tiled = build_conflict_graph(ds, eps)
            assert np.array_equal(tiled.pairs, graph.pairs)
            assert tiled.radii[2].tobytes() == graph.radii[2].tobytes()
        assert bounds.class_distance_stats(ds).tobytes() == default_stats.tobytes()


@pytest.mark.parametrize("block", [7, hypergraph.SWEEP_BLOCK])
def test_pair_sweep_ignores_class_names_and_point_order(monkeypatch, block):
    # the sweep visits classes in label order; renaming the classes changes
    # that order but no edge and no radius, and reordering the points maps
    # the edges one to one (the centring mean moves by an ulp)
    monkeypatch.setattr(hypergraph, "SWEEP_BLOCK", block)
    rng = np.random.default_rng(61)
    ds = layout_dataset(rng, 5, 3, largest=30)
    graph = build_conflict_graph(ds, 0.5)
    assert len(graph.pairs) > 50
    for _ in range(3):
        renamed = build_conflict_graph(
            LabeledDataset(ds.points, rng.permutation(5)[ds.labels], ds.masses), 0.5)
        assert np.array_equal(renamed.pairs, graph.pairs)
        assert renamed.radii[2].tobytes() == graph.radii[2].tobytes()
        perm = rng.permutation(ds.num_points)  # moved vertex a is vertex perm[a]
        moved = build_conflict_graph(
            LabeledDataset(ds.points[perm], ds.labels[perm], ds.masses[perm]), 0.5)
        radius = {tuple(sorted(perm[list(e)])): r
                  for e, r in zip(moved.edge_list(), moved.radii[2])}
        assert sorted(radius) == graph.edge_list()
        assert [radius[e] for e in graph.edge_list()] == pytest.approx(graph.radii[2], rel=1e-12)


def test_tight_triple_has_degree3_edge():
    graph = build_conflict_graph(triangle_dataset(), 0.6)
    graph = extend_hyperedges(graph, 3)
    assert graph.edge_counts() == {2: 3, 3: 1}
    e3 = tuple(graph.edges[3][0].tolist())
    assert e3 == (0, 1, 2)
    witness = edge_witness(graph.points, e3)
    assert np.linalg.norm(triangle_dataset().points - witness, axis=1).max() <= 0.6 * (1 + 1e-9)


def test_triangle_witness_scales_by_a_power_of_two_bit_for_bit():
    # edge (5, 14, 23) of the small-batch workload's seed-4 instance S16-K3-d4,
    # whose squared twice-area came out of a scalar ** 2 that was not the
    # rounded square: scaled by 2^-2, 2^3 or 2^7 its witness moved by an ulp
    # in three coordinates. At 2^-250 the triangle is tiny, and its centre
    # is computed on offsets scaled back up, which must land on the same bits
    pts = np.array([
        [-1.5320076423269025, 0.0025193677125205927, 0.7189994129888806, 0.14462409172114465],
        [-1.237048723726469, 0.9701138124296782, -0.7338203247546604, 1.2618804289609022],
        [0.621135288881316, 0.43720924554165713, -0.22505344999952895, -0.47519398831638404],
    ])
    witness = edge_witness(pts, (0, 1, 2))
    for power in (-2, 3, 7, -250):
        scaled = edge_witness(np.ldexp(pts, power), (0, 1, 2))
        assert scaled.tobytes() == np.ldexp(witness, power).tobytes()


TRIANGLES_2D = {
    "acute": [(0.0, 0.0), (4.0, 0.0), (1.5, 3.0)],
    "equilateral": [(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)],
    "right": [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)],
    "right-scalene": [(1.0, 1.0), (4.0, 1.0), (1.0, 5.0)],
    "obtuse": [(0.0, 0.0), (4.0, 0.0), (1.0, 1.0)],
    "collinear": [(1.0, 0.0), (0.0, 0.0), (3.0, 0.0)],
    "duplicate": [(0.0, 0.0), (3.0, 1.0), (0.0, 0.0)],
    "one-point": [(2.0, -1.0), (2.0, -1.0), (2.0, -1.0)],
}


@pytest.mark.parametrize("d", [2, 3, 784])
@pytest.mark.parametrize("name", sorted(TRIANGLES_2D))
def test_triangle_witness_matches_enclosing_ball(name, d):
    pts = np.zeros((3, d))
    pts[:, :2] = TRIANGLES_2D[name]
    if d > 2:
        pts[:, 2:] = np.arange(d - 2) % 5  # a shared offset in the other axes
    centre, eps = oracle_meb(pts)
    for order in itertools.permutations(range(3)):
        witness = edge_witness(pts, order)
        assert np.linalg.norm(witness - centre) <= 1e-9 * eps
        assert np.linalg.norm(pts - witness, axis=1).max() <= eps * (1 + 1e-9)


@pytest.mark.parametrize("d", [2, 3, 784])
def test_triangle_witness_matches_enclosing_ball_random(d):
    rng = np.random.default_rng(53 + d)
    checked = 0
    while checked < 40:
        pts = rng.normal(size=(3, d)) * rng.uniform(0.1, 5.0)
        sides = sorted(np.sum((pts - np.roll(pts, 1, axis=0)) ** 2, axis=1))
        # stay clear of right angles, where the reference ball flips branch
        if abs(sides[2] - sides[0] - sides[1]) < 1e-3 * sides[2]:
            continue
        centre, radius = oracle_meb(pts)
        witness = edge_witness(pts, (0, 1, 2))
        assert np.linalg.norm(witness - centre) <= 1e-9 * radius
        assert np.linalg.norm(pts - witness, axis=1).max() <= radius * (1 + 1e-9)
        checked += 1


def thin_triangles(count, seed):
    """Needle-like acute triangles: a base of 1e-8..1e-4 under an apex
    0.5..2 away, near the base's bisector, rotated and moved in the plane."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = 10 ** rng.uniform(-8, -4)
        pts = np.array([(rng.normal() * base * 0.1, rng.uniform(0.5, 2.0)),
                        (-base / 2, 0.0), (base / 2, 0.0)])
        turn = rng.uniform(0.0, 2 * np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        pts = pts @ rot.T + rng.normal(size=2)
        sides = [float(np.sum((pts[i] - pts[j]) ** 2)) for i, j in ((1, 2), (2, 0), (0, 1))]
        if 2 * max(sides) < sum(sides):  # acute in floating point too
            out.append(pts[rng.permutation(3)])
    return out


def test_thin_acute_triangles_match_exact_radius():
    # where the squared-side circumradius formula cancels, by up to 17 %
    for pts in thin_triangles(200, seed=17):
        radius = exact_triangle_radius(pts)
        ds = from_arrays(pts, [0, 1, 2], merge_duplicates=False)
        graph = extend_hyperedges(build_conflict_graph(ds, radius), 3)
        assert graph.edge_counts()[3] == 1
        assert graph.radii[3][0] == pytest.approx(radius, rel=1e-12)
        tighter = extend_hyperedges(build_conflict_graph(ds, radius * (1 - 1e-6)), 3)
        assert 3 not in tighter.edge_counts()
        witness = edge_witness(graph.points, (0, 1, 2))
        assert np.linalg.norm(pts - witness, axis=1).max() <= radius * (1 + 1e-9)


def test_loose_triple_has_no_degree3_edge():
    graph = build_conflict_graph(triangle_dataset(), 0.55)
    graph = extend_hyperedges(graph, 3)
    assert graph.edge_counts() == {2: 3}


def test_two_classes_cap_hyperedge_degree():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, n=12, k=2, d=2, spread=0.3)
    graph = extend_hyperedges(build_conflict_graph(ds, 1.0), 4)
    assert all(len(e) <= 2 for e in graph.edge_list())


def test_downward_closure_of_stored_edges():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ds = random_dataset(rng, n=14, k=4, d=2, spread=0.6)
        eps = float(rng.uniform(0.3, 0.9))
        graph = extend_hyperedges(build_conflict_graph(ds, eps), 4)
        edge_sets = set(graph.edge_list())
        for e in graph.edge_list():
            k = len(e)
            if k < 3:
                continue
            for sub in itertools.combinations(e, k - 1):
                assert sub in edge_sets
                assert oracle_meb_radius(ds.points[list(sub)]) <= eps * (1 + REL_TOL)


def edges_by_degree(graph, max_degree):
    return {k: [tuple(row) for row in graph.edges[k].tolist()]
            for k in range(2, max_degree + 1)}


def assert_radii_match_oracle(graph, points):
    """Every stored radius is the edge's minimum-enclosing-ball radius."""
    for k, rows in graph.edges.items():
        for row, radius in zip(rows.tolist(), graph.radii[k].tolist()):
            assert radius == pytest.approx(oracle_meb_radius(points[row]), rel=1e-9, abs=1e-12)


def test_extension_matches_subset_oracle_random(monkeypatch):
    rng = np.random.default_rng(2024)
    higher = 0
    for k in (3, 4):
        for d in (1, 2, 3, 5):
            for _ in range(2):
                ds = random_dataset(rng, n=int(rng.integers(k + 2, 15)), k=k, d=d, spread=1.0)
                dist = np.linalg.norm(ds.points[:, None] - ds.points[None], axis=2)
                eps = float(rng.uniform(0.3, 0.7)) * float(np.median(dist))
                monkeypatch.setattr(hypergraph, "EXTEND_BATCH", int(rng.integers(1, 6)))
                graph = extend_hyperedges(build_conflict_graph(ds, eps), k)
                expected = oracle_hyperedges(ds.points, ds.labels, eps, k)
                assert edges_by_degree(graph, k) == expected
                assert_radii_match_oracle(graph, ds.points)
                higher += sum(len(expected[j]) for j in range(3, k + 1))
    assert higher > 0  # the instances do exercise degrees 3 and 4


def forced_cases():
    """Duplicates, collinear points, exact right and equilateral triangles,
    a square and a regular tetrahedron, each padded into higher dimensions."""
    shapes = [
        [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)],           # duplicate pair
        [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],           # three coincident points
        [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)],           # collinear, uneven
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],           # collinear, even
        [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)],           # right triangle
        [(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)],  # equilateral
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],  # square
        [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)],
    ]
    for shape in shapes:
        pts = np.array(shape)
        for d in (1, 2, 3, 5):
            if d < pts.shape[1]:
                if np.any(pts[:, d:]):
                    continue
                padded = pts[:, :d]
            else:
                padded = np.hstack([pts, np.zeros((len(pts), d - pts.shape[1]))])
            yield padded


def test_extension_matches_subset_oracle_forced_cases():
    for pts in forced_cases():
        k = len(pts)
        radius = oracle_meb_radius(pts)
        for eps in {radius, radius * (1 - 1e-6), radius * (1 + 1e-6)}:
            ds = from_arrays(pts, list(range(k)), merge_duplicates=False)
            graph = extend_hyperedges(build_conflict_graph(ds, eps), k)
            assert edges_by_degree(graph, k) == oracle_hyperedges(pts, range(k), eps, k)
            assert_radii_match_oracle(graph, pts)
            if graph.edge_counts().get(k):
                # the closed-form triangle, and the face rule for the square
                # and the tetrahedron, against the oracle ball
                assert graph.radii[k][0] == pytest.approx(radius, rel=1e-9, abs=1e-12)


def test_translation_leaves_edge_set_unchanged():
    ds = gen_gaussian(num_classes=3, per_class=60, variance=0.05, mean_radius=3.0, seed=7)
    moved = from_arrays(ds.points + 1e7, ds.labels, masses=ds.masses, merge_duplicates=False)
    graph = extend_hyperedges(build_conflict_graph(ds, 2.6), 3)
    shifted = extend_hyperedges(build_conflict_graph(moved, 2.6), 3)
    assert graph.edge_counts() == {2: 4962, 3: 87}
    assert shifted.edge_list() == graph.edge_list()


def test_edge_counts_monotone_in_epsilon():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, n=16, k=3, d=2, spread=0.7)
    previous = None
    for eps in (0.2, 0.4, 0.6, 0.8):
        graph = extend_hyperedges(build_conflict_graph(ds, eps), 3)
        counts = graph.edge_counts()
        total = sum(counts.values())
        if previous is not None:
            assert total >= previous
        previous = total


def test_incidence_triangle_rows():
    graph = build_conflict_graph(triangle_dataset(), 0.55)
    inc = incidence(graph, dedupe_dominated=True)
    dense = inc.matrix.toarray()
    assert dense.shape == (3, 3)
    assert (dense.sum(axis=1) == 2).all()


def test_incidence_dedupe_drops_dominated_rows():
    graph = extend_hyperedges(build_conflict_graph(triangle_dataset(), 0.6), 3)
    deduped = incidence(graph, dedupe_dominated=True)
    full = incidence(graph, dedupe_dominated=False)
    assert deduped.matrix.shape[0] == 1
    assert full.matrix.shape[0] == 4
    assert deduped.matrix.toarray().tolist() == [[1.0, 1.0, 1.0]]


def test_incidence_empty_edges_yields_full_packing():
    ds = from_arrays([(0.0, 0.0), (5.0, 0.0)], [0, 1])
    graph = build_conflict_graph(ds, 0.1)
    inc = incidence(graph)
    assert inc.matrix.shape == (0, 2)
    sol = solve_packing(PackingLp(graph.masses, inc))
    assert np.allclose(sol.q, 1.0)
    assert sol.loss == pytest.approx(0.0, abs=1e-12)


def test_row_indexes_are_built_only_where_read(monkeypatch):
    built = []

    class CountingIndex(hypergraph._RowIndex):
        def __init__(self, rows, n):
            built.append(rows.shape[1])
            super().__init__(rows, n)

    monkeypatch.setattr(hypergraph, "_RowIndex", CountingIndex)
    graph = build_conflict_graph(triangle_dataset(), 0.6)
    incidence(graph)
    assert built == []  # no larger degree to look pairs up in
    assert extend_hyperedges(graph, 3).edge_counts()[3] == 1
    assert built == []  # a triangle's closing pair comes from the per-batch table
    graph = extend_hyperedges(graph, 4)
    assert built == [2, 3]  # pairs for k = 4's distances, triangles for its faces
    built.clear()
    incidence(graph)
    assert built == []  # the extension marked the dominated rows as it went


def extend_with_table_sizes(monkeypatch, graph, m):
    """``extend_hyperedges(graph, m)`` and the (rows, bytes) of every table
    that ``_closing_pairs`` fills."""
    sizes = []
    closing = hypergraph._closing_pairs

    def recording(pairs, first, u, w):
        rows = int(u.max() - u.min()) + 1
        sizes.append((rows, rows * (len(first) - 1) * 8))
        return closing(pairs, first, u, w)

    monkeypatch.setattr(hypergraph, "_closing_pairs", recording)
    out = extend_hyperedges(graph, m)
    monkeypatch.setattr(hypergraph, "_closing_pairs", closing)
    return out, sizes


def assert_same_extension(got, want):
    for field in ("edges", "radii", "dominated"):
        a, b = getattr(got, field), getattr(want, field)
        assert sorted(a) == sorted(b)
        assert all(a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in b)


def test_closing_tables_stay_within_their_bound(monkeypatch):
    ds = gen_gaussian(num_classes=3, per_class=60, variance=0.3, mean_radius=1.0, seed=9)
    pairs = build_conflict_graph(ds, 0.5)
    n = pairs.num_vertices
    default, sizes = extend_with_table_sizes(monkeypatch, pairs, 4)
    assert default.edge_counts()[3] > 0 and len(sizes) == 1  # one table holds all rows
    # one u row, three rows, and batches of 1..5 candidates under a roomy table
    for table_bytes, batch in [(1, 65536), (24 * n, 65536), (8 * n - 1, 3),
                               (1 << 22, 1), (1 << 22, 5)]:
        monkeypatch.setattr(hypergraph, "CLOSING_TABLE_BYTES", table_bytes)
        monkeypatch.setattr(hypergraph, "EXTEND_BATCH", batch)
        got, sizes = extend_with_table_sizes(monkeypatch, pairs, 4)
        assert_same_extension(got, default)
        assert all(size <= table_bytes or rows == 1 for rows, size in sizes)
        if table_bytes < 8 * n:
            assert {rows for rows, _ in sizes} == {1}
        if table_bytes == 24 * n:
            assert max(rows for rows, _ in sizes) == 3


def test_one_row_closing_tables_match_subset_oracle(monkeypatch):
    monkeypatch.setattr(hypergraph, "CLOSING_TABLE_BYTES", 1)
    rng = np.random.default_rng(55)
    triangles = 0
    for d in (1, 2, 3):
        for _ in range(3):
            ds = random_dataset(rng, n=int(rng.integers(8, 15)), k=3, d=d, spread=0.6)
            eps = float(rng.uniform(0.4, 0.9))
            monkeypatch.setattr(hypergraph, "EXTEND_BATCH", int(rng.integers(1, 4)))
            graph = extend_hyperedges(build_conflict_graph(ds, eps), 3)
            expected = oracle_hyperedges(ds.points, ds.labels, eps, 3)
            assert edges_by_degree(graph, 3) == expected
            assert_radii_match_oracle(graph, ds.points)
            triangles += len(expected[3])
    assert triangles > 0


def superset_free_rows(graph):
    """The edges no larger edge of any degree contains, in incidence row order."""
    edges = graph.edge_list()
    return [e for e in edges if not any(set(e) < set(f) for f in edges)]


def test_dedupe_by_next_degree_faces_matches_the_all_supersets_rule():
    rng = np.random.default_rng(83)
    fours = 0
    for _ in range(12):
        ds = random_dataset(rng, n=int(rng.integers(8, 20)), k=4, d=3, spread=0.5)
        graph = extend_hyperedges(build_conflict_graph(ds, float(rng.uniform(0.4, 0.9))), 4)
        fours += len(graph.edges[4])
        B = incidence(graph).matrix
        rows = [tuple(B.indices[B.indptr[r]:B.indptr[r + 1]].tolist())
                for r in range(B.shape[0])]
        assert rows == superset_free_rows(graph)
    assert fours  # some degree-4 edge dominates lower rows


@pytest.mark.parametrize("classes", [4, 5])
def test_extension_marks_exactly_the_rows_a_larger_edge_contains(monkeypatch, classes):
    # batches of three candidates: an edge's supersets come from several batches
    monkeypatch.setattr(hypergraph, "EXTEND_BATCH", 3)
    rng = np.random.default_rng(40 + classes)
    top_marked = 0
    for _ in range(6):
        ds = random_dataset(rng, n=int(rng.integers(10, 16)), k=classes, d=3, spread=0.5)
        pairs = build_conflict_graph(ds, float(rng.uniform(0.5, 0.9)))
        # a pair graph has no marks, and its incidence keeps every pair
        assert pairs.dominated == {}
        assert incidence(pairs).matrix.shape[0] == len(pairs.pairs)
        graph = extend_hyperedges(pairs, classes)
        free = set(superset_free_rows(graph))
        assert sorted(graph.dominated) == list(range(2, classes))
        for k in range(2, classes):
            rows = map(tuple, graph.edges[k].tolist())
            assert graph.dominated[k].tolist() == [row not in free for row in rows]
        top_marked += int(graph.dominated[classes - 1].sum())
        # one degree at a time gives the same edges, radii and marks
        stepped = pairs
        for m in range(3, classes + 1):
            stepped = extend_hyperedges(stepped, m)
        for got, want in [(stepped.edges, graph.edges), (stepped.radii, graph.radii),
                          (stepped.dominated, graph.dominated)]:
            assert sorted(got) == sorted(want)
            assert all(np.array_equal(got[k], want[k]) for k in want)
    assert top_marked  # some edge of the top degree dominates its faces


def test_dedupe_does_not_change_lp_optimum():
    rng = np.random.default_rng(77)
    for _ in range(10):
        ds = random_dataset(rng, n=int(rng.integers(6, 30)), k=3, d=2, spread=0.5)
        eps = float(rng.uniform(0.3, 0.8))
        graph = extend_hyperedges(build_conflict_graph(ds, eps), 3)
        sol_a = solve_packing(PackingLp(graph.masses, incidence(graph, True)))
        sol_b = solve_packing(PackingLp(graph.masses, incidence(graph, False)))
        assert sol_a.objective == pytest.approx(sol_b.objective, abs=1e-8)


def test_parallel_extension_matches_sequential(monkeypatch):
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, n=30, k=4, d=2, spread=0.5)
    graph = build_conflict_graph(ds, 0.7)
    monkeypatch.setattr(hypergraph, "EXTEND_BATCH", 8)
    seq = extend_hyperedges(graph, 4, jobs=1)
    par = extend_hyperedges(graph, 4, jobs=4)
    assert seq.edge_list() == par.edge_list()


def test_progress_callback_reports_candidates(monkeypatch):
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, n=24, k=3, d=2, spread=0.3)
    seen = []
    monkeypatch.setattr(hypergraph, "EXTEND_BATCH", 4)
    extend_hyperedges(build_conflict_graph(ds, 1.0), 3, progress=seen.append)
    assert seen and seen[-1] == max(seen)


def test_progress_batches_hold_at_most_batch_size_candidates(monkeypatch):
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, n=24, k=3, d=2, spread=0.3)
    seen = []
    monkeypatch.setattr(hypergraph, "EXTEND_BATCH", 4)
    extend_hyperedges(build_conflict_graph(ds, 1.0), 3, progress=seen.append)
    assert len(seen) > 1
    assert (np.diff([0] + seen) <= 4).all()


def test_ten_class_clique_among_a_thousand_vertices(monkeypatch):
    # one point of each class near the origin, 990 more far apart: every
    # subset of the ten central points is an edge, up to degree 10, though
    # ids in base 1000 overflow int64 from width 7 on
    rng = np.random.default_rng(10)
    central = rng.uniform(-0.05, 0.05, size=(10, 2))
    far = 100.0 + 10.0 * np.stack(np.divmod(np.arange(990), 33), axis=1)
    ds = from_arrays(np.vstack([central, far]), np.arange(1000) % 10, merge_duplicates=False)
    monkeypatch.setattr(hypergraph, "EXTEND_BATCH", 7)
    graph = extend_hyperedges(build_conflict_graph(ds, 0.5), 10)
    assert graph.edge_counts() == {k: math.comb(10, k) for k in range(2, 11)}
    assert graph.edge_list()[-1] == tuple(range(10))
    # dedupe keeps the 10-clique alone
    kept = incidence(graph).matrix
    assert kept.shape == (1, 1000)
    assert kept.indices.tolist() == list(range(10))


@pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
def test_budget_must_be_finite_and_nonnegative(eps):
    # NaN passes an "eps < 0" test and would give a certified loss of 0
    ds = triangle_dataset()
    with pytest.raises(ValueError, match="epsilon"):
        vertex_graph(ds, eps)
    with pytest.raises(ValueError, match="epsilon"):
        build_conflict_graph(ds, eps)


def test_graph_json_lists_the_vertices_and_edges():
    ds = random_dataset(np.random.default_rng(13), 30, 3, 2, spread=1.0)
    graph = extend_hyperedges(build_conflict_graph(ds, 0.6), 3)
    assert graph.edge_counts().keys() == {2, 3}
    doc = json.loads(graph_to_json(graph))
    assert doc["epsilon"] == 0.6 and doc["max_degree"] == 3
    assert [tuple(edge) for edge in doc["edges"]] == graph.edge_list()
    assert [v["id"] for v in doc["vertices"]] == list(range(graph.num_vertices))
    assert [v["label"] for v in doc["vertices"]] == graph.labels.tolist()
    assert [v["mass"] for v in doc["vertices"]] == graph.masses.tolist()


def test_graph_json_caps_max_degree_at_the_vertex_count():
    graph = extend_hyperedges(build_conflict_graph(triangle_dataset(), 0.6), 4)
    assert graph.max_degree == 4
    doc = json.loads(graph_to_json(graph))
    assert doc["max_degree"] == 3
    assert doc["edges"] == [[0, 1], [0, 2], [1, 2], [0, 1, 2]]


def test_vertex_graph_cannot_extend_without_pair_edges():
    graph = vertex_graph(triangle_dataset(), 0.6)
    assert graph.max_degree == 1
    with pytest.raises(ValueError, match="pair edges"):
        extend_hyperedges(graph, 3)
    with pytest.raises(ValueError, match="max degree m must be >= 2"):
        extend_hyperedges(build_conflict_graph(triangle_dataset(), 0.6), 1)


def test_empty_dataset_rejected():
    ds = from_arrays([(0.0, 0.0)], [0])
    ds.points = ds.points[:0]
    ds.labels = ds.labels[:0]
    ds.masses = ds.masses[:0]
    with pytest.raises(ValueError):
        build_conflict_graph(ds, 1.0)
