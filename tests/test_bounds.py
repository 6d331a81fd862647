"""Bound chain, strategy extraction, classifier evaluation, reports."""

import itertools
import sys

import numpy as np
import pytest
from oracles import oracle_class_only, oracle_max_weight_independent

from optloss import bounds
from optloss.bounds import (
    BOUND_CSV_HEADER,
    InstanceTooLargeError,
    PairwiseLossMatrix,
    SoftClassifierTable,
    bound_report,
    caro_wei_bound,
    class_distance_stats,
    class_only_bound,
    evaluate_classifier,
    extract_strategy,
    hard_loss_bruteforce,
    optimal_loss,
    pairwise_binary_losses,
    randomized_independent_set,
)
from optloss.data import LabeledDataset, from_arrays, gen_gaussian
from optloss.hypergraph import build_conflict_graph, edge_witness, incidence
from optloss.lp_core import PackingLp, solve_packing


def triangle_dataset(side=1.0, masses=None):
    pts = side * np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    return from_arrays(pts, [0, 1, 2], masses=masses)


def random_dataset(rng, n, k, d, spread=0.5):
    pts = rng.normal(size=(n, d)) * spread
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)
    return from_arrays(pts, labels, merge_duplicates=False)


def oracle_mwis(ds, eps):
    """Exhaustive maximum-probability independent set."""
    graph = build_conflict_graph(ds, eps)
    pairs = graph.edge_list()
    return 1.0 - oracle_max_weight_independent(pairs, ds.masses)


# ---------------------------------------------------------------- optimal_loss


def test_optimal_loss_zero_budget_distinct_points():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 10, 3, 2)
    loss, _, _ = optimal_loss(ds, 0.0, 3)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_optimal_loss_m1_is_unconstrained():
    loss, sol, graph = optimal_loss(triangle_dataset(), 0.6, 1)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.q, 1.0)
    assert graph.edge_list() == []


def test_optimal_loss_monotone_in_m():
    loss2, _, _ = optimal_loss(triangle_dataset(), 0.6, 2)
    loss3, _, _ = optimal_loss(triangle_dataset(), 0.6, 3)
    assert loss2 == pytest.approx(0.5, abs=1e-9)
    assert loss3 == pytest.approx(2 / 3, abs=1e-9)
    assert loss2 <= loss3 + 1e-9


def test_optimal_loss_budget_up_to_ten_classes():
    # 140 vertices at m = 10: id rows of width 9 and 10 have no int64 key
    # in base n, so edge lookup must not depend on one
    ds = gen_gaussian(num_classes=10, per_class=14, seed=0)
    loss3, _, _ = optimal_loss(ds, 1.5, 3)
    loss10, _, graph = optimal_loss(ds, 1.5, 10)
    assert graph.max_degree == 10
    assert graph.edge_counts() == {2: 2051, 3: 1274}
    assert loss10 == loss3


# ------------------------------------------------------------------- pairwise


def test_pairwise_all_far_apart_is_zero():
    ds = from_arrays([(0.0, 0.0), (10.0, 0.0)], [0, 1])
    a = pairwise_binary_losses(ds, 1.0)
    assert np.array_equal(a.losses, np.zeros((2, 2)))


def test_pairwise_single_edge_balanced():
    ds = from_arrays([(0.0, 0.0), (0.5, 0.0)], [0, 1])
    a = pairwise_binary_losses(ds, 0.3)
    # grid oracle on the single-edge LP: max (q0+q1)/2 with q0+q1 <= 1
    grid = np.linspace(0, 1, 101)
    oracle = 1.0 - max(
        0.5 * (q0 + q1) for q0 in grid for q1 in grid if q0 + q1 <= 1.0
    )
    assert oracle == pytest.approx(0.5, abs=1e-12)
    assert a.losses[0, 1] == pytest.approx(oracle, abs=1e-9)
    assert a.losses[1, 0] == a.losses[0, 1]
    assert np.array_equal(np.diag(a.losses), [0.0, 0.0])


def test_pairwise_uses_conditional_masses():
    # pair competes only between classes 0 and 1; class 2 mass is irrelevant
    pts = [(0.0, 0.0), (0.1, 0.0), (50.0, 0.0)]
    ds = from_arrays(pts, [0, 1, 2], masses=[0.1, 0.3, 0.6])
    a = pairwise_binary_losses(ds, 1.0)
    # conditional masses (0.25, 0.75) on one edge: loss = lighter mass
    assert a.losses[0, 1] == pytest.approx(0.25, abs=1e-9)
    assert a.losses[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_pairwise_parallel_matches_sequential():
    rng = np.random.default_rng(46)
    ds = random_dataset(rng, 18, 4, 2, spread=0.3)
    seq = pairwise_binary_losses(ds, 0.5, jobs=1)
    par = pairwise_binary_losses(ds, 0.5, jobs=4)
    assert np.array_equal(seq.losses, par.losses)


def pairwise_reference(ds, eps):
    """Each one-versus-one problem as its own dataset, swept on its own."""
    k = ds.num_classes
    a = np.zeros((k, k))
    for i, j in itertools.combinations(range(k), 2):
        mask = (ds.labels == i) | (ds.labels == j)
        if not ((ds.labels == i).any() and (ds.labels == j).any()):
            continue
        sub = LabeledDataset(ds.points[mask], (ds.labels[mask] == j).astype(int),
                             ds.masses[mask] / ds.masses[mask].sum())
        graph = build_conflict_graph(sub, eps)
        sol = solve_packing(PackingLp(graph.masses, incidence(graph)))
        a[i, j] = a[j, i] = max(0.0, sol.loss)
    return a


def test_pairwise_matches_per_pair_sweeps():
    rng = np.random.default_rng(47)
    for trial in range(12):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2 * k, 40))
        pts = rng.normal(size=(n, int(rng.integers(1, 4)))) * 0.5
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        # uniform masses take the flow backend, Dirichlet masses HiGHS
        masses = np.full(n, 1.0 / n) if trial % 2 else rng.dirichlet(np.ones(n))
        ds = LabeledDataset(pts, labels, masses)
        eps = float(rng.uniform(0.1, 0.8))
        assert np.array_equal(pairwise_binary_losses(ds, eps).losses,
                              pairwise_reference(ds, eps))


def test_pairwise_absent_middle_class_matches_per_pair_sweeps():
    rng = np.random.default_rng(48)
    pts = rng.normal(size=(12, 2)) * 0.4
    labels = np.array([0, 2, 3] * 4)  # class 1 has no point
    ds = LabeledDataset(pts, labels, rng.dirichlet(np.ones(12)))
    with pytest.warns(UserWarning, match="empty side"):
        got = pairwise_binary_losses(ds, 0.4)
    assert np.array_equal(got.losses, pairwise_reference(ds, 0.4))
    assert len(got.backends) == 3
    assert not got.losses[1].any()


def test_one_pair_sweep_per_call(monkeypatch):
    calls = []
    sweep = bounds.build_conflict_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(bounds, "build_conflict_graph", counting)
    ds = gen_gaussian(num_classes=4, per_class=8, variance=0.5, mean_radius=1.0, seed=5)
    report = bound_report(ds, 0.6, m_max=3)
    assert len(calls) == 1
    assert report.class_only_2 > 0.0
    calls.clear()
    pairwise_binary_losses(ds, 0.6)
    assert len(calls) == 1


def test_pairwise_entries_within_half():
    rng = np.random.default_rng(44)
    for _ in range(5):
        ds = random_dataset(rng, 15, 3, 2, spread=0.2)
        a = pairwise_binary_losses(ds, float(rng.uniform(0.2, 1.0)))
        assert (a.losses <= 0.5 + 1e-9).all()
        assert (a.losses >= -1e-12).all()
        assert np.allclose(a.losses, a.losses.T)


# ----------------------------------------------------------------- class-only


def test_class_only_zero_matrix():
    a = PairwiseLossMatrix(np.zeros((3, 3)))
    assert class_only_bound(a, np.full(3, 1 / 3)) == pytest.approx(0.0, abs=1e-12)


def test_class_only_two_classes():
    a = PairwiseLossMatrix(np.array([[0.0, 0.3], [0.3, 0.0]]))
    priors = np.array([0.5, 0.5])
    expected = oracle_class_only(a.losses, priors)
    assert expected == pytest.approx(0.3, abs=1e-12)
    assert class_only_bound(a, priors) == pytest.approx(expected, abs=1e-9)


def test_class_only_three_classes_uniform():
    m = np.full((3, 3), 0.3)
    np.fill_diagonal(m, 0.0)
    a = PairwiseLossMatrix(m)
    priors = np.full(3, 1 / 3)
    expected = oracle_class_only(a.losses, priors)
    assert expected == pytest.approx(0.3, abs=1e-12)
    assert class_only_bound(a, priors) == pytest.approx(expected, abs=1e-9)


def test_class_only_matches_permutation_oracle_random():
    rng = np.random.default_rng(50)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        raw = rng.uniform(0, 0.5, size=(k, k))
        m = (raw + raw.T) / 2
        np.fill_diagonal(m, 0.0)
        priors = rng.dirichlet(np.ones(k))
        got = class_only_bound(PairwiseLossMatrix(m), priors)
        assert got == pytest.approx(oracle_class_only(m, priors), abs=1e-8)


# ------------------------------------------------------------------- caro-wei


def test_caro_wei_empty_graph():
    ds = from_arrays([(0.0, 0.0), (9.0, 0.0)], [0, 1])
    graph = build_conflict_graph(ds, 0.5)
    assert caro_wei_bound(graph, np.ones(2)) == pytest.approx(0.0, abs=1e-12)


def test_caro_wei_triangle_uniform():
    graph = build_conflict_graph(triangle_dataset(), 0.55)
    # direct evaluation: each vertex contributes (1/3) * 1/3
    assert caro_wei_bound(graph, np.ones(3)) == pytest.approx(2 / 3, abs=1e-12)
    hard, _ = hard_loss_bruteforce(graph)
    assert hard == pytest.approx(2 / 3, abs=1e-12)  # tight here


def test_caro_wei_indicator_recovers_set_probability():
    rng = np.random.default_rng(61)
    for _ in range(10):
        ds = random_dataset(rng, 12, 3, 2)
        graph = build_conflict_graph(ds, float(rng.uniform(0.2, 0.8)))
        _, best_set = hard_loss_bruteforce(graph)
        w = np.zeros(12)
        w[list(best_set)] = 1.0
        expected = float(ds.masses[list(best_set)].sum())
        assert caro_wei_bound(graph, w) == pytest.approx(1 - expected, abs=1e-12)


def test_caro_wei_zero_weights_vacuous():
    graph = build_conflict_graph(triangle_dataset(), 0.55)
    assert caro_wei_bound(graph, np.zeros(3)) == 1.0


# ------------------------------------------------------- randomized rounding


def test_rounding_empty_graph_takes_everything():
    ds = from_arrays([(0.0, 0.0), (9.0, 0.0)], [0, 1])
    graph = build_conflict_graph(ds, 0.5)
    for seed in range(10):
        assert np.array_equal(randomized_independent_set(graph, [1.0, 2.0], seed), [0, 1])


def test_rounding_single_edge_first_arrival_probability():
    ds = from_arrays([(0.0, 0.0), (0.5, 0.0)], [0, 1])
    graph = build_conflict_graph(ds, 0.3)
    w = np.array([10.0, 1.0])
    hits = sum(
        0 in randomized_independent_set(graph, w, seed) for seed in range(2000)
    )
    expected = 10.0 / 11.0  # first-arrival probability w_u / (w_u + w_v)
    sigma = np.sqrt(expected * (1 - expected) / 2000)
    assert abs(hits / 2000 - expected) <= 4 * sigma


def test_rounding_triangle_always_single_vertex():
    graph = build_conflict_graph(triangle_dataset(), 0.55)
    for seed in range(25):
        assert randomized_independent_set(graph, np.ones(3), seed).size == 1


def test_rounding_output_is_independent():
    rng = np.random.default_rng(71)
    ds = random_dataset(rng, 15, 3, 2)
    graph = build_conflict_graph(ds, 0.5)
    pairs = set(graph.edge_list())
    for seed in range(20):
        chosen = randomized_independent_set(graph, rng.uniform(0, 1, 15), seed)
        for u, v in itertools.combinations(chosen.tolist(), 2):
            assert (u, v) not in pairs


# ------------------------------------------------------------------ hard loss


def test_hard_loss_no_edges():
    ds = from_arrays([(0.0, 0.0), (9.0, 0.0)], [0, 1])
    graph = build_conflict_graph(ds, 0.5)
    loss, chosen = hard_loss_bruteforce(graph)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert chosen == frozenset({0, 1})


def test_hard_loss_triangle_vs_soft():
    loss2, _, graph = optimal_loss(triangle_dataset(), 0.55, 2)
    hard, _ = hard_loss_bruteforce(graph)
    assert loss2 == pytest.approx(0.5, abs=1e-9)
    assert hard == pytest.approx(2 / 3, abs=1e-12)  # non-integral LP corner


def test_hard_loss_matches_exhaustive_oracle():
    rng = np.random.default_rng(83)
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(4, 13)), 3, 2)
        eps = float(rng.uniform(0.2, 0.8))
        graph = build_conflict_graph(ds, eps)
        loss, _ = hard_loss_bruteforce(graph)
        assert loss == pytest.approx(oracle_mwis(ds, eps), abs=1e-12)


def test_hard_loss_bipartite_equals_lp():
    rng = np.random.default_rng(97)
    for _ in range(15):
        ds = random_dataset(rng, int(rng.integers(4, 18)), 2, 2, spread=0.4)
        eps = float(rng.uniform(0.2, 0.8))
        loss, _, graph = optimal_loss(ds, eps, 2)
        hard, _ = hard_loss_bruteforce(graph)
        assert loss == pytest.approx(hard, abs=1e-8)


def test_hard_loss_refuses_large_instances():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, 31, 3, 2)
    graph = build_conflict_graph(ds, 0.3)
    with pytest.raises(InstanceTooLargeError):
        hard_loss_bruteforce(graph, cap=30)


def test_hard_loss_deep_search_needs_no_recursion():
    # 120 isolated vertices: the include branches nest 120 deep, past the
    # lowered limit below, which a recursive search would hit
    ds = from_arrays(10.0 * np.arange(120.0)[:, None], np.arange(120) % 3)
    graph = build_conflict_graph(ds, 0.5)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        loss, chosen = hard_loss_bruteforce(graph, cap=120)
    finally:
        sys.setrecursionlimit(limit)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert chosen == frozenset(range(120))


# ------------------------------------------------------------------- strategy


def test_strategy_triangle_uniform_cover():
    loss, sol, graph = optimal_loss(triangle_dataset(), 0.55, 2)
    strategy = extract_strategy(sol, graph)
    assert strategy.cover_cost == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(sol.edge_cover, 1 / 6, atol=1e-9)
    for vs in strategy.per_vertex:
        assert vs.probabilities.sum() == pytest.approx(1.0, abs=1e-8)
        # two incident edges, each with conditional probability 1/2
        assert sorted(len(e) for e in vs.edges) == [2, 2]
        assert np.allclose(np.sort(vs.probabilities), [0.5, 0.5], atol=1e-8)
        for edge, witness in zip(vs.edges, vs.witnesses):
            assert vs.vertex_id in edge
            dists = np.linalg.norm(graph.points[list(edge)] - witness, axis=1)
            assert dists.max() <= 0.55 * (1 + 1e-9)


def test_strategy_heavy_vertex_always_confusable():
    ds = triangle_dataset(masses=[0.6, 0.2, 0.2])
    loss, sol, graph = optimal_loss(ds, 0.55, 3)
    assert 1.0 - loss == pytest.approx(0.6, abs=1e-9)  # correct prob = heavy mass
    strategy = extract_strategy(sol, graph)
    for vid in (1, 2):
        vs = strategy.per_vertex[vid]
        for edge in vs.edges:
            assert edge is not None and 0 in edge


def test_strategy_isolated_vertex_plays_itself():
    ds = from_arrays([(0.0, 0.0), (0.4, 0.0), (9.0, 9.0)], [0, 1, 2])
    loss, sol, graph = optimal_loss(ds, 0.25, 3)
    strategy = extract_strategy(sol, graph)
    vs = strategy.per_vertex[2]
    assert vs.edges == [None]
    assert vs.probabilities[0] == pytest.approx(1.0)
    assert np.array_equal(vs.witnesses[0], [9.0, 9.0])
    assert not vs.over_covered


def test_strategy_forced_overcoverage_is_normalized():
    # single triple constraint with unbalanced masses: any minimal cover puts
    # at least 0.3 on the triple edge, over-covering the 0.2 vertex
    ds = triangle_dataset(masses=[0.5, 0.3, 0.2])
    loss, sol, graph = optimal_loss(ds, 0.6, 3)
    assert 1.0 - loss == pytest.approx(0.5, abs=1e-9)
    strategy = extract_strategy(sol, graph)
    flagged = [vs.vertex_id for vs in strategy.per_vertex if vs.over_covered]
    assert 2 in flagged
    for vs in strategy.per_vertex:
        assert vs.probabilities.sum() == pytest.approx(1.0, abs=1e-8)


def test_strategy_zero_budget_plays_unperturbed_points():
    rng = np.random.default_rng(55)
    ds = random_dataset(rng, 8, 3, 2)
    loss, sol, graph = optimal_loss(ds, 0.0, 3)
    strategy = extract_strategy(sol, graph)
    for vs in strategy.per_vertex:
        assert vs.edges == [None]
        assert np.array_equal(vs.witnesses[0], ds.points[vs.vertex_id])


def test_strategy_rejects_uncovered_vertex():
    loss, sol, graph = optimal_loss(triangle_dataset(), 0.55, 2)
    sol.edge_cover = np.zeros_like(sol.edge_cover)
    sol.singleton_cover = np.zeros_like(sol.singleton_cover)
    with pytest.raises(ValueError):
        extract_strategy(sol, graph)


# ----------------------------------------------------------------- classifier


def test_classifier_far_query_uniform():
    ds = triangle_dataset()
    loss, sol, graph = optimal_loss(ds, 0.55, 2)
    table = SoftClassifierTable.from_solution(ds, 0.55, sol)
    out = evaluate_classifier(table, np.array([50.0, 50.0]))
    assert np.allclose(out, 1 / 3)


def test_classifier_at_pair_witness_splits_between_endpoints():
    ds = triangle_dataset()
    loss, sol, graph = optimal_loss(ds, 0.55, 2)
    table = SoftClassifierTable.from_solution(ds, 0.55, sol)
    edge = graph.edge_list()[0]
    out = evaluate_classifier(table, edge_witness(graph.points, edge))
    labels = [int(graph.labels[i]) for i in edge]
    for y in labels:
        assert out[y] == pytest.approx(0.5, abs=1e-8)
    other = ({0, 1, 2} - set(labels)).pop()
    assert out[other] == pytest.approx(0.0, abs=1e-8)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_classifier_isolated_vertex_one_hot():
    ds = from_arrays([(0.0, 0.0), (0.4, 0.0), (9.0, 9.0)], [0, 1, 2])
    loss, sol, _ = optimal_loss(ds, 0.25, 3)
    table = SoftClassifierTable.from_solution(ds, 0.25, sol)
    out = evaluate_classifier(table, np.array([9.0, 9.0]))
    assert out[2] == pytest.approx(1.0, abs=1e-9)


def test_classifier_side_information_restricts_classes():
    ds = triangle_dataset()
    loss, sol, graph = optimal_loss(ds, 0.6, 3)
    table = SoftClassifierTable.from_solution(ds, 0.6, sol)
    triple = [e for e in graph.edge_list() if len(e) == 3][0]
    out = evaluate_classifier(table, edge_witness(graph.points, triple), side_info={0, 1})
    assert out[0] >= table.q[0] - 1e-8
    assert out[1] >= table.q[1] - 1e-8
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_classifier_side_information_outside_classes_raises():
    ds = triangle_dataset()
    loss, sol, graph = optimal_loss(ds, 0.6, 3)
    table = SoftClassifierTable.from_solution(ds, 0.6, sol)
    for bad in (7, -1):
        with pytest.raises(ValueError, match=rf"outside 0\.\.2: \[{bad}\]"):
            evaluate_classifier(table, np.zeros(2), side_info={0, bad})


def test_classifier_guarantee_on_neighborhood_queries():
    rng = np.random.default_rng(15)
    for _ in range(5):
        ds = random_dataset(rng, 10, 3, 2)
        eps = float(rng.uniform(0.2, 0.6))
        loss, sol, _ = optimal_loss(ds, eps, 3)  # m = K: full hypergraph
        table = SoftClassifierTable.from_solution(ds, eps, sol)
        for v in range(ds.num_points):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            query = ds.points[v] + direction * eps * rng.uniform(0, 1)
            out = evaluate_classifier(table, query)
            assert out[ds.labels[v]] >= table.q[v] - 1e-8
            assert out.min() >= -1e-12
            assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_strategy_and_classifier_close_the_duality_gap():
    # pairing the adversary's conditional play with the optimal classifier
    # reproduces the LP loss (complementary slackness at m = K)
    rng = np.random.default_rng(27)
    for _ in range(8):
        ds = random_dataset(rng, int(rng.integers(5, 13)), 3, 2)
        eps = float(rng.uniform(0.2, 0.7))
        loss, sol, graph = optimal_loss(ds, eps, 3)
        strategy = extract_strategy(sol, graph)
        table = SoftClassifierTable.from_solution(ds, eps, sol)
        expected_loss = 0.0
        for vs in strategy.per_vertex:
            mass = ds.masses[vs.vertex_id]
            label = ds.labels[vs.vertex_id]
            for prob, witness in zip(vs.probabilities, vs.witnesses):
                h = evaluate_classifier(table, witness)
                expected_loss += mass * prob * (1.0 - h[label])
        assert expected_loss == pytest.approx(loss, abs=1e-6)


# -------------------------------------------------------------------- stats


def test_class_distance_stats_two_points():
    ds = from_arrays([(0.0, 0.0), (3.0, 4.0)], [0, 1])
    assert np.allclose(class_distance_stats(ds), [5.0, 5.0])


def test_class_distance_stats_translation_invariant():
    # the Gram form cancels far from the origin unless the points are centred;
    # uncentred, this translation moved the output by about 1.9e-3
    ds = gen_gaussian(per_class=60, seed=7)
    moved = LabeledDataset(ds.points + 1e7, ds.labels, ds.masses)
    assert np.allclose(class_distance_stats(moved), class_distance_stats(ds),
                       rtol=0.0, atol=1e-8)


def test_class_distance_stats_coincident_points_are_at_zero():
    # the Gram form puts coincident points about 1e-8 |p| apart; the minimum
    # is decided from coordinate differences
    rng = np.random.default_rng(71)
    direction = rng.normal(size=(200, 3))
    pts = direction / np.linalg.norm(direction, axis=1, keepdims=True)
    pts *= rng.uniform(100.0, 300.0, size=(200, 1))
    ds = from_arrays(np.vstack([pts, pts]), [0] * 200 + [1] * 200, merge_duplicates=False)
    assert class_distance_stats(ds).tolist() == [0.0, 0.0]


def test_class_distance_stats_matches_double_loop():
    rng = np.random.default_rng(33)
    ds = random_dataset(rng, 20, 3, 3)
    stats = class_distance_stats(ds)
    for c in range(3):
        members = np.nonzero(ds.labels == c)[0]
        dists = []
        for i in members:
            best = min(
                np.linalg.norm(ds.points[i] - ds.points[j])
                for j in range(20)
                if ds.labels[j] != c
            )
            dists.append(best)
        assert stats[c] == pytest.approx(np.mean(dists), rel=1e-12)


# ---------------------------------------------------------------- bound chain


def test_bound_chain_small_instances():
    rng = np.random.default_rng(101)
    for _ in range(15):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 15))
        ds = random_dataset(rng, n, k, 2, spread=0.4)
        eps = float(rng.uniform(0.1, 0.8))
        report = bound_report(ds, eps, m_max=min(4, max(2, k)), hard_cap=30)
        chain = [report.class_only_2]
        chain += [report.losses[m] for m in sorted(report.losses)]
        chain += [report.hard_bruteforce, report.caro_wei]
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + 1e-6


def test_k2_collapse_soft_equals_hard():
    rng = np.random.default_rng(113)
    for _ in range(10):
        ds = random_dataset(rng, int(rng.integers(4, 16)), 2, 2, spread=0.4)
        eps = float(rng.uniform(0.2, 0.8))
        loss2, _, graph = optimal_loss(ds, eps, 2)
        hard, _ = hard_loss_bruteforce(graph)
        assert loss2 == pytest.approx(hard, abs=1e-8)


def test_bound_report_records_solver_backends():
    # a triangle of pairs is an odd cycle; each of its one-versus-one
    # problems is one pair edge with masses 1/2, 1/2
    report = bound_report(triangle_dataset(), 0.6, m_max=3)
    assert report.solver_backends == {"solve_2": "highs", "solve_3": "highs",
                                      "pairwise": "flow"}
    doc = report.to_json_dict()
    assert doc["solver_backends"] == report.solver_backends
    assert set(doc) - {"solver_backends"} == {
        "schema_version", "epsilon", "max_degree", "losses", "class_only_2", "caro_wei",
        "hard_bruteforce", "edge_counts", "boundary_tight_edges", "q_histograms",
        "runtimes", "notes", "certified"}
    # two classes: the main pair LP is bipartite too
    two = bound_report(from_arrays([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], [0, 1, 0]), 0.3)
    assert two.solver_backends == {"solve_2": "flow", "pairwise": "flow"}
    assert two.losses[2] == pytest.approx(1 / 3, abs=1e-12)
    assert two.caro_wei == pytest.approx(1 / 3, abs=1e-12)


def test_bound_report_contents():
    ds = triangle_dataset(masses=[0.5, 0.3, 0.2])
    report = bound_report(ds, 0.6, m_max=3)
    assert set(report.losses) == {2, 3}
    assert report.edge_counts == {2: 3, 3: 1}
    assert report.hard_bruteforce is not None
    assert report.class_only_2 is not None
    assert report.caro_wei is not None
    for m, hist in report.q_histograms.items():
        assert len(hist["counts"]) == 20
        assert len(hist["bin_edges"]) == 21
        assert sum(hist["counts"]) == ds.num_points
    assert {"build", "solve_2", "solve_3", "extend_3"} <= set(report.runtimes)
    rows = report.to_csv_rows()
    assert all(len(row) == len(BOUND_CSV_HEADER) for row in rows)
    names = [row[2] for row in rows]
    assert names == ["lstar_2", "lstar_3", "class_only_2", "caro_wei", "hard_bruteforce"]
    doc = report.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["losses"]["3"] == report.losses[3]
