"""Bound chain, strategy extraction, classifier evaluation, reports."""

import dataclasses
import itertools
import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from oracles import (
    oracle_class_only,
    oracle_max_weight_independent,
    random_dataset,
    randomized_independent_set,
    triangle_dataset,
)

from optloss import bounds, hypergraph
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
)
from optloss.data import LabeledDataset, from_arrays, gen_gaussian
from optloss.hypergraph import (
    REL_TOL,
    ConflictHypergraph,
    _incidence_of,
    build_conflict_graph,
    edge_witness,
    extend_hyperedges,
    incidence,
    vertex_graph,
)
from optloss.lp_core import PackingLp, solve_packing, verify_certificates


def oracle_mwis(ds, eps):
    """Exhaustive maximum-probability independent set."""
    graph = build_conflict_graph(ds, eps)
    pairs = graph.edge_list()
    return 1.0 - oracle_max_weight_independent(pairs, ds.masses)


# ---------------------------------------------------------------- optimal_loss


def test_optimal_loss_zero_budget_distinct_points():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 10, 3, 2, spread=0.5)
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


def collect_solves(monkeypatch) -> list:
    """Route ``bounds.solve_packing`` through a wrapper that keeps each answer."""
    solves = []
    solve = bounds.solve_packing

    def collecting(lp, tol):
        solves.append(solve(lp, tol))
        return solves[-1]

    monkeypatch.setattr(bounds, "solve_packing", collecting)
    return solves


def test_pairwise_is_one_packing_solve(monkeypatch):
    solves = collect_solves(monkeypatch)
    ds = gen_gaussian(num_classes=4, per_class=8, variance=0.5, mean_radius=1.0, seed=5)
    a = pairwise_binary_losses(ds, 0.6)
    (sol,) = solves
    # every vertex has one copy in each of the K - 1 pairs of its class
    assert sol.lp.masses.shape == (3 * 32,)
    assert a.backend == "flow"
    assert np.count_nonzero(a.losses) == 12


def test_pairwise_with_unequal_class_sizes_stays_flow():
    # conditional masses 1/(n_i + n_j) differ between pairs; the one
    # solve's masses, 1/n over one constant, still scale to integers
    rng = np.random.default_rng(48)
    for sizes in ([3, 9, 14], [2, 5, 11, 20], [1, 30]):
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        n = labels.size
        ds = LabeledDataset(rng.normal(size=(n, 2)) * 0.5, labels, np.full(n, 1.0 / n))
        a = pairwise_binary_losses(ds, 0.4)
        assert a.backend == "flow"
        assert np.count_nonzero(a.losses) > 0
        assert np.array_equal(a.losses, pairwise_reference(ds, 0.4))


def test_renaming_classes_permutes_the_pairwise_matrix():
    rng = np.random.default_rng(49)
    for trial in range(20):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2 * k, 40))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        masses = np.full(n, 1.0 / n) if trial % 2 else rng.dirichlet(np.ones(n))
        ds = LabeledDataset(rng.normal(size=(n, 2)) * 0.5, labels, masses)
        perm = rng.permutation(k)
        eps = float(rng.uniform(0.1, 0.8))
        a = pairwise_binary_losses(ds, eps).losses
        b = pairwise_binary_losses(LabeledDataset(ds.points, perm[labels], masses), eps).losses
        assert np.array_equal(b[np.ix_(perm, perm)], a)


def test_pairwise_union_certifies_every_pair_in_its_own_units(monkeypatch):
    # the lightest of these Dirichlet masses, 2.3e-8, lies between the
    # certificate's 1e-8 and HiGHS's default 1e-7 feasibility tolerance
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(60, 2)) * 0.5
    ds = LabeledDataset(pts, np.arange(60) % 3, rng.dirichlet(np.full(60, 0.5)))
    eps = 0.2
    report = bound_report(ds, eps, m_max=3)
    assert report.solver_backends == {"solve_2": "highs", "solve_3": "highs",
                                      "pairwise": "highs"}
    solves = collect_solves(monkeypatch)
    a = pairwise_binary_losses(ds, eps)
    (sol,) = solves
    union = sol.lp.incidence.matrix
    graph = build_conflict_graph(ds, eps)
    lo, hi = np.sort(ds.labels[graph.pairs], axis=1).T
    col = row = 0
    for i, j in itertools.combinations(range(3), 2):
        keep = (ds.labels == i) | (ds.labels == j)
        size = int(keep.sum())
        rows = (np.cumsum(keep) - 1)[graph.pairs[(lo == i) & (hi == j)]]
        own = PackingLp(ds.masses[keep] / ds.masses[keep].sum(),
                        _incidence_of([rows], ds.labels[keep]))
        block = union[row:row + len(rows)]
        # the block's rows touch its own columns only, and are the pair's rows
        assert block[:, col:col + size].nnz == block.nnz == 2 * len(rows)
        assert (block[:, col:col + size] != own.incidence.matrix).nnz == 0
        # the union's mass unit to the pair's conditional one
        unit = own.masses.sum() / sol.lp.masses[col:col + size].sum()
        piece = dataclasses.replace(
            sol, q=sol.q[col:col + size],
            edge_cover=sol.edge_cover[row:row + len(rows)] * unit,
            singleton_cover=sol.singleton_cover[col:col + size] * unit)
        assert verify_certificates(own, piece).ok
        assert a.losses[i, j] == max(0.0, math.fsum(own.masses * (1.0 - piece.q)))
        col, row = col + size, row + len(rows)
    assert (col, row) == union.shape[::-1]


def test_a_light_class_pair_does_not_tighten_the_other_pairs():
    # classes 0 and 1 hold 1e-3 of the mass; the lightest vertex, 5.3e-11,
    # is within the certificate's 1e-8 in pairs {0, 2} and {1, 2}, and
    # 5.3e-8 of pair {0, 1}. The union's masses are in units of the
    # lightest pair's mass, where HiGHS's tolerance floor of 1e-10 still
    # meets the certificate; in raw units the union needed 1e-11 everywhere
    rng = np.random.default_rng(35)
    pts = rng.normal(size=(60, 2)) * 0.5
    labels = np.arange(60) % 3
    masses = np.empty(60)
    masses[labels < 2] = rng.dirichlet(np.full(40, 0.5)) * 1e-3
    masses[labels == 2] = rng.dirichlet(np.ones(20)) * (1 - 1e-3)
    ds = LabeledDataset(pts, labels, masses)
    assert 1e-11 < masses.min() < 1e-10
    a = pairwise_binary_losses(ds, 0.2)
    assert a.backend == "highs"
    assert np.allclose(a.losses, pairwise_reference(ds, 0.2), rtol=0.0, atol=1e-9)


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
        ds = random_dataset(rng, 12, 3, 2, spread=0.5)
        graph = build_conflict_graph(ds, float(rng.uniform(0.2, 0.8)))
        _, best_set = hard_loss_bruteforce(graph)
        w = np.zeros(12)
        w[list(best_set)] = 1.0
        expected = float(ds.masses[list(best_set)].sum())
        assert caro_wei_bound(graph, w) == pytest.approx(1 - expected, abs=1e-12)


def test_caro_wei_zero_weights_vacuous():
    graph = build_conflict_graph(triangle_dataset(), 0.55)
    assert caro_wei_bound(graph, np.zeros(3)) == 1.0
    # no vertex ever arrives, so there is nothing to round
    with pytest.raises(ValueError, match="weights must not be all zero"):
        randomized_independent_set(graph, np.zeros(3))


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_caro_wei_and_rounding_reject_weights_not_finite_and_nonnegative(bad):
    # NaN passed a "< 0" test and made the bound NaN; inf gave inf / inf
    graph = build_conflict_graph(triangle_dataset(), 0.55)
    w = np.array([1.0, bad, 1.0])
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        caro_wei_bound(graph, w)
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        randomized_independent_set(graph, w)


def one_class_dataset():
    return from_arrays([(0.0, 0.0), (1.0, 0.0)], [0, 0])


@pytest.mark.parametrize("call, message", [
    (lambda: optimal_loss(triangle_dataset(), 0.5, 0), "m must be >= 1"),
    (lambda: bound_report(triangle_dataset(), 0.5, m_max=1), "m_max must be >= 2"),
    (lambda: pairwise_binary_losses(one_class_dataset(), 0.5), "need at least two classes"),
    (lambda: class_distance_stats(one_class_dataset()), "need at least two classes"),
    (lambda: PairwiseLossMatrix(np.zeros((2, 3))), "must be square"),
    (lambda: class_only_bound(PairwiseLossMatrix(np.zeros((3, 3))), [0.5, 0.5]),
     "priors length must match"),
    (lambda: class_only_bound(PairwiseLossMatrix(np.zeros((3, 3))), [0.5, 0.5, 0.5]),
     "priors must sum to 1"),
    (lambda: caro_wei_bound(build_conflict_graph(triangle_dataset(), 0.55), np.ones(2)),
     "weights length must match"),
    (lambda: evaluate_classifier(SoftClassifierTable(**classifier_fields()), np.zeros(3)),
     r"query dimension \(3,\) does not match data dimension \(2,\)"),
], ids=["optimal_loss", "bound_report", "pairwise", "class_distance_stats", "square",
        "priors_length", "priors_sum", "weights_length", "query_dimension"])
def test_bound_functions_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("priors, message", [
    ([1.5, -0.25, -0.25], "priors must be finite and nonnegative"),  # used to return 0.25
    ([np.nan, 0.5, 0.5], "priors must be finite and nonnegative"),  # used to reach scipy
    ([np.inf, 0.5, 0.5], "priors must be finite and nonnegative"),
    ([0.5, 0.25, 0.2], "priors must sum to 1"),
])
def test_class_only_bound_rejects_priors_that_are_not_a_distribution(priors, message):
    a = 1.0 - np.eye(3)
    with pytest.raises(ValueError, match=message):
        class_only_bound(PairwiseLossMatrix(a), priors)


def test_bound_report_rejects_negative_caro_wei_weights():
    # a caller's -5 used to be clipped to 0, giving a certified caro_wei of 0.4157
    ds = gen_gaussian(3, 20, seed=1)
    w = np.ones(ds.num_points)
    w[0] = -5.0
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        bound_report(ds, 2.4, caro_wei_weights=w)


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
    ds = random_dataset(rng, 15, 3, 2, spread=0.5)
    graph = build_conflict_graph(ds, 0.5)
    pairs = set(graph.edge_list())
    for seed in range(20):
        chosen = randomized_independent_set(graph, rng.uniform(0, 1, 15), seed)
        for u, v in itertools.combinations(chosen.tolist(), 2):
            assert (u, v) not in pairs


def dense_rule_graph(rng, n):
    """A random pair graph and its dense 0/1 adjacency matrix."""
    adjacency = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.6), 1)
    pairs = np.argwhere(adjacency).astype(np.int64)  # row-major: sorted rows
    adjacency = adjacency | adjacency.T
    graph = ConflictHypergraph(np.arange(n), rng.dirichlet(np.ones(n)), None, {2: pairs}, 0.0)
    return graph, adjacency


def test_caro_wei_and_rounding_match_dense_adjacency_rule():
    # exact equality: the pair-array paths add each vertex's neighbours in
    # increasing id order and compare arrivals as the rule below does
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        graph, adjacency = dense_rule_graph(rng, n)
        w = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8)
        w[rng.random(n) < 0.1] = 5e-324  # its arrival overflows to inf
        denom = np.zeros(n)
        for v in range(n):
            for u in np.flatnonzero(adjacency[v]):
                denom[v] += w[u]
        denom += w
        mask = w > 0
        expected = 1.0 - float(np.sum(graph.masses[mask] * w[mask] / denom[mask]))
        assert caro_wei_bound(graph, w) == expected
        if not mask.any():
            continue
        for seed in range(5):
            rng_arrival = np.random.Generator(np.random.Philox(key=seed))
            with np.errstate(divide="ignore", over="ignore"):
                arrival = rng_arrival.exponential(size=n) / w
            chosen = [v for v in range(n) if w[v] > 0 and all(
                arrival[v] < arrival[u] for u in np.flatnonzero(adjacency[v]))]
            assert np.array_equal(randomized_independent_set(graph, w, seed), chosen)


def test_pair_graph_consumers_accept_a_graph_without_pairs():
    ds = from_arrays([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)], [0, 1, 2])
    graph = vertex_graph(ds, 1.0)
    assert graph.pairs.shape == (0, 2)
    assert caro_wei_bound(graph, np.ones(3)) == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(randomized_independent_set(graph, np.ones(3)), [0, 1, 2])
    assert hard_loss_bruteforce(graph) == (0.0, frozenset({0, 1, 2}))


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
        ds = random_dataset(rng, int(rng.integers(4, 13)), 3, 2, spread=0.5)
        eps = float(rng.uniform(0.2, 0.8))
        graph = build_conflict_graph(ds, eps)
        loss, _ = hard_loss_bruteforce(graph)
        assert loss == pytest.approx(oracle_mwis(ds, eps), abs=1e-12)


def test_hard_loss_sparse_graphs_match_exhaustive_oracle():
    # small budgets leave isolated vertices, and vertices that become isolated
    # deeper in the search, which the search takes without branching
    rng = np.random.default_rng(84)
    for _ in range(40):
        n, k = int(rng.integers(4, 13)), int(rng.integers(2, 5))
        base = random_dataset(rng, n, k, 2, spread=0.5)
        ds = from_arrays(base.points, base.labels, masses=rng.dirichlet(np.ones(n)),
                         merge_duplicates=False)
        eps = float(rng.uniform(0.05, 0.5))
        loss, chosen = hard_loss_bruteforce(build_conflict_graph(ds, eps))
        assert loss == pytest.approx(oracle_mwis(ds, eps), abs=1e-12)
        assert loss == pytest.approx(1.0 - ds.masses[sorted(chosen)].sum(), abs=1e-12)


def test_hard_loss_takes_isolated_vertices_without_branching():
    n = 2000
    ds = from_arrays(10.0 * np.arange(float(n))[:, None], np.arange(n) % 3)
    graph = build_conflict_graph(ds, 0.5)
    start = time.perf_counter()
    loss, chosen = hard_loss_bruteforce(graph, cap=n)
    assert time.perf_counter() - start < 10.0  # about 5 ms; a branching search takes minutes
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert chosen == frozenset(range(n))


@pytest.mark.parametrize("n", [100, 200])
def test_hard_loss_never_below_zero(n):
    # the best set holds all the mass, whose float sum can exceed 1
    ds = from_arrays(10.0 * np.arange(float(n))[:, None], np.arange(n) % 3)
    loss, chosen = hard_loss_bruteforce(build_conflict_graph(ds, 0.5), cap=n)
    assert loss >= 0.0
    assert chosen == frozenset(range(n))


def test_hard_loss_searches_components_separately():
    # 400 disjoint conflicting pairs: one search over all 800 vertices does
    # not finish in minutes, one search per pair takes milliseconds
    x = 10.0 * np.repeat(np.arange(400.0), 2) + np.tile([0.0, 0.5], 400)
    ds = from_arrays(x[:, None], np.tile([0, 1], 400))
    graph = build_conflict_graph(ds, 0.5)
    start = time.perf_counter()
    loss, chosen = hard_loss_bruteforce(graph, cap=800)
    assert time.perf_counter() - start < 10.0  # a few milliseconds
    assert loss == pytest.approx(0.5, abs=1e-12)
    assert len(chosen) == 400 and not any(2 * i in chosen and 2 * i + 1 in chosen
                                          for i in range(400))


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
    ds = random_dataset(rng, 31, 3, 2, spread=0.5)
    graph = build_conflict_graph(ds, 0.3)
    with pytest.raises(InstanceTooLargeError):
        hard_loss_bruteforce(graph, cap=30)


def test_hard_loss_deep_search_needs_no_recursion():
    # a 200-vertex path is one component, whose include branches nest about
    # 100 deep, past the lowered limit below, which a recursive search would hit
    ds = from_arrays(0.9 * np.arange(200.0)[:, None], np.arange(200) % 2)
    graph = build_conflict_graph(ds, 0.5)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        loss, chosen = hard_loss_bruteforce(graph, cap=200)
    finally:
        sys.setrecursionlimit(limit)
    assert loss == pytest.approx(0.5, abs=1e-12)
    assert chosen == frozenset(range(0, 200, 2))


def test_hard_loss_long_path_keeps_one_clique_cover():
    # a 400-vertex path is one component; a clique cover rebuilt at every
    # node makes the search about cubic (about 1 s), one cover built per
    # component keeps it near 0.05 s
    ds = from_arrays(0.9 * np.arange(400.0)[:, None], np.arange(400) % 2)
    graph = build_conflict_graph(ds, 0.5)
    start = time.perf_counter()
    loss, chosen = hard_loss_bruteforce(graph, cap=400)
    assert time.perf_counter() - start < 0.5
    assert loss == pytest.approx(0.5, abs=1e-12)
    assert chosen == frozenset(range(0, 400, 2))


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
    ds = random_dataset(rng, 8, 3, 2, spread=0.5)
    loss, sol, graph = optimal_loss(ds, 0.0, 3)
    strategy = extract_strategy(sol, graph)
    for vs in strategy.per_vertex:
        assert vs.edges == [None]
        assert np.array_equal(vs.witnesses[0], ds.points[vs.vertex_id])


def strategy_case(name):
    """(strategy, graph) of one case of the strategy JSON layout."""
    if name == "zero-budget":
        ds = random_dataset(np.random.default_rng(55), 8, 3, 2, spread=0.5)
        _, sol, graph = optimal_loss(ds, 0.0, 3)
        return extract_strategy(sol, graph), graph
    masses = [0.5, 0.3, 0.2] if name == "triple" else None
    m = 2 if name == "triangle-pairs" else 3
    _, sol, graph = optimal_loss(triangle_dataset(masses=masses), 0.6, m)
    return extract_strategy(sol, graph), graph


@pytest.mark.parametrize("name", ["triple", "triangle-pairs", "zero-budget"])
def test_strategy_json_writes_each_witness_once(name):
    strategy, graph = strategy_case(name)
    doc = json.loads(json.dumps(strategy.to_json_dict()))
    table = doc["witnesses"]
    first_index = {}
    for vs, entry in zip(strategy.per_vertex, doc["vertices"], strict=True):
        assert entry["vertex"] == vs.vertex_id
        for edge, wit, play in zip(vs.edges, vs.witnesses, entry["plays"], strict=True):
            assert play["edge"] == (None if edge is None else list(edge))
            # witness is null exactly on the unperturbed plays
            i = play["witness"]
            if edge is None:
                assert i is None
                assert np.array_equal(graph.points[vs.vertex_id], wit)
                continue
            assert isinstance(i, int) and 0 <= i < len(table)
            assert first_index.setdefault(tuple(edge), i) == i
            assert np.array_equal(np.array(table[i]), wit)
    # one entry per played edge, numbered in order of first play
    assert list(first_index.values()) == list(range(len(table)))
    plays = [tuple(e) for vs in strategy.per_vertex for e in vs.edges if e is not None]
    if name == "triple":
        assert plays.count((0, 1, 2)) == 3 and len(table) == 1
    if name == "triangle-pairs":
        assert len(plays) == 6 and len(table) == 3
    if name == "zero-budget":
        assert not plays and not table


def test_strategy_rejects_uncovered_vertex():
    loss, sol, graph = optimal_loss(triangle_dataset(), 0.55, 2)
    sol.edge_cover = np.zeros_like(sol.edge_cover)
    sol.singleton_cover = np.zeros_like(sol.singleton_cover)
    with pytest.raises(ValueError):
        extract_strategy(sol, graph)


def test_strategy_vertex_lighter_than_tolerance_plays_its_point():
    ds = from_arrays([(0.0, 0.0), (9.0, 0.0)], [0, 1], masses=[1e-9, 1.0 - 1e-9])
    _, sol, graph = optimal_loss(ds, 0.5, 2)
    # the certificate tolerates leaving a vertex this light uncovered
    y = sol.singleton_cover.copy()
    y[0] = 0.0
    vs = extract_strategy(dataclasses.replace(sol, singleton_cover=y), graph).per_vertex[0]
    assert vs.edges == [None]
    assert vs.probabilities.tolist() == [1.0]
    assert np.array_equal(vs.witnesses[0], ds.points[0])
    assert not vs.over_covered


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


@pytest.mark.parametrize("side_info", [[0.7], [2, 2.5], [True], [0, np.True_]])
def test_classifier_side_information_non_integer_classes_raise(side_info):
    # int() would read [0.7] as class 0 and [2, 2.5] as {2}; True, a
    # subclass of int, used to allow class 1
    table = SoftClassifierTable(**classifier_fields())
    with pytest.raises(ValueError, match="must be integers"):
        evaluate_classifier(table, np.zeros(2), side_info=side_info)


def full_scan_classifier(table, query, side_info=None):
    """The classifier's rule over every support point, without a screen."""
    radius = table.epsilon * (1.0 + REL_TOL) + 1e-12
    near = np.linalg.norm(table.points - query, axis=1) <= radius
    k = table.num_classes
    g = np.zeros(k)
    for y in range(k) if side_info is None else side_info:
        sel = near & (table.labels == y)
        if sel.any():
            g[y] = float(table.q[sel].max())
    total = g.sum()
    return g / total if total > 1.0 else g + (1.0 - total) / k


def each_side(monkeypatch, points):
    """Patch the classifier's ``SCREEN_MIN_SIZE`` to 0, then to inf, and
    yield whether a table of the points then screens: True, then False."""
    n = len(points)
    for size in (0, math.inf):
        monkeypatch.setattr(bounds, "SCREEN_MIN_SIZE", size)
        table = SoftClassifierTable(points, np.zeros(n, dtype=int), 1, 0.0, np.zeros(n))
        screened = table._screen is not None
        assert screened == (size == 0)
        yield screened


def boundary_queries(rng, points, rows, radius):
    """Queries radius * (1 + j ulp) away from support points, j = -4..4, and 1e6 away."""
    axis = np.eye(1, points.shape[1])[0]
    queries = []
    for v in rows:
        u = rng.normal(size=len(axis))
        u /= np.linalg.norm(u)
        t = radius
        for _ in range(4):
            t = np.nextafter(t, 0.0)
        for _ in range(9):
            queries += [points[v] + t * u, points[v] + t * axis]
            t = np.nextafter(t, np.inf)
        queries.append(points[v] + 1e6 * u)
    return queries


@pytest.mark.parametrize("d", [1, 2, 5, 784])
@pytest.mark.parametrize("shift", [0.0, 1e7])
@pytest.mark.parametrize("spread", [0.5, 1e-6])  # 1e-6: the query's norm sets the slack
def test_classifier_screen_matches_full_scan(d, shift, spread, monkeypatch):
    rng = np.random.default_rng(d)
    n = 40
    pts = rng.normal(size=(n, d)) * spread
    labels = rng.integers(0, 3, size=n)
    labels[:3] = np.arange(3)
    rows = [5, *rng.choice(np.arange(7, n), size=7, replace=False)]
    # from a zero coordinate, the query along that axis is exactly t away
    pts[rows[:4], 0] = 0.0
    pts[6] = pts[5]  # coincident support points under two labels
    labels[5], labels[6] = 0, 1
    pts += shift
    eps = float(rng.uniform(0.2, 0.6)) * np.sqrt(d)
    radius = eps * (1.0 + REL_TOL) + 1e-12
    queries = boundary_queries(rng, pts, rows, radius)
    queries += list(pts[:4] + rng.normal(size=(4, d)) * radius)
    if shift == 0.0:
        assert any((np.linalg.norm(pts - x, axis=1) == radius).any() for x in queries)
    q = rng.uniform(0.0, 1.0, size=n)
    checked = []  # rows per call of the float64 norms of coordinate differences
    norms = bounds._norms

    def counting_norms(diff):
        checked.append(len(diff))
        return norms(diff)

    monkeypatch.setattr(bounds, "_norms", counting_norms)
    far_queries = 0
    for screened in each_side(monkeypatch, pts):
        table = SoftClassifierTable(pts, labels, 3, eps, q)
        assert (table._screen is not None) == screened
        for query in queries:
            far = np.linalg.norm(pts - query, axis=1).min() > 1e5
            far_queries += far
            for side in (None, {0}, {0, 1}, {1, 2}):
                want = full_scan_classifier(table, query, side)
                checked.clear()
                got = evaluate_classifier(table, query, side_info=side)
                assert np.array_equal(got, want)
                if screened:
                    # the screen passes no row 1e6 away, so no coordinate difference is taken
                    assert not (far and checked)
                else:
                    assert checked == [n]
    assert far_queries == 2 * len(rows)


def classifier_fields():
    return dict(points=np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)]),
                labels=np.array([0, 1, 2]), num_classes=3, epsilon=0.6,
                q=np.array([0.5, 0.5, 1.0]))


@pytest.mark.parametrize("field, value", [
    ("points", np.array([(0.0, 0.0), (np.nan, 0.0), (0.5, 0.8)])),
    ("points", np.array([(0.0, 0.0), (1.0, np.inf), (0.5, 0.8)])),
    ("points", np.array([0.0, 1.0, 0.5])),
    ("points", np.zeros((0, 2))),
    ("labels", np.array([0, 1, 3])),
    ("labels", np.array([0, -1, 2])),
    ("labels", np.array([0, 1])),
    ("labels", np.array([0.0, 1.0, 2.0])),
    ("q", np.array([0.5, 0.5])),
    ("q", np.array([0.5, 0.5, 1.0, 1.0])),
    ("q", np.array([0.5, np.nan, 1.0])),
    ("q", np.array([0.5, -0.1, 1.0])),
    ("epsilon", np.nan),
    ("epsilon", np.inf),
    ("epsilon", -0.1),
    ("num_classes", 3.0),
    ("num_classes", 0),
    ("num_classes", True),
    ("num_classes", np.True_),
    ("num_classes", 2.5),
])
def test_classifier_table_rejects_invalid_fields(field, value):
    fields = classifier_fields()
    fields[field] = value
    with pytest.raises(ValueError):
        SoftClassifierTable(**fields)


def test_classifier_table_accepts_a_numpy_integer_class_count():
    fields = classifier_fields()
    query = np.array([0.5, 0.25])
    want = evaluate_classifier(SoftClassifierTable(**fields), query)
    fields["num_classes"] = np.int64(3)
    assert np.array_equal(evaluate_classifier(SoftClassifierTable(**fields), query), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classifier_rejects_non_finite_query(bad):
    table = SoftClassifierTable(**classifier_fields())
    with pytest.raises(ValueError, match="finite"):
        evaluate_classifier(table, np.array([0.5, bad]))


def test_classifier_outputs_no_negative_zero(monkeypatch):
    # HiGHS writes some zeros of q as -0.0; the table stores them as 0.0, so
    # a class whose only near row has q = -0.0 reads 0.0, also where the
    # other classes' values are normalized (their sum 1.2 exceeds 1)
    fields = classifier_fields()
    fields["q"] = np.array([0.6, -0.0, 0.6])
    for _ in each_side(monkeypatch, fields["points"]):
        table = SoftClassifierTable(**fields)
        assert not np.signbit(table.q).any()
        out = evaluate_classifier(table, np.array([0.5, 0.25]))
        assert out.tolist() == [0.5, 0.0, 0.5] and not np.signbit(out).any()


def test_classifier_table_is_frozen():
    fields = classifier_fields()
    table = SoftClassifierTable(**fields)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.epsilon = 5.0
    with pytest.raises(ValueError):
        table.points[0] = (5.0, 5.0)
    before = evaluate_classifier(table, np.zeros(2))
    fields["points"][0] += 100.0  # the caller's array, not the table's
    assert np.array_equal(evaluate_classifier(table, np.zeros(2)), before)


def test_classifier_guarantee_on_neighborhood_queries():
    rng = np.random.default_rng(15)
    for _ in range(5):
        ds = random_dataset(rng, 10, 3, 2, spread=0.5)
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
        ds = random_dataset(rng, int(rng.integers(5, 13)), 3, 2, spread=0.5)
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
    # the float32 Gram form puts coincident points up to about 5e-4 |p|
    # apart; the minimum is decided from coordinate differences
    rng = np.random.default_rng(71)
    direction = rng.normal(size=(200, 3))
    pts = direction / np.linalg.norm(direction, axis=1, keepdims=True)
    pts *= rng.uniform(100.0, 300.0, size=(200, 1))
    ds = from_arrays(np.vstack([pts, pts]), [0] * 200 + [1] * 200, merge_duplicates=False)
    assert class_distance_stats(ds).tolist() == [0.0, 0.0]


def test_class_distance_stats_gram_blocks_stay_small(monkeypatch):
    # a block of SWEEP_BLOCK rows by all n columns grew with n: at n = 12,000
    # and d = 50 one call raised peak RSS by 615 MB
    ds = gen_gaussian(per_class=1000, seed=3)
    expected = class_distance_stats(ds)
    monkeypatch.setattr(hypergraph, "SWEEP_BLOCK", 64)  # blocks of at most 4096 entries
    tracemalloc.start()
    try:
        got = class_distance_stats(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    # 64 rows by 3000 columns of float64 alone take 1.5 MB
    assert peak < 1_000_000


def test_class_distance_stats_matches_double_loop():
    rng = np.random.default_rng(33)
    ds = random_dataset(rng, 20, 3, 3, spread=0.5)
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


def per_degree_chain(ds, eps, m_max):
    """Loss, q histogram and backend of a fresh L*(m) solve at every degree."""
    graph = build_conflict_graph(ds, eps)
    out = {}
    for m in range(2, m_max + 1):
        if m > 2:
            graph = extend_hyperedges(graph, m)
        sol = solve_packing(PackingLp(graph.masses, incidence(graph)))
        out[m] = (sol.loss, bounds._histogram(sol.q), sol.backend)
    return out


def report_parts(report):
    return {m: (report.losses[m], report.q_histograms[m], report.solver_backends[f"solve_{m}"])
            for m in report.losses}


@pytest.mark.parametrize("classes, m_max", [(3, 3), (3, 4), (2, 4)])
def test_degree_without_edges_reuses_the_previous_solution(monkeypatch, classes, m_max):
    # three clusters far apart, each holding two classes, as mnist-like data
    # holds pairs but no triangle; with two classes no degree above 2 can
    # hold an edge at all
    rng = np.random.default_rng(60 + classes)
    centres = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)]
    two = [(0, 1), (1, 2), (0, 2)] if classes == 3 else [(0, 1)] * 3
    pts = np.vstack([np.add(c, rng.normal(size=(16, 2)) * 0.4) for c in centres])
    labels = np.concatenate([np.tile(pair, 8) for pair in two])
    ds = from_arrays(pts, labels, merge_duplicates=False)
    solves = collect_solves(monkeypatch)
    report = bound_report(ds, 0.4, m_max=m_max)
    assert report.edge_counts.keys() == {2}
    # L*(2) and the pairwise union; no degree above 2 solves again
    assert len(solves) == 2
    assert {f"solve_{m}" for m in range(2, m_max + 1)} <= report.runtimes.keys()
    assert report_parts(report) == per_degree_chain(ds, 0.4, m_max)
    assert report.losses[m_max] == report.losses[2] > 0.0
