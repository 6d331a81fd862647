"""Acceptance suite: one test per headline guarantee, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The MNIST reproduction (A7) needs the four IDX files in
$MNIST_DIR (or tests/data/mnist) and is skipped when they are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    oracle_meb,
    random_dataset,
    randomized_independent_set,
    triangle_dataset,
)

from optloss.bounds import (
    InstanceTooLargeError,
    bound_report,
    caro_wei_bound,
    class_distance_stats,
    hard_loss_bruteforce,
    optimal_loss,
)
from optloss.data import from_arrays, gen_gaussian, load_idx, subset
from optloss.hypergraph import (
    ConflictHypergraph,
    build_conflict_graph,
    edge_witness,
    extend_hyperedges,
    incidence,
)
from optloss.lp_core import PackingLp, solve_packing, verify_certificates


def announce(line):
    print(f"\n{line}")


def scaled_epsilon(rng, ds):
    d2 = np.linalg.norm(ds.points[:, None, :] - ds.points[None, :, :], axis=2)
    med = float(np.median(d2[np.triu_indices(ds.num_points, 1)]))
    return float(rng.uniform(0.3, 1.2)) * med / 2.0


def test_a1_three_class_minimal_examples():
    """Tight and loose three-point configurations hit their closed forms.

    Loose placement (only pairwise overlaps): uniform soft loss is exactly
    1/2 and the optimal correct-classification probability is
    max(p_u, p_v, p_w, 1/2); with a heavy vertex p_u >= 1/2 the correct
    probability equals p_u. Tight placement (common triple overlap): the
    correct probability is max(p_u, p_v, p_w), so the uniform loss is 2/3.
    """
    start = time.perf_counter()
    uniform = triangle_dataset()
    loss_v, _, _ = optimal_loss(uniform, 0.55, 3)
    assert loss_v == pytest.approx(0.5, abs=1e-6)
    assert 1.0 - loss_v == pytest.approx(max(1 / 3, 1 / 3, 1 / 3, 0.5), abs=1e-6)

    loss_vp, _, graph = optimal_loss(uniform, 0.60, 3)
    assert graph.edge_counts()[3] == 1
    assert 1.0 - loss_vp == pytest.approx(max(1 / 3, 1 / 3, 1 / 3), abs=1e-6)
    assert loss_vp == pytest.approx(2 / 3, abs=1e-6)

    heavy = triangle_dataset(masses=[0.6, 0.2, 0.2])
    loss_heavy, _, _ = optimal_loss(heavy, 0.55, 3)
    assert 1.0 - loss_heavy == pytest.approx(0.6, abs=1e-6)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(f"[PASS] A1 three-class minimal examples ({elapsed:.3f}s)")


def test_a2_duality_certificates_on_every_solve():
    """Every converged solve carries gap <= 1e-6 and residuals <= 1e-8."""
    rng = np.random.default_rng(202)
    solves = []
    for masses in (None, [0.6, 0.2, 0.2], [0.5, 0.3, 0.2]):
        ds = triangle_dataset(masses=masses)
        for eps in (0.55, 0.60):
            graph = extend_hyperedges(build_conflict_graph(ds, eps), 3)
            lp = PackingLp(graph.masses, incidence(graph))
            solves.append((lp, solve_packing(lp)))
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(4, 20)), int(rng.integers(2, 5)), 2, spread=0.4)
        graph = extend_hyperedges(build_conflict_graph(ds, scaled_epsilon(rng, ds)), 3)
        lp = PackingLp(graph.masses, incidence(graph))
        solves.append((lp, solve_packing(lp)))
    for lp, sol in solves:
        report = verify_certificates(lp, sol)
        assert report.feasible
        assert report.primal_residual <= 1e-8
        assert report.dual_residual <= 1e-8
        assert report.duality_gap <= 1e-6 * max(1.0, abs(sol.objective))
    announce(f"[PASS] A2 duality certificates on {len(solves)} solves")


def test_a3_bound_chain_on_random_instances():
    """L_co(2) <= L*(2) <= L*(3) <= L*(4) <= L_hard <= L_CW on 100 instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for i in range(100):
        k = int(rng.choice([2, 3, 4]))
        d = int(rng.choice([2, 5]))
        n = int(rng.integers(k, 25))
        ds = random_dataset(rng, n, k, d, spread=0.4)
        eps = scaled_epsilon(rng, ds)
        report = bound_report(ds, eps, m_max=4, hard_cap=30)
        chain = [
            ("class_only_2", report.class_only_2),
            ("lstar_2", report.losses[2]),
            ("lstar_3", report.losses[3]),
            ("lstar_4", report.losses[4]),
            ("hard", report.hard_bruteforce),
            ("caro_wei", report.caro_wei),
        ]
        for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
            assert lo <= hi + 1e-6, (
                f"instance {i}: {lo_name}={lo!r} > {hi_name}={hi!r}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    announce(f"[PASS] A3 bound chain on 100 random instances ({elapsed:.1f}s)")


def test_a4_bipartite_collapse():
    """With two classes the packing LP equals the exact hard loss to 1e-8."""
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        ds = random_dataset(rng, n, 2, int(rng.choice([2, 5])), spread=0.4)
        eps = scaled_epsilon(rng, ds)
        loss, _, graph = optimal_loss(ds, eps, 2)
        hard, _ = hard_loss_bruteforce(graph)
        assert loss == pytest.approx(hard, abs=1e-8)
    announce("[PASS] A4 bipartite collapse on 50 random two-class instances")


def test_a5_enclosing_ball_matches_exhaustive_oracle():
    """200 random point sets: the stored radius of the set as one hyperedge,
    and its witness's distance to the farthest point, match the subset
    oracle's radius to 1e-9; the witness is its centre to 1e-9 * radius."""
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 11))
        pts = rng.normal(size=(n, d)) * float(rng.uniform(0.2, 5.0))
        centre, expected = oracle_meb(pts)
        if n > 1:
            graph = build_conflict_graph(from_arrays(pts, range(n)), 2.0 * expected)
            graph = extend_hyperedges(graph, n)
            assert graph.edge_counts()[n] == 1
            assert graph.radii[n][0] == pytest.approx(expected, rel=1e-9, abs=1e-12)
        witness = edge_witness(pts, range(n))
        radius = np.linalg.norm(pts - witness, axis=1).max()
        assert radius == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert np.linalg.norm(witness - centre) <= 1e-9 * expected + 1e-12
    announce("[PASS] A5 enclosing-ball oracle equivalence on 200 point sets")


def random_pair_graph(rng, n, edge_prob):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.uniform() < edge_prob
    ]
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return ConflictHypergraph(np.arange(n), np.full(n, 1.0 / n), None, {2: pairs}, epsilon=0.0)


def test_a6_caro_wei_consistency():
    """Unit weights give the classic degree bound; rounding meets it."""
    rng = np.random.default_rng(606)
    graphs = []
    for _ in range(50):
        n = int(rng.integers(5, 26))
        graph = random_pair_graph(rng, n, float(rng.uniform(0.1, 0.5)))
        graphs.append(graph)
        degrees = np.bincount(graph.pairs.ravel(), minlength=n)
        classic = float(np.sum(1.0 / (degrees + 1.0)))
        bound = caro_wei_bound(graph, np.ones(n))
        assert n * (1.0 - bound) == pytest.approx(classic, abs=1e-9)

    runs = 10_000
    for graph in graphs[:3]:
        n = graph.num_vertices
        w = np.ones(n)
        bound_p = 1.0 - caro_wei_bound(graph, w)
        masses = graph.masses
        pairs = set(map(tuple, graph.pairs.tolist()))
        values = np.empty(runs)
        for seed in range(runs):
            chosen = randomized_independent_set(graph, w, seed=seed)
            for u in chosen:
                for v in chosen:
                    assert (u, v) not in pairs
            values[seed] = masses[chosen].sum()
        stderr = values.std(ddof=1) / np.sqrt(runs)
        assert values.mean() >= bound_p - 3.0 * stderr
    announce("[PASS] A6 Caro-Wei classic bound + randomized rounding")


def _mnist_dir():
    root = Path(os.environ.get("MNIST_DIR", Path(__file__).parent / "data" / "mnist"))
    needed = [
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    ]
    if all((root / name).exists() for name in needed):
        return root
    return None


@pytest.mark.skipif(_mnist_dir() is None,
                    reason="MNIST IDX files not found (set MNIST_DIR)")
def test_a7_mnist_reproduction():
    """Digits {1,4,7}, first 1000 per class, pixels divided by 255."""
    root = _mnist_dir()
    train = load_idx(root / "train-images-idx3-ubyte",
                     root / "train-labels-idx1-ubyte",
                     normalization="divide-255")
    stats = class_distance_stats(train)
    assert stats[0] == pytest.approx(7.07, abs=0.01)

    train_sub = subset(train, [1, 4, 7], per_class_cap=1000)
    expected = {2.0: 0.0020, 2.5: 0.0193, 3.0: 0.0877, 3.5: 0.2283, 4.0: 0.4083}
    for eps, target in expected.items():
        loss, _, _ = optimal_loss(train_sub, eps, 3)
        assert loss == pytest.approx(target, abs=0.002), f"eps={eps}"

    test_set = load_idx(root / "t10k-images-idx3-ubyte",
                        root / "t10k-labels-idx1-ubyte",
                        normalization="divide-255")
    test_sub = subset(test_set, [1, 4, 7], per_class_cap=1000)
    loss, _, _ = optimal_loss(test_sub, 3.0, 3)
    assert loss == pytest.approx(0.0773, abs=0.002)
    announce("[PASS] A7 MNIST {1,4,7} loss table and class-0 distance")


def test_a8_hyperedges_irrelevant_at_small_budgets():
    """On the fixed Gaussian fixture the pair bound is exact until the
    divergence budget, where triple constraints start to bind.

    The fixture (3 classes, 60 per class, variance 0.05, seed 7) diverges
    first at eps = 2.6 on the swept grid; values below are pinned from the
    pipeline itself and act as regression anchors.
    """
    ds = gen_gaussian(num_classes=3, per_class=60, variance=0.05,
                      mean_radius=3.0, seed=7)
    grid = [1.0, 2.0, 2.2, 2.4, 2.5, 2.6, 2.7]
    losses = {}
    for eps in grid:
        l2, _, _ = optimal_loss(ds, eps, 2)
        l3, _, _ = optimal_loss(ds, eps, 3)
        losses[eps] = (l2, l3)

    divergence = next(eps for eps in grid if losses[eps][1] - losses[eps][0] > 1e-4)
    assert divergence == 2.6
    for eps in grid:
        if eps < divergence:
            assert abs(losses[eps][1] - losses[eps][0]) <= 1e-4
    assert losses[2.7][1] > losses[2.7][0] + 1e-4

    # pinned regression values from the first derivation run
    assert losses[1.0][0] == pytest.approx(0.0, abs=1e-9)
    assert losses[2.4][0] == pytest.approx(0.2333333333333334, abs=1e-6)
    assert losses[2.5][1] == pytest.approx(0.3944444444444445, abs=1e-6)
    assert losses[2.6][0] == pytest.approx(0.4972222222222222, abs=1e-6)
    assert losses[2.6][1] == pytest.approx(0.5, abs=1e-6)
    assert losses[2.7][1] == pytest.approx(0.5263888888888888, abs=1e-6)
    announce("[PASS] A8 pair bound exact below divergence at eps=2.6")


def test_a9_full_scale_runs_refused_not_faked():
    """Desk-scale limits are explicit: the exact hard-classifier search
    refuses oversized instances instead of silently approximating, and the
    property suites above stand in for full-scale reproductions."""
    rng = np.random.default_rng(909)
    ds = random_dataset(rng, 40, 3, 2, spread=0.4)
    graph = build_conflict_graph(ds, 0.4)
    with pytest.raises(InstanceTooLargeError):
        hard_loss_bruteforce(graph, cap=30)
    announce("[PASS] A9 oversized exact searches refuse loudly")
