"""Packing LP solves, duality certificates, determinism."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from optloss.data import from_arrays
from optloss.hypergraph import (
    IncidenceMatrix,
    build_conflict_graph,
    extend_hyperedges,
    incidence,
)
from optloss.lp_core import (
    LpNonConvergenceError,
    PackingLp,
    Tolerances,
    solve_packing,
    verify_certificates,
)


def make_lp(rows, masses):
    n = len(masses)
    if rows:
        data, ri, ci = [], [], []
        for r, cols in enumerate(rows):
            for c in cols:
                ri.append(r)
                ci.append(c)
                data.append(1.0)
        matrix = sp.csr_matrix((data, (ri, ci)), shape=(len(rows), n))
    else:
        matrix = sp.csr_matrix((0, n))
    return PackingLp(np.asarray(masses, float), IncidenceMatrix(matrix))


def random_lp(rng, n=12, k=3):
    pts = rng.normal(size=(n, 2)) * 0.5
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)
    ds = from_arrays(pts, labels, merge_duplicates=False)
    graph = extend_hyperedges(build_conflict_graph(ds, float(rng.uniform(0.2, 0.8))), 3)
    return PackingLp(graph.masses, incidence(graph))


def test_triangle_of_pair_edges_balanced_masses():
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [1 / 3, 1 / 3, 1 / 3])
    sol = solve_packing(lp)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert sol.loss == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(sol.q, 0.5, atol=1e-9)
    # the optimal cover here is unique: 1/6 on every pair edge
    assert np.allclose(sol.edge_cover, 1 / 6, atol=1e-9)
    assert sol.dual_objective == pytest.approx(0.5, abs=1e-9)


def test_single_triple_edge_balanced_masses():
    lp = make_lp([(0, 1, 2)], [1 / 3, 1 / 3, 1 / 3])
    sol = solve_packing(lp)
    # packing against one triple constraint: p^T q tops out at max mass = 1/3
    assert sol.objective == pytest.approx(1 / 3, abs=1e-9)
    assert sol.loss == pytest.approx(2 / 3, abs=1e-9)
    assert sol.q.sum() == pytest.approx(1.0, abs=1e-8)


def test_heavy_vertex_dominates_triangle():
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [0.6, 0.2, 0.2])
    sol = solve_packing(lp)
    assert sol.objective == pytest.approx(0.6, abs=1e-9)
    assert np.allclose(sol.q, [1.0, 0.0, 0.0], atol=1e-9)
    # every optimal cover leaves the light pair edge empty
    assert sol.edge_cover[2] == pytest.approx(0.0, abs=1e-9)


def test_no_edges_full_packing():
    lp = make_lp([], [0.25, 0.75])
    sol = solve_packing(lp)
    assert np.allclose(sol.q, 1.0)
    assert sol.objective == pytest.approx(1.0)
    assert sol.edge_cover.size == 0
    assert np.allclose(sol.singleton_cover, [0.25, 0.75])
    assert sol.duality_gap == pytest.approx(0.0, abs=1e-12)
    assert verify_certificates(lp, sol).ok


def test_certificates_clean_solution():
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [1 / 3, 1 / 3, 1 / 3])
    sol = solve_packing(lp)
    report = verify_certificates(lp, sol)
    assert report.ok
    assert report.primal_residual <= 1e-8
    assert report.dual_residual <= 1e-8
    assert report.duality_gap <= 1e-6
    assert report.complementary_slackness_violations == []


def test_certificates_flag_corrupted_primal():
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [1 / 3, 1 / 3, 1 / 3])
    sol = solve_packing(lp)
    bad = replace(sol, q=sol.q + np.array([0.1, 0.0, 0.0]))
    report = verify_certificates(lp, bad)
    assert not report.feasible
    assert report.primal_residual > 1e-3


def test_certificates_flag_zero_dual():
    lp = make_lp([(0, 1)], [0.5, 0.5])
    sol = solve_packing(lp)
    bad = replace(
        sol,
        edge_cover=np.zeros_like(sol.edge_cover),
        singleton_cover=np.zeros_like(sol.singleton_cover),
    )
    report = verify_certificates(lp, bad)
    assert not report.feasible
    assert report.dual_residual >= 0.5 - 1e-12


def test_certificates_flag_overcovered_positive_q():
    lp = make_lp([(0, 1)], [0.5, 0.5])
    sol = solve_packing(lp)
    bad = replace(sol, edge_cover=sol.edge_cover + 0.5)
    report = verify_certificates(lp, bad)
    assert len(report.complementary_slackness_violations) > 0


def test_strong_duality_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(25):
        lp = random_lp(rng, n=int(rng.integers(4, 16)))
        sol = solve_packing(lp)
        assert abs(sol.objective - sol.dual_objective) <= 1e-6 * max(1.0, sol.objective)
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert 0.0 < sol.objective <= 1.0 + 1e-12


def test_adding_a_row_never_increases_objective():
    rng = np.random.default_rng(13)
    for _ in range(10):
        lp = random_lp(rng)
        before = solve_packing(lp).objective
        n = lp.masses.shape[0]
        extra = sorted(rng.choice(n, size=2, replace=False).tolist())
        rows = lp.incidence.matrix.toarray().tolist()
        row_sets = [tuple(np.nonzero(r)[0]) for r in rows]
        lp2 = make_lp(row_sets + [tuple(extra)], lp.masses)
        after = solve_packing(lp2).objective
        assert after <= before + 1e-9


def test_mass_scaling_scales_objective():
    rng = np.random.default_rng(17)
    lp = random_lp(rng)
    lam = 0.37
    sol = solve_packing(lp)
    scaled = PackingLp(lp.masses * lam, lp.incidence)
    sol_scaled = solve_packing(scaled)
    assert sol_scaled.objective == pytest.approx(lam * sol.objective, rel=1e-9)
    # an optimal q for the scaled problem is feasible and optimal for the original
    q = sol_scaled.q
    B = lp.incidence.matrix
    assert (B @ q <= 1 + 1e-8).all()
    assert lp.masses @ q == pytest.approx(sol.objective, abs=1e-8)


def test_repeated_solves_are_bit_identical():
    rng = np.random.default_rng(19)
    lp = random_lp(rng, n=14)
    a = solve_packing(lp)
    b = solve_packing(lp)
    assert a.objective == b.objective
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.edge_cover, b.edge_cover)


def test_concurrent_solves_match_sequential():
    rng = np.random.default_rng(23)
    lps = [random_lp(rng, n=10) for _ in range(8)]
    sequential = [solve_packing(lp).objective for lp in lps]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = [s.objective for s in pool.map(solve_packing, lps)]
    assert sequential == concurrent


def test_iteration_limit_raises_nonconvergence():
    rng = np.random.default_rng(29)
    lp = random_lp(rng, n=15)
    with pytest.raises(LpNonConvergenceError):
        solve_packing(lp, Tolerances(max_iterations=1))


def test_zero_mass_vertices_get_unit_packing():
    lp = make_lp([(0, 1)], [0.5, 0.5])
    lp_zero = PackingLp(np.array([1.0, 0.0]), lp.incidence)
    sol = solve_packing(lp_zero)
    assert sol.q[1] == 1.0
    assert sol.q[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert verify_certificates(lp_zero, sol).ok


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(feasibility_abs=0.0)
    with pytest.raises(ValueError):
        Tolerances(max_iterations=0)
    # NaN fails every later "gap > bound" test, so it would certify anything
    for field in ("feasibility_abs", "gap_rel", "max_iterations"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Tolerances(**{field: bad})


# ------------------------------------------------------------ flow backend


def highs_objective(lp):
    """Optimum of the packing LP straight from HiGHS, bypassing solve_packing."""
    B = lp.incidence.matrix
    res = linprog(c=-lp.masses, A_ub=B, b_ub=np.ones(B.shape[0]), bounds=(0.0, 1.0),
                  method="highs")
    assert res.status == 0
    return -res.fun


def random_bipartite_lp(rng):
    """Pairs across a random split of shuffled ids, masses in multiples of 1/n.

    Some vertices have no edge, some have zero mass, and a row may repeat.
    """
    n = int(rng.integers(4, 40))
    side = rng.random(n) < 0.5
    side[:2] = [True, False]
    left, right = np.flatnonzero(side), np.flatnonzero(~side)
    candidates = [(u, v) for u in left for v in right]
    keep = rng.random(len(candidates)) < rng.uniform(0.05, 0.5)
    rows = [tuple(sorted(map(int, c))) for c, k in zip(candidates, keep) if k]
    if not rows:
        rows = [tuple(sorted((int(left[0]), int(right[0]))))]
    if rng.random() < 0.3:
        rows.append(rows[int(rng.integers(len(rows)))])
    counts = rng.integers(0, 4, size=n).astype(float)
    counts[int(rng.integers(n))] = 1.0  # the scale 1 / min mass is then the total
    return make_lp(rows, counts / counts.sum())


def test_flow_backend_matches_highs_on_bipartite_pair_lps():
    rng = np.random.default_rng(61)
    for _ in range(60):
        lp = random_bipartite_lp(rng)
        sol = solve_packing(lp)
        assert sol.backend == "flow"
        assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-12)
        assert verify_certificates(lp, sol).ok
        assert set(np.unique(sol.q)) <= {0.0, 1.0}
        assert (sol.q[lp.masses == 0.0] == 1.0).all()


def test_pair_lps_from_two_class_data_take_the_flow_backend():
    rng = np.random.default_rng(67)
    for _ in range(10):
        pts = rng.normal(size=(30, 2))
        labels = np.arange(30) % 2
        ds = from_arrays(pts, labels, merge_duplicates=False)
        graph = build_conflict_graph(ds, float(rng.uniform(0.2, 0.8)))
        lp = PackingLp(graph.masses, incidence(graph))
        sol = solve_packing(lp)
        assert sol.backend == "flow"
        assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-12)


@pytest.mark.parametrize("rows, masses", [
    ([(0, 1), (0, 2), (1, 2)], [1 / 3, 1 / 3, 1 / 3]),  # odd cycle
    ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [0.2] * 5),  # odd cycle of five
    ([(0, 1, 2)], [1 / 3, 1 / 3, 1 / 3]),  # a row of width 3
    ([(0, 1), (1, 2, 3)], [0.25] * 4),  # widths mixed
])
def test_non_bipartite_or_wide_lps_take_highs(rows, masses):
    lp = make_lp(rows, masses)
    sol = solve_packing(lp)
    assert sol.backend == "highs"
    assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-9)


def test_unscalable_masses_take_highs():
    rng = np.random.default_rng(71)
    for _ in range(10):
        lp = random_bipartite_lp(rng)
        masses = rng.dirichlet(np.ones(lp.masses.shape[0]))
        dirichlet = PackingLp(masses, lp.incidence)
        sol = solve_packing(dirichlet)
        assert sol.backend == "highs"
        assert sol.objective == pytest.approx(highs_objective(dirichlet), abs=1e-9)
