"""Packing LP solves, duality certificates, determinism."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from optloss import lp_core
from optloss.data import LabeledDataset, from_arrays
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
    UncertifiedSolveError,
    solve_packing,
    verify_certificates,
)


def make_lp(rows, masses, labels=None):
    """Packing LP over the id ``rows``; by default every vertex is its own class."""
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
    labels = np.arange(n) if labels is None else labels
    return PackingLp(np.asarray(masses, float), IncidenceMatrix(matrix, labels))


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
    assert sol.certificate.dual_objective == pytest.approx(0.5, abs=1e-9)


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
    assert sol.certificate.duality_gap == pytest.approx(0.0, abs=1e-12)
    assert verify_certificates(lp, sol).ok


def test_certificates_clean_solution():
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [1 / 3, 1 / 3, 1 / 3])
    sol = solve_packing(lp)
    report = verify_certificates(lp, sol)
    assert report == sol.certificate  # the record solve_packing judged it by
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


def test_certificates_flag_a_nan_in_any_vector():
    lp = make_lp([(0, 1)], [0.5, 0.5])
    sol = solve_packing(lp)
    for name in ("q", "edge_cover", "singleton_cover"):
        vec = getattr(sol, name).copy()
        vec[-1] = np.nan
        report = verify_certificates(lp, replace(sol, **{name: vec}))
        assert not report.feasible, name


@pytest.mark.parametrize("entry, error, message", [
    (np.nan, UncertifiedSolveError, "primal=nan"),  # HiGHS loads it; the certificate fails
    (np.inf, ValueError, "HiGHS rejects the packing LP"),
    (1e300, ValueError, "HiGHS rejects the packing LP"),
])
def test_incidence_entry_highs_cannot_use_raises(entry, error, message):
    matrix = sp.csr_matrix(np.array([[1.0, entry], [1.0, 1.0]]))
    lp = PackingLp(np.array([0.5, 0.5]), IncidenceMatrix(matrix, np.arange(2)))
    with pytest.raises(error, match=message):
        solve_packing(lp)


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
        cert = sol.certificate
        assert abs(sol.objective - cert.dual_objective) <= 1e-6 * max(1.0, sol.objective)
        assert cert.primal_residual <= 1e-8
        assert cert.dual_residual <= 1e-8
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
    with pytest.raises(LpNonConvergenceError, match="Iteration limit reached") as info:
        solve_packing(lp, Tolerances(max_iterations=1))
    assert info.value.status == lp_core.highspy.HighsModelStatus.kIterationLimit


@pytest.mark.parametrize("limit", [2**31, 1.5])
def test_iteration_limit_highs_cannot_take_raises(limit):
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [0.2, 0.3, 0.5])  # odd cycle: HiGHS
    with pytest.raises(ValueError, match="HiGHS rejects simplex_iteration_limit"):
        solve_packing(lp, Tolerances(max_iterations=limit))


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
def test_packing_lp_rejects_masses_that_are_not_finite_and_positive(bad):
    # a NaN mass used to drop out of the certificate, which then judged the rest
    lp = make_lp([(0, 1)], [0.5, 0.5])
    with pytest.raises(ValueError, match="masses must be finite and positive"):
        PackingLp(np.array([1.0, bad]), lp.incidence)


@pytest.mark.parametrize("masses, message", [
    (np.full((2, 1), 0.5), "masses must be a vector"),
    (np.full(3, 1 / 3), "incidence has 2 columns, masses has 3 entries"),
])
def test_packing_lp_rejects_masses_that_do_not_fit_the_incidence(masses, message):
    lp = make_lp([(0, 1)], [0.5, 0.5])
    with pytest.raises(ValueError, match=message):
        PackingLp(masses, lp.incidence)


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

    Some vertices have no edge, and a row may repeat.
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
    counts = rng.integers(1, 4, size=n).astype(float)
    counts[int(rng.integers(n))] = 1.0  # the scale 1 / min mass is then the total
    return make_lp(rows, counts / counts.sum(), side.astype(np.int64))


def test_flow_backend_matches_highs_on_bipartite_pair_lps():
    rng = np.random.default_rng(61)
    for _ in range(60):
        lp = random_bipartite_lp(rng)
        sol = solve_packing(lp)
        assert sol.backend == "flow"
        assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-12)
        assert verify_certificates(lp, sol).ok
        assert set(np.unique(sol.q)) <= {0.0, 1.0}


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


def test_three_class_data_with_conflicts_between_two_classes_takes_flow():
    # classes 0 and 1 interleave on a line; class 2 sits far from both
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0], [9.0, 0.0], [9.5, 0.0]])
    ds = from_arrays(pts, [0, 1, 0, 1, 2, 2], merge_duplicates=False)
    graph = build_conflict_graph(ds, 0.3)
    assert set(graph.labels[graph.pairs].ravel().tolist()) == {0, 1}
    lp = PackingLp(graph.masses, incidence(graph))
    sol = solve_packing(lp)
    assert sol.backend == "flow"
    assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-12)


def test_a_path_over_three_classes_takes_highs_with_the_min_cut_loss():
    masses = [0.5, 0.25, 0.25]
    three = solve_packing(make_lp([(0, 1), (1, 2)], masses, [0, 1, 2]))
    two = solve_packing(make_lp([(0, 1), (1, 2)], masses, [0, 1, 0]))
    assert (three.backend, two.backend) == ("highs", "flow")
    assert three.loss == pytest.approx(two.loss, abs=1e-12)


def test_swapping_the_two_labels_leaves_the_min_cut_unchanged():
    # two components, each a pair of equal masses: either side is a min cut,
    # and the side is chosen by the first row's first vertex, not by its label
    rows, masses = [(0, 1), (2, 3)], [0.25] * 4
    a = solve_packing(make_lp(rows, masses, [0, 1, 1, 0]))
    b = solve_packing(make_lp(rows, masses, [1, 0, 0, 1]))
    assert a.backend == b.backend == "flow"
    for name in ("q", "edge_cover", "singleton_cover"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("labels", [np.arange(3), np.zeros(2)], ids=["length", "float"])
def test_incidence_rejects_labels_that_are_not_one_integer_per_column(labels):
    with pytest.raises(ValueError, match="labels must be 2 integers"):
        IncidenceMatrix(sp.csr_matrix((1, 2)), labels)


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


def linprog_packing(p, B):
    """(q, z, y) as ``linprog(method="highs")`` gives them, with its marginals."""
    res = linprog(c=-p, A_ub=B, b_ub=np.ones(B.shape[0]), bounds=(0.0, 1.0), method="highs",
                  options={"maxiter": Tolerances().max_iterations})
    assert res.status == 0
    return (res.x, np.maximum(-res.ineqlin.marginals, 0.0),
            np.maximum(-res.upper.marginals, 0.0))


def test_highs_binding_matches_linprog_bit_for_bit():
    rng = np.random.default_rng(73)
    lps = [random_lp(rng, n=int(rng.integers(6, 30))) for _ in range(20)]
    lps += [PackingLp(rng.dirichlet(np.ones(lp.masses.shape[0])), lp.incidence)
            for lp in lps[:10]]
    for lp in lps[:5]:
        B = lp.incidence.matrix
        repeated = sp.vstack([B, B[: B.shape[0] // 2]], format="csr")
        lps.append(PackingLp(lp.masses, IncidenceMatrix(repeated, lp.incidence.labels)))
    lps += [
        make_lp([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [0.2] * 5),  # degenerate odd cycle
        make_lp([(0, 1), (0, 2), (1, 2)], [0.6, 0.2, 0.2]),  # vertex 0 at q = 1
        make_lp([(0, 1), (1, 2, 3)], [0.25] * 4),
        repeated_vertex_lp(),
    ]
    widths = set()
    y_paid = 0
    for lp in lps:
        p, B = lp.masses, lp.incidence.matrix
        widths |= set(np.diff(B.indptr).tolist())
        got = lp_core._highs_packing(p, B, Tolerances())
        want = linprog_packing(p, B)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        y_paid += int(np.any(got[2] > 0))
    # pairs and triples both occur, and the q <= 1 duals are read off some columns
    assert {2, 3} <= widths
    assert y_paid > 0


def repeated_vertex_lp():
    # row 0 lists vertex 0 twice, which a csr built from indptr keeps as two
    # entries; the two vertices have different labels, row 0's are equal
    matrix = sp.csr_matrix((np.ones(4), np.array([0, 0, 0, 1]), np.array([0, 2, 4])),
                           shape=(2, 2))
    return PackingLp(np.array([0.5, 0.5]), IncidenceMatrix(matrix, np.array([0, 1])))


@pytest.mark.parametrize("lp", [
    make_lp([(0, 1)], [3.0, 3.0]),  # masses above 1: the scale 1 / min mass rounds to 0
    make_lp([(0, 1)], [1e-10, 1.0 - 1e-10]),  # capacities past int32
    repeated_vertex_lp(),
], ids=["mass-above-one", "int32-overflow", "repeated-vertex"])
def test_pair_lps_the_flow_backend_declines_go_to_highs(lp):
    sol = solve_packing(lp)
    assert sol.backend == "highs"
    assert verify_certificates(lp, sol).ok
    assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-9)


def test_highs_reruns_when_its_own_tolerance_misses_the_certificate():
    # L*(2) of 60 Dirichlet-weighted points: the lightest mass, 2.3e-8, lies
    # between the certificate's 1e-8 and HiGHS's default 1e-7, so HiGHS's
    # first answer may leave that vertex uncovered
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(60, 2)) * 0.5
    ds = LabeledDataset(pts, np.arange(60) % 3, rng.dirichlet(np.full(60, 0.5)))
    graph = build_conflict_graph(ds, 0.2)
    lp = PackingLp(graph.masses, incidence(graph))
    assert Tolerances().feasibility_abs < lp.masses.min() < 1e-7
    sol = solve_packing(lp)
    assert sol.backend == "highs"
    assert verify_certificates(lp, sol).ok


@pytest.mark.parametrize("corrupt, message", [
    (lambda q: q + 0.5, "feasibility residuals too large"),
    (lambda q: np.zeros_like(q), "duality gap"),  # feasible, so only the gap fails
])
def test_uncertified_highs_answer_raises(monkeypatch, corrupt, message):
    highs = lp_core._highs_packing

    def corrupted(p, B, tol):
        q, z, y = highs(p, B, tol)
        return corrupt(q), z, y

    monkeypatch.setattr(lp_core, "_highs_packing", corrupted)
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [0.2, 0.3, 0.5])  # odd cycle: HiGHS
    with pytest.raises(UncertifiedSolveError, match=message) as info:
        solve_packing(lp)
    assert info.value.solution.backend == "highs"
