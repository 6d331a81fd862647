"""Packing LP solves, duality certificates, determinism."""

import importlib.util
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from optloss import lp_core
from optloss.bounds import optimal_loss
from optloss.data import LabeledDataset, from_arrays, gen_gaussian
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


def random_lp(rng, n=12, k=3, m=3):
    pts = rng.normal(size=(n, 2)) * 0.5
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)
    ds = from_arrays(pts, labels, merge_duplicates=False)
    graph = build_conflict_graph(ds, float(rng.uniform(0.2, 0.8)))
    if m > 2:
        graph = extend_hyperedges(graph, m)
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


@pytest.mark.parametrize("generation_rows", [lp_core.GENERATION_ROWS, 0])
@pytest.mark.parametrize("entry, error, message", [
    (np.nan, UncertifiedSolveError, "primal=nan"),
    (np.inf, ValueError, "HiGHS rejects the covering LP"),
    (1e300, ValueError, "HiGHS rejects the covering LP"),
])
def test_incidence_entry_the_covering_form_cannot_use_raises(monkeypatch, entry, error,
                                                             message, generation_rows):
    # a row of three makes the LP wide; with generation the entry's row
    # joins in a round (inf, 1e300) or never (nan, whose excess is no maximum)
    monkeypatch.setattr(lp_core, "GENERATION_ROWS", generation_rows)
    matrix = sp.csr_matrix(np.array([[1.0, entry, 1.0], [1.0, 1.0, 0.0]]))
    lp = PackingLp(np.full(3, 1 / 3), IncidenceMatrix(matrix, np.arange(3)))
    with pytest.raises(error, match=message):
        solve_packing(lp)


def test_certificates_flag_overcovered_positive_q():
    lp = make_lp([(0, 1)], [0.5, 0.5])
    sol = solve_packing(lp)
    bad = replace(sol, edge_cover=sol.edge_cover + 0.5)
    report = verify_certificates(lp, bad)
    # the extra cover pays 0.5 more than the packing gains: the gap flags it
    assert not report.gap_ok


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


@pytest.mark.parametrize("limit", [2**31, pytest.param(np.int64(2**31), id="int64"),
                                   pytest.param(10**400, id="10**400")])
def test_iteration_limit_highs_cannot_take_raises(limit):
    # refused at construction: it used to construct and fail only at a HiGHS
    # solve, so an LP that took the flow backend never noticed
    with pytest.raises(ValueError, match="max_iterations must be at most 2147483647"):
        Tolerances(max_iterations=limit)
    # the largest limit HiGHS takes still solves
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [0.2, 0.3, 0.5])  # odd cycle: HiGHS
    sol = solve_packing(lp, Tolerances(max_iterations=2**31 - 1))
    assert sol.backend == "highs"


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
    # these used to construct, and failed only at a HiGHS solve; a flow
    # solve never read them
    for bad in (True, np.True_, 1.5, 2.5):
        with pytest.raises(ValueError, match=f"max_iterations must be an integer, got {bad!r}"):
            Tolerances(max_iterations=bad)


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


def assert_q_in_the_unit_box(q):
    """Every entry in [0, 1], and none of them -0.0."""
    assert ((q >= 0.0) & (q <= 1.0)).all()
    assert not np.signbit(q).any()


def test_every_backend_returns_q_in_the_unit_box_without_negative_zero():
    rng = np.random.default_rng(79)
    lps = [random_lp(rng, n=int(rng.integers(6, 30))) for _ in range(20)]
    lps += [random_bipartite_lp(rng) for _ in range(20)] + [make_lp([], [0.5, 0.5])]
    backends = set()
    for lp in lps:
        sol = solve_packing(lp)
        backends.add(sol.backend)
        assert_q_in_the_unit_box(sol.q)
    assert backends == {"flow", "highs"}


def test_solve_packing_clips_a_highs_q_that_strays_from_the_unit_box():
    _, sol, _ = optimal_loss(gen_gaussian(3, 8, seed=29), 3.0, 3)
    B = sol.lp.incidence.matrix
    assert B.getnnz(axis=1).max() == 3  # a wide LP: the covering path's q
    raw, _ = lp_core._highs_covering(sol.lp.masses, B, Tolerances())
    # HiGHS's own answer: one entry two ulps past 1 and 16 entries of -0.0
    assert raw.max() == 1.0000000000000004
    assert np.count_nonzero((raw == 0.0) & np.signbit(raw)) == 16
    assert sol.backend == "highs"
    assert_q_in_the_unit_box(sol.q)
    assert sol.q.tobytes() == (np.clip(raw, 0.0, 1.0) + 0.0).tobytes()
    assert verify_certificates(sol.lp, sol).ok


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
    """(q, z) as ``linprog(method="highs")`` gives them, z its negated, clipped
    constraint marginals."""
    res = linprog(c=-p, A_ub=B, b_ub=np.ones(B.shape[0]), bounds=(0.0, 1.0), method="highs",
                  options={"maxiter": Tolerances().max_iterations})
    assert res.status == 0
    return res.x, np.maximum(-res.ineqlin.marginals, 0.0)


def canonical(B):
    """``B`` as the canonical CSR that ``solve_packing`` hands its backends."""
    B = B.tocsr(copy=True)
    B.sum_duplicates()
    return B


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
    wide = 0
    for lp in lps:
        p, B = lp.masses, canonical(lp.incidence.matrix)
        widths |= set(np.diff(B.indptr).tolist())
        want_q, want_z = linprog_packing(p, B)
        if B.getnnz(axis=1).max() > 2:
            # a wide LP takes the covering path: linprog's optimum, not its vertex
            assert solve_packing(lp).objective == pytest.approx(p @ want_q, abs=1e-9)
            wide += 1
            continue
        q, z = lp_core._highs_packing(p, B, Tolerances())
        assert np.array_equal(q, want_q)
        assert np.array_equal(np.maximum(z, 0.0), want_z)
    # pairs and triples both occur
    assert {2, 3} <= widths
    assert 0 < wide < len(lps)


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
        q, z = highs(p, B, tol)
        return corrupt(q), z

    monkeypatch.setattr(lp_core, "_highs_packing", corrupted)
    lp = make_lp([(0, 1), (0, 2), (1, 2)], [0.2, 0.3, 0.5])  # odd cycle: HiGHS
    with pytest.raises(UncertifiedSolveError, match=message) as info:
        solve_packing(lp)
    assert info.value.solution.backend == "highs"


# --------------------------------------------------------- covering path


def random_wide_lp(rng):
    """Rows of width 2-4 over the first n - 2 vertices, the last two isolated;
    the first row has width 3, it repeats at the end, and one more row lists
    a vertex twice, kept as two entries."""
    n = int(rng.integers(7, 25))
    rows = [rng.choice(n - 2, size=3, replace=False)]
    rows += [rng.choice(n - 2, size=int(rng.integers(2, 5)), replace=False)
             for _ in range(int(rng.integers(2, 30)))]
    rows += [rows[0], np.append(rows[-1], rows[-1][0])]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    matrix = sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(rows), indptr),
                           shape=(len(rows), n))
    counts = rng.integers(1, 4, size=n).astype(float)
    return PackingLp(counts / counts.sum(), IncidenceMatrix(matrix, np.arange(n) % 3))


def wide_lps(rng, count):
    """``count`` random wide LPs, half from ``random_wide_lp`` and half from
    ``random_lp`` where its extension finds a triangle."""
    lps = [random_wide_lp(rng) for _ in range(count // 2)]
    while len(lps) < count:
        lp = random_lp(rng, n=int(rng.integers(8, 30)))
        if lp.incidence.matrix.getnnz(axis=1).max() > 2:
            lps.append(lp)
    return lps


def test_wide_lps_take_the_covering_path_with_linprogs_optimum(monkeypatch):
    def unused(p, B, tol):
        raise AssertionError("a wide LP reached the packing form")

    monkeypatch.setattr(lp_core, "_highs_packing", unused)
    rng = np.random.default_rng(83)
    lps = wide_lps(rng, 40)
    repeats = twice = isolated = 0
    for lp in lps:
        B = lp.incidence.matrix
        sol = solve_packing(lp)
        assert sol.backend == "highs"
        assert verify_certificates(lp, sol).ok
        assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-9)
        rows = [tuple(B.indices[a:b]) for a, b in zip(B.indptr, B.indptr[1:])]
        repeats += len(set(rows)) < len(rows)
        twice += any(len(set(r)) < len(r) for r in rows)
        isolated += int(np.any(B.getnnz(axis=0) == 0))
    # every kind of input occurred
    assert min(repeats, twice, isolated) > 0


def test_highs_covering_reruns_when_its_own_tolerance_misses_the_certificate(monkeypatch):
    # L*(3) of 60 Dirichlet-weighted points: the lightest mass, 1.7e-8, lies
    # between the certificate's 1e-8 and HiGHS's 1e-7; without the rerun the
    # dual residual reads 1.7e-8
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(60, 2)) * 0.5
    ds = LabeledDataset(pts, np.arange(60) % 3, rng.dirichlet(np.full(60, 0.5)))
    graph = extend_hyperedges(build_conflict_graph(ds, 0.2), 3)
    lp = PackingLp(graph.masses, incidence(graph))
    assert lp.incidence.matrix.getnnz(axis=1).max() == 3
    set_option, tightened = lp_core._set_option, []

    def recorded(highs, name, value):
        if name == "primal_feasibility_tolerance":
            tightened.append(value)
        set_option(highs, name, value)

    monkeypatch.setattr(lp_core, "_set_option", recorded)
    sol = solve_packing(lp)
    assert tightened == [1e-9]
    assert sol.backend == "highs"
    assert verify_certificates(lp, sol).ok


# ------------------------------------------------------- column generation


def small_batch_lps(monkeypatch):
    """The wide L*(3) and L*(4) LPs of the benchmark's small-batch workload,
    seed 0 (its instances have m_max = K, 3 or 4)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    lps = []
    for inst in workloads.small_batch(0):
        graph = build_conflict_graph(inst.dataset, inst.epsilon)
        for m in range(3, inst.m_max + 1):
            graph = extend_hyperedges(graph, m)
            lp = PackingLp(graph.masses, incidence(graph))
            if lp.incidence.matrix.getnnz(axis=1).max() > 2:
                lps.append(lp)
    return lps


def record_nominations(monkeypatch):
    """Patch ``_row_nominator`` to record, per solve, every row it returns."""
    nominator, solves = lp_core._row_nominator, []

    def recording(B, threshold):
        nominate, added = nominator(B, threshold), np.zeros(B.shape[0], dtype=bool)
        solves.append(added)

        def recorded(q):
            rows = nominate(q)
            added[rows] = True
            return rows

        return recorded

    monkeypatch.setattr(lp_core, "_row_nominator", recording)
    return solves


def test_column_generation_matches_the_all_at_once_solve(monkeypatch):
    rng = np.random.default_rng(89)
    g60 = extend_hyperedges(build_conflict_graph(gen_gaussian(per_class=60, seed=7), 2.6), 3)
    batch = small_batch_lps(monkeypatch)
    assert any(np.diff(lp.incidence.matrix.indptr).max() == 4 for lp in batch)  # L*(4)
    lps = [PackingLp(g60.masses, incidence(g60))] + wide_lps(rng, 20) + batch
    whole = [solve_packing(lp) for lp in lps]  # all at or below GENERATION_ROWS
    monkeypatch.setattr(lp_core, "GENERATION_ROWS", 0)
    solves = record_nominations(monkeypatch)
    for lp, want in zip(lps, whole):
        sol = solve_packing(lp)
        added = solves[-1]
        assert abs(sol.loss - want.loss) <= 1e-9
        assert sol.certificate == verify_certificates(lp, sol)  # over the full incidence
        assert sol.certificate.ok
        assert np.all(sol.edge_cover[~added] == 0.0)
    assert len(solves) == len(lps)
    # G60/2.6/3 has 4,936 rows; the rounds add a fraction of them
    assert np.count_nonzero(solves[0]) < 4936 // 2


def test_iteration_limit_raises_in_a_generation_round(monkeypatch):
    monkeypatch.setattr(lp_core, "GENERATION_ROWS", 0)
    solves = record_nominations(monkeypatch)
    lp = random_wide_lp(np.random.default_rng(97))
    with pytest.raises(LpNonConvergenceError, match="Iteration limit reached") as info:
        solve_packing(lp, Tolerances(max_iterations=1))
    assert info.value.status == lp_core.highspy.HighsModelStatus.kIterationLimit
    assert np.any(solves[0])  # a round with nominated columns ran


# --------------------------------------------------------- dual completion


def path_lps(rng, path, count):
    """``count`` random LPs that ``solve_packing`` sends down ``path``."""
    if path == "flow":
        return [random_bipartite_lp(rng) for _ in range(count)]
    if path == "packing":
        # three-class pair graphs, and bipartite ones whose masses do not scale
        lps = [random_lp(rng, n=int(rng.integers(6, 30)), m=2) for _ in range(count // 2)]
        lps = [lp for lp in lps if lp.incidence.matrix.shape[0]]
        while len(lps) < count:
            lp = random_bipartite_lp(rng)
            lps.append(PackingLp(rng.dirichlet(np.ones(lp.masses.shape[0])), lp.incidence))
        return lps
    if path == "no-rows":
        return [make_lp([], rng.dirichlet(np.ones(int(rng.integers(1, 10)))))
                for _ in range(count)]
    return wide_lps(rng, count)  # "covering" and "generated"


@pytest.mark.parametrize("path", ["flow", "packing", "covering", "generated", "no-rows"])
def test_every_path_completes_y_as_the_mass_z_leaves_uncovered(monkeypatch, path):
    if path == "generated":
        monkeypatch.setattr(lp_core, "GENERATION_ROWS", 0)
    backend = "flow" if path in ("flow", "no-rows") else "highs"
    for lp in path_lps(np.random.default_rng(101), path, 20):
        p, B = lp.masses, canonical(lp.incidence.matrix)
        sol = solve_packing(lp)
        assert sol.backend == backend
        wide = B.shape[0] > 0 and B.getnnz(axis=1).max() > 2
        assert wide == (path in ("covering", "generated"))
        z = sol.edge_cover
        assert (z >= 0.0).all() and not np.signbit(z).any()
        assert sol.singleton_cover.tobytes() == np.maximum(p - B.T @ z, 0.0).tobytes()
        assert sol.certificate.ok


def noncanonical_forms(B):
    """The canonical CSR ``B`` as CSC, and with each row's indices reversed."""
    flipped = np.concatenate([np.arange(b - 1, a - 1, -1)
                              for a, b in zip(B.indptr, B.indptr[1:])])
    reversed_rows = sp.csr_matrix((B.data[flipped], B.indices[flipped], B.indptr), shape=B.shape)
    return {"csc": B.tocsc(), "unsorted": reversed_rows}


def listed_twice(B):
    """(B with row 0's first vertex listed once more, as an extra entry of 1;
    its canonical form, that vertex's entry plus 1)."""
    twice = sp.csr_matrix((np.insert(B.data, 0, 1.0), np.insert(B.indices, 0, B.indices[0]),
                           B.indptr + (np.arange(B.shape[0] + 1) > 0)), shape=B.shape)
    once = B.copy()
    once.data[0] += 1.0
    return twice, once


@pytest.mark.parametrize("form", ["csc", "unsorted", "listed-twice"])
def test_a_noncanonical_incidence_solves_as_its_canonical_form(form):
    rng = np.random.default_rng(103)
    lps = [lp for path in ("flow", "packing", "covering") for lp in path_lps(rng, path, 4)]
    backends = set()
    for lp in lps:
        B = canonical(lp.incidence.matrix)
        assert B.has_canonical_format
        if form == "listed-twice":
            given, want = listed_twice(B)
        else:
            given, want = noncanonical_forms(B)[form], B
        assert not (given.format == "csr" and given.has_canonical_format)
        a = solve_packing(PackingLp(lp.masses, IncidenceMatrix(given, lp.incidence.labels)))
        b = solve_packing(PackingLp(lp.masses, IncidenceMatrix(want, lp.incidence.labels)))
        backends.add(b.backend)
        assert a.backend == b.backend
        assert a.certificate == b.certificate
        for name in ("q", "edge_cover", "singleton_cover"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert backends == ({"highs"} if form == "listed-twice" else {"flow", "highs"})


@pytest.mark.parametrize("backend, lp", [
    ("_flow_packing", make_lp([(0, 1), (1, 2)], [0.25, 0.5, 0.25], [0, 1, 0])),
    ("_highs_packing", make_lp([(0, 1), (0, 2), (1, 2)], [0.2, 0.3, 0.5])),
    ("_highs_covering", make_lp([(0, 1, 2), (2, 3)], [0.25] * 4)),
], ids=["flow", "packing", "covering"])
@pytest.mark.parametrize("corrupt", [np.zeros_like, lambda z: z - 1.0],
                         ids=["zeros", "minus-one"])
def test_completing_y_cannot_hide_a_wrong_z(monkeypatch, backend, lp, corrupt):
    assert solve_packing(lp).certificate.ok
    solve = getattr(lp_core, backend)

    def corrupted(*args):
        q, z = solve(*args)
        return q, corrupt(z)

    monkeypatch.setattr(lp_core, backend, corrupted)
    with pytest.raises(UncertifiedSolveError, match="duality gap") as info:
        solve_packing(lp)
    # z clips to 0, so y pays every vertex's whole mass: feasible, far from optimal
    sol = info.value.solution
    assert not sol.edge_cover.any()
    assert sol.singleton_cover.tobytes() == lp.masses.tobytes()


def test_the_installed_highs_binding_has_every_call_lp_core_makes():
    # the oldest supported scipy must offer each of these; a missing one fails
    # here by name rather than deep inside a solve
    methods = {"passModel", "addCols", "setOptionValue", "run", "getModelStatus",
               "modelStatusToString", "getInfo", "getSolution"}
    members = {("HighsStatus", "kError"), ("MatrixFormat", "kColwise"),
               ("ObjSense", "kMinimize"), ("HighsModelStatus", "kOptimal")}
    source = Path(lp_core.__file__).read_text()
    assert set(re.findall(r"\bhighs\.(\w+)\(", source)) == methods
    assert set(re.findall(r"\bhighspy\.(\w+)\.(\w+)", source)) == members
    highspy = lp_core.highspy
    missing = [name for name in sorted(methods) if not hasattr(highspy._Highs, name)]
    missing += [f"{enum}.{name}" for enum, name in sorted(members)
                if not hasattr(getattr(highspy, enum, None), name)]
    assert missing == []
