"""Property tests: hyperedge extension and witnesses against the subset
oracles, the min-cut backend against its scipy.sparse reference, and the
bound chain under label renaming, scaling by powers of two, and growing
budgets and degrees.

Needs ``hypothesis``; the module is skipped without it. Runs are
derandomized and keep no example database, so they are reproducible.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import oracle_hyperedges, oracle_meb, oracle_meb_radius, sparse_flow_packing

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from optloss.bounds import (  # noqa: E402
    bound_report,
    class_distance_stats,
    optimal_loss,
    pairwise_binary_losses,
)
from optloss.data import from_arrays  # noqa: E402
from optloss.hypergraph import (  # noqa: E402
    REL_TOL,
    build_conflict_graph,
    edge_witness,
    extend_hyperedges,
)
from optloss.lp_core import _flow_packing  # noqa: E402

# coordinates on a grid of eighths, exact in binary: duplicates, collinear and
# cospherical sets and right angles come out exactly degenerate
GRID = st.integers(-16, 16).map(lambda i: i / 8.0)
UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def instances(draw):
    k = draw(st.integers(3, 5))
    d = draw(st.integers(1, 5))
    n = draw(st.integers(k, 10))
    points = np.array(draw(st.lists(st.lists(GRID, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    # every class present
    labels = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k,
                                            max_size=n - k))
    # a budget from a fifth to seven tenths of the widest coordinate range:
    # about a quarter of the examples then have edges of degree 4 or more
    spread = max(np.ptp(points, axis=0).max(), 1.0)
    epsilon = draw(st.floats(0.2, 0.7)) * spread
    return points, np.array(labels), epsilon


@st.composite
def isometries(draw, n, d):
    """A rotation (or reflection), a translation and a point permutation."""
    q, _ = np.linalg.qr(np.array(draw(st.lists(UNIT, min_size=d * d, max_size=d * d)))
                        .reshape(d, d))
    shift = 10.0 * np.array(draw(st.lists(UNIT, min_size=d, max_size=d)))
    perm = np.array(draw(st.permutations(range(n))))
    return q, shift, perm


def extended(points, labels, epsilon):
    ds = from_arrays(points, labels, merge_duplicates=False)
    graph = extend_hyperedges(build_conflict_graph(ds, epsilon), int(labels.max()) + 1)
    return {tuple(row): r for k in graph.edges
            for row, r in zip(graph.edges[k].tolist(), graph.radii[k].tolist())}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(instance=instances(), data=st.data())
def test_extension_matches_oracle_and_is_isometry_invariant(instance, data):
    points, labels, epsilon = instance
    n, d = points.shape
    k = int(labels.max()) + 1
    # every decision is clear of the threshold by far more than rounding
    for size in range(2, k + 1):
        for subset in itertools.combinations(range(n), size):
            if len(set(labels[list(subset)].tolist())) == size:
                radius = oracle_meb_radius(points[list(subset)])
                assume(abs(radius - epsilon * (1 + 1e-9)) > 1e-12 * epsilon)

    edges = extended(points, labels, epsilon)
    expected = oracle_hyperedges(points, labels, epsilon, k)
    assert sorted(edges) == sorted(e for rows in expected.values() for e in rows)
    for ids, radius in edges.items():
        centre, expected = oracle_meb(points[list(ids)])
        assert radius == pytest.approx(expected, rel=1e-9, abs=1e-12)
        # the witness is the ball's centre, within the radius of every member
        witness = edge_witness(points, ids)
        assert np.linalg.norm(points[list(ids)] - witness, axis=1).max() <= radius * (1 + 1e-9)
        assert np.linalg.norm(witness - centre) <= 1e-9 * epsilon

    q, shift, perm = data.draw(isometries(n, d))
    # moved vertex i is vertex perm[i]
    moved = extended(points[perm] @ q + shift, labels[perm], epsilon)
    relabelled = {tuple(sorted(perm[list(ids)].tolist())): r for ids, r in moved.items()}
    assert sorted(relabelled) == sorted(edges)
    for ids, radius in relabelled.items():
        assert radius == pytest.approx(edges[ids], rel=1e-9, abs=1e-12)


@st.composite
def two_label_pair_lps(draw):
    """(p, B, labels) of a pair LP across two labels, as ``solve_packing``
    hands it to the min-cut backend: rows drawn with repeats, as drawn or
    sorted and distinct, side A's ids first or shuffled among side B's,
    some vertices in no row (of any label), masses that do or do not scale
    to integers, and now and then a row vertex relabelled."""
    n_a, n_b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n = n_a + n_b + draw(st.integers(0, 3))  # the rest are isolated
    ids = np.arange(n) if draw(st.booleans()) else np.array(draw(st.permutations(range(n))))
    side_a, side_b = ids[:n_a], ids[n_a:n_a + n_b]
    first, second, other = draw(st.permutations([0, 1, 2, 5]))[:3]
    labels = np.array(draw(st.lists(st.sampled_from([first, second, other]),
                                    min_size=n, max_size=n)))
    labels[side_a], labels[side_b] = first, second
    picks = draw(st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_b - 1)),
                          min_size=1, max_size=3 * (n_a + n_b)))
    rows = [tuple(sorted((int(side_a[i]), int(side_b[j])))) for i, j in picks]
    if draw(st.booleans()):
        rows = sorted(set(rows))
    if draw(st.integers(0, 3)) == 0:
        # a row vertex relabelled: a row within one label, or across a third
        row = draw(st.sampled_from(rows))
        labels[row[draw(st.integers(0, 1))]] = draw(st.sampled_from([first, second, other]))
    if draw(st.booleans()):
        counts = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
        counts[draw(st.integers(0, n - 1))] = 1.0  # 1 / min mass is then the total
        masses = counts / counts.sum()
    else:
        masses = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        masses /= masses.sum()
    ri = np.repeat(np.arange(len(rows)), 2)
    B = sp.csr_matrix((np.ones(ri.size), (ri, np.ravel(rows))), shape=(len(rows), n))
    return masses, B, labels


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(lp=two_label_pair_lps())
def test_min_cut_read_off_the_flow_arrays_matches_the_sparse_reference(lp):
    got, want = _flow_packing(*lp), sparse_flow_packing(*lp)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def report_values(report):
    return (report.losses, report.caro_wei, report.hard_bruteforce, report.edge_counts)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instance=instances(), data=st.data())
def test_renaming_labels_leaves_the_bound_report_unchanged(instance, data):
    points, labels, epsilon = instance
    k = int(labels.max()) + 1
    # distinct raw names in any order: the loader maps them back to 0..K-1
    names = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k,
                                        unique=True)))
    reports = [bound_report(from_arrays(points, raw, merge_duplicates=False), epsilon,
                            m_max=k)
               for raw in (labels, names[labels])]
    # the same vertices in the same order: every LP is the same LP
    assert report_values(reports[1]) == report_values(reports[0])
    assert reports[1].class_only_2 == pytest.approx(reports[0].class_only_2, abs=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(instance=instances(), data=st.data())
def test_permuting_points_and_renaming_labels_leaves_the_report_unchanged(instance, data):
    points, labels, epsilon = instance
    n, k = len(points), int(labels.max()) + 1
    # no ball within rounding of the threshold or of either edge of the
    # tight band, where a radius computed in another point order may cross
    for size in range(2, k + 1):
        for subset in itertools.combinations(range(n), size):
            if len(set(labels[list(subset)].tolist())) == size:
                radius = oracle_meb_radius(points[list(subset)])
                for edge in (1 + REL_TOL, 1 - REL_TOL):
                    assume(abs(radius - epsilon * edge) > 1e-12 * epsilon)
    perm = np.array(data.draw(st.permutations(range(n))))
    rename = np.array(data.draw(st.permutations(range(k))))
    # moved vertex i is vertex perm[i], and class c is now class rename[c]
    datasets = [from_arrays(points, labels, merge_duplicates=False),
                from_arrays(points[perm], rename[labels[perm]], merge_duplicates=False)]
    before, after = (bound_report(ds, epsilon, m_max=k) for ds in datasets)
    # caro_wei and q_histograms read L*(2)'s q, whose optimum need not be
    # unique and may move with the order: ROADMAP direction 4 makes it canonical
    assert after.losses == pytest.approx(before.losses, rel=0, abs=1e-9)
    assert after.edge_counts == before.edge_counts
    assert after.boundary_tight_edges == before.boundary_tight_edges
    assert after.class_only_2 == pytest.approx(before.class_only_2, rel=0, abs=1e-12)
    assert after.hard_bruteforce == pytest.approx(before.hard_bruteforce, rel=0, abs=1e-12)
    pairwise = [pairwise_binary_losses(ds, epsilon).losses for ds in datasets]
    np.testing.assert_allclose(pairwise[1][np.ix_(rename, rename)], pairwise[0], rtol=0,
                               atol=1e-12)


def scaled_answers(points, labels, epsilon, k):
    """Graph, report, pairwise losses and stats of the instance scaled by 2^k."""
    ds = from_arrays(np.ldexp(points, k), labels, merge_duplicates=False)
    eps = float(np.ldexp(epsilon, k))
    graph = extend_hyperedges(build_conflict_graph(ds, eps), 3)
    report = bound_report(ds, eps, m_max=3).to_json_dict()
    del report["runtimes"], report["epsilon"]
    return graph, report, pairwise_binary_losses(ds, eps).losses, class_distance_stats(ds)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(instance=instances(), k=st.integers(-330, 190))
def test_scaling_by_a_power_of_two_scales_radii_and_keeps_every_answer(instance, k):
    # the grid's coordinates times 2^k stay inside MAGNITUDE_LIMIT, and from
    # k = -200 on down the triangles are tiny; every float64 step then
    # scales exactly, so nothing but the radii, the witnesses and the
    # distances moves
    points, labels, epsilon = instance
    graph, report, pairwise, stats = scaled_answers(points, labels, epsilon, 0)
    for power in (k, -330, 190):  # the drawn power and both ends of the range
        graph_k, report_k, pairwise_k, stats_k = scaled_answers(points, labels, epsilon, power)
        assert graph_k.edge_list() == graph.edge_list()
        assert graph_k.dominated.keys() == graph.dominated.keys()
        for degree in graph.dominated:
            assert np.array_equal(graph_k.dominated[degree], graph.dominated[degree])
        for degree in graph.radii:
            radii = np.ldexp(graph.radii[degree], power)
            assert graph_k.radii[degree].tobytes() == radii.tobytes()
        for ids in graph.edge_list():
            witness = np.ldexp(edge_witness(graph.points, ids), power)
            assert edge_witness(graph_k.points, ids).tobytes() == witness.tobytes()
        # L*(2), L*(3), class-only, Caro-Wei, hard loss, counts and histograms
        assert report_k == report
        assert pairwise_k.tobytes() == pairwise.tobytes()
        assert stats_k.tobytes() == np.ldexp(stats, power).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instance=instances(), grow=st.floats(1.0, 2.0))
def test_optimal_loss_nondecreasing_in_epsilon(instance, grow):
    points, labels, epsilon = instance
    ds = from_arrays(points, labels, merge_duplicates=False)
    for m in range(2, int(labels.max()) + 2):
        small = optimal_loss(ds, epsilon, m)[0]
        assert small <= optimal_loss(ds, epsilon * grow, m)[0] + 1e-9


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instance=instances())
def test_optimal_loss_nondecreasing_in_degree(instance):
    points, labels, epsilon = instance
    ds = from_arrays(points, labels, merge_duplicates=False)
    losses = [optimal_loss(ds, epsilon, m)[0] for m in range(2, int(labels.max()) + 2)]
    assert all(a <= b + 1e-9 for a, b in zip(losses, losses[1:]))
