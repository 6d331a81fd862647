"""Property tests: hyperedge extension and witnesses against the subset
oracles, and the bound chain under label renaming, scaling by powers of
two, and growing budgets and degrees.

Needs ``hypothesis``; the module is skipped without it. Runs are
derandomized and keep no example database, so they are reproducible.
"""

import itertools

import numpy as np
import pytest
from oracles import oracle_hyperedges, oracle_meb, oracle_meb_radius

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
    build_conflict_graph,
    edge_witness,
    extend_hyperedges,
)

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
    losses = [optimal_loss(ds, epsilon, m)[0] for m in range(1, int(labels.max()) + 2)]
    assert losses[0] == pytest.approx(0.0, abs=1e-12)
    assert all(a <= b + 1e-9 for a, b in zip(losses, losses[1:]))
