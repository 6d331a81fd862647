"""Property tests: hyperedge extension against the subset oracles.

Needs ``hypothesis``; the module is skipped without it. Runs are
derandomized and keep no example database, so they are reproducible.
"""

import itertools

import numpy as np
import pytest
from oracles import oracle_hyperedges, oracle_meb_radius

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from optloss.data import from_arrays  # noqa: E402
from optloss.hypergraph import build_conflict_graph, extend_hyperedges  # noqa: E402

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
        assert radius == pytest.approx(oracle_meb_radius(points[list(ids)]),
                                       rel=1e-9, abs=1e-12)

    q, shift, perm = data.draw(isometries(n, d))
    # moved vertex i is vertex perm[i]
    moved = extended(points[perm] @ q + shift, labels[perm], epsilon)
    relabelled = {tuple(sorted(perm[list(ids)].tolist())): r for ids, r in moved.items()}
    assert sorted(relabelled) == sorted(edges)
    for ids, radius in relabelled.items():
        assert radius == pytest.approx(edges[ids], rel=1e-9, abs=1e-12)
