"""The float32 Gram screen against brute force.

The pair sweep, ``class_distance_stats`` and the classifier screen squared
distances in float32 and decide in float64. Each must give exactly what an
O(n^2) scan of the float64 coordinate differences gives. The layouts put
pairs at 2 eps (1 +- 1e-7) and queries at eps (1 +- 1e-7) far from the
centroid, where the float32 Gram error dwarfs eps^2, and are then shifted
and scaled.
"""

import math

import numpy as np
import pytest
from test_bounds import full_scan_classifier

from optloss.bounds import SoftClassifierTable, class_distance_stats, evaluate_classifier
from optloss.data import from_arrays
from optloss.hypergraph import F32_UNIT, REL_TOL, _gram_slack, build_conflict_graph

pytestmark = pytest.mark.filterwarnings("error")

DIMENSIONS = [1, 2, 3, 64, 784]
SCALES = [1.0, 2.0 ** 60, 2.0 ** -60, 1e-30, 1e30, 1e200]
BOUNDARY = 1e-7  # relative offset of the placed pairs and queries from the boundary
FAR = 1000.0  # distance of the placed pairs and queries from the centroid, in eps


def unit(rng, d):
    u = rng.normal(size=d)
    return u / np.linalg.norm(u)


BULK = 24  # points near the origin, before the placed ones


def boundary_layout(rng, d):
    """(points, labels, inside, outside) at eps = 1: a bulk of three classes
    near the origin, and FAR out, sites of five points. A site's point A,
    of class 0, has B of class 1 at 2 (1 - BOUNDARY) and C of class 2 at
    2 (1 + BOUNDARY); (A, B) is listed in ``inside`` and (A, C) in
    ``outside``. So A's nearest other-class point wins by that margin. B
    and C each have a point of class 0 at 1 beyond them, so that neither
    pair is the nearest of B or C."""
    labels = list(np.repeat(np.arange(3), BULK // 3))
    points = list(rng.normal(size=(BULK, d)) * 2.0)
    inside, outside = [], []
    for _ in range(8):
        a, u, w = FAR * unit(rng, d), unit(rng, d), unit(rng, d)
        b, c = a + 2.0 * (1.0 - BOUNDARY) * u, a + 2.0 * (1.0 + BOUNDARY) * w
        i = len(points)
        inside.append((i, i + 1))
        outside.append((i, i + 2))
        points += [a, b, c, b + u, c + w]
        labels += [0, 1, 2, 0, 0]
    return np.array(points), np.array(labels), inside, outside


def placed(d, scale, offset):
    """The layout shifted by offset, then scaled with its eps."""
    rng = np.random.default_rng(d)
    points, labels, inside, outside = boundary_layout(rng, d)
    ds = from_arrays((points + offset) * scale, labels, merge_duplicates=False)
    return ds, scale, inside, outside


def scan_pairs(ds):
    """Every cross-class pair i < j with its float64 squared distance, from
    the centred coordinates the sweep takes differences of."""
    x = ds.points - ds.points.mean(axis=0)
    i, j = np.triu_indices(ds.num_points, 1)
    cross = ds.labels[i] != ds.labels[j]
    i, j = i[cross], j[cross]
    diff = x[i] - x[j]
    return i, j, np.einsum("ij,ij->i", diff, diff)


cases = pytest.mark.parametrize("d", DIMENSIONS)
scales = pytest.mark.parametrize("scale", SCALES)
offsets = pytest.mark.parametrize("offset", [0.0, 1e6])


@cases
@scales
@offsets
def test_pair_sweep_matches_a_scan(d, scale, offset):
    ds, eps, inside, outside = placed(d, scale, offset)
    i, j, d2 = scan_pairs(ds)
    try:
        threshold = (2.0 * eps * (1.0 + REL_TOL)) ** 2
    except OverflowError:
        threshold = math.inf
    edge = d2 <= threshold
    graph = build_conflict_graph(ds, eps)
    assert graph.edge_list() == list(zip(i[edge].tolist(), j[edge].tolist()))
    assert graph.radii[2].tobytes() == (0.5 * np.sqrt(d2[edge])).tobytes()
    if math.isfinite(threshold):
        found = set(graph.edge_list())
        assert found >= set(inside) and not found & set(outside)


@cases
@scales
@offsets
def test_class_distance_stats_match_a_scan(d, scale, offset):
    ds, _, _, _ = placed(d, scale, offset)
    i, j, d2 = scan_pairs(ds)
    nearest = np.full(ds.num_points, np.inf)
    np.minimum.at(nearest, i, d2)
    np.minimum.at(nearest, j, d2)
    nearest = np.sqrt(nearest)
    expected = np.array([nearest[ds.labels == c].mean() for c in range(3)])
    assert class_distance_stats(ds).tobytes() == expected.tobytes()


@cases
@scales
@offsets
def test_classifier_matches_a_scan(d, scale, offset):
    rng = np.random.default_rng(d)
    points, labels, _, _ = boundary_layout(rng, d)
    queries = [points[v] + (1.0 + side * BOUNDARY) * unit(rng, d)
               for side in (-1, 1) for v in rng.choice(len(points) - BULK, 6) + BULK]
    queries += list(rng.normal(size=(4, d)))
    table = SoftClassifierTable((points + offset) * scale, labels, 3, scale,
                                rng.uniform(0.0, 1.0, size=len(points)))
    for query in queries:
        query = (query + offset) * scale
        with np.errstate(over="ignore"):
            want = full_scan_classifier(table, query)
        assert np.array_equal(evaluate_classifier(table, query), want)


@cases
def test_classifier_query_at_the_edge_of_float64(d):
    rng = np.random.default_rng(d)
    points, labels, _, _ = boundary_layout(rng, d)
    table = SoftClassifierTable(points, labels, 3, 1e300, rng.uniform(0.0, 1.0, len(points)))
    far = np.zeros(d)
    far[0] = 1e300
    for query in (far, -far, np.zeros(d), points[-1]):
        with np.errstate(over="ignore"):
            want = full_scan_classifier(table, query)
        assert np.array_equal(evaluate_classifier(table, query), want)


def gamma(k):
    return k * F32_UNIT / (1.0 - k * F32_UNIT)


def test_gram_slack_is_a_dot_product_bound():
    # at least gamma_d, the bound of a length-d float32 dot product, and a
    # few u more; d = 2^23 is too large an array to allocate
    for d in (1, 2, 784, 2 ** 20, 2 ** 23):
        slack = _gram_slack(d)
        assert gamma(d) + 2 * F32_UNIT <= slack <= gamma(d) * 1.001 + 32 * F32_UNIT
    assert 2.4e-7 < _gram_slack(2) < 2e-6
    assert 4.7e-5 < _gram_slack(784) < 4.9e-5
    assert 1.0 <= _gram_slack(2 ** 23) < 1.001
    # past d u = 1 no bound holds: every pair goes to the exact check
    assert _gram_slack(2 ** 24) == math.inf
