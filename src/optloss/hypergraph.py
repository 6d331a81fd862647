"""Conflict hypergraph construction.

Vertices are the support points of a labeled distribution. A set of
vertices with pairwise-distinct labels forms a hyperedge when the closed
epsilon-neighborhoods of all its points share a common point, i.e. when
the minimum enclosing ball of the points has radius at most epsilon.

Edges of degree k are stored as one int64 array of shape (E_k, k): each row
holds increasing vertex ids and rows are sorted lexicographically. Next to
it sits each edge's minimum-enclosing-ball radius. The edge set is
downward closed, which drives the candidate enumeration: a k-set is only
tested when all of its (k-1)-subsets are already edges. The same closure
decides every degree k >= 3 by one rule: the ball of k points is their
circumball when the circumcentre has nonnegative weights, and otherwise the
ball of their largest (k-1)-face. The same rule gives each edge's witness,
the centre of that ball (``edge_witness``).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

# relative slack of every closed-ball test: a radius <= eps * (1 + REL_TOL) passes
REL_TOL = 1e-9

# the bound on every coordinate, query and budget: below it no float64 step overflows,
# the tightest being _triangle_centre's numerator, 32 eps^5 < 2^1024 for sides <= 2 eps
MAGNITUDE_LIMIT = 2.0 ** 200

# unit roundoff of float32, the precision of the Gram screens
F32_UNIT = 2.0 ** -24
# the smallest normal float32: a float32 cast, product or sum loses at most
# this much to underflow, even where subnormals are flushed to zero
F32_TINY = 2.0 ** -126
F32_MAX = float(np.finfo(np.float32).max)
# the smallest float64: a float64 square loses at most this much to underflow
F64_TINY = 2.0 ** -1074

# a triangle whose sides are all below this is rescaled by a power of two
# before its radius or centre is taken, so that nothing there underflows
TINY_SIDE = 2.0 ** -200

# points per side of a Gram tile of the cross-class distance sweeps
SWEEP_BLOCK = 2048

# bytes of float64 coordinates per chunk of the exact distance refinement
# and of the float32 cast of a Gram screen
REFINE_BYTES = 1 << 20

# bytes of the dense pair-index table that a batch of degree-3 candidates
# reads its closing pairs (u, w) from, one row of n entries per first vertex
# u; a batch is cut at a u boundary to stay within it, but keeps one row
CLOSING_TABLE_BYTES = 1 << 22

# candidates per batch of the hyperedge extension
EXTEND_BATCH = 65536

__all__ = [
    "ConflictHypergraph",
    "IncidenceMatrix",
    "vertex_graph",
    "build_conflict_graph",
    "extend_hyperedges",
    "incidence",
    "edge_witness",
    "graph_to_json",
]


@dataclass
class ConflictHypergraph:
    # vertex i is (labels[i], masses[i], points[i]); its id is i
    labels: np.ndarray  # (n,) int class ids
    masses: np.ndarray  # (n,) probability masses
    points: np.ndarray  # (n, d) coordinates
    edges: dict[int, np.ndarray]  # degree k -> (E_k, k) sorted id rows
    epsilon: float
    # degree k -> (E_k,) minimum-enclosing-ball radius
    radii: dict[int, np.ndarray] = field(default_factory=dict)
    # degree k < max_degree -> (E_k,) whether a (k+1)-edge contains it; see incidence
    dominated: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def max_degree(self) -> int:
        """The largest degree in ``edges``, even one without edges; 1 without any."""
        return max(self.edges, default=1)

    def edge_counts(self) -> dict[int, int]:
        """Number of stored hyperedges of each exact degree (dominated included)."""
        return {k: len(rows) for k, rows in sorted(self.edges.items()) if len(rows)}

    def edge_list(self) -> list[tuple[int, ...]]:
        """Every edge as an id tuple, by degree and then lexicographically.

        This is the row order of ``incidence(dedupe_dominated=False)``.
        """
        return [tuple(row) for k in sorted(self.edges) for row in self.edges[k].tolist()]

    @property
    def pairs(self) -> np.ndarray:
        """The (E_2, 2) sorted pair rows; (0, 2) when the graph has none."""
        return self.edges.get(2, np.zeros((0, 2), dtype=np.int64))

    def boundary_tight_count(self) -> int:
        """Edges whose enclosing-ball radius sits within REL_TOL of epsilon."""
        radii = np.concatenate([np.zeros(0), *self.radii.values()])
        return int(np.count_nonzero(np.abs(radii - self.epsilon) <= REL_TOL * self.epsilon))


@dataclass
class IncidenceMatrix:
    """Sparse hyperedge-vertex incidence: one row per retained hyperedge.

    ``labels`` holds each column's (vertex's) integer class; the packing
    solver reads the two sides of a pair LP off it.
    """

    matrix: sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.shape != (self.matrix.shape[1],) or self.labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be {self.matrix.shape[1]} integers, one per column")


class _RowIndex:
    """Finds id rows in a lexicographically sorted array of distinct rows.

    Column by column, a row prefix is replaced by its rank among the array's
    distinct prefixes, so keys stay below len(rows) * n at any row width.
    """

    def __init__(self, rows: np.ndarray, n: int):
        self.n, self.levels = n, []
        rank = rows[:, 0]
        for column in rows.T[1:]:
            key = rank * n + column
            new = np.diff(key, prepend=-1) != 0
            # the sentinel keeps every searchsorted position in range
            self.levels.append(np.append(key[new], np.iinfo(np.int64).max))
            rank = np.cumsum(new) - 1

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row in the array, -1 where it is absent."""
        pos = rows[:, 0]
        for keys, column in zip(self.levels, rows.T[1:]):
            # an absent prefix (-1) gives a negative key, which never matches
            key = pos * self.n + column
            pos = np.searchsorted(keys, key)
            pos = np.where(keys[pos] == key, pos, -1)
        return pos


def _budget(epsilon) -> float:
    """The budget as a float, -0.0 as 0.0; a ValueError unless 0 <= it <= MAGNITUDE_LIMIT."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= MAGNITUDE_LIMIT:  # a NaN fails it
        raise ValueError(f"epsilon must lie in [0, MAGNITUDE_LIMIT = 2^200], got {epsilon!r}")
    return epsilon + 0.0


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool, which subclasses int, is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_degree(name: str, m) -> None:
    if not _is_integer(m):
        raise ValueError(f"{name} must be an integer, got {m!r}")
    if m < 2:
        raise ValueError(f"{name} must be >= 2, got {m!r}")


def vertex_graph(dataset, epsilon: float) -> ConflictHypergraph:
    """The dataset's support points as a graph without edges (max degree 1)."""
    epsilon = _budget(epsilon)
    points = np.asarray(dataset.points, dtype=float)
    if points.shape[0] == 0:
        raise ValueError("empty dataset")
    return ConflictHypergraph(np.asarray(dataset.labels, dtype=np.int64),
                              np.asarray(dataset.masses, dtype=float), points, {}, epsilon)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u) for float32's u; inf once k u >= 1."""
    ku = k * F32_UNIT
    return ku / (1.0 - ku) if ku < 1.0 else math.inf


def _gram_slack(d: int) -> float:
    """Relative error bound of a float32 Gram screen value in R^d.

    A ``_GramScreen`` value S of a squared distance |a - b|^2 is within
    ``_gram_slack(d) * (sq_a + sq_b)``, plus the screen's underflow
    ``floor``, of the true one. This is the forward-error bound of a dot
    product (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1): every coordinate product a_k b_k meets at most d + 10
    roundings of unit u or finer (d in the float32 product; the centring,
    the two casts, forming S, and reading the norms off the float32 rows),
    and every square a_k^2 at most 10. inf where the bound fails (d u >= 1).
    """
    return _gamma(d + 10) + _gamma(10)


def _unit_scale(points: np.ndarray, centre: np.ndarray | None = None) -> float:
    """The power of two that puts every coordinate of points - centre below 1."""
    if centre is None:
        top = max(points.max(), -points.min())
    else:  # rounding is monotone: the largest offset is that of the extremes
        top = max((points.max(axis=0) - centre).max(), (centre - points.min(axis=0)).max())
    # top * 2^e lies in [0.5, 1); e <= 1022 keeps twice the scale a float
    return math.ldexp(1.0, min(1022, -math.frexp(float(top))[1]))


def _f32_at_least(x: float) -> np.float32:
    """The least float32 >= x; inf from the largest finite float32 on."""
    if not x < F32_MAX:
        return np.float32(np.inf)
    y = np.float32(x)
    return y if float(y) >= x else np.nextafter(y, np.float32(np.inf))


class _GramScreen:
    """Points, less a centre, in float32, for screening squared distances.

    ``rows`` holds each point's offset from the centre times ``scale``, the
    power of two that puts the largest coordinate below 1: the scaling is
    exact and no cast can overflow. ``sq`` holds the rows' squared norms,
    summed in float64, and ``top`` the largest. For a and b two such rows,
    a float32 Gram form S of |a - b|^2 is within ``slack(sq_a + sq_b)`` of
    the scaled squared distance; ``slack`` also covers the underflow of a
    float64 check of that distance. A screen only passes pairs on to the
    float64 check of their coordinate differences; it decides none.
    """

    def __init__(self, points: np.ndarray, centre: np.ndarray | None = None):
        n, d = points.shape
        self.scale = _unit_scale(points, centre)
        self.rows = np.empty((n, d), dtype=np.float32)
        step = max(1, REFINE_BYTES // (8 * d))
        for r in range(0, n, step):
            block = points[r:r + step] if centre is None else points[r:r + step] - centre
            self.rows[r:r + step] = block * self.scale
        self.sq = np.einsum("ij,ij->i", self.rows, self.rows, dtype=np.float64)
        self.top = float(self.sq.max())
        self.rel = _gram_slack(d)
        # float32 underflow, then twice that of a float64 check in these units
        self.floor = (32 * (d + 1) * F32_TINY * (1.0 + self.rel)
                      + 2 * d * F64_TINY * self.scale * self.scale)

    def slack(self, norms: float) -> float:
        """Bound on the error of a screen value whose two norms sum to at most norms."""
        return self.rel * norms + self.floor if self.rel < math.inf else math.inf


def _cross_class_pairs(points: np.ndarray, labels: np.ndarray, keep):
    """Yield (u, v, d2) over the cross-class pairs that ``keep`` passes.

    The centred points are ordered by class, stably; each class's rows meet
    the columns of all later classes in ``SWEEP_BLOCK`` x ``SWEEP_BLOCK``
    tiles, so each cross-class pair is met once. A tile holds the float32
    Gram form g of the squared distances of a ``_GramScreen`` of the points;
    ``keep(g, screen)`` masks the pairs passed on, whose ids u < v and d2
    from float64 coordinate differences follow, ``REFINE_BYTES`` of
    differences at a time. Centring keeps g free of cancellation far from 0.
    """
    order = np.argsort(labels, kind="stable")
    centre = points.mean(axis=0)
    points = points[order]
    points -= centre
    screen = _GramScreen(points)
    rows, sq = screen.rows, screen.sq.astype(np.float32)
    step = max(1, REFINE_BYTES // points[0].nbytes)
    ends = np.cumsum(np.bincount(labels))
    for a0, a1 in zip([0, *ends[:-1]], ends):
        for i0 in range(a0, a1, SWEEP_BLOCK):
            i1 = min(i0 + SWEEP_BLOCK, a1)
            for j0 in range(a1, len(points), SWEEP_BLOCK):
                g = rows[i0:i1] @ rows[j0:j0 + SWEEP_BLOCK].T
                g *= -2.0
                g += sq[i0:i1, None]
                g += sq[None, j0:j0 + SWEEP_BLOCK]
                ii, jj = np.nonzero(keep(g, screen))
                ii, jj = ii + i0, jj + j0
                for s in range(0, len(ii), step):
                    diff = points[ii[s:s + step]] - points[jj[s:s + step]]
                    u, v = order[ii[s:s + step]], order[jj[s:s + step]]
                    yield np.minimum(u, v), np.maximum(u, v), np.einsum("ij,ij->i", diff, diff)


def build_conflict_graph(dataset, epsilon: float) -> ConflictHypergraph:
    """Degree-2 conflict graph: cross-class pairs at distance <= 2*epsilon.

    With the points ordered by class, ``_cross_class_pairs`` sweeps each
    class's strip of later-class columns in ``SWEEP_BLOCK`` x ``SWEEP_BLOCK``
    float32 Gram tiles, with no spatial index. A pair passes the screen
    unless its Gram value exceeds the scaled threshold by more than the
    screen's error bound; it is then decided, and its radius taken, from
    float64 coordinate differences.
    """
    graph = vertex_graph(dataset, epsilon)
    # not ** 2, which can round off the square: a product scales exactly
    reach = 2.0 * graph.epsilon * (1.0 + REL_TOL)
    threshold = reach * reach

    def keep(g, screen):
        # a pair whose float64 d2 passes has a scaled squared distance of
        # at most the scaled threshold times 1 + u, which covers d2's rounding
        bound = (threshold * screen.scale * screen.scale * (1.0 + F32_UNIT)
                 + screen.slack(2.0 * screen.top))
        # a NaN would pass; no Gram value of rows below 1 is one
        return ~(g > _f32_at_least(bound))

    found, found_d2 = [np.zeros((0, 2), dtype=np.int64)], [np.zeros(0)]
    for u, v, d2 in _cross_class_pairs(graph.points, graph.labels, keep):
        close = d2 <= threshold
        found.append(np.column_stack([u[close], v[close]]))
        found_d2.append(d2[close])

    pairs = np.concatenate(found)
    d2 = np.concatenate(found_d2)
    # the pairs are distinct, so one integer key orders them as a lexsort would
    order = np.argsort(pairs[:, 0] * graph.num_vertices + pairs[:, 1], kind="stable")
    radii = 0.5 * np.sqrt(d2[order])
    return replace(graph, edges={2: pairs[order]}, radii={2: radii})


def circumradius_batch(d2_stack: np.ndarray):
    """Vectorized circumradius over a stack of (k x k) squared-distance matrices.

    For points with squared-distance matrix D, the circumcenter is
    ``X @ alpha`` with ``alpha = D^-1 1 / (1^T D^-1 1)`` and the radius is
    ``1 / sqrt(2 * 1^T D^-1 1)``. Returns (radii, alphas, ok) where ``ok[i]``
    is False for matrices the formula could not certify (singular,
    ill-conditioned, or no real circumsphere); those entries hold NaN. The
    stack takes one ``solve``. Only when that raises, because some matrix
    is singular (coincident points), does ``slogdet`` find those matrices by
    the same LU's zero pivot, and a second ``solve`` runs with the identity
    in their place.
    """
    d2_stack = np.asarray(d2_stack, dtype=float)
    batch, k, _ = d2_stack.shape
    radii = np.full(batch, np.nan)
    alphas = np.full((batch, k), np.nan)
    ones = np.ones((batch, k, 1))
    try:
        x = np.linalg.solve(d2_stack, ones)[..., 0]
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(d2_stack)[0] == 0
        x = np.linalg.solve(np.where(singular[:, None, None], np.eye(k), d2_stack),
                            ones)[..., 0]
        x[singular] = np.nan
    # a residual screen stands in for an explicit (expensive) condition number
    resid = np.abs(np.einsum("bij,bj->bi", d2_stack, x) - 1.0).max(axis=1)
    scale = 1.0 + np.abs(d2_stack).max(axis=(1, 2))
    denom = x.sum(axis=1)
    good = (
        np.isfinite(x).all(axis=1)
        & np.isfinite(denom)
        & (denom > 0.0)
        & (resid <= 1e-9 * scale)
    )
    radii[good] = np.sqrt(0.5 / denom[good])
    alphas[good] = x[good] / denom[good, None]
    return radii, alphas, good


def _circumball(d2_stack: np.ndarray):
    """``circumradius_batch`` plus, per matrix, whether the circumball is the
    minimum enclosing ball: certified, with every circumcentre weight >= 0."""
    radii, alphas, ok = circumradius_batch(d2_stack)
    with np.errstate(invalid="ignore"):
        inside = ok & (alphas.min(axis=1) >= -1e-12)
    return radii, alphas, inside


def _area4(x, y, z):
    """Four times the area of a triangle with side lengths x >= y >= z.

    Kahan's arrangement of Heron's formula: exact up to a few ulps even on
    needle-like triangles, where the textbook form cancels.
    """
    return np.sqrt((x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z)))


def _triangle_radius(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Minimum-enclosing-ball radius of triangles from squared side lengths.

    Obtuse or right: half the longest side. Acute: the circumradius
    xyz / (4 * area) of the side lengths, the area by ``_area4``. A row
    whose longest square is below ``TINY_SIDE^2`` is first divided by the
    power of four that puts that square in [0.5, 2), and its radius is
    multiplied by the root of that power: both steps are exact, and the
    area's product of four factors then does not underflow.
    """
    longest = np.maximum(np.maximum(a, b), c)
    tiny = longest < TINY_SIDE * TINY_SIDE
    half = None
    if tiny.any():
        half = np.where(tiny, np.frexp(longest)[1] >> 1, 0)
        a, b, c, longest = (np.ldexp(s, -2 * half) for s in (a, b, c, longest))
    obtuse = 2.0 * longest >= a + b + c
    # sqrt is monotone, so the sides' order is that of their squares
    x = np.sqrt(longest)
    y = np.sqrt(np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c)))
    z = np.sqrt(np.minimum(np.minimum(a, b), c))
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = x * y * z / _area4(x, y, z)
    radius = np.where(obtuse, np.sqrt(longest / 4.0), circum)
    return radius if half is None else np.ldexp(radius, half)


def _ball_radius(cands: np.ndarray, pair_index: _RowIndex, pair_d2: np.ndarray,
                 face_radii: np.ndarray) -> np.ndarray:
    """Minimum-enclosing-ball radius of k >= 4 candidates.

    The circumradius, from the looked-up pair distances, when every
    circumcentre weight is nonnegative. Otherwise the ball's support is a
    proper subset of the points, so the ball is that of some (k-1)-face and
    the radius is the largest of ``face_radii`` (k, count).
    """
    count, k = cands.shape
    d2 = np.zeros((count, k, k))
    for i, j in itertools.combinations(range(k), 2):
        d2[:, i, j] = d2[:, j, i] = pair_d2[pair_index.find(cands[:, [i, j]])]
    radii, _, inside = _circumball(d2)
    return np.where(inside, radii, face_radii.max(axis=0))


def _closing_pairs(pairs: np.ndarray, first: np.ndarray, u: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """Index of each pair (u, w) in the sorted pair array, -1 where there is
    no such pair; u is ascending and ``first`` is the pairs' CSR offsets.

    The pairs whose first vertex lies in lo..hi = u[0]..u[-1], a contiguous
    run, fill a dense table of (hi - lo + 1) x n pair indices, which each
    (u, w) reads once.
    """
    n = len(first) - 1
    lo, hi = u[0], u[-1]
    f0, f1 = first[lo], first[hi + 1]
    table = np.full((hi - lo + 1) * n, -1, dtype=np.int64)
    table[(pairs[f0:f1, 0] - lo) * n + pairs[f0:f1, 1]] = np.arange(f0, f1)
    return table[(u - lo) * n + w]


def extend_hyperedges(graph: ConflictHypergraph, m: int, jobs: int = 1,
                      progress=None) -> ConflictHypergraph:
    """Add all hyperedges of degree up to m to a graph holding lower degrees.

    A degree-k candidate extends a (k-1)-edge by a forward neighbor w of its
    last vertex in the pair graph. It is tested only if every other
    (k-1)-subset holding w is an edge too. A triangle (u, v, w) needs only
    its pair (u, w), read from a dense table of the pairs whose first vertex
    lies in its batch's range (``_closing_pairs``); a larger candidate's
    faces are found in the sorted (k-1)-edge array. Triangles are decided in
    closed form from the three pair distances; larger candidates by
    ``circumradius_batch`` and the radii of their (k-1)-faces, which that
    lookup has found. Every stored radius is the edge's minimum-enclosing-ball
    radius. The faces of each accepted edge are marked in ``dominated[k - 1]``,
    the rows ``incidence`` drops. Candidates are enumerated at most
    ``EXTEND_BATCH`` at a time, and a batch of triangles is also cut where
    its table would pass ``CLOSING_TABLE_BYTES``; ``progress`` is called
    after each batch with the cumulative count of tested candidates.
    ``jobs`` is ignored: extension runs in one thread. It, like the ``jobs``
    of ``optimal_loss``, ``pairwise_binary_losses`` and ``bound_report``, is
    accepted only because the benchmark harness passes it.
    """
    _check_degree("max degree m", m)
    if graph.max_degree >= m:
        return graph
    if graph.max_degree < 2:
        raise ValueError("extension needs the pair edges: start from build_conflict_graph")
    n = graph.num_vertices
    eps_tol = graph.epsilon * (1.0 + REL_TOL)
    pairs = graph.pairs
    # the pair distances of a k >= 4 candidate are looked up here
    pair_index = _RowIndex(pairs, n) if m >= 4 else None
    pair_d2 = (2.0 * graph.radii[2]) ** 2
    # forward CSR over the sorted pair array: v's forward neighbors are
    # pairs[first[v]:first[v + 1], 1]
    first = np.searchsorted(pairs[:, 0], np.arange(n + 1))

    edges, radii, dominated = dict(graph.edges), dict(graph.radii), dict(graph.dominated)
    tested = 0
    for k in range(graph.max_degree + 1, m + 1):
        prev = edges[k - 1]
        covered = np.zeros(len(prev), dtype=bool)
        # candidate c extends the (k-1)-edge src with its (c - starts[src])-th
        # forward neighbor
        counts = first[prev[:, -1] + 1] - first[prev[:, -1]]
        ends = np.cumsum(counts)
        starts = ends - counts
        total = int(ends[-1]) if ends.size else 0
        # candidate c's pair (last vertex, w) is pairs[shift[src] + c]
        shift = first[prev[:, -1]] - starts
        if k == 3:
            # each pair's second vertex, contiguous for fast gathers
            upper = pairs[:, 1].copy()
            # the triangles (u, ., .) are candidates ustart[u]:ustart[u + 1];
            # a batch spans at most `rows` first vertices u
            ustart = np.append(starts, total)[first]
            rows = max(1, CLOSING_TABLE_BYTES // (8 * n))
        else:
            prev_index = _RowIndex(prev, n)
        new_rows = [np.zeros((0, k), dtype=np.int64)]
        new_radii = [np.zeros(0)]
        c0 = 0
        while c0 < total:
            c1 = min(c0 + EXTEND_BATCH, total)
            if k == 3:
                lo = int(np.searchsorted(ustart, c0, side="right")) - 1
                c1 = min(c1, int(ustart[min(lo + rows, n)]))
            wedge = np.arange(c0, c1)
            # the (k-1)-edges whose candidates overlap this batch
            span = np.arange(*np.searchsorted(ends, wedge[[0, -1]], side="right") + [0, 1])
            cut = slice(c0 - starts[span[0]], c0 - starts[span[0]] + wedge.size)
            src = np.repeat(span, counts[span])[cut]
            fwd = shift[src] + wedge
            # the (k-1)-faces' indices, -1 where absent: the face without w is
            # src, and a triangle's face without its first vertex is the pair
            # fwd; every other face holds w and is looked up
            if k == 3:
                u = np.repeat(prev[span, 0], counts[span])[cut]
                closing = _closing_pairs(pairs, first, u, upper[fwd])
                faces = np.array([src, fwd, closing])
                # compress runs several times faster than a boolean index on 2-D arrays
                faces = faces.compress(faces[2] >= 0, axis=1)
                r = _triangle_radius(*pair_d2[faces])
                accept = r <= eps_tol
                # a triangle is built only once it is accepted
                cands = np.column_stack([pairs[faces[0, accept]], upper[faces[1, accept]]])
            else:
                cands = np.column_stack([prev[src], pairs[fwd, 1]])
                faces = np.array([src] + [prev_index.find(np.delete(cands, p, axis=1))
                                          for p in range(k - 1)])
                closed = (faces >= 0).all(axis=0)
                cands, faces = cands.compress(closed, axis=0), faces.compress(closed, axis=1)
                r = _ball_radius(cands, pair_index, pair_d2, radii[k - 1][faces])
                accept = r <= eps_tol
                cands = cands[accept]
            covered[faces[:, accept]] = True
            new_rows.append(cands)
            new_radii.append(r[accept])
            tested += faces.shape[1]
            if progress is not None:
                progress(tested)
            c0 = c1
        edges[k] = np.concatenate(new_rows)
        radii[k] = np.concatenate(new_radii)
        dominated[k - 1] = covered

    return replace(graph, edges=edges, radii=radii, dominated=dominated)


def incidence(graph: ConflictHypergraph, dedupe_dominated: bool = True) -> IncidenceMatrix:
    """Hyperedge-vertex incidence matrix, rows by degree then lexicographically.

    With ``dedupe_dominated`` the edges ``extend_hyperedges`` marked in
    ``graph.dominated`` are dropped: each is a face of a larger edge, whose
    packing constraint implies its own, so the LP optimum is unchanged.
    A degree without marks keeps all its rows: the top degree, and each
    degree of a graph built by hand, which gives the same LP optimum.
    """
    kept = [rows[~graph.dominated[k]] if dedupe_dominated and k in graph.dominated else rows
            for k, rows in sorted(graph.edges.items())]
    return _incidence_of(kept, graph.labels)


def _incidence_of(blocks: list[np.ndarray], labels: np.ndarray) -> IncidenceMatrix:
    """Incidence with one column per entry of ``labels``, one row per id row
    of the (E, k) ``blocks``, in order."""
    empty = [np.zeros(0, dtype=np.int64)]
    widths = np.concatenate(empty + [np.full(len(rows), rows.shape[1]) for rows in blocks])
    indices = np.concatenate(empty + [rows.ravel() for rows in blocks])
    indptr = np.concatenate([[0], np.cumsum(widths)])
    return IncidenceMatrix(sp.csr_matrix((np.ones(indices.size), indices, indptr),
                                         shape=(widths.size, len(labels))), labels)


def _triangle_centre(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Minimum-enclosing-ball centre of a triangle, in closed form.

    The midpoint of the longest side when the triangle is obtuse, right or
    degenerate (the rule of ``_triangle_radius``), else the circumcentre
    ``o + (|v|^2 (u.w) u - |u|^2 (v.w) v) / (2 |u x v|^2)``: o is the vertex
    opposite the longest side, u and v run from it to the others, w = u - v,
    and |u x v| is twice the area from ``_area4``. Neither term cancels on a
    needle-like triangle. A tiny triangle's sides, u and v are taken times
    the power of two that puts its offsets below 1, and the circumcentre's
    offset from o divided by it: both steps are exact, no term of degree
    four or five then underflows, and the centre scales with the points.
    """
    pts = (p0, p1, p2)
    offsets = (p2 - p1, p0 - p2, p1 - p0)
    sides, scale = [float(e @ e) for e in offsets], 1.0
    if 0.0 < max(sides) < TINY_SIDE * TINY_SIDE:
        scale = _unit_scale(np.array(offsets))
        sides = [float(e @ e) for e in np.array(offsets) * scale]
    longest = int(np.argmax(sides))
    o, x, y = pts[longest], pts[(longest + 1) % 3], pts[(longest + 2) % 3]
    if 2.0 * sides[longest] >= sum(sides):
        return (x + y) / 2.0
    u, v = (x - o) * scale, (y - o) * scale
    w = u - v
    twice_area = _area4(*sorted(np.sqrt(sides), reverse=True)) / 2.0
    offset = ((v @ v) * (u @ w) * u - (u @ u) * (v @ w) * v) / (2.0 * twice_area * twice_area)
    return o + offset / scale


def edge_witness(points: np.ndarray, ids) -> np.ndarray:
    """A point within epsilon of every member of a hyperedge.

    The centre of the members' minimum enclosing ball: the midpoint for a
    pair (a single point is its own witness), ``_triangle_centre`` for a
    triangle. For k >= 4 points, the largest ball that a subset of at least
    three has as its own: a triangle's by the closed forms, a larger
    subset's its circumball when ``_circumball`` accepts it, with one call
    per subset size; the circumcentre is taken relative to the subset's
    first point. The support set of the minimum enclosing ball is one of
    these subsets, and no subset's ball is larger than the whole set's, so
    this is the extension's rule without its recursion over faces. When the
    whole set has its own ball, that ball is the answer outright.
    """
    k = len(ids)
    if k <= 2:
        return (points[ids[0]] + points[ids[-1]]) / 2.0
    pts = points[list(ids)]
    if k == 3:
        return _triangle_centre(*pts)
    diff = pts[:, None] - pts[None]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    best_r, best = -math.inf, None
    for size in range(k, 2, -1):
        subsets = np.array(list(itertools.combinations(range(k), size)))
        if size > 3:
            radii, alphas, inside = _circumball(d2[subsets[:, :, None], subsets[:, None]])
            radii = np.where(inside, radii, -math.inf)
        else:
            a, b, c = subsets.T
            radii = _triangle_radius(d2[b, c], d2[a, c], d2[a, b])
        top = int(np.argmax(radii))
        if radii[top] > best_r:
            sub = pts[subsets[top]]
            best_r = radii[top]
            best = _triangle_centre(*sub) if size == 3 else sub[0] + alphas[top] @ (sub - sub[0])
        if size == k and inside[0]:  # the whole set's own ball is the answer
            return best
    return best


def graph_to_json(graph: ConflictHypergraph) -> str:
    """The graph's structure as a JSON document, for reading outside optloss.

    Vertices with their labels and masses, and every edge as its sorted id
    list in ``edge_list`` order; no coordinates or radii. ``max_degree`` is
    capped at the vertex count, the largest degree an edge can have.
    """
    doc = {
        "epsilon": graph.epsilon,
        "max_degree": min(graph.max_degree, graph.num_vertices),
        "vertices": [{"id": i, "label": label, "mass": mass} for i, (label, mass)
                     in enumerate(zip(graph.labels.tolist(), graph.masses.tolist()))],
        "edges": [list(ids) for ids in graph.edge_list()],
    }
    return json.dumps(doc)
