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

# points per block of the blocked all-pairs distance sweeps
SWEEP_BLOCK = 2048

__all__ = [
    "ConflictHypergraph",
    "IncidenceMatrix",
    "vertex_graph",
    "build_conflict_graph",
    "extend_hyperedges",
    "incidence",
    "edge_witness",
    "graph_to_json",
    "graph_from_json",
]


@dataclass
class ConflictHypergraph:
    # vertex i is (labels[i], masses[i], points[i]); its id is i
    labels: np.ndarray  # (n,) int class ids
    masses: np.ndarray  # (n,) probability masses
    points: np.ndarray | None  # (n, d) coordinates; None when read from JSON
    edges: dict[int, np.ndarray]  # degree k -> (E_k, k) sorted id rows
    max_degree: int
    epsilon: float
    # degree k -> (E_k,) minimum-enclosing-ball radius; NaN when unknown (imported)
    radii: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def edge_counts(self) -> dict[int, int]:
        """Number of stored hyperedges of each exact degree (dominated included)."""
        return {k: len(rows) for k, rows in sorted(self.edges.items()) if len(rows)}

    def edge_list(self) -> list[tuple[int, ...]]:
        """Every edge as an id tuple, by degree and then lexicographically.

        This is the row order of ``incidence(dedupe_dominated=False)``.
        """
        return [tuple(row) for k in sorted(self.edges) for row in self.edges[k].tolist()]

    def _pairs(self) -> np.ndarray:
        return self.edges.get(2, np.zeros((0, 2), dtype=np.int64))

    def adjacency_sets(self) -> list[set[int]]:
        """Neighbor sets in the degree-2 graph."""
        adj: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for u, v in self._pairs().tolist():
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_matrix(self) -> sp.csr_matrix:
        """0/1 adjacency matrix of the degree-2 graph."""
        u, v = self._pairs().T
        n = self.num_vertices
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))

    def boundary_tight_count(self, rel_tol: float = 1e-9) -> int:
        """Edges whose enclosing-ball radius sits within rel_tol of epsilon."""
        radii = np.concatenate([np.zeros(0), *self.radii.values()])
        if self.epsilon == 0:
            return int(np.count_nonzero(radii == 0.0))
        return int(np.count_nonzero(np.abs(radii - self.epsilon) <= rel_tol * self.epsilon))


@dataclass
class IncidenceMatrix:
    """Sparse hyperedge-vertex incidence: one row per retained hyperedge."""

    matrix: sp.csr_matrix


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
    """The budget as a float; a ValueError unless it is finite and >= 0."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    return epsilon


def vertex_graph(dataset, epsilon: float) -> ConflictHypergraph:
    """The dataset's support points as a graph without edges (max degree 1)."""
    epsilon = _budget(epsilon)
    points = np.asarray(dataset.points, dtype=float)
    if points.shape[0] == 0:
        raise ValueError("empty dataset")
    return ConflictHypergraph(np.asarray(dataset.labels, dtype=np.int64),
                              np.asarray(dataset.masses, dtype=float), points, {},
                              max_degree=1, epsilon=epsilon)


def build_conflict_graph(dataset, epsilon: float) -> ConflictHypergraph:
    """Degree-2 conflict graph: cross-class pairs at distance <= 2*epsilon.

    A blocked all-pairs sweep in Gram form on the centred points screens
    the pairs; no spatial index. The Gram form is off by a few ulps of
    |p|^2, which is all of a short distance (coincident points come out
    about 1e-8 |p| apart), so it screens with a slack and each screened
    pair is decided, and its radius taken, from coordinate differences.
    Centring keeps the Gram form free of cancellation when the data sit
    far from the origin.
    """
    graph = vertex_graph(dataset, epsilon)
    points = graph.points - graph.points.mean(axis=0)
    labels = graph.labels
    n = points.shape[0]
    threshold = (2.0 * graph.epsilon * (1.0 + REL_TOL)) ** 2
    sq = np.einsum("ij,ij->i", points, points)
    screen = threshold + 1e-10 * sq.max()

    found: list[np.ndarray] = [np.zeros((0, 2), dtype=np.int64)]
    for i0 in range(0, n, SWEEP_BLOCK):
        i1 = min(i0 + SWEEP_BLOCK, n)
        for j0 in range(i0, n, SWEEP_BLOCK):
            j1 = min(j0 + SWEEP_BLOCK, n)
            d2 = sq[i0:i1, None] + sq[None, j0:j1] - 2.0 * (points[i0:i1] @ points[j0:j1].T)
            ii, jj = np.nonzero(d2 <= screen)
            keep = (ii + i0 < jj + j0) & (labels[ii + i0] != labels[jj + j0])
            found.append(np.column_stack([ii[keep] + i0, jj[keep] + j0]).astype(np.int64))

    pairs = np.concatenate(found)
    d2 = np.zeros(len(pairs))
    step = max(1, 8192 // points.shape[1])  # difference chunks of 64 KB
    for s in range(0, len(pairs), step):
        diff = points[pairs[s:s + step, 0]] - points[pairs[s:s + step, 1]]
        d2[s:s + step] = np.einsum("ij,ij->i", diff, diff)
    close = d2 <= threshold
    pairs, d2 = pairs[close], d2[close]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    radii = 0.5 * np.sqrt(d2[order])
    return replace(graph, edges={2: pairs[order]}, radii={2: radii}, max_degree=2)


def circumradius_batch(d2_stack: np.ndarray):
    """Vectorized circumradius over a stack of (k x k) squared-distance matrices.

    For points with squared-distance matrix D, the circumcenter is
    ``X @ alpha`` with ``alpha = D^-1 1 / (1^T D^-1 1)`` and the radius is
    ``1 / sqrt(2 * 1^T D^-1 1)``. Returns (radii, alphas, ok) where ``ok[i]``
    is False for matrices the formula could not certify (singular,
    ill-conditioned, or no real circumsphere); those entries hold NaN.
    """
    d2_stack = np.asarray(d2_stack, dtype=float)
    batch, k, _ = d2_stack.shape
    radii = np.full(batch, np.nan)
    alphas = np.full((batch, k), np.nan)
    ok = np.zeros(batch, dtype=bool)
    ones = np.ones((batch, k))
    try:
        x = np.linalg.solve(d2_stack, ones[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # at least one singular matrix in the batch: solve one by one
        x = np.full((batch, k), np.nan)
        for i in range(batch):
            try:
                x[i] = np.linalg.solve(d2_stack[i], ones[i])
            except np.linalg.LinAlgError:
                pass
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
    idx = np.nonzero(good)[0]
    if idx.size:
        radii[idx] = np.sqrt(0.5 / denom[idx])
        alphas[idx] = x[idx] / denom[idx, None]
        ok[idx] = True
    return radii, alphas, ok


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
    xyz / (4 * area) of the side lengths, the area by ``_area4``.
    """
    longest = np.maximum(np.maximum(a, b), c)
    obtuse = 2.0 * longest >= a + b + c
    x, y, z = np.sort(np.sqrt([a, b, c]), axis=0)[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = x * y * z / _area4(x, y, z)
    return np.where(obtuse, np.sqrt(longest / 4.0), circum)


def _ball_radius(cands: np.ndarray, pair_index: _RowIndex, pair_d2: np.ndarray,
                 face_radii: np.ndarray) -> np.ndarray:
    """Minimum-enclosing-ball radius of k >= 4 candidates.

    The circumradius, from the looked-up pair distances, when every
    circumcentre weight is nonnegative. Otherwise the ball's support is a
    proper subset of the points, so the ball is that of some (k-1)-face and
    the radius is the largest of ``face_radii`` (count, k).
    """
    count, k = cands.shape
    d2 = np.zeros((count, k, k))
    for i, j in itertools.combinations(range(k), 2):
        d2[:, i, j] = d2[:, j, i] = pair_d2[pair_index.find(cands[:, [i, j]])]
    radii, _, inside = _circumball(d2)
    return np.where(inside, radii, face_radii.max(axis=1))


def extend_hyperedges(graph: ConflictHypergraph, m: int, jobs: int = 1,
                      progress=None, batch_size: int = 65536) -> ConflictHypergraph:
    """Add all hyperedges of degree up to m to a graph holding lower degrees.

    A degree-k candidate extends a (k-1)-edge by a forward neighbor w of its
    last vertex in the pair graph. It is tested only if every other
    (k-1)-subset holding w is an edge too, found in the sorted (k-1)-edge
    array. Triangles are decided in closed form from the three pair
    distances; larger candidates by ``circumradius_batch`` and the radii of
    their (k-1)-faces, which that lookup has found. Every stored radius is
    the edge's minimum-enclosing-ball radius. Candidates are enumerated
    ``batch_size`` at a time, and ``progress`` is called after each batch
    with the cumulative count of tested candidates. ``jobs`` is ignored:
    extension runs in one thread. It, like the ``jobs`` of ``optimal_loss``,
    ``pairwise_binary_losses`` and ``bound_report``, is accepted only
    because the benchmark harness passes it.
    """
    if m < 2:
        raise ValueError("max degree m must be >= 2")
    if graph.max_degree >= m:
        return graph
    if graph.max_degree < 2:
        raise ValueError("extension needs the pair edges: start from build_conflict_graph")
    if graph.points is None:
        raise ValueError("hypergraph has no point coordinates (imported from JSON?)")
    n = graph.num_vertices
    eps_tol = graph.epsilon * (1.0 + REL_TOL)
    pairs = graph.edges[2]
    pair_index = _RowIndex(pairs, n)
    pair_d2 = (2.0 * graph.radii[2]) ** 2
    # forward CSR over the sorted pair array: v's forward neighbors are
    # pairs[first[v]:first[v + 1], 1]
    first = np.searchsorted(pairs[:, 0], np.arange(n + 1))

    edges, radii = dict(graph.edges), dict(graph.radii)
    tested = 0
    for k in range(graph.max_degree + 1, m + 1):
        prev = edges[k - 1]
        prev_index = _RowIndex(prev, n)
        # candidate c extends the (k-1)-edge src with its (c - starts[src])-th
        # forward neighbor
        counts = first[prev[:, -1] + 1] - first[prev[:, -1]]
        ends = np.cumsum(counts)
        starts = ends - counts
        total = int(ends[-1]) if ends.size else 0
        new_rows = [np.zeros((0, k), dtype=np.int64)]
        new_radii = [np.zeros(0)]
        for c0 in range(0, total, batch_size):
            wedge = np.arange(c0, min(c0 + batch_size, total))
            # the (k-1)-edges whose candidates overlap this batch
            span = np.arange(*np.searchsorted(ends, wedge[[0, -1]], side="right") + [0, 1])
            src = np.repeat(span, counts[span])[c0 - starts[span[0]]:][:wedge.size]
            # pair index of (last vertex, w) for every candidate
            fwd = first[prev[src, -1]] + wedge - starts[src]
            cands = np.column_stack([prev[src], pairs[fwd, 1]])
            # every (k-1)-subset holding w must be an edge; dropping the first
            # vertex of a triangle leaves (last, w), a pair by construction
            found = [prev_index.find(np.delete(cands, p, axis=1))
                     for p in range(1 if k == 3 else 0, k - 1)]
            closed = np.logical_and.reduce([f >= 0 for f in found])
            cands = cands[closed]
            if k == 3:
                r = _triangle_radius(pair_d2[src[closed]], pair_d2[fwd[closed]],
                                     pair_d2[found[0][closed]])
            else:
                # face p drops vertex p; face k - 1, without w, is src itself
                faces = np.column_stack(found + [src])[closed]
                r = _ball_radius(cands, pair_index, pair_d2, radii[k - 1][faces])
            accept = r <= eps_tol
            new_rows.append(cands[accept])
            new_radii.append(r[accept])
            tested += len(cands)
            if progress is not None:
                progress(tested)
        edges[k] = np.concatenate(new_rows)
        radii[k] = np.concatenate(new_radii)

    return replace(graph, edges=edges, radii=radii, max_degree=m)


def incidence(graph: ConflictHypergraph, dedupe_dominated: bool = True) -> IncidenceMatrix:
    """Hyperedge-vertex incidence matrix, rows by degree then lexicographically.

    With ``dedupe_dominated`` every edge whose vertex set is a proper subset
    of another edge's is dropped: its packing constraint is implied by the
    superset row, so the LP optimum is unchanged.
    """
    n = graph.num_vertices
    degrees = sorted(graph.edges)
    kept: list[np.ndarray] = []
    for k in degrees:
        rows = graph.edges[k]
        keep = np.ones(len(rows), dtype=bool)
        if dedupe_dominated and len(rows):
            index = _RowIndex(rows, n)
            for big in degrees[degrees.index(k) + 1:]:
                for cols in itertools.combinations(range(big), k):
                    found = index.find(graph.edges[big][:, list(cols)])
                    keep[found[found >= 0]] = False
        kept.append(rows[keep])
    widths = np.concatenate([np.zeros(0, dtype=np.int64)]
                            + [np.full(len(rows), rows.shape[1]) for rows in kept])
    indptr = np.concatenate([[0], np.cumsum(widths)])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)] + [rows.ravel() for rows in kept])
    matrix = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                           shape=(widths.size, n))
    return IncidenceMatrix(matrix)


def _triangle_centre(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Minimum-enclosing-ball centre of a triangle, in closed form.

    The midpoint of the longest side when the triangle is obtuse, right or
    degenerate (the rule of ``_triangle_radius``), else the circumcentre
    ``o + (|v|^2 (u.w) u - |u|^2 (v.w) v) / (2 |u x v|^2)``: o is the vertex
    opposite the longest side, u and v run from it to the others, w = u - v,
    and |u x v| is twice the area from ``_area4``. Neither term cancels on a
    needle-like triangle.
    """
    pts = (p0, p1, p2)
    sides = [float(e @ e) for e in (p2 - p1, p0 - p2, p1 - p0)]
    longest = int(np.argmax(sides))
    o, x, y = pts[longest], pts[(longest + 1) % 3], pts[(longest + 2) % 3]
    if 2.0 * sides[longest] >= sum(sides):
        return (x + y) / 2.0
    u, v = x - o, y - o
    w = u - v
    twice_area = _area4(*sorted(np.sqrt(sides), reverse=True)) / 2.0
    return o + ((v @ v) * (u @ w) * u - (u @ u) * (v @ w) * v) / (2.0 * twice_area ** 2)


def _ball(points: np.ndarray, ids: tuple[int, ...], memo: dict):
    """(centre, radius) of the minimum enclosing ball of k >= 3 points.

    The extension's rule: the closed forms for a triangle; for k >= 4 the
    circumball when ``_circumball`` accepts it, its centre taken relative
    to the first point, and otherwise the ball of the largest (k-1)-face.
    ``memo`` holds the balls of the id subsets already seen, so k points
    cost at most 2^k ball evaluations.
    """
    if ids in memo:
        return memo[ids]
    pts = points[list(ids)]
    diff = pts[:, None] - pts[None]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if len(ids) == 3:
        ball = _triangle_centre(*pts), float(_triangle_radius(d2[1, 2], d2[0, 2], d2[0, 1]))
    else:
        radii, alphas, inside = _circumball(d2[None])
        if inside[0]:
            ball = pts[0] + alphas[0] @ (pts - pts[0]), float(radii[0])
        else:
            faces = itertools.combinations(ids, len(ids) - 1)
            ball = max((_ball(points, face, memo) for face in faces), key=lambda b: b[1])
    memo[ids] = ball
    return ball


def edge_witness(points: np.ndarray, ids) -> np.ndarray:
    """A point within epsilon of every member of a hyperedge.

    The centre of the members' minimum enclosing ball, by the rule that
    decided the edge: the midpoint for a pair (a single point is its own
    witness), ``_triangle_centre`` for a triangle, ``_ball`` beyond.
    """
    if len(ids) <= 2:
        return (points[ids[0]] + points[ids[-1]]) / 2.0
    if len(ids) == 3:
        return _triangle_centre(*points[list(ids)])
    return _ball(points, tuple(ids), {})[0]


def graph_to_json(graph: ConflictHypergraph) -> str:
    """Serialize structure (not coordinates) for reuse across bound runs.

    ``max_degree`` is capped at the vertex count, the largest degree an
    edge can have, which is all that ``graph_from_json`` accepts.
    """
    doc = {
        "epsilon": graph.epsilon,
        "max_degree": min(graph.max_degree, graph.num_vertices),
        "vertices": [{"id": i, "label": label, "mass": mass} for i, (label, mass)
                     in enumerate(zip(graph.labels.tolist(), graph.masses.tolist()))],
        "edges": [list(ids) for ids in graph.edge_list()],
    }
    return json.dumps(doc)


def graph_from_json(text: str) -> ConflictHypergraph:
    """Read a graph written by ``graph_to_json``, checking it on the way in.

    Vertex ids must be 0..n-1 in order, masses nonnegative with sum 1,
    ``epsilon`` finite and nonnegative, and ``max_degree`` in 1..n (it
    sizes one array per degree). Each edge's ids are sorted; an edge with a
    repeated or out-of-range id, two vertices of one label, or a degree
    outside 2..max_degree raises a ValueError that names it.
    """
    doc = json.loads(text)
    epsilon = _budget(doc["epsilon"])
    n, max_degree = len(doc["vertices"]), int(doc["max_degree"])
    if not 1 <= max_degree <= n:
        raise ValueError(f"max_degree {max_degree} is outside 1..{n}")
    if [int(v["id"]) for v in doc["vertices"]] != list(range(n)):
        raise ValueError("vertex ids must be 0..n-1 in order")
    labels = np.array([int(v["label"]) for v in doc["vertices"]], dtype=np.int64)
    masses = np.array([float(v["mass"]) for v in doc["vertices"]])
    if not (np.all(masses >= 0.0) and abs(masses.sum() - 1.0) <= 1e-9):
        raise ValueError("vertex masses must be nonnegative and sum to 1")
    by_degree: dict[int, list[list[int]]] = {k: [] for k in range(2, max_degree + 1)}
    for edge in doc["edges"]:
        row = sorted(int(i) for i in edge)
        if not 2 <= len(row) <= max_degree:
            problem = f"degree {len(row)} is outside 2..{max_degree}"
        elif row[0] < 0 or row[-1] >= n:
            problem = f"an id is outside 0..{n - 1}"
        elif len(set(row)) < len(row):
            problem = "an id is repeated"
        elif len(set(labels[row].tolist())) < len(row):
            problem = "two vertices share a label"
        else:
            by_degree[len(row)].append(row)
            continue
        raise ValueError(f"bad edge {edge}: {problem}")
    edges = {k: np.array(sorted(rows), dtype=np.int64).reshape(-1, k)
             for k, rows in by_degree.items()}
    radii = {k: np.full(len(rows), np.nan) for k, rows in edges.items()}
    return ConflictHypergraph(labels, masses, None, edges, max_degree, epsilon, radii)
