"""Optimal-loss computations and the surrounding chain of bounds.

For a dataset, budget epsilon and truncation degree m this module computes:

* ``optimal_loss`` -- the truncated-hypergraph loss L*(m); at m = K this is
  the exact optimal soft-classification loss.
* ``pairwise_binary_losses`` / ``class_only_bound`` -- the coupling lower
  bound L*co(2) built from all one-versus-one binary problems.
* ``caro_wei_bound`` -- the weighted Caro-Wei upper bound on
  hard-classifier loss.
* ``hard_loss_bruteforce`` -- exact maximum-weight-independent-set loss by
  branch and bound (small instances only).
* ``extract_strategy`` / ``evaluate_classifier`` -- the optimal randomized
  adversary from the dual cover, and the optimal classifier induced by the
  primal packing vector.

The chain L*co(2) <= L*(2) <= ... <= L*(K) <= L*hard <= L_CW holds for every
instance; the test suite exercises it on random data.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from .data import LabeledDataset
from .hypergraph import (
    F32_UNIT,
    MAGNITUDE_LIMIT,
    REL_TOL,
    ConflictHypergraph,
    _budget,
    _cross_class_pairs,
    _f32_at_least,
    _gram_slack,
    _GramScreen,
    _incidence_of,
    _is_integer,
    build_conflict_graph,
    edge_witness,
    extend_hyperedges,
    incidence,
    vertex_graph,
)
from .lp_core import LpSolution, PackingLp, Tolerances, solve_packing

__all__ = [
    "BoundReport",
    "PairwiseLossMatrix",
    "AdversarialStrategy",
    "VertexStrategy",
    "SoftClassifierTable",
    "InstanceTooLargeError",
    "optimal_loss",
    "pairwise_binary_losses",
    "class_only_bound",
    "caro_wei_bound",
    "hard_loss_bruteforce",
    "extract_strategy",
    "evaluate_classifier",
    "class_distance_stats",
    "bound_report",
    "BOUND_CSV_HEADER",
    "PAIRWISE_NOTE",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1  # of every JSON and CSV document the library and CLI write
PAIRWISE_NOTE = "entry (i,j) conditions on Y in {i,j} with prior-weighted masses"


class InstanceTooLargeError(ValueError):
    """Exact exponential search refused; the instance exceeds the cap."""


def optimal_loss(dataset: LabeledDataset, epsilon: float, m: int,
                 tol: Tolerances = Tolerances(), jobs: int = 1):
    """Optimal loss against hyperedges of degree at most m.

    Returns ``(loss, solution, graph)``. With m equal to the number of
    classes the value is the exact optimal soft-classification loss; smaller
    m gives a lower bound. m = 1 is the degenerate unconstrained game with
    loss zero. ``jobs`` is ignored (see ``extend_hyperedges``).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        graph = vertex_graph(dataset, epsilon)
    else:
        graph = build_conflict_graph(dataset, epsilon)
        if m > 2:
            graph = extend_hyperedges(graph, m)
    sol = solve_packing(PackingLp(graph.masses, incidence(graph)), tol)
    return sol.loss, sol, graph


@dataclass
class PairwiseLossMatrix:
    """Symmetric zero-diagonal matrix of one-versus-one optimal losses.

    ``backend`` names the solver of the one solve that serves every pair.
    """

    losses: np.ndarray
    class_names: list[str] | None = None
    backend: str = ""

    def __post_init__(self):
        self.losses = np.asarray(self.losses, dtype=float)
        k = self.losses.shape[0]
        if self.losses.shape != (k, k):
            raise ValueError("pairwise loss matrix must be square")


def pairwise_binary_losses(dataset: LabeledDataset, epsilon: float,
                           tol: Tolerances = Tolerances(),
                           jobs: int = 1) -> PairwiseLossMatrix:
    """Optimal loss of every one-versus-one problem at the given budget.

    Each pair {i, j} restricts the distribution to those classes and
    renormalizes masses to the conditional distribution. One pair sweep and
    one packing solve serve every pair (see ``_pairwise_losses``), and each
    pair's answer meets ``tol`` in its conditional units. ``jobs`` is
    ignored (see ``extend_hyperedges``).
    """
    return _pairwise_losses(build_conflict_graph(dataset, epsilon), tol, dataset.class_names)


def _pairwise_losses(graph: ConflictHypergraph, tol: Tolerances,
                     class_names: list[str] | None) -> PairwiseLossMatrix:
    """One-versus-one losses from the pair edges of an already built graph,
    all from one block-diagonal packing solve.

    Pair {i, j} is one block of the union LP: its own copy of every class-i
    and class-j vertex, in graph order, and the graph's pairs with labels i
    and j as rows. Every block's masses are the graph's masses over one
    constant, the smallest pair mass P_min = min P(i) + P(j); per-pair
    conditional masses would not share one integer scale. The union is a
    two-label pair LP: label 0 marks each block's side A, the class of the
    block's first row's first vertex, as the pair alone would pick it. So
    ``solve_packing`` takes its min-cut backend whenever the masses scale
    to integers, and the source-reachable min cut, the same for every
    maximum flow, falls apart into each pair's own. The loss of {i, j} is
    the sum, exact (``math.fsum``), of its conditional masses times 1 - q on
    its block.

    The union is certified at ``tol.feasibility_abs`` and relative gap
    ``tol.gap_rel * P_min / (K - 1)``. A block's dual residual and gap in
    its conditional units are the union's times P_min / (P(i) + P(j)) <= 1,
    its gap is at most the union's, and the union's objective is at most
    (K - 1) / P_min, so every pair meets ``tol`` as if solved alone. In
    these units HiGHS's tolerance floor, 1e-10, stays below the certificate's.
    """
    labels, masses, pairs = graph.labels, graph.masses, graph.pairs
    k = int(labels.max()) + 1
    if k < 2:
        raise ValueError("need at least two classes")
    lo, hi = np.sort(labels[pairs], axis=1).T
    class_pairs = list(itertools.combinations(range(k), 2))
    columns, sides, rows = [], [], []
    start = 0
    for i, j in class_pairs:
        keep = (labels == i) | (labels == j)
        ids = np.flatnonzero(keep)
        local = np.cumsum(keep) - 1 + start  # graph id -> its copy's union column
        edges = pairs[(lo == i) & (hi == j)]
        side_a = labels[edges[0, 0]] if len(edges) else i
        columns.append(ids)
        sides.append(labels[ids] != side_a)
        rows.append(local[edges])
        start += ids.size
    pair_mass = [masses[ids].sum() for ids in columns]
    p_min = min(pair_mass)
    union = PackingLp(masses[np.concatenate(columns)] / p_min,
                      _incidence_of(rows, np.concatenate(sides).astype(np.int64)))
    sol = solve_packing(union, Tolerances(tol.feasibility_abs, tol.gap_rel * p_min / (k - 1),
                                          tol.max_iterations))
    a = np.zeros((k, k))
    start = 0
    for (i, j), ids, mass in zip(class_pairs, columns, pair_mass):
        cond_mass = masses[ids] / mass
        a[i, j] = a[j, i] = math.fsum(cond_mass * (1.0 - sol.q[start:start + ids.size]))
        start += ids.size
    return PairwiseLossMatrix(a, class_names=class_names, backend=sol.backend)


def class_only_bound(pairwise: PairwiseLossMatrix, priors) -> float:
    """Best coupling of the pairwise losses: the class-only lower bound.

    Maximizes sum_{i<j} (priors_i a_ij + priors_j a_ji) s_ij over symmetric
    doubly stochastic matrices s. By Birkhoff these are the convex hull of
    (P + P^T) / 2 over permutation matrices P, so the optimum is half the
    best assignment of the symmetric weights C_ij = priors_i a_ij +
    priors_j a_ji (C_ii = 0, a fixed point). Priors that are not a
    distribution over the K classes raise a ValueError.
    """
    a = pairwise.losses
    k = a.shape[0]
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (k,):
        raise ValueError("priors length must match the number of classes")
    if not np.all(np.isfinite(priors) & (priors >= 0)):
        raise ValueError("priors must be finite and nonnegative")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("priors must sum to 1")

    weight = priors[:, None] * a
    weight = weight + weight.T
    np.fill_diagonal(weight, 0.0)
    rows, cols = linear_sum_assignment(weight, maximize=True)
    return max(0.0, float(weight[rows, cols].sum()) / 2.0)


def _vertex_weights(graph: ConflictHypergraph, weights) -> np.ndarray:
    """``weights`` as a float vector, one finite nonnegative value per vertex."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (graph.num_vertices,):
        raise ValueError("weights length must match vertex count")
    # NaN would pass a "< 0" test and then turn the bound into NaN
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and nonnegative")
    return w


def caro_wei_bound(graph: ConflictHypergraph, weights) -> float:
    """Weighted Caro-Wei upper bound on the optimal hard-classifier loss.

    For any nonnegative weight vector w there is an independent set S of the
    pair graph with P(S) >= sum over {v : w_v > 0} of p_v w_v / ((A+I)w)_v;
    the bound returned is one minus that sum. w = 0 yields the vacuous 1.
    """
    w = _vertex_weights(graph, weights)
    n = graph.num_vertices
    # (A + I) w, each vertex summing its neighbours in increasing id order
    u, v = graph.pairs.T
    denom = np.bincount(np.concatenate([v, u]), np.concatenate([w[u], w[v]]), n) + w
    mask = w > 0
    return 1.0 - float(np.sum(graph.masses[mask] * w[mask] / denom[mask]))


def _check_cap(name: str, cap) -> None:
    if not _is_integer(cap) or cap < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {cap!r}")


def hard_loss_bruteforce(graph: ConflictHypergraph, cap: int = 30):
    """Exact optimal hard-classifier loss by branch and bound.

    One minus the maximum probability of an independent set in the pair
    graph, searched one connected component at a time. The components'
    weights are summed exactly (``math.fsum``) and the loss clamped at 0.
    Refuses instances above ``cap`` vertices rather than approximating;
    ``cap`` must be an integer >= 0. Returns
    ``(loss, frozenset_of_vertex_ids)``.
    """
    _check_cap("cap", cap)
    n = graph.num_vertices
    if n > cap:
        raise InstanceTooLargeError(
            f"{n} vertices exceeds the exact-search cap of {cap}"
        )
    u, v = graph.pairs.T
    _, comp = connected_components(sp.csr_matrix((np.ones(u.size), (u, v)), shape=(n, n)),
                                   directed=False)
    # search bit r is vertex order[r]: by component, then decreasing mass, then id
    order = np.lexsort((np.arange(n), -graph.masses, comp))
    rank = np.argsort(order)  # vertex -> search bit
    adj = [0] * n
    for a, b in rank[graph.pairs].tolist():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    w = graph.masses[order].tolist()
    ends = np.cumsum(np.bincount(comp)).tolist()
    parts = [_heaviest_independent_set(adj, w, lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
    best = sum(chosen for _, chosen in parts)  # disjoint bitmasks: the sum is their union
    loss = max(0.0, 1.0 - math.fsum(weight for weight, _ in parts))
    return loss, frozenset(i for r, i in enumerate(order.tolist()) if best >> r & 1)


def _heaviest_independent_set(adj: list[int], w: list[float], lo: int, hi: int):
    """(weight, bitmask) of a heaviest independent subset of the component
    on bits lo..hi-1, whose weights ``w`` decrease with the bit;
    ``adj[r]`` masks bit r's neighbours."""
    # greedy clique cover, built once: restricted to a node's candidates it
    # still covers them, and each clique contributes at most the weight of
    # its lowest candidate bit
    cliques: list[int] = []
    for r in range(lo, hi):
        for ci, cm in enumerate(cliques):
            if cm & ~adj[r] == 0:
                cliques[ci] = cm | 1 << r
                break
        else:
            cliques.append(1 << r)

    best_w, best_set = -1.0, 0
    # depth-first, include branch first, on an explicit stack: the search
    # can nest once per vertex, past Python's recursion limit
    stack = [((1 << hi) - (1 << lo), 0.0, 0)]
    while stack:
        cand, cur, cur_set = stack.pop()
        # a candidate with no neighbour among the candidates belongs to some
        # best extension of this node, so take it without branching
        rest = cand
        while rest:
            bit = rest & -rest
            rest ^= bit
            r = bit.bit_length() - 1
            if not adj[r] & cand:
                cand ^= bit
                cur += w[r]
                cur_set |= bit
        if cur > best_w:
            best_w, best_set = cur, cur_set
        if not cand:
            continue
        bound = 0.0
        for cm in cliques:
            top = cm & cand
            if top:
                bound += w[(top & -top).bit_length() - 1]
        if cur + bound <= best_w:
            continue
        bit = cand & -cand  # the heaviest candidate
        r = bit.bit_length() - 1
        stack.append((cand ^ bit, cur, cur_set))
        stack.append((cand & ~(adj[r] | bit), cur + w[r], cur_set | bit))
    return best_w, best_set


@dataclass
class VertexStrategy:
    vertex_id: int
    edges: list[tuple[int, ...] | None]  # None marks the unperturbed point
    probabilities: np.ndarray
    witnesses: list[np.ndarray]  # the vertex's own point for the unperturbed play
    over_covered: bool


@dataclass
class AdversarialStrategy:
    """Per-vertex conditional distributions over hyperedge witness points."""

    per_vertex: list[VertexStrategy]
    cover_cost: float

    def to_json_dict(self) -> dict:
        """The strategy with each coordinate written once.

        ``witnesses`` holds one coordinate list per played edge, in order of
        first play, and a play's ``witness`` is its index there, or ``None``
        for the unperturbed point (dataset row ``vertex``).
        """
        index: dict[tuple[int, ...], int] = {}
        witnesses: list[list[float]] = []
        vertices = []
        for vs in self.per_vertex:
            plays = []
            for e, pr, wit in zip(vs.edges, vs.probabilities, vs.witnesses):
                i = None
                if e is not None:
                    i = index.get(e)
                    if i is None:
                        i = index[e] = len(witnesses)
                        witnesses.append(wit.tolist())
                plays.append({"edge": None if e is None else list(e),
                              "probability": float(pr), "witness": i})
            vertices.append({"vertex": vs.vertex_id, "over_covered": vs.over_covered,
                             "plays": plays})
        return {"cover_cost": self.cover_cost, "witnesses": witnesses, "vertices": vertices}


def extract_strategy(sol: LpSolution, graph: ConflictHypergraph,
                     tol: Tolerances = Tolerances()) -> AdversarialStrategy:
    """Turn the dual cover into the adversary's conditional distributions.

    Edge e containing vertex v receives probability proportional to its cover
    z_e; the singleton cover, the mass the edges leave uncovered, plays the
    unperturbed point. Over-covered vertices (edge cover alone above p_v)
    are normalized proportionally, one of the equally good feasible choices.
    Witnesses are computed here, once per played edge; the unperturbed
    play's is the point itself. ``cover_cost`` is the dual objective.
    """
    B = sol.lp.incidence.matrix
    B_cols = B.tocsc()
    points = graph.points
    # one mask over the CSC entries picks every vertex's played rows, those
    # of positive cover; vertex v's are entries cuts[v]:cuts[v + 1]
    cover = sol.edge_cover[B_cols.indices]
    plays = cover > 0.0
    cuts = np.concatenate([[0], np.cumsum(plays)])[B_cols.indptr].tolist()
    play_rows, play_cover = B_cols.indices[plays].tolist(), cover[plays].tolist()
    singleton, masses = sol.singleton_cover.tolist(), sol.lp.masses.tolist()
    played: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    per_vertex: list[VertexStrategy] = []
    for v, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        edges: list[tuple[int, ...] | None] = []
        weights, witnesses = play_cover[lo:hi], []
        for r in play_rows[lo:hi]:
            edge = played.get(r)
            if edge is None:
                ids = tuple(B.indices[B.indptr[r]:B.indptr[r + 1]].tolist())
                edge = played[r] = (ids, edge_witness(points, ids))
            edges.append(edge[0])
            witnesses.append(edge[1])
        if singleton[v] > 0.0:
            edges.append(None)
            weights.append(singleton[v])
            witnesses.append(points[v])
        total = sum(weights)
        if total < masses[v] - tol.feasibility_abs:
            raise ValueError(
                f"vertex {v} is under-covered ({total!r} < mass {masses[v]!r}); "
                "the solution is not a certified cover"
            )
        if not edges:
            # only a vertex lighter than feasibility_abs gets here: play the point
            edges, weights, witnesses = [None], [masses[v]], [points[v]]
            total = masses[v]
        per_vertex.append(
            VertexStrategy(
                vertex_id=v,
                edges=edges,
                probabilities=np.array(weights) / total,
                witnesses=witnesses,
                over_covered=total > masses[v] + tol.feasibility_abs,
            )
        )
    return AdversarialStrategy(per_vertex, cover_cost=sol.certificate.dual_objective)


# coordinates (rows x dimension) from which a classifier table screens its
# rows in float32 before deciding them in float64; below it every row is
# decided from float64 differences, which is cheaper there: the measured
# crossover lies near 600 coordinates at d = 2, 1,350 at d = 4 and 3,000 at d = 64
SCREEN_MIN_SIZE = 1024

# a screened query's scaled |x|^2 stays below this, so its float32 cast cannot overflow
QUERY_REACH = 2.0 ** 100


@dataclass(frozen=True)
class SoftClassifierTable:
    """Optimal packing vector plus the support needed to evaluate it anywhere.

    Construction checks the support: ``num_classes`` an integer >= 1 (a
    numpy integer too), ``points`` a nonempty (n, d) float array within
    ``MAGNITUDE_LIMIT``, ``labels`` n integers in 0..num_classes-1, ``q`` n
    values in [0, 1] and ``epsilon`` in [0, MAGNITUDE_LIMIT]; anything else
    raises a ValueError. It also builds, once, a (K, n) table of each
    class's q, zero off the class, that ``evaluate_classifier`` takes the
    largest of. A support of ``SCREEN_MIN_SIZE`` coordinates (n d) or more,
    short of d u = 1 where no screen bound holds, also gets the float32
    ``_GramScreen`` of the centred support that ``evaluate_classifier``
    screens with, and the query-independent part of its bound; any other is
    scanned directly. The table is frozen and keeps read-only copies of its
    arrays, so neither a reassigned field nor a write to the caller's arrays
    can leave that state stale.
    """

    points: np.ndarray
    labels: np.ndarray
    num_classes: int
    epsilon: float
    q: np.ndarray
    _radius: float = field(init=False, repr=False, compare=False)
    _class_q: np.ndarray = field(init=False, repr=False, compare=False)
    _centre: np.ndarray = field(init=False, repr=False, compare=False)
    _inner: float = field(init=False, repr=False, compare=False)
    _screen: _GramScreen | None = field(init=False, repr=False, compare=False)
    # a screened row passes when its Gram value sq - 2 g + xx is at most the
    # scaled limit plus slack(top + xx), i.e. when sq - 2 g <= _base - _shrink * xx,
    # for xx the query's |x|^2 times the screen's scale squared
    _base: float = field(init=False, repr=False, compare=False)
    _shrink: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        labels = np.array(self.labels)
        q = np.array(self.q, dtype=float) + 0.0  # a caller's -0.0 becomes 0.0
        if not _is_integer(self.num_classes) or self.num_classes < 1:
            raise ValueError(f"num_classes must be an integer >= 1, got {self.num_classes!r}")
        if (points.ndim != 2 or not points.size  # min and max leave no temporary
                or not (-MAGNITUDE_LIMIT <= points.min() and points.max() <= MAGNITUDE_LIMIT)):
            raise ValueError("points must be a nonempty (n, d) array within MAGNITUDE_LIMIT")
        n = len(points)
        if (labels.shape != (n,) or labels.dtype.kind not in "iu"
                or labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"labels must be {n} integers in 0..{self.num_classes - 1}")
        if q.shape != (n,) or not ((q >= 0.0) & (q <= 1.0)).all():
            raise ValueError(f"q must be {n} values in [0, 1]")
        epsilon = _budget(self.epsilon)
        radius = epsilon * (1.0 + REL_TOL) + 1e-12
        class_q = np.zeros((self.num_classes, n))
        class_q[labels, np.arange(n)] = q
        centre = points.mean(axis=0)
        # a query within sqrt(inner) of the centre is within the limit, with room for rounding
        inner = (max(0.0, MAGNITUDE_LIMIT - float(np.abs(centre).max())) / 2.0) ** 2
        screen = (_GramScreen(points, centre) if points.size >= SCREEN_MIN_SIZE
                  and _gram_slack(points.shape[1]) < math.inf else None)
        base = shrink = math.nan  # no screen, no bound
        if screen is not None:
            # a row whose float64 distance passes has a scaled squared distance
            # of at most (radius * scale)^2 times 1 + u, which covers its rounding
            limit = (radius * screen.scale) * (radius * screen.scale) * (1.0 + F32_UNIT)
            base, shrink = limit + screen.slack(screen.top), 1.0 - screen.rel
            screen.rows.flags.writeable = screen.sq.flags.writeable = False
        for array in (points, labels, q, class_q):
            array.flags.writeable = False
        for name, value in (("points", points), ("labels", labels), ("q", q),
                            ("epsilon", epsilon), ("_radius", radius), ("_class_q", class_q),
                            ("_centre", centre), ("_inner", inner), ("_screen", screen),
                            ("_base", base), ("_shrink", shrink)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_solution(cls, dataset: LabeledDataset, epsilon: float,
                      sol: LpSolution) -> "SoftClassifierTable":
        """The table of a solve's q, which ``solve_packing`` returns in [0, 1]."""
        return cls(dataset.points, dataset.labels, dataset.num_classes, float(epsilon), sol.q)


def _norms(diff: np.ndarray) -> np.ndarray:
    """The float64 norms of the rows of diff, as ``np.linalg.norm`` rounds them."""
    return np.sqrt(np.add.reduce(diff * diff, axis=1))


def evaluate_classifier(table: SoftClassifierTable, query, side_info=None) -> np.ndarray:
    """Class probabilities the optimal classifier assigns at a query point.

    Each class y receives the largest packing value among class-y support
    points whose closed ball of radius eps * (1 + REL_TOL) + 1e-12 contains
    the query (zero when there is none); leftover probability is spread
    uniformly over all classes. With ``side_info`` (a set of candidate
    classes) only those classes compete for packing values; a class there
    that is not an integer, or is outside 0..K-1, raises a ValueError, as
    does a query with a coordinate that is not finite or passes
    ``MAGNITUDE_LIMIT``.

    Each row is decided by the float64 norm of its coordinate difference
    from the query. A table below ``SCREEN_MIN_SIZE`` coordinates decides
    every row so. On a larger one, one float32 matrix-vector product in
    Gram form on the table's ``_GramScreen`` first screens the rows, under
    the same error bound as the pair sweep, so the answer is the one a full
    scan gives; a query too far out for float32 skips the screen.
    """
    query = np.asarray(query, dtype=float)
    if query.shape != (table.points.shape[1],):
        raise ValueError(
            f"query dimension {query.shape} does not match data dimension "
            f"({table.points.shape[1]},)"
        )
    k = table.num_classes
    if side_info is not None:
        side_info = list(side_info)
        if not all(_is_integer(c) for c in side_info):
            raise ValueError(f"side_info classes must be integers, got {side_info}")
        classes, allowed = set(range(k)), {int(c) for c in side_info}
        if not allowed <= classes:
            raise ValueError(f"side_info names classes outside 0..{k - 1}: "
                             f"{sorted(allowed - classes)}")
    x = query - table._centre
    # vdot does not warn of overflow; a NaN fails both tests
    xx = float(np.vdot(x, x))
    if not xx <= table._inner and not np.abs(query).max() <= MAGNITUDE_LIMIT:
        raise ValueError("query must be finite and within MAGNITUDE_LIMIT = 2^200")
    screen = table._screen
    xx = xx * (screen.scale * screen.scale) if screen is not None else math.inf
    if xx < QUERY_REACH:
        # the factor 2 of the Gram form rides, exactly, on the query's scale;
        # with rows below 1 and a query below 2^51, no value here is a NaN
        g2 = screen.rows @ (x * (2.0 * screen.scale)).astype(np.float32)
        near = np.flatnonzero(screen.sq - g2 <= table._base - table._shrink * xx)
        g = np.zeros(k)
        if near.size:
            near = near[_norms(table.points[near] - query) <= table._radius]
            np.maximum.at(g, table.labels[near], table.q[near])  # q >= 0: empty class gets 0
    else:
        dist = _norms(table.points - query)
        g = np.maximum.reduce(table._class_q, axis=1, where=dist <= table._radius, initial=0.0)
    if side_info is not None and allowed != classes:
        g[sorted(classes - allowed)] = 0.0
    total = g.sum()
    if total > 1.0:
        g /= total
        return g
    return g + (1.0 - total) / k


def class_distance_stats(dataset: LabeledDataset) -> np.ndarray:
    """Per-class mean distance to the nearest point of any other class."""
    k = dataset.num_classes
    if k < 2:
        raise ValueError("need at least two classes")
    # pairs within the slack of their tile's row or column minimum, which is
    # never below a point's overall minimum; each point's minimum is decided
    # from the coordinate differences of its screened pairs. The slack is
    # twice a Gram value's error, as the minimum may be off one way and the
    # pair the other, plus u of the largest norm for ties among the float64
    # distances; each bound is rounded up by one float32 step
    def near(g, screen):
        slack = _f32_at_least(2.0 * screen.slack(2.0 * screen.top) + F32_UNIT * screen.top)
        up = np.float32(np.inf)
        row = np.nextafter(g.min(axis=1, keepdims=True) + slack, up)
        col = np.nextafter(g.min(axis=0) + slack, up)
        # a NaN minimum would pass its row or column
        return ~((g > row) & (g > col))

    nearest = np.full(dataset.num_points, np.inf)
    for u, v, d2 in _cross_class_pairs(dataset.points, dataset.labels, near):
        np.minimum.at(nearest, u, d2)
        np.minimum.at(nearest, v, d2)
    nearest = np.sqrt(nearest)
    return np.array([nearest[dataset.labels == c].mean() for c in range(k)])


@dataclass
class BoundReport:
    """Everything computed at one (dataset, epsilon, max-degree) configuration."""

    epsilon: float
    max_degree: int
    losses: dict[int, float]
    class_only_2: float | None
    caro_wei: float | None
    hard_bruteforce: float | None
    edge_counts: dict[int, int]
    boundary_tight_edges: int
    q_histograms: dict[int, dict]
    runtimes: dict[str, float]
    # keyed like runtimes: "solve_<m>" and "pairwise" -> "flow" or "highs"
    solver_backends: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "epsilon": self.epsilon,
            "max_degree": self.max_degree,
            "losses": {str(m): v for m, v in self.losses.items()},
            "class_only_2": self.class_only_2,
            "caro_wei": self.caro_wei,
            "hard_bruteforce": self.hard_bruteforce,
            "edge_counts": {str(d): c for d, c in self.edge_counts.items()},
            "boundary_tight_edges": self.boundary_tight_edges,
            "q_histograms": {str(m): h for m, h in self.q_histograms.items()},
            "runtimes": self.runtimes,
            "notes": list(_REPORT_NOTES),
            "certified": True,  # an uncertified solve raises instead
            "solver_backends": self.solver_backends,
        }

    def to_csv_rows(self) -> list[list]:
        counts = ";".join(f"{d}:{c}" for d, c in sorted(self.edge_counts.items()))
        rows = []

        def row(name, value, runtime):
            rows.append(
                [SCHEMA_VERSION, self.epsilon, name,
                 "" if value is None else value,
                 "" if runtime is None else runtime, counts]
            )

        for m in sorted(self.losses):
            row(f"lstar_{m}", self.losses[m], self.runtimes.get(f"solve_{m}"))
        row("class_only_2", self.class_only_2, self.runtimes.get("class_only"))
        row("caro_wei", self.caro_wei, self.runtimes.get("caro_wei"))
        if self.hard_bruteforce is not None:
            row("hard_bruteforce", self.hard_bruteforce, self.runtimes.get("hard"))
        return rows


BOUND_CSV_HEADER = [
    "schema_version", "epsilon", "bound", "value", "runtime_seconds", "edge_counts",
]

_REPORT_NOTES = (
    "edge counts include dominated hyperedges (all edges of each exact degree)",
    "caro_wei weights come from the deduplicated degree-2 packing solution",
    "pairwise losses condition on prior-weighted masses within each pair",
)


def _histogram(q: np.ndarray) -> dict:
    counts, bin_edges = np.histogram(q, bins=20, range=(0.0, 1.0))
    return {"bin_edges": bin_edges.tolist(), "counts": counts.tolist()}


# bound_report solves an L*(2) LP of at least this many rows on a worker
# thread, from m_max = 3, while it extends the graph and solves the other
# LPs; HiGHS releases the GIL while it runs. Below it the thread's GIL
# hand-offs can cost more than the overlap saves: on bound_report(m_max=3)
# of gen_gaussian(3, n, seed=3) at eps 2.4, threaded against inline on a
# 2-vCPU Xeon (medians of 40-60 alternating runs, two series), +8 % to
# +46 % at 3-186 rows and +4 % at 329; at 349-435 rows the series
# disagreed, from +4 % to -17 %; from 567 rows on both gained, -1 % to
# -29 %. At m_max = 2 only the pairwise union, which holds the GIL, would
# overlap, and a fresh thread's malloc arena faults in L*(2)'s memory anew
# (3,200 page faults on the benchmark's 11,000-row pairs-2d LP): +4 % to
# +11 % there.
OVERLAP_ROWS = 500


def _timed_solve(lp: PackingLp, tol: Tolerances):
    """``solve_packing(lp, tol)`` and its seconds. The solver is looked up
    by this module's name when called, so a wrapper patched onto
    ``bounds.solve_packing`` sees a worker's solve too."""
    t0 = time.perf_counter()
    sol = solve_packing(lp, tol)
    return sol, time.perf_counter() - t0


def bound_report(dataset: LabeledDataset, epsilon: float, m_max: int = 2,
                 tol: Tolerances = Tolerances(), hard_cap: int = 30,
                 caro_wei_weights=None, jobs: int = 1, progress=None) -> BoundReport:
    """Compute the full bound chain at one budget.

    Solves L*(m) for m = 2..m_max, the class-only coupling bound, the
    Caro-Wei upper bound (weights default to the degree-2 packing solution),
    and, when the instance is at most ``hard_cap`` vertices, the exact
    hard-classifier loss; ``hard_cap`` must be an integer >= 0. A degree
    whose extension accepts no edge has the previous degree's LP, so its
    solution is reported again, not re-solved.

    From m_max = 3, an L*(2) LP of at least ``OVERLAP_ROWS`` rows is solved
    on a worker thread, one per call and joined before the call returns,
    while this thread extends the graph and solves L*(3..m_max) and the
    pairwise union; Caro-Wei waits for it. Any other is solved first, on
    this thread. Either way the answers are the same, and a failing L*(2)
    raises its own error, as it would first in sequence.
    ``runtimes["solve_2"]`` is L*(2)'s own time, so with the overlap the
    runtimes may sum past the wall time. ``jobs`` is ignored, and controls
    no thread here (see ``extend_hyperedges``).
    """
    k = dataset.num_classes
    if not 2 <= m_max:
        raise ValueError("m_max must be >= 2")
    _check_cap("hard_cap", hard_cap)
    runtimes: dict[str, float] = {}

    t0 = time.perf_counter()
    graph = build_conflict_graph(dataset, epsilon)
    runtimes["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lp2 = PackingLp(graph.masses, incidence(graph))
    runtimes["solve_2"] = time.perf_counter() - t0  # plus the solve's own time, below
    with ThreadPoolExecutor(max_workers=1) as worker:
        if m_max > 2 and lp2.incidence.matrix.shape[0] >= OVERLAP_ROWS:
            solve2 = worker.submit(_timed_solve, lp2, tol)
        else:
            solve2 = Future()
            solve2.set_result(_timed_solve(lp2, tol))
        try:
            higher = {}  # (backend, loss, q histogram) of each degree above 2 that solves
            for m in range(3, m_max + 1):
                t0 = time.perf_counter()
                graph = extend_hyperedges(graph, m, progress=progress)
                runtimes[f"extend_{m}"] = time.perf_counter() - t0
                t0 = time.perf_counter()
                if len(graph.edges[m]):
                    sol = solve_packing(PackingLp(graph.masses, incidence(graph)), tol)
                    higher[m] = sol.backend, sol.loss, _histogram(sol.q)
                runtimes[f"solve_{m}"] = time.perf_counter() - t0

            class_only = pairwise = None
            if k >= 2:
                t0 = time.perf_counter()
                pairwise = _pairwise_losses(graph, tol, dataset.class_names)
                class_only = class_only_bound(pairwise, dataset.class_priors())
                runtimes["class_only"] = time.perf_counter() - t0
        except Exception:
            solve2.result()  # L*(2)'s error, first in sequence, takes precedence
            raise
        sol2, seconds = solve2.result()
    runtimes["solve_2"] += seconds

    backends: dict[str, str] = {}
    losses: dict[int, float] = {}
    q_histograms: dict[int, dict] = {}
    part = sol2.backend, sol2.loss, _histogram(sol2.q)
    for m in range(2, m_max + 1):
        # without an m-edge the incidence is L*(m-1)'s, row for row, and so is its solution
        part = higher.get(m, part)
        backends[f"solve_{m}"], losses[m], q_histograms[m] = part
    if pairwise is not None:
        backends["pairwise"] = pairwise.backend

    t0 = time.perf_counter()
    weights = sol2.q if caro_wei_weights is None else caro_wei_weights
    caro_wei = caro_wei_bound(graph, weights)
    runtimes["caro_wei"] = time.perf_counter() - t0

    hard = None
    if graph.num_vertices <= hard_cap:
        t0 = time.perf_counter()
        hard, _ = hard_loss_bruteforce(graph, cap=hard_cap)
        runtimes["hard"] = time.perf_counter() - t0

    return BoundReport(
        epsilon=graph.epsilon,
        max_degree=m_max,
        losses=losses,
        class_only_2=class_only,
        caro_wei=caro_wei,
        hard_bruteforce=hard,
        edge_counts=graph.edge_counts(),
        boundary_tight_edges=graph.boundary_tight_count(),
        q_histograms=q_histograms,
        runtimes=runtimes,
        solver_backends=backends,
    )
