"""Optimal-loss computations and the surrounding chain of bounds.

For a dataset, budget epsilon and truncation degree m this module computes:

* ``optimal_loss`` -- the truncated-hypergraph loss L*(m); at m = K this is
  the exact optimal soft-classification loss.
* ``pairwise_binary_losses`` / ``class_only_bound`` -- the coupling lower
  bound L*co(2) built from all one-versus-one binary problems.
* ``caro_wei_bound`` / ``randomized_independent_set`` -- the weighted
  Caro-Wei upper bound on hard-classifier loss and its rounding procedure.
* ``hard_loss_bruteforce`` -- exact maximum-weight-independent-set loss by
  branch and bound (small instances only).
* ``extract_strategy`` / ``evaluate_classifier`` -- the optimal randomized
  adversary from the dual cover, and the optimal classifier induced by the
  primal packing vector.

The chain L*co(2) <= L*(2) <= ... <= L*(K) <= L*hard <= L_CW holds for every
instance; the test suite exercises it on random data.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import LabeledDataset
from .hypergraph import (
    REL_TOL,
    SWEEP_BLOCK,
    ConflictHypergraph,
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
    "randomized_independent_set",
    "hard_loss_bruteforce",
    "extract_strategy",
    "evaluate_classifier",
    "class_distance_stats",
    "bound_report",
    "BOUND_CSV_HEADER",
]

class InstanceTooLargeError(ValueError):
    """Exact exponential search refused; the instance exceeds the cap."""


def optimal_loss(dataset: LabeledDataset, epsilon: float, m: int,
                 tol: Tolerances = Tolerances(), dedupe: bool = True,
                 jobs: int = 1, progress=None):
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
            graph = extend_hyperedges(graph, m, progress=progress)
    sol = solve_packing(PackingLp(graph.masses, incidence(graph, dedupe)), tol)
    return sol.loss, sol, graph


@dataclass
class PairwiseLossMatrix:
    """Symmetric zero-diagonal matrix of one-versus-one optimal losses.

    ``backends`` names the solver of each pair solved, in (i, j) order
    with i < j; pairs with an empty side are not solved and not listed.
    """

    losses: np.ndarray
    class_names: list[str] | None = None
    note: str = "entry (i,j) conditions on Y in {i,j} with prior-weighted masses"
    backends: list[str] = field(default_factory=list)

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
    renormalizes masses to the conditional distribution. One pair sweep
    serves every pair (see ``_pairwise_losses``). ``jobs`` is ignored (see
    ``extend_hyperedges``): the pairs run in turn.
    """
    return _pairwise_losses(build_conflict_graph(dataset, epsilon), tol, dataset.class_names)


def _pairwise_losses(graph: ConflictHypergraph, tol: Tolerances,
                     class_names: list[str] | None) -> PairwiseLossMatrix:
    """One-versus-one losses from the pair edges of an already built graph.

    The edges of problem {i, j} are the graph's pairs with labels i and j,
    renumbered to local ids; the renumbering is monotone, so their rows stay
    sorted. A two-class conflict hypergraph is bipartite, so ``solve_packing``
    takes its min-cut backend whenever the masses scale to integers.
    """
    labels, masses, pairs = graph.labels, graph.masses, graph.edges[2]
    k = int(labels.max()) + 1
    if k < 2:
        raise ValueError("need at least two classes")
    lo, hi = np.sort(labels[pairs], axis=1).T
    a = np.zeros((k, k))
    backends = []
    for i in range(k):
        for j in range(i + 1, k):
            if not (labels == i).any() or not (labels == j).any():
                warnings.warn(f"class pair ({i},{j}) has an empty side; loss set to 0")
                continue
            keep = (labels == i) | (labels == j)
            local = np.cumsum(keep) - 1  # graph id -> id among the kept vertices
            cond_mass = masses[keep] / masses[keep].sum()
            sub = ConflictHypergraph(labels[keep], cond_mass, None,
                                     {2: local[pairs[(lo == i) & (hi == j)]]},
                                     max_degree=2, epsilon=graph.epsilon)
            sol = solve_packing(PackingLp(cond_mass, incidence(sub)), tol)
            a[i, j] = a[j, i] = max(0.0, sol.loss)
            backends.append(sol.backend)
    return PairwiseLossMatrix(a, class_names=class_names, backends=backends)


def class_only_bound(pairwise: PairwiseLossMatrix, priors) -> float:
    """Best coupling of the pairwise losses: the class-only lower bound.

    Maximizes sum_{i<j} (priors_i a_ij + priors_j a_ji) s_ij over symmetric
    doubly stochastic matrices s. By Birkhoff these are the convex hull of
    (P + P^T) / 2 over permutation matrices P, so the optimum is half the
    best assignment of the symmetric weights C_ij = priors_i a_ij +
    priors_j a_ji (C_ii = 0, a fixed point).
    """
    a = pairwise.losses
    k = a.shape[0]
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (k,):
        raise ValueError("priors length must match the number of classes")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("priors must sum to 1")

    weight = priors[:, None] * a
    weight = weight + weight.T
    np.fill_diagonal(weight, 0.0)
    rows, cols = linear_sum_assignment(weight, maximize=True)
    return max(0.0, float(weight[rows, cols].sum()) / 2.0)


def caro_wei_bound(graph: ConflictHypergraph, weights) -> float:
    """Weighted Caro-Wei upper bound on the optimal hard-classifier loss.

    For any nonnegative weight vector w there is an independent set S of the
    pair graph with P(S) >= sum over {v : w_v > 0} of p_v w_v / ((A+I)w)_v;
    the bound returned is one minus that sum. w = 0 yields the vacuous 1.
    """
    w = np.asarray(weights, dtype=float)
    n = graph.num_vertices
    if w.shape != (n,):
        raise ValueError("weights length must match vertex count")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    adjacency = graph.adjacency_matrix()
    denom = adjacency @ w + w
    mask = w > 0
    p = graph.masses
    covered = float(np.sum(p[mask] * w[mask] / denom[mask])) if mask.any() else 0.0
    return 1.0 - covered


def randomized_independent_set(graph: ConflictHypergraph, weights, seed: int = 0) -> np.ndarray:
    """Round a weight vector into an independent set of the pair graph.

    Simulates the first-arrival process of i.i.d. vertex draws proportional
    to w: a vertex joins the set when it arrives before all of its neighbors.
    Zero-weight vertices never arrive. Returns sorted vertex ids.
    """
    w = np.asarray(weights, dtype=float)
    n = graph.num_vertices
    if w.shape != (n,):
        raise ValueError("weights length must match vertex count")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be nonnegative and not all zero")
    rng = np.random.Generator(np.random.Philox(key=seed))
    with np.errstate(divide="ignore"):
        arrival = rng.exponential(size=n) / w  # inf where w == 0
    adj = graph.adjacency_sets()
    chosen = [
        v
        for v in range(n)
        if w[v] > 0 and all(arrival[v] < arrival[u] for u in adj[v])
    ]
    return np.array(sorted(chosen), dtype=int)


def hard_loss_bruteforce(graph: ConflictHypergraph, cap: int = 30):
    """Exact optimal hard-classifier loss by branch and bound.

    The optimum equals one minus the maximum probability of an independent
    set in the pair graph. Refuses instances above ``cap`` vertices rather
    than approximating. Returns ``(loss, frozenset_of_vertex_ids)``.
    """
    n = graph.num_vertices
    if n > cap:
        raise InstanceTooLargeError(
            f"{n} vertices exceeds the exact-search cap of {cap}"
        )
    w = graph.masses
    adj = [sum(1 << u for u in neighbors) for neighbors in graph.adjacency_sets()]
    order = sorted(range(n), key=lambda v: -w[v])

    def cover_bound(mask: int) -> float:
        # greedy clique cover: each clique contributes at most its top weight
        ub = 0.0
        cliques: list[int] = []
        for v in order:
            bit = 1 << v
            if not mask & bit:
                continue
            for ci, cm in enumerate(cliques):
                if cm & ~adj[v] == 0:
                    cliques[ci] = cm | bit
                    break
            else:
                cliques.append(bit)
                ub += w[v]  # first member has the largest weight in its clique
        return ub

    best_w = -1.0
    best_set = 0
    # depth-first, include branch first, on an explicit stack: the search
    # can nest once per vertex, past Python's recursion limit
    stack = [((1 << n) - 1 if n else 0, 0.0, 0)]
    while stack:
        cand, cur, cur_set = stack.pop()
        if cur > best_w:
            best_w, best_set = cur, cur_set
        if not cand:
            continue
        if cur + cover_bound(cand) <= best_w:
            continue
        for v in order:
            if cand & (1 << v):
                break
        bit = 1 << v
        stack.append((cand & ~bit, cur, cur_set))
        stack.append((cand & ~adj[v] & ~bit, cur + float(w[v]), cur_set | bit))

    ids = frozenset(i for i in range(n) if best_set >> i & 1)
    return 1.0 - best_w, ids


@dataclass
class VertexStrategy:
    vertex_id: int
    edges: list[tuple[int, ...] | None]  # None marks the unperturbed point
    probabilities: np.ndarray
    witnesses: list[np.ndarray | None]
    over_covered: bool


@dataclass
class AdversarialStrategy:
    """Per-vertex conditional distributions over hyperedge witness points."""

    per_vertex: list[VertexStrategy]
    cover_cost: float

    def to_json_dict(self) -> dict:
        return {
            "cover_cost": self.cover_cost,
            "vertices": [
                {
                    "vertex": vs.vertex_id,
                    "over_covered": vs.over_covered,
                    "plays": [
                        {
                            "edge": list(e) if e is not None else None,
                            "probability": float(pr),
                            "witness": (wit.tolist() if wit is not None else None),
                        }
                        for e, pr, wit in zip(vs.edges, vs.probabilities, vs.witnesses)
                    ],
                }
                for vs in self.per_vertex
            ],
        }


def extract_strategy(sol: LpSolution, graph: ConflictHypergraph,
                     tol: Tolerances = Tolerances()) -> AdversarialStrategy:
    """Turn the dual cover into the adversary's conditional distributions.

    Edge e containing vertex v receives probability proportional to its cover
    z_e; the singleton cover plays the unperturbed point. Over-covered
    vertices (total cover above p_v) are normalized proportionally, which is
    one of the equally good feasible choices. Witnesses are computed here,
    once per played edge (none when the graph has no coordinates).
    """
    B = sol.lp.incidence.matrix
    B_cols = B.tocsc()
    z = sol.edge_cover
    y = sol.singleton_cover
    p = sol.lp.masses
    points = graph.points
    played: dict[int, tuple[tuple[int, ...], np.ndarray | None]] = {}
    per_vertex: list[VertexStrategy] = []
    for v in range(graph.num_vertices):
        row_ids = B_cols.indices[B_cols.indptr[v]:B_cols.indptr[v + 1]]
        entries: list[tuple[tuple[int, ...] | None, float, np.ndarray | None]] = []
        for r in row_ids:
            if z[r] > 0.0:
                if r not in played:
                    ids = tuple(B.indices[B.indptr[r]:B.indptr[r + 1]].tolist())
                    witness = None if points is None else edge_witness(points, ids)
                    played[r] = (ids, witness)
                ids, witness = played[r]
                entries.append((ids, float(z[r]), witness))
        point = None if points is None else points[v]
        if y[v] > 0.0:
            entries.append((None, float(y[v]), point))
        total = sum(weight for _, weight, _ in entries)
        if p[v] > 0 and total < p[v] - tol.feasibility_abs:
            raise ValueError(
                f"vertex {v} is under-covered ({total!r} < mass {p[v]!r}); "
                "the solution is not a certified cover"
            )
        if not entries:
            # zero-mass or unconstrained vertex: play the point itself
            entries.append((None, 1.0, point))
            total = 1.0
        probs = np.array([weight for _, weight, _ in entries]) / total
        per_vertex.append(
            VertexStrategy(
                vertex_id=v,
                edges=[e for e, _, _ in entries],
                probabilities=probs,
                witnesses=[wit for _, _, wit in entries],
                over_covered=bool(total > p[v] + tol.feasibility_abs),
            )
        )
    return AdversarialStrategy(per_vertex, cover_cost=float(z.sum() + y.sum()))


@dataclass
class SoftClassifierTable:
    """Optimal packing vector plus the support needed to evaluate it anywhere."""

    points: np.ndarray
    labels: np.ndarray
    num_classes: int
    epsilon: float
    q: np.ndarray

    @classmethod
    def from_solution(cls, dataset: LabeledDataset, epsilon: float,
                      sol: LpSolution) -> "SoftClassifierTable":
        return cls(
            points=dataset.points,
            labels=dataset.labels,
            num_classes=dataset.num_classes,
            epsilon=float(epsilon),
            q=np.clip(sol.q, 0.0, 1.0),
        )


def evaluate_classifier(table: SoftClassifierTable, query, side_info=None) -> np.ndarray:
    """Class probabilities the optimal classifier assigns at a query point.

    Each class y receives the largest packing value among class-y support
    points whose epsilon-neighborhood contains the query (zero when there is
    none); leftover probability is spread uniformly over all classes. With
    ``side_info`` (a set of candidate classes) only those classes compete for
    packing values; a class outside 0..K-1 there raises a ValueError.
    """
    query = np.asarray(query, dtype=float)
    if query.shape != (table.points.shape[1],):
        raise ValueError(
            f"query dimension {query.shape} does not match data dimension "
            f"({table.points.shape[1]},)"
        )
    k = table.num_classes
    classes = set(range(k))
    allowed = classes if side_info is None else {int(c) for c in side_info}
    if not allowed <= classes:
        raise ValueError(f"side_info names classes outside 0..{k - 1}: "
                         f"{sorted(allowed - classes)}")
    dist = np.linalg.norm(table.points - query, axis=1)
    near = dist <= table.epsilon * (1.0 + REL_TOL) + 1e-12
    g = np.zeros(k)
    for y in allowed:
        sel = near & (table.labels == y)
        if sel.any():
            g[y] = float(table.q[sel].max())
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
    # centred like the pair sweep, so the Gram form does not cancel far from 0
    points = dataset.points - dataset.points.mean(axis=0)
    labels = dataset.labels
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    # the Gram form only screens, with the pair sweep's slack; each row's
    # minimum is decided from coordinate differences of its screened pairs
    slack = 1e-10 * sq.max()
    nearest = np.full(n, np.inf)
    step = max(1, 8192 // points.shape[1])  # difference chunks of 64 KB
    for i0 in range(0, n, SWEEP_BLOCK):
        i1 = min(i0 + SWEEP_BLOCK, n)
        d2 = sq[i0:i1, None] + sq[None, :] - 2.0 * (points[i0:i1] @ points.T)
        other = labels[i0:i1, None] != labels[None, :]
        d2[~other] = np.inf
        ii, jj = np.nonzero(other & (d2 <= d2.min(axis=1, keepdims=True) + slack))
        ii += i0
        for s in range(0, len(ii), step):
            diff = points[ii[s:s + step]] - points[jj[s:s + step]]
            np.minimum.at(nearest, ii[s:s + step], np.einsum("ij,ij->i", diff, diff))
    nearest = np.sqrt(nearest)
    out = np.zeros(k)
    for c in range(k):
        sel = labels == c
        if sel.any():
            out[c] = float(nearest[sel].mean())
    return out


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
    notes: list[str] = field(default_factory=list)
    schema_version: int = 1
    # keyed like runtimes: "solve_<m>" and "pairwise" -> "flow" or "highs"
    # ("flow+highs" when the pairwise solves used both)
    solver_backends: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
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
            "notes": self.notes,
            "certified": True,  # an uncertified solve raises instead
            "solver_backends": self.solver_backends,
        }

    def to_csv_rows(self) -> list[list]:
        counts = ";".join(f"{d}:{c}" for d, c in sorted(self.edge_counts.items()))
        rows = []

        def row(name, value, runtime):
            rows.append(
                [self.schema_version, self.epsilon, name,
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

_REPORT_NOTES = [
    "edge counts include dominated hyperedges (all edges of each exact degree)",
    "caro_wei weights come from the deduplicated degree-2 packing solution",
    "pairwise losses condition on prior-weighted masses within each pair",
]


def _histogram(q: np.ndarray) -> dict:
    counts, bin_edges = np.histogram(np.clip(q, 0.0, 1.0), bins=20, range=(0.0, 1.0))
    return {"bin_edges": bin_edges.tolist(), "counts": counts.tolist()}


def bound_report(dataset: LabeledDataset, epsilon: float, m_max: int = 2,
                 tol: Tolerances = Tolerances(), dedupe: bool = True,
                 hard_cap: int = 30, caro_wei_weights=None, jobs: int = 1,
                 progress=None) -> BoundReport:
    """Compute the full bound chain at one budget.

    Solves L*(m) for m = 2..m_max, the class-only coupling bound, the
    Caro-Wei upper bound (weights default to the degree-2 packing solution),
    and, when the instance is at most ``hard_cap`` vertices, the exact
    hard-classifier loss. ``jobs`` is ignored (see ``extend_hyperedges``).
    """
    k = dataset.num_classes
    if not 2 <= m_max:
        raise ValueError("m_max must be >= 2")
    runtimes: dict[str, float] = {}
    backends: dict[str, str] = {}
    losses: dict[int, float] = {}
    q_histograms: dict[int, dict] = {}

    t0 = time.perf_counter()
    graph = build_conflict_graph(dataset, epsilon)
    runtimes["build"] = time.perf_counter() - t0

    sol2 = None
    for m in range(2, m_max + 1):
        if m > 2:
            t0 = time.perf_counter()
            graph = extend_hyperedges(graph, m, progress=progress)
            runtimes[f"extend_{m}"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        sol = solve_packing(PackingLp(graph.masses, incidence(graph, dedupe)), tol)
        runtimes[f"solve_{m}"] = time.perf_counter() - t0
        backends[f"solve_{m}"] = sol.backend
        losses[m] = sol.loss
        q_histograms[m] = _histogram(sol.q)
        if m == 2:
            sol2 = sol

    class_only = None
    if k >= 2:
        t0 = time.perf_counter()
        pairwise = _pairwise_losses(graph, tol, dataset.class_names)
        class_only = class_only_bound(pairwise, dataset.class_priors())
        runtimes["class_only"] = time.perf_counter() - t0
        if pairwise.backends:
            backends["pairwise"] = "+".join(sorted(set(pairwise.backends)))

    t0 = time.perf_counter()
    weights = sol2.q if caro_wei_weights is None else np.asarray(caro_wei_weights, float)
    caro_wei = caro_wei_bound(graph, np.clip(weights, 0.0, None))
    runtimes["caro_wei"] = time.perf_counter() - t0

    hard = None
    if graph.num_vertices <= hard_cap:
        t0 = time.perf_counter()
        hard, _ = hard_loss_bruteforce(graph, cap=hard_cap)
        runtimes["hard"] = time.perf_counter() - t0

    return BoundReport(
        epsilon=float(epsilon),
        max_degree=m_max,
        losses=losses,
        class_only_2=class_only,
        caro_wei=caro_wei,
        hard_bruteforce=hard,
        edge_counts=graph.edge_counts(),
        boundary_tight_edges=graph.boundary_tight_count(),
        q_histograms=q_histograms,
        runtimes=runtimes,
        notes=list(_REPORT_NOTES),
        solver_backends=backends,
    )
