"""Fractional vertex packing LP with verified optimality certificates.

Primal:  max p^T q   s.t.  0 <= q <= 1,  B q <= 1
Dual:    min 1^T z + 1^T y   s.t.  z, y >= 0,  B^T z + y >= p

where B is the hyperedge incidence matrix. The q <= 1 box rows play the
role of the degree-1 (singleton) hyperedges, so the full fractional cover
of the vertices is ``B^T z + y``. One minus the primal optimum is the
optimal soft-classification loss for the hypergraph.

Two backends solve it. An LP whose rows are all pairs of a bipartite graph,
with masses that are integers under one scale, is a minimum-weight vertex
cover: a max-flow min cut solves it exactly (backend ``"flow"``). Every
other LP goes to HiGHS (backend ``"highs"``). The choice depends only on the
LP itself. Every solve is certified the same way whatever the backend:
feasibility residuals and the duality gap are recomputed from the returned
vectors, and a solve that cannot be certified raises instead of returning
silently.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import breadth_first_order, connected_components, maximum_flow

from .hypergraph import IncidenceMatrix

__all__ = [
    "Tolerances",
    "PackingLp",
    "LpSolution",
    "CertificateReport",
    "LpNonConvergenceError",
    "UncertifiedSolveError",
    "solve_packing",
    "verify_certificates",
]


@dataclass(frozen=True)
class Tolerances:
    feasibility_abs: float = 1e-8
    gap_rel: float = 1e-6
    max_iterations: int = 200_000

    def __post_init__(self):
        # NaN would pass a "<= 0" test and then make every later check pass
        if not all(math.isfinite(v) and v > 0 for v in astuple(self)):
            raise ValueError("all tolerances must be finite and positive")


@dataclass
class PackingLp:
    """Vertex masses plus incidence structure; the whole LP instance."""

    masses: np.ndarray
    incidence: IncidenceMatrix

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.ndim != 1:
            raise ValueError("masses must be a vector")
        if self.incidence.matrix.shape[1] != self.masses.shape[0]:
            raise ValueError(
                f"incidence has {self.incidence.matrix.shape[1]} columns, "
                f"masses has {self.masses.shape[0]} entries"
            )
        if np.any(self.masses < 0):
            raise ValueError("masses must be nonnegative")


@dataclass
class LpSolution:
    """Certified primal-dual pair for one packing solve.

    ``edge_cover`` is indexed by incidence rows; ``singleton_cover`` holds the
    duals of the q <= 1 bounds, one per vertex. ``objective`` is p^T q, i.e.
    one minus the optimal loss. ``backend`` names the solver that produced
    the vectors: ``"flow"`` (min cut; also the closed form of an LP without
    rows) or ``"highs"``.
    """

    q: np.ndarray
    edge_cover: np.ndarray
    singleton_cover: np.ndarray
    objective: float
    dual_objective: float
    duality_gap: float
    primal_residual: float
    dual_residual: float
    lp: PackingLp = field(repr=False)
    backend: str

    @property
    def loss(self) -> float:
        return 1.0 - self.objective


@dataclass
class CertificateReport:
    primal_residual: float
    dual_residual: float
    duality_gap: float
    gap_bound: float
    feasible: bool
    gap_ok: bool
    complementary_slackness_violations: list[int]

    @property
    def ok(self) -> bool:
        return self.feasible and self.gap_ok


class LpNonConvergenceError(RuntimeError):
    """Solver stopped before optimality; carries whatever bounds it reached."""

    def __init__(self, message: str, status: int, best_objective: float | None = None):
        super().__init__(message)
        self.status = status
        self.best_objective = best_objective


class UncertifiedSolveError(RuntimeError):
    """Solver claimed success but the returned vectors fail certification."""

    def __init__(self, message: str, solution: "LpSolution"):
        super().__init__(message)
        self.solution = solution


def _certificate(p: np.ndarray, B: sp.csr_matrix, q: np.ndarray, z: np.ndarray,
                 y: np.ndarray, tol: Tolerances) -> tuple[float, float, CertificateReport]:
    """(objective, dual objective, report) of a primal-dual pair.

    The one place that judges a solve: residuals and gap are recomputed from
    the vectors, restricted to positive-mass vertices, and compared with the
    tolerances (a NaN residual fails).
    """
    active = p > 0.0
    primal = max(
        float(np.max(-q[active], initial=0.0)),
        float(np.max(q[active] - 1.0, initial=0.0)),
    )
    if B.shape[0]:
        qa = np.where(active, q, 0.0)
        primal = max(primal, float(np.max(B @ qa - 1.0, initial=0.0)))
    cover = B.T @ z + y
    dual = max(
        float(np.max(-z, initial=0.0)),
        float(np.max(-y[active], initial=0.0)),
        float(np.max((p - cover)[active], initial=0.0)),
    )
    objective = float(p[active] @ q[active])
    dual_objective = float(z.sum() + y[active].sum())
    gap = abs(objective - dual_objective)
    gap_bound = tol.gap_rel * max(1.0, abs(objective))
    over_covered = active & (q > tol.feasibility_abs) & (cover > p + tol.feasibility_abs)
    report = CertificateReport(
        primal_residual=primal,
        dual_residual=dual,
        duality_gap=gap,
        gap_bound=gap_bound,
        feasible=(primal <= tol.feasibility_abs and dual <= tol.feasibility_abs),
        gap_ok=(gap <= gap_bound),
        complementary_slackness_violations=np.flatnonzero(over_covered).tolist(),
    )
    return objective, dual_objective, report


def _mass_scale(p: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(D, integer masses D * p) for D = round(1 / min positive p), or None.

    The loaders give masses in multiples of 1/n, so D = n makes them exact.
    None when some mass is not an integer under D, or when the flow network's
    capacities (up to twice the total plus one) would not fit in int32.
    """
    scale = np.rint(1.0 / p[p > 0.0].min())
    if scale < 1.0:
        return None
    scaled = scale * p
    w = np.rint(scaled)
    if np.any(np.abs(scaled - w) > 1e-9 * scaled):
        return None
    if 2.0 * w.sum() + 1.0 > np.iinfo(np.int32).max:
        return None
    return scale, w


def _bipartite_sides(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Side-A mask of a 2-colouring of the pair graph, or None if it has an odd cycle.

    In the bipartite double cover (vertex x becomes x and x + n, edge (u, v)
    becomes (u, v + n) and (v, u + n)) the two copies of x are connected iff
    x's component has an odd cycle. Otherwise each copy lies in one of the
    two components that split x's component by colour.
    """
    edges = u.shape[0]
    cover = sp.csr_matrix(
        (np.ones(2 * edges, dtype=np.int8),
         (np.concatenate([u, v]), np.concatenate([v + n, u + n]))),
        shape=(2 * n, 2 * n),
    )
    _, comp = connected_components(cover, directed=False)
    if np.any(comp[:n] == comp[n:]):
        return None
    return comp[:n] < comp[n:]


def _flow_packing(p: np.ndarray, B: sp.csr_matrix):
    """(q, z, y) of a bipartite pair LP from a max-flow min cut, or None.

    Qualifies when every row holds two distinct vertices with coefficient 1,
    the pair graph is bipartite and the masses scale to integers w. The
    network is s -> a (cap w_a), a -> b (cap sum(w) + 1), b -> t (cap w_b)
    for sides A and B; the vertices on the source side of the residual cut,
    in A, and off it, in B, form a maximum-weight independent set, q is its
    0/1 indicator, z is the edge flow over the scale and y the uncovered
    mass. Zero-mass vertices get q = 1.
    """
    B = B.tocsr()
    if np.any(np.diff(B.indptr) != 2) or np.any(B.data != 1.0) or not np.any(p > 0.0):
        return None
    ends = B.indices.reshape(-1, 2)
    u, v = ends[:, 0].astype(np.int64), ends[:, 1].astype(np.int64)
    if np.any(u == v):
        return None
    integer = _mass_scale(p)
    if integer is None:
        return None
    scale, w = integer
    n = p.shape[0]
    side_a = _bipartite_sides(n, u, v)
    if side_a is None:
        return None

    a = np.where(side_a[u], u, v)
    b = np.where(side_a[u], v, u)
    big = int(w.sum()) + 1
    src = np.flatnonzero(side_a & (w > 0))
    snk = np.flatnonzero(~side_a & (w > 0))
    s, t = n, n + 1
    caps = sp.csr_matrix(
        (np.concatenate([w[src], np.full(a.shape[0], big), w[snk]]).astype(np.int64),
         (np.concatenate([np.full(src.shape[0], s), a, snk]),
          np.concatenate([src, b, np.full(snk.shape[0], t)]))),
        shape=(n + 2, n + 2),
    )
    np.minimum(caps.data, big, out=caps.data)  # repeated rows were summed
    caps = caps.astype(np.int32)
    flow = maximum_flow(caps, s, t).flow

    residual = caps - flow  # C - F: free capacity forward, flow backward
    residual.eliminate_zeros()
    reach = np.zeros(n + 2, dtype=bool)
    reach[breadth_first_order(residual, s, return_predecessors=False)] = True
    q = np.where(side_a, reach[:n], ~reach[:n]).astype(float)
    q[p <= 0.0] = 1.0

    # a repeated row carries its pair's flow once, on its first occurrence
    _, first = np.unique(a * n + b, return_index=True)
    z = np.zeros(a.shape[0])
    z[first] = np.asarray(flow[a[first], b[first]], dtype=float).ravel() / scale
    y = np.maximum(p - B.T @ z, 0.0)
    return q, z, y


def solve_packing(lp: PackingLp, tol: Tolerances = Tolerances()) -> LpSolution:
    """Solve the packing LP and return a certified primal-dual pair.

    Deterministic for a fixed instance and tolerance configuration. Vertices
    with zero mass are excluded from the solve and reported with q = 1. A
    bipartite pair LP with integer-scalable masses is solved by min cut,
    any other by HiGHS; both answers pass the same certificate check.
    Raises :class:`LpNonConvergenceError` if HiGHS hits its iteration limit
    and :class:`UncertifiedSolveError` if the certificates fail.
    """
    p = lp.masses
    B = lp.incidence.matrix
    if B.shape[0] == 0:
        # no constraints beyond the box: q = 1 and the singleton cover pays p
        found = np.ones(p.shape[0]), np.zeros(0), p.copy()
    else:
        found = _flow_packing(p, B)
    if found is not None:
        (q, z, y), backend = found, "flow"
    else:
        (q, z, y), backend = _highs_packing(p, B, tol), "highs"
    objective, dual_objective, cert = _certificate(p, B, q, z, y, tol)
    sol = LpSolution(q, z, y, objective, dual_objective, cert.duality_gap,
                     cert.primal_residual, cert.dual_residual, lp, backend)
    if not cert.feasible:
        raise UncertifiedSolveError(
            f"feasibility residuals too large: primal={sol.primal_residual:.3e}, "
            f"dual={sol.dual_residual:.3e} (tol {tol.feasibility_abs:.1e})",
            sol,
        )
    if not cert.gap_ok:
        raise UncertifiedSolveError(
            f"duality gap {sol.duality_gap:.3e} exceeds bound {cert.gap_bound:.3e}", sol
        )
    return sol


def _highs_packing(p: np.ndarray, B: sp.csr_matrix, tol: Tolerances):
    """(q, z, y) from HiGHS on the positive-mass columns."""
    n = p.shape[0]
    active = p > 0.0
    B_act, p_act = (B, p) if active.all() else (B[:, active], p[active])

    res = linprog(
        c=-p_act,
        A_ub=B_act,
        b_ub=np.ones(B_act.shape[0]),
        bounds=(0.0, 1.0),
        method="highs",
        options={"maxiter": tol.max_iterations},
    )
    if res.status == 1:
        raise LpNonConvergenceError(
            f"iteration limit reached: {res.message}",
            status=res.status,
            best_objective=(-res.fun if res.fun is not None else None),
        )
    if res.status != 0:
        raise LpNonConvergenceError(
            f"solver failed (status {res.status}): {res.message}", status=res.status
        )

    q = np.ones(n)
    q[active] = res.x
    z = -np.asarray(res.ineqlin.marginals, dtype=float)
    y = np.zeros(n)
    y[active] = -np.asarray(res.upper.marginals, dtype=float)
    np.maximum(z, 0.0, out=z)
    np.maximum(y, 0.0, out=y)
    return q, z, y


def verify_certificates(lp: PackingLp, sol: LpSolution,
                        tol: Tolerances = Tolerances()) -> CertificateReport:
    """Recompute all residuals from scratch, independently of the solver.

    The verdict is the one ``solve_packing`` raises on. Also reports
    complementary-slackness violations: vertices with q above tolerance
    that are strictly over-covered (an optimal classifier gives up on
    over-covered vertices, so both cannot hold at an exact optimum).
    """
    return _certificate(lp.masses, lp.incidence.matrix, sol.q, sol.edge_cover,
                        sol.singleton_cover, tol)[2]
