"""Fractional vertex packing LP with verified optimality certificates.

Primal:  max p^T q   s.t.  0 <= q <= 1,  B q <= 1
Dual:    min 1^T z + 1^T y   s.t.  z, y >= 0,  B^T z + y >= p

where B is the hyperedge incidence matrix. The q <= 1 box rows play the
role of the degree-1 (singleton) hyperedges, so the full fractional cover
of the vertices is ``B^T z + y``. One minus the primal optimum is the
optimal soft-classification loss for the hypergraph.

Two backends solve it. An LP whose rows all pair a vertex of one class with
a vertex of another, over two classes in all, is bipartite by its labels;
with masses that are integers under one scale it is a minimum-weight vertex
cover, and a max-flow min cut solves it exactly (backend ``"flow"``). Every
other LP goes to HiGHS (backend ``"highs"``), called through scipy's compiled
binding ``scipy.optimize._highspy._core``, in one of two forms:

- Every other pair LP gets the *packing* form, whole, with the options
  ``linprog(method="highs")`` sets: the answers are linprog's bit for bit,
  without its per-call input cleaning and option checks, which took about
  two thirds of a 30-vertex solve. Caro-Wei reads L*(2)'s q, and the
  covering form's optimum, as good but another, moves it.
- A *wide* LP, with a row of more than two entries (a hyperedge of degree
  3 or more), of at most ``GENERATION_ROWS`` rows gets its dual whole, the
  *covering* form, with one row per vertex; HiGHS's primal simplex solves
  it about twice as fast on the benchmark's L*(3) and L*(4). A larger one
  gets the packing form, generated: its rows join a warm model in rounds
  that the dual simplex re-solves (see ``_highs_packing``).

The choice depends only on the LP: its rows, masses and labels. A HiGHS
answer outside the certificate's feasibility tolerance is rerun once with
tighter tolerances (see ``_run_certifiable``). Every backend returns only
(q, z); y is the mass z leaves uncovered, ``max(p - B^T z, 0)``, the
cheapest y that makes z dual feasible (Neumaier & Shcherbina, Math.
Programming 99, 2004). Residuals and gap are recomputed from the vectors
over the full incidence, and a solve that fails them raises.

scipy's modules are loaded from their files by ``_scipy_module``: the
binding here, ``scipy.optimize._lsap`` in ``bounds``, and four files of
``scipy.sparse.csgraph``: ``_tools`` and ``_validation``, which ``_flow`` and
``_traversal`` import by absolute name, then ``_flow`` (``maximum_flow``)
and ``_traversal`` (``breadth_first_order``, ``connected_components``).
Importing any of them by name would first run its package's ``__init__``:
``scipy/optimize/__init__.py`` loads linprog, minimize, shgo and the rest,
and ``scipy/sparse/csgraph/__init__.py`` imports ``_laplacian``, which
imports ``scipy.sparse.linalg`` and with it ``scipy.linalg``. optloss calls
none of them. Skipping the csgraph ``__init__`` took ``import optloss`` from
635 modules to 551, a median of 0.40 s to 0.29 s and a max RSS of 64.7 MB
to 54.3 MB (2-vCPU Xeon, Python 3.11.7, scipy 1.17.1). The side effect: a
module loaded so is not an attribute of its package, even after the package
is imported (``scipy.sparse.csgraph`` has no ``_flow``, for one), though
``sys.modules`` holds it and every public name works.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import astuple, dataclass, field

import numpy as np
import scipy
import scipy.sparse as sp

from .hypergraph import IncidenceMatrix, _is_integer


def _scipy_module(name: str):
    """The module ``scipy.<name>``, compiled or ``.py``, loaded from its file.

    Importing it by name would first run its package's ``__init__``, which
    loads much that optloss never calls. The module goes into ``sys.modules``
    under its real name before it runs, so a later import of its package
    reuses it instead of running it, or initialising a binary, a second time.
    """
    full_name = f"scipy.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    base = os.path.join(os.path.dirname(scipy.__file__), *name.split("."))
    suffixes = importlib.machinery.EXTENSION_SUFFIXES + importlib.machinery.SOURCE_SUFFIXES
    path = next((base + suffix for suffix in suffixes if os.path.isfile(base + suffix)), None)
    if path is None:
        raise ImportError(f"no module {full_name} in {os.path.dirname(base)}",
                          name=full_name)
    spec = importlib.util.spec_from_file_location(full_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full_name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full_name]
        raise
    return module


highspy = _scipy_module("optimize._highspy._core")
# _flow and _traversal import these two by absolute name; once they are in
# sys.modules, loading those does not run scipy/sparse/csgraph/__init__.py
_scipy_module("sparse.csgraph._tools")
_scipy_module("sparse.csgraph._validation")
maximum_flow = _scipy_module("sparse.csgraph._flow").maximum_flow
breadth_first_order = _scipy_module("sparse.csgraph._traversal").breadth_first_order

# A wide LP (a row of more than two entries) of more rows than this is generated
# in packing rows; up to it, the covering form is solved whole. L*(3) of
# gen_gaussian(3, n, seed=7) at eps 2.6, 2-vCPU Xeon, 7 runs, whole vs generated:
# 73-90 vs 97-127 ms at 23,685 rows (n = 125), 121-140 vs 121-142 ms at 24,891
# (n = 130) and 232-274 vs 170-177 ms at 29,888 (n = 140).
GENERATION_ROWS = 24_000

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
        if not _is_integer(self.max_iterations):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        # HiGHS takes an iteration limit up to the int32 maximum and rejects
        # more, but only when a solve sets it; a flow solve never would
        limit = int(np.iinfo(np.int32).max)
        if self.max_iterations > limit:
            raise ValueError(f"max_iterations must be at most {limit}, the largest iteration "
                             f"limit HiGHS takes, got {self.max_iterations!r}")
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
        if not np.all(np.isfinite(self.masses) & (self.masses > 0.0)):
            raise ValueError("masses must be finite and positive")


@dataclass
class CertificateReport:
    objective: float  # p^T q
    dual_objective: float  # 1^T z + 1^T y
    primal_residual: float
    dual_residual: float
    duality_gap: float
    gap_bound: float
    feasible: bool
    gap_ok: bool

    @property
    def ok(self) -> bool:
        return self.feasible and self.gap_ok


@dataclass
class LpSolution:
    """Certified primal-dual pair for one packing solve.

    q is in [0, 1] and ``edge_cover`` (z, indexed by incidence rows) is
    nonnegative, neither holding -0.0. ``singleton_cover`` holds the duals of
    the q <= 1 bounds, one per vertex: the mass the edges leave uncovered,
    ``max(p - B^T z, 0)``. ``backend`` names the solver:
    ``"flow"`` (min cut; also the closed form of an LP without rows) or
    ``"highs"``. ``certificate`` is the report the vectors were judged by.
    """

    q: np.ndarray
    edge_cover: np.ndarray
    singleton_cover: np.ndarray
    lp: PackingLp = field(repr=False)
    backend: str
    certificate: CertificateReport

    @property
    def objective(self) -> float:
        return self.certificate.objective

    @property
    def loss(self) -> float:
        """The mass that q leaves out, sum p (1 - q), summed exactly
        (``math.fsum``): 1 - objective for masses that sum to 1, and
        exactly 0 where q is all ones."""
        return math.fsum(self.lp.masses * (1.0 - self.q))


class LpNonConvergenceError(RuntimeError):
    """HiGHS stopped without an optimum; ``status`` is its model status."""

    def __init__(self, message: str, status):
        super().__init__(message)
        self.status = status


class UncertifiedSolveError(RuntimeError):
    """Solver claimed success but the returned vectors fail certification."""

    def __init__(self, message: str, solution: "LpSolution"):
        super().__init__(message)
        self.solution = solution


def _certificate(p: np.ndarray, B: sp.csr_matrix, q: np.ndarray, z: np.ndarray,
                 cover: np.ndarray, y: np.ndarray, tol: Tolerances) -> CertificateReport:
    """The certificate of a primal-dual pair, the one place that judges a
    solve: residuals and gap are recomputed from the vectors, over every
    vertex and row, and compared with the tolerances (a NaN residual fails).
    ``cover`` is the mass the edges cover, ``B^T z``.
    """
    # np.max, not max: a NaN anywhere makes the residual NaN
    primal = float(np.max([
        np.max(-q, initial=0.0),
        np.max(q - 1.0, initial=0.0),
        np.max(B @ q - 1.0, initial=0.0),
    ]))
    dual = float(np.max([
        np.max(-z, initial=0.0),
        np.max(-y, initial=0.0),
        np.max(p - (cover + y), initial=0.0),
    ]))
    objective = float(p @ q)
    dual_objective = float(z.sum() + y.sum())
    gap = abs(objective - dual_objective)
    gap_bound = tol.gap_rel * max(1.0, abs(objective))
    return CertificateReport(
        objective=objective,
        dual_objective=dual_objective,
        primal_residual=primal,
        dual_residual=dual,
        duality_gap=gap,
        gap_bound=gap_bound,
        feasible=(primal <= tol.feasibility_abs and dual <= tol.feasibility_abs),
        gap_ok=(gap <= gap_bound),
    )


def _mass_scale(p: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(D, integer masses D * p) for D = round(1 / min p), or None.

    The loaders give masses in multiples of 1/n, so D = n makes them exact.
    None when some mass is not an integer under D, or when the flow network's
    capacities (up to twice the total plus one) would not fit in int32.
    """
    scale = np.rint(1.0 / p.min())
    if scale < 1.0:
        return None
    scaled = scale * p
    w = np.rint(scaled)
    if np.any(np.abs(scaled - w) > 1e-9 * scaled):
        return None
    if 2.0 * w.sum() + 1.0 > np.iinfo(np.int32).max:
        return None
    return scale, w


def _flow_packing(p: np.ndarray, B: sp.csr_matrix, labels: np.ndarray):
    """(q, z) of a two-class pair LP from a max-flow min cut, or None.

    Qualifies when every row is a pair with coefficient 1 whose two vertices
    have different labels, the rows together use exactly two labels and the
    masses scale to integers w. Side A is every vertex with the label of the
    first row's first vertex, side B every other vertex. The network is
    s -> a (cap w_a), a -> b (cap sum(w) + 1), b -> t (cap w_b), one a -> b
    arc per distinct row; the vertices on the source side of the residual
    cut, in A, and off it, in B, form a maximum-weight independent set, q is
    its 0/1 indicator and z is the edge flow over the scale, on each row's
    first occurrence.

    The network is built once, as an int32 CSR in canonical form. The rows
    are made distinct and lexicographic first (a graph's incidence already
    is); a stable sort by tail then lists each a's heads in increasing
    order. ``maximum_flow`` returns the flow on that network plus a
    zero-capacity reverse arc beside each arc, each row in column order. Its
    arrays give the residual arcs the source side needs, with no
    subtraction: s -> a while a is unsaturated, every a -> b (its capacity
    exceeds any flow) and every reverse arc that carries flow (a negative
    entry). The arcs into t, left out, are full at a maximum flow.
    """
    if np.any(np.diff(B.indptr) != 2) or np.any(B.data != 1.0):
        return None
    u, v = B.indices.reshape(-1, 2).T
    side_a = labels == labels[u[0]]
    u_in_a = side_a[u]
    # each row joins side A to the first row's second label
    if np.any(u_in_a == side_a[v]) or not (labels == labels[v[0]])[np.where(u_in_a, v, u)].all():
        return None
    integer = _mass_scale(p)
    if integer is None:
        return None
    scale, w = integer
    w = w.astype(np.int32)

    first = None  # once the rows need sorting: each distinct row's first occurrence
    if not np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))):
        first = np.lexsort((v, u))
        u, v = u[first], v[first]
        distinct = np.append(True, (u[1:] != u[:-1]) | (v[1:] != v[:-1]))
        first, u, v = first[distinct], u[distinct], v[distinct]
        u_in_a = side_a[u]
    n, m = p.shape[0], u.shape[0]
    s, t = n, n + 1
    src = np.flatnonzero(side_a)
    snk = np.flatnonzero(~side_a)
    tails = np.concatenate([np.where(u_in_a, u, v), snk, np.full(src.size, s)], dtype=np.int32)
    heads = np.concatenate([np.where(u_in_a, v, u), np.full(snk.size, t), src], dtype=np.int32)
    caps = np.concatenate([np.full(m, w.sum() + 1, dtype=np.int32), w[snk], w[src]])
    arcs = np.argsort(tails, kind="stable")
    indptr = np.zeros(n + 3, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n + 2), out=indptr[1:])
    network = sp.csr_matrix((caps[arcs], heads[arcs], indptr), shape=(n + 2, n + 2))
    flow = maximum_flow(network, s, t).flow

    tail_in_a = np.repeat(np.append(side_a, [False, False]), np.diff(flow.indptr))
    residual = tail_in_a | (flow.data < 0)
    out_of_s = slice(flow.indptr[s], flow.indptr[s + 1])  # s has no reverse arc
    residual[out_of_s] = flow.data[out_of_s] < w[src]
    kept = np.append(0, np.cumsum(residual))[flow.indptr]
    reach = np.zeros(n + 2, dtype=bool)
    reach[breadth_first_order(
        sp.csr_matrix((np.ones(kept[-1]), flow.indices[residual], kept), shape=network.shape),
        s, return_predecessors=False)] = True
    q = (side_a == reach[:n]).astype(float)

    # the flow's a -> b entries come in the network's order, the rows as arcs sorts them
    z = np.empty(m)
    z[arcs[arcs < m]] = flow.data[tail_in_a & (flow.indices < n)]
    z /= scale
    if first is None:
        return q, z
    every = np.zeros(B.shape[0])
    every[first] = z
    return q, every


def solve_packing(lp: PackingLp, tol: Tolerances = Tolerances()) -> LpSolution:
    """Solve the packing LP and return a certified primal-dual pair.

    Deterministic for a fixed instance and tolerance configuration; the
    module docstring says which backend takes which LP. The incidence may be
    any scipy sparse matrix or array; each backend gets it as canonical CSR
    (a row listing a vertex twice gives it coefficient 2; copied only when
    not canonical) and returns (q, z). q clipped to [0, 1] and z to
    [0, inf), each plus 0.0 (HiGHS leaves -0.0, and values a few ulps
    outside), and ``y = max(p - B^T z, 0)`` pass one certificate check over
    every row, which reads the same ``B^T z``.
    Raises :class:`LpNonConvergenceError` if HiGHS ends with any model
    status other than optimal (its iteration limit, say), ``ValueError`` if
    HiGHS rejects the model or an option, and :class:`UncertifiedSolveError`
    if the certificates fail.
    """
    p = lp.masses
    B = lp.incidence.matrix.tocsr()
    if not B.has_canonical_format:
        B = B.copy()
        B.sum_duplicates()
    if B.shape[0] == 0:
        # no constraints beyond the box: q = 1 and the singleton cover pays p
        found = np.ones(p.shape[0]), np.zeros(0)
    else:
        found = _flow_packing(p, B, lp.incidence.labels)
    if found is not None:
        (q, z), backend = found, "flow"
    elif np.diff(B.indptr).max() <= 2:
        (q, z), backend = _highs_packing(p, B, tol), "highs"
    elif B.shape[0] <= GENERATION_ROWS:
        (q, z), backend = _highs_covering(p, B, tol), "highs"
    else:
        (q, z), backend = _highs_packing(p, B, tol,
                                         _row_nominator(B, tol.feasibility_abs)), "highs"
    q = np.clip(q, 0.0, 1.0) + 0.0  # + 0.0 turns -0.0 into 0.0
    z = np.maximum(z, 0.0) + 0.0  # which zero maximum keeps is unspecified
    cover = B.T @ z
    y = np.maximum(p - cover, 0.0)
    cert = _certificate(p, B, q, z, cover, y, tol)
    sol = LpSolution(q, z, y, lp, backend, cert)
    if not cert.feasible:
        raise UncertifiedSolveError(
            f"feasibility residuals too large: primal={cert.primal_residual:.3e}, "
            f"dual={cert.dual_residual:.3e} (tol {tol.feasibility_abs:.1e})",
            sol,
        )
    if not cert.gap_ok:
        raise UncertifiedSolveError(
            f"duality gap {cert.duality_gap:.3e} exceeds bound {cert.gap_bound:.3e}", sol
        )
    return sol


def _highs_packing(p: np.ndarray, B: sp.csr_matrix, tol: Tolerances, nominate=None):
    """(q, z) of a pair LP, whole, or of a wide LP, generated, from HiGHS.

    Whole (no ``nominate``), HiGHS gets the model and the options that
    ``linprog(method="highs")`` passes it: presolve on, the dual simplex
    strategy, both iteration limits at ``tol.max_iterations`` and no output,
    so q is linprog's x and z its row marginals negated. Generated, the model
    starts, presolve off, from the rows ``nominate`` (a ``_row_nominator``)
    names at q = 1, and takes those it names at each round's q as rows, warm,
    until none is violated beyond ``tol.feasibility_abs``; z is 0 on the rest.
    """
    m, n = B.shape
    rows = np.arange(m) if nominate is None else nominate(np.ones(n))
    A = (B if nominate is None else B[rows]).tocsc()
    highs = _highs_model(tol, presolve="on" if nominate is None else "off",
                         simplex_strategy=1)  # 1: dual simplex
    # the array overload: no HighsLp to fill field by field; integrality 0 is continuous
    status = highs.passModel(n, rows.size, A.nnz, highspy.MatrixFormat.kColwise,
                             highspy.ObjSense.kMinimize, 0.0, -p, np.zeros(n), np.ones(n),
                             np.full(rows.size, -math.inf), np.ones(rows.size), A.indptr,
                             A.indices, A.data, np.zeros(n, np.int32))
    _check_loaded(status, "packing")
    added = [rows]
    while True:
        _run_certifiable(highs, tol)
        solution = highs.getSolution()
        q = np.asarray(solution.col_value)
        if nominate is None or (rows := nominate(q)).size == 0:
            break
        R = B[rows]
        _check_loaded(highs.addRows(rows.size, np.full(rows.size, -math.inf),
                                    np.ones(rows.size), R.nnz, R.indptr[:-1], R.indices,
                                    R.data), "packing")
        added.append(rows)

    z = np.zeros(m)
    z[np.concatenate(added)] = -np.asarray(solution.row_dual)
    return q, z


def _highs_covering(p: np.ndarray, B: sp.csr_matrix, tol: Tolerances):
    """(q, z) of a wide LP, whole, from HiGHS's primal simplex on its dual.

    The model is the covering LP ``min 1^T z + 1^T y  s.t.  B^T z + y >= p,
    z, y >= 0``, presolve off: one row per vertex, a column z_e per
    hyperedge it holds, then a column y_v per vertex. q is its row duals and
    z its z column values.
    """
    m, n = B.shape
    highs = _highs_model(tol, presolve="off", simplex_strategy=4)  # 4: primal simplex
    status = highs.passModel(
        m + n, n, B.nnz + n, highspy.MatrixFormat.kColwise, highspy.ObjSense.kMinimize, 0.0,
        np.ones(m + n), np.zeros(m + n), np.full(m + n, math.inf), p, np.full(n, math.inf),
        np.concatenate([B.indptr[:-1], B.nnz + np.arange(n)], dtype=np.int32),
        np.concatenate([B.indices, np.arange(n)], dtype=np.int32),
        np.concatenate([B.data, np.ones(n)]), np.zeros(m + n, np.int32))
    _check_loaded(status, "covering")
    _run_certifiable(highs, tol)
    solution = highs.getSolution()
    return np.asarray(solution.row_dual), np.asarray(solution.col_value)[:m]


def _row_nominator(B: sp.csr_matrix, threshold: float):
    """The nominations of row generation, as a function of q.

    Each call returns, sorted, one row per vertex: among the vertex's
    incident rows not returned before, the first of the largest excess
    ``B q - 1``, where that excess exceeds ``threshold``. The maximum is one
    ``np.maximum.reduceat`` over the vertex-major (CSC) entries, with no sort.
    """
    C = B.tocsc()
    degree = np.diff(C.indptr)
    starts, lengths = C.indptr[:-1][degree > 0], degree[degree > 0]
    owner = np.repeat(np.arange(B.shape[1]), degree)
    taken = np.zeros(B.shape[0], dtype=bool)

    def nominate(q: np.ndarray) -> np.ndarray:
        excess = B @ q - 1.0
        excess[taken] = -math.inf
        entry = excess[C.indices]
        best = np.repeat(np.maximum.reduceat(entry, starts), lengths)
        hit = np.flatnonzero((entry == best) & (entry > threshold))
        # hits are in vertex order: keep each vertex's first
        hit = hit[np.diff(owner[hit], prepend=-1) != 0]
        rows = np.unique(C.indices[hit])
        taken[rows] = True
        return rows

    return nominate


def _highs_model(tol: Tolerances, **options):
    """An empty HiGHS instance with no output, both iteration limits at
    ``tol.max_iterations`` and the given options."""
    highs = highspy._Highs()
    for name, value in (("output_flag", False), ("log_to_console", False),
                        *options.items(),
                        ("simplex_iteration_limit", tol.max_iterations),
                        ("ipm_iteration_limit", tol.max_iterations)):
        _set_option(highs, name, value)
    return highs


def _check_loaded(status, form: str) -> None:
    if status == highspy.HighsStatus.kError:
        raise ValueError(f"HiGHS rejects the {form} LP: an incidence entry is inf or huge")


def _set_option(highs, name: str, value) -> None:
    if highs.setOptionValue(name, value) == highspy.HighsStatus.kError:
        raise ValueError(f"HiGHS rejects {name} = {value!r}")


def _run_certifiable(highs, tol: Tolerances) -> None:
    """Run HiGHS to an optimum its answer can be certified at.

    HiGHS stops at its own feasibility tolerances, 1e-7 by default, and may
    leave a vertex lighter than that uncovered. When its reported primal or
    dual infeasibility exceeds ``tol.feasibility_abs``, both tolerances are
    set to ``max(1e-10, tol.feasibility_abs / 10)`` and the same model runs
    once more, warm; later runs of the model keep them. They are not set
    before the first run, which would move HiGHS off linprog's vertex on
    LPs that need no rerun.
    """
    _run_to_optimum(highs)
    info = highs.getInfo()
    if max(info.max_primal_infeasibility, info.max_dual_infeasibility) > tol.feasibility_abs:
        tight = max(1e-10, tol.feasibility_abs / 10)
        for name in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
            _set_option(highs, name, tight)
        _run_to_optimum(highs)


def _run_to_optimum(highs) -> None:
    highs.run()
    status = highs.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        raise LpNonConvergenceError(
            f"HiGHS stopped without an optimum: {highs.modelStatusToString(status)}", status
        )


def verify_certificates(lp: PackingLp, sol: LpSolution,
                        tol: Tolerances = Tolerances()) -> CertificateReport:
    """Recompute all residuals from scratch, independently of the solver.

    The verdict is the one ``solve_packing`` raises on and keeps as
    ``sol.certificate``, recomputed from ``sol``'s vectors.
    """
    B = lp.incidence.matrix
    return _certificate(lp.masses, B, sol.q, sol.edge_cover, B.T @ sol.edge_cover,
                        sol.singleton_cover, tol)
