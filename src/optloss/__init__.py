"""Optimal adversarial 0-1 loss and efficient bounds for multi-class
classification on finite-support distributions under an l2-bounded
test-time attacker."""

from .bounds import (
    AdversarialStrategy,
    BoundReport,
    PairwiseLossMatrix,
    SoftClassifierTable,
    bound_report,
    caro_wei_bound,
    class_distance_stats,
    class_only_bound,
    evaluate_classifier,
    extract_strategy,
    hard_loss_bruteforce,
    optimal_loss,
    pairwise_binary_losses,
)
from .data import LabeledDataset, gen_gaussian, load_csv, load_idx, subset
from .hypergraph import (
    ConflictHypergraph,
    IncidenceMatrix,
    build_conflict_graph,
    extend_hyperedges,
    incidence,
)
from .lp_core import (
    CertificateReport,
    LpNonConvergenceError,
    LpSolution,
    PackingLp,
    Tolerances,
    UncertifiedSolveError,
    solve_packing,
    verify_certificates,
)

__version__ = "0.1.0"
