"""The measured pipeline and the checks behind ``attempted`` and ``failed``.

Each iteration runs, for every instance of the workload, the three user
paths in order:

* bound:    ``bound_report(ds, eps, m_max)``, the whole bound chain;
* strategy: ``optimal_loss(m = m_max)`` + ``extract_strategy`` +
  ``json.dumps(strategy.to_json_dict())``, as ``optloss strategy`` does;
* classify: ``evaluate_classifier`` on every query of the instance.

One bound and one strategy call per instance, and each query, is one
operation. An operation fails when it raises or when its answer fails a
check: certificate recomputation, the bound chain
``L_co(2) <= L*(2) <= ... <= L_hard <= L_CW``, cover cost against the loss,
an independent classifier reference, the pinned reference values for the
default seed, and identical answers in every iteration of the run.

With a tracer the bound chain is composed from the layers' public
functions one call at a time, each inside a span, and must reproduce an
untraced ``bound_report`` bit for bit; calls the library makes internally
are seen through hooks on the module attributes it looks them up by.
Without a tracer the only hook collects the LP solutions, so that every
solve's certificate is recomputed after, and outside, the timed call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from optloss import bounds, hypergraph, lp_core

from spans import summarize

TOL = lp_core.Tolerances()
HARD_CAP = 30
CHAIN_SLACK = 1e-9  # allowed break of the bound chain and drift from pinned values
CLASSIFY_ATOL = 1e-12
NEIGHBOR_TOL = 1e-9  # the classifier's relative slack on the eps-ball


class Outcome:
    """Attempted and failed operation counts, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str], count: int = 1) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(f"{what}: " + "; ".join(problems))


def report_summary(report) -> dict:
    """The values of a bound report that the checks compare, JSON-keyed."""
    return {
        "losses": {str(m): v for m, v in sorted(report.losses.items())},
        "class_only_2": report.class_only_2,
        "caro_wei": report.caro_wei,
        "hard": report.hard_bruteforce,
        "edge_counts": {str(d): c for d, c in sorted(report.edge_counts.items())},
        "boundary_tight": report.boundary_tight_edges,
    }


def chain_problems(summary: dict) -> list[str]:
    chain = [("L_co(2)", summary["class_only_2"])]
    chain += [(f"L*({m})", v) for m, v in summary["losses"].items()]
    if summary["hard"] is not None:
        chain.append(("L_hard", summary["hard"]))
    chain.append(("L_CW", summary["caro_wei"]))
    return [
        f"{na}={a!r} > {nb}={b!r}"
        for (na, a), (nb, b) in zip(chain, chain[1:])
        if a is not None and b is not None and a > b + CHAIN_SLACK
    ]


def pin_problems(summary: dict, pin: dict) -> list[str]:
    """Differences from pinned values: counts exactly, losses within the slack."""
    out = []
    for key in ("edge_counts", "boundary_tight"):
        if summary[key] != pin[key]:
            out.append(f"{key} {summary[key]} != pinned {pin[key]}")
    values = [("class_only_2", summary["class_only_2"], pin["class_only_2"]),
              ("caro_wei", summary["caro_wei"], pin["caro_wei"]),
              ("hard", summary["hard"], pin["hard"])]
    if summary["losses"].keys() != pin["losses"].keys():
        out.append(f"loss degrees {list(summary['losses'])} != pinned {list(pin['losses'])}")
    else:
        values += [(f"L*({m})", v, pin["losses"][m]) for m, v in summary["losses"].items()]
    for name, got, want in values:
        if (got is None) != (want is None) or (
                got is not None and abs(got - want) > CHAIN_SLACK):
            out.append(f"{name} {got!r} != pinned {want!r}")
    return out


def certificate_problems(solves, worst: dict) -> list[str]:
    """Recompute every certificate; keep the worst residuals seen in ``worst``."""
    out = []
    for sol in solves:
        cert = lp_core.verify_certificates(sol.lp, sol, TOL)
        for key, value in (("primal", cert.primal_residual), ("dual", cert.dual_residual),
                           ("gap_rel", cert.duality_gap / max(1.0, abs(sol.objective)))):
            worst[key] = max(worst.get(key, 0.0), value)
        if not cert.ok:
            out.append(f"certificate fails: primal {cert.primal_residual:.2e} "
                       f"dual {cert.dual_residual:.2e} gap {cert.duality_gap:.2e}")
    return out


def strategy_problems(loss: float, sol, strategy, expected_loss) -> list[str]:
    out = []
    gap_bound = TOL.gap_rel * max(1.0, abs(sol.objective))
    if abs(strategy.cover_cost - (1.0 - loss)) > gap_bound:
        out.append(f"cover cost {strategy.cover_cost!r} vs 1 - loss {1.0 - loss!r}")
    if expected_loss is not None and abs(loss - expected_loss) > CHAIN_SLACK:
        out.append(f"strategy loss {loss!r} != bound_report L* {expected_loss!r}")
    return out


def classify_reference(table, query: np.ndarray) -> np.ndarray:
    """The classifier's defining rule, written out independently."""
    dist = np.sqrt(((table.points - query) ** 2).sum(axis=1))
    near = dist <= table.epsilon * (1.0 + NEIGHBOR_TOL) + 1e-12
    k = table.num_classes
    g = np.array([table.q[near & (table.labels == y)].max(initial=0.0) for y in range(k)])
    total = g.sum()
    return g / total if total > 1.0 else g + (1.0 - total) / k


def classify_problems(table, queries: np.ndarray, outs: list) -> list[list[str]]:
    """Per-query problems for a list of classifier outputs."""
    out = []
    for query, got in zip(queries, outs):
        got = np.asarray(got)
        problems = []
        if got.shape != (table.num_classes,) or not np.all(np.isfinite(got)):
            problems.append(f"bad output shape/values {got!r}")
        elif got.min() < -CLASSIFY_ATOL or abs(got.sum() - 1.0) > 1e-9:
            problems.append(f"not a distribution: {got!r}")
        elif np.abs(got - classify_reference(table, query)).max() > CLASSIFY_ATOL:
            problems.append("differs from the reference rule")
        out.append(problems)
    return out


@contextmanager
def library_hooks(tracer, solves: list):
    """Collect every ``solve_packing`` answer in ``solves``; with a tracer,
    also route the library's internal layer calls through it.

    Wraps the names as the calling module looks them up. A name the
    library no longer has is skipped, so its counters read 0.
    """
    def collecting(solve):
        def wrapper(*args, **kwargs):
            sol = solve(*args, **kwargs)
            solves.append(sol)
            return sol
        return wrapper

    def degree(lp):
        sizes = np.diff(lp.incidence.matrix.indptr)
        return max(2, int(sizes.max())) if sizes.size else 2

    def recording(solve):
        def wrapper(lp, *args, **kwargs):
            with tracer.span(f"lp_core.solve_{degree(lp)}"):
                sol = solve(lp, *args, **kwargs)
            solves.append(sol)
            return sol
        return wrapper

    def first_len(*args, **kwargs):
        return len(args[0]) if args else 0

    patches = [(bounds, "solve_packing", collecting)] if tracer is None else [
        (hypergraph, "circumradius_batch",
         lambda f: tracer.tallied("geometry.batch", first_len, f)),
        (hypergraph, "min_enclosing_ball",
         lambda f: tracer.tallied("geometry.meb", lambda *a, **k: 1, f)),
        (bounds, "build_conflict_graph",
         lambda f: tracer.spanned(lambda *a, **k: "hypergraph.build", f)),
        (bounds, "extend_hyperedges",
         lambda f: tracer.spanned(lambda g, m, *a, **k: f"hypergraph.extend_{m}", f)),
        (bounds, "incidence",
         lambda f: tracer.spanned(lambda *a, **k: "hypergraph.incidence", f)),
        (bounds, "solve_packing", recording),
    ]
    saved = []
    try:
        for module, name, wrap in patches:
            original = getattr(module, name, None)
            if original is not None:
                saved.append((module, name, original))
                setattr(module, name, wrap(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def composed_bound_chain(tracer, inst, solves: list):
    """``bound_report`` rebuilt from public layer calls, one span each.

    Returns the report summary and the chain's work counts.
    """
    ds, eps = inst.dataset, inst.epsilon
    counts = {"lp_rows_raw": 0, "lp_rows": 0}
    with tracer.span("hypergraph.build"):
        graph = hypergraph.build_conflict_graph(ds, eps)
    losses = {}
    sol2 = None
    for m in range(2, inst.m_max + 1):
        if m > 2:
            seen = [0]

            def progress(count, seen=seen):
                seen[0] = count

            with tracer.span(f"hypergraph.extend_{m}"):
                graph = hypergraph.extend_hyperedges(graph, m, jobs=1, progress=progress)
            counts[f"candidates_{m}"] = seen[0]
        with tracer.span("hypergraph.incidence"):
            inc = hypergraph.incidence(graph, dedupe_dominated=True)
        with tracer.span(f"lp_core.solve_{m}"):
            sol = lp_core.solve_packing(lp_core.PackingLp(graph.masses, inc), TOL)
        solves.append(sol)
        counts["lp_rows_raw"] += sum(graph.edge_counts().values())
        counts["lp_rows"] += inc.matrix.shape[0]
        losses[m] = sol.loss
        if m == 2:
            sol2 = sol
    with tracer.span("bounds.pairwise"):
        pairwise = bounds.pairwise_binary_losses(ds, eps, TOL, jobs=1)
    with tracer.span("bounds.class_only"):
        class_only = bounds.class_only_bound(pairwise, ds.class_priors())
    with tracer.span("bounds.caro_wei"):
        caro_wei = bounds.caro_wei_bound(graph, np.clip(sol2.q, 0.0, None))
    hard = None
    if graph.num_vertices <= HARD_CAP:
        with tracer.span("bounds.hard"):
            hard, _ = bounds.hard_loss_bruteforce(graph, cap=HARD_CAP)
    with tracer.span("hypergraph.counts"):
        edge_counts = graph.edge_counts()
        tight = graph.boundary_tight_count()

    d = ds.dimension
    cache = getattr(graph, "_d2_cache", None)
    edges = getattr(graph, "edges", None) or []
    counts["pair_edges"] = edge_counts.get(2, 0)
    for k in (3, 4):
        counts[f"edges_{k}"] = edge_counts.get(k, 0)
    counts["d2_cache_mb"] = 0.0 if cache is None else cache.size * 8 / 1e6
    counts["witness_mb"] = sum(getattr(e, "witness", None) is not None
                               for e in edges) * d * 8 / 1e6
    summary = {
        "losses": {str(m): v for m, v in losses.items()},
        "class_only_2": class_only,
        "caro_wei": caro_wei,
        "hard": hard,
        "edge_counts": {str(k): c for k, c in sorted(edge_counts.items())},
        "boundary_tight": tight,
    }
    return summary, counts


def strategy_path(inst, tracer=None):
    """``optloss strategy``: solve at m_max, extract the adversary, serialise it."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("bounds.optimal_loss"):
        loss, sol, graph = bounds.optimal_loss(inst.dataset, inst.epsilon, inst.m_max,
                                               tol=TOL, jobs=1)
    with span("bounds.strategy_extract"):
        strategy = bounds.extract_strategy(sol, graph, TOL)
    with span("bounds.strategy_json"):
        json.dumps(strategy.to_json_dict())
    return loss, sol, strategy


class Bench:
    """Runs iterations over a workload's instances and keeps the samples."""

    PHASES = ("bound", "strategy", "classify")

    def __init__(self, instances, pins: dict | None = None, tracer=None, between=None):
        self.instances = instances
        self.between = between  # called around every phase, outside any timing
        self.readings: list = []  # what ``between`` returned, in call order
        self.pins = pins
        self.tracer = tracer
        self.outcome = Outcome()
        self.samples: dict[str, list[float]] = {}
        self.layer_samples: list[dict] = []
        self.summaries: dict[str, dict] = {}  # latest bound summary per instance
        self.first: dict[str, dict] = {}  # first iteration's answers per instance
        self.worst: dict[str, float] = {}  # largest certificate residuals seen

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def iteration(self) -> None:
        """One pass: the bound phase over every instance, then strategy, then
        classify. Samples the seconds of each phase and the queries answered.
        ``between`` runs before the first phase of the run and after every
        phase.
        """
        raw = {"untraced_bound_s": 0.0}
        roots = {phase: [] for phase in self.PHASES}
        work: dict[str, float] = {}
        solutions: dict[str, object] = {}
        seconds = dict.fromkeys(self.PHASES, 0.0)
        queries = 0
        if self.between is not None and not self.readings:
            self.readings.append(self.between())
        for phase in self.PHASES:
            for inst in self.instances:
                if self.tracer is not None:
                    self.tracer.context.update(instance=inst.name,
                                               iteration=len(self.layer_samples))
                first = self.first.setdefault(inst.name, {})
                if phase == "bound":
                    elapsed = self._bound(inst, first, raw, roots, work)
                elif phase == "strategy":
                    elapsed, solutions[inst.name] = self._strategy(inst, first, roots, work)
                else:
                    elapsed, answered = self._classify(inst, first, solutions[inst.name],
                                                       roots)
                    queries += answered
                seconds[phase] += elapsed
            if self.between is not None:
                self.readings.append(self.between())
        for phase in self.PHASES:
            self._sample(f"{phase}_s", seconds[phase])
        self._sample("queries", queries)
        if self.tracer is not None:
            self.layer_samples.append(self._layer_metrics(roots, work, raw))

    def _bound_report(self, inst):
        t0 = time.perf_counter()
        report = bounds.bound_report(inst.dataset, inst.epsilon, m_max=inst.m_max,
                                     tol=TOL, hard_cap=HARD_CAP, jobs=1)
        elapsed = time.perf_counter() - t0
        return report_summary(report), elapsed

    def _bound(self, inst, first, raw, roots, work) -> float:
        """The bound chain of one instance; returns its seconds."""
        tracer = self.tracer
        summary, problems, seconds, solves = None, [], 0.0, []
        try:
            if tracer is None:
                with library_hooks(None, solves):
                    summary, seconds = self._bound_report(inst)
                problems += certificate_problems(solves, self.worst)
            else:
                # alternate which run goes first, so that neither always
                # finds the caches the other one warmed
                traced_first = len(self.layer_samples) % 2 == 1
                if not traced_first:
                    summary, elapsed = self._bound_report(inst)
                with library_hooks(tracer, solves), tracer.span("pipeline.bound") as root:
                    composed, counts = composed_bound_chain(tracer, inst, solves)
                if traced_first:
                    summary, elapsed = self._bound_report(inst)
                raw["untraced_bound_s"] += elapsed
                roots["bound"].append(root)
                seconds = root.duration
                for key, value in counts.items():
                    if key.endswith("_mb"):
                        work[key] = max(work.get(key, 0.0), value)
                    else:
                        work[key] = work.get(key, 0) + value
                if composed != summary:
                    problems.append(f"composed chain {composed} != bound_report {summary}")
                problems += certificate_problems(solves, self.worst)
        except Exception as exc:  # any raised error is a failed operation
            problems.append(repr(exc))
        if summary is not None:
            problems += chain_problems(summary)
            if self.pins is not None:
                pin = self.pins.get(inst.name)
                problems += (["no pinned reference values"] if pin is None
                             else pin_problems(summary, pin))
            if first.setdefault("summary", summary) != summary:
                problems.append("bound chain differs from the first iteration")
            self.summaries[inst.name] = summary
        self.outcome.record(f"{inst.name} bound", problems)
        return seconds

    def _strategy(self, inst, first, roots, work):
        """The strategy path of one instance; returns (seconds, solution or None)."""
        tracer = self.tracer
        problems, seconds, solves = [], 0.0, []
        try:
            if tracer is None:
                with library_hooks(None, solves):
                    t0 = time.perf_counter()
                    loss, sol, strategy = strategy_path(inst)
                    seconds = time.perf_counter() - t0
            else:
                with library_hooks(tracer, solves), tracer.span("pipeline.strategy") as root:
                    loss, sol, strategy = strategy_path(inst, tracer)
                roots["strategy"].append(root)
                seconds = root.duration
                work["strategy_plays"] = work.get("strategy_plays", 0) + sum(
                    len(vs.edges) for vs in strategy.per_vertex)
            # the returned solution too, should it bypass the hooked solver
            problems += certificate_problems([x for x in solves if x is not sol] + [sol],
                                             self.worst)
            summary = self.summaries.get(inst.name)
            expected = None if summary is None else summary["losses"].get(str(inst.m_max))
            problems += strategy_problems(loss, sol, strategy, expected)
            if first.setdefault("loss", loss) != loss:
                problems.append("strategy loss differs from the first iteration")
        except Exception as exc:
            problems.append(repr(exc))
            sol = None
        self.outcome.record(f"{inst.name} strategy", problems)
        return seconds, sol

    def _classify(self, inst, first, sol, roots):
        """Every query of one instance; returns (seconds, queries answered)."""
        queries = inst.queries
        if sol is None:
            self.outcome.record(f"{inst.name} classify", ["no solution to classify with"],
                                count=len(queries))
            return 0.0, 0
        table = bounds.SoftClassifierTable.from_solution(inst.dataset, inst.epsilon, sol)
        tracer = self.tracer
        try:
            if tracer is None:
                t0 = time.perf_counter()
                outs = [bounds.evaluate_classifier(table, x) for x in queries]
                seconds = time.perf_counter() - t0
            else:
                evaluate = tracer.tallied("bounds.classify", lambda *a, **k: 1,
                                          bounds.evaluate_classifier)
                with tracer.span("pipeline.classify") as root:
                    outs = [evaluate(table, x) for x in queries]
                roots["classify"].append(root)
                seconds = root.duration
        except Exception as exc:
            self.outcome.record(f"{inst.name} classify", [repr(exc)], count=len(queries))
            return 0.0, 0
        outs = np.array(outs)
        if "outputs" not in first:
            first["outputs"] = outs
            per_query = classify_problems(table, queries, outs)
        else:
            same = ((outs == first["outputs"]).all(axis=1)
                    if outs.shape == first["outputs"].shape
                    else np.zeros(len(queries), dtype=bool))
            per_query = [[] if ok else ["differs from the first iteration"] for ok in same]
        for problems in per_query:
            self.outcome.record(f"{inst.name} classify", problems)
        return seconds, len(queries)

    def _layer_metrics(self, roots, work, raw) -> dict:
        tracer = self.tracer
        chain_spans = [s for r in roots["bound"] for s in tracer.subtree(r)]
        strat_spans = [s for r in roots["strategy"] for s in tracer.subtree(r)]
        cls_spans = [s for r in roots["classify"] for s in tracer.subtree(r)]
        strat = summarize(strat_spans)
        every = summarize(chain_spans + strat_spans + cls_spans)
        cls = summarize(cls_spans)

        def span_s(summary, name):
            return summary["spans"].get(name, [0, 0.0])[1]

        def tally(summary, name, field):
            return summary["tallies"].get(name, [0, 0, 0.0])[field]

        # the two-class sub-problems of bounds.pairwise build graphs and solve
        # LPs too; the hypergraph.*, geometry.* and lp_core.solve* figures
        # describe the main chain only, bounds.pairwise_* the sub-problems
        pairwise = {s.id for s in chain_spans if s.name == "bounds.pairwise"}
        below = set()
        for s in chain_spans:  # start order: a parent comes before its children
            if s.parent in pairwise or s.parent in below:
                below.add(s.id)
        chain = summarize([s for s in chain_spans if s.id not in below])
        solves = [s for s in chain_spans if s.name.startswith("lp_core.solve_")]
        batch_rows = tally(chain, "geometry.batch", 1)
        meb_calls = tally(chain, "geometry.meb", 0)
        out = {
            "hypergraph.build_s": span_s(chain, "hypergraph.build"),
            "hypergraph.pair_edges": work.get("pair_edges", 0),
            "hypergraph.d2_cache_mb_computed": work.get("d2_cache_mb", 0.0),
            "hypergraph.witness_mb_computed": work.get("witness_mb", 0.0),
            "hypergraph.incidence_s": span_s(chain, "hypergraph.incidence"),
            "hypergraph.lp_rows_raw": work.get("lp_rows_raw", 0),
            "hypergraph.lp_rows": work.get("lp_rows", 0),
            "geometry.batch_calls": tally(chain, "geometry.batch", 0),
            "geometry.batch_rows": batch_rows,
            "geometry.batch_s": tally(chain, "geometry.batch", 2),
            "geometry.meb_calls": meb_calls,
            "geometry.meb_s": tally(chain, "geometry.meb", 2),
            "geometry.fallback_ratio": meb_calls / batch_rows if batch_rows else 0.0,
            "lp_core.solves": sum(s.id not in below for s in solves),
            "bounds.pairwise_s": span_s(chain, "bounds.pairwise"),
            "bounds.pairwise_solves": sum(s.id in below for s in solves),
            "bounds.class_only_s": span_s(chain, "bounds.class_only"),
            "bounds.caro_wei_s": span_s(chain, "bounds.caro_wei"),
            "bounds.hard_s": span_s(chain, "bounds.hard"),
            "bounds.hard_instances": chain["spans"].get("bounds.hard", [0])[0],
            "bounds.strategy_extract_s": span_s(strat, "bounds.strategy_extract"),
            "bounds.strategy_json_s": span_s(strat, "bounds.strategy_json"),
            "bounds.strategy_plays": work.get("strategy_plays", 0),
            "bounds.classify_s": tally(cls, "bounds.classify", 2),
        }
        for k in (3, 4):
            cand = work.get(f"candidates_{k}", 0)
            edges = work.get(f"edges_{k}", 0)
            out[f"hypergraph.extend_{k}_s"] = span_s(chain, f"hypergraph.extend_{k}")
            out[f"hypergraph.candidates_{k}"] = cand
            out[f"hypergraph.edges_{k}"] = edges
            out[f"hypergraph.accept_ratio_{k}"] = edges / cand if cand else 0.0
        for m in (2, 3, 4):
            out[f"lp_core.solve_{m}_s"] = span_s(chain, f"lp_core.solve_{m}")
        for layer in ("hypergraph", "geometry", "lp_core", "bounds"):
            out[f"{layer}.self_s"] = every["self_s"].get(layer, 0.0)
        for phase, summary in (("bound", chain), ("strategy", strat), ("classify", cls)):
            out[f"trace.{phase}_s"] = span_s(summary, f"pipeline.{phase}")
            out[f"trace.{phase}_remainder_s"] = summary["self_s"].get("pipeline", 0.0)
        out["trace.untraced_bound_s"] = raw["untraced_bound_s"]
        out["trace.overhead_s"] = out["trace.bound_s"] - raw["untraced_bound_s"]
        out["trace.spans"] = len(chain_spans) + len(strat_spans) + len(cls_spans)
        out["lp_core.max_primal_residual"] = self.worst.get("primal", 0.0)
        out["lp_core.max_dual_residual"] = self.worst.get("dual", 0.0)
        out["lp_core.max_gap_rel"] = self.worst.get("gap_rel", 0.0)
        return out
