"""Command-line front end.

Thin orchestration over the library: every number in the outputs comes from
the bound/LP modules. Progress goes to stderr; stdout carries exactly one
JSON object per invocation. Output files are written atomically
(temporary file plus rename). The default output directory comes from the
OPTLOSS_OUT environment variable, falling back to the working directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import data as dt
from . import hypergraph as hg
from .lp_core import Tolerances

PROGRESS_EVERY = 1_000_000


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("OPTLOSS_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_atomic(path: Path, text: str) -> None:
    # os.open applies the umask to 0o666, as open() does; mkstemp would
    # give 0o600. The random name keeps concurrent writers apart
    tmp = str(path.parent / f"{path.name}.tmp.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list, rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_formats(outdir: Path, stem: str, fmt: str, doc: dict, header: list,
                   rows: list[list]) -> list[str]:
    """Write ``stem``.json and/or ``stem``.csv as ``fmt`` asks; the paths written."""
    written = []
    if fmt in ("json", "both"):
        path = outdir / f"{stem}.json"
        _write_atomic(path, json.dumps(doc, indent=2))
        written.append(str(path))
    if fmt in ("csv", "both"):
        path = outdir / f"{stem}.csv"
        _write_atomic(path, _csv_text(header, rows))
        written.append(str(path))
    return written


def _progress_printer(label: str):
    state = {"last": 0}

    def callback(count: int) -> None:
        if count - state["last"] >= PROGRESS_EVERY:
            state["last"] = count
            print(f"{label}: {count} candidates tested", file=sys.stderr)

    return callback


def _load_dataset(args) -> dt.LabeledDataset:
    if args.idx_images:
        if not args.idx_labels:
            raise ValueError("--idx-images requires --idx-labels")
        ds = dt.load_idx(args.idx_images, args.idx_labels, normalization=args.normalize)
    elif args.data:
        path = Path(args.data)
        if path.suffix.lower() == ".json":
            ds = dt.dataset_from_json(path.read_text())
        else:
            ds = dt.load_csv(path, normalization=args.normalize)
    else:
        raise ValueError("no dataset given: use --data or --idx-images/--idx-labels")
    if args.classes:
        ds = dt.subset(ds, args.classes, per_class_cap=args.per_class)
    elif args.per_class is not None:
        ds = dt.subset(ds, list(range(ds.num_classes)), per_class_cap=args.per_class)
    return ds


def _add_dataset_args(sub) -> None:
    sub.add_argument("--data", help="dataset file (.csv with label column first, or .json)")
    sub.add_argument("--idx-images", help="IDX image file (MNIST binary layout)")
    sub.add_argument("--idx-labels", help="IDX label file")
    sub.add_argument("--normalize", choices=["none", "divide-255"], default="none")
    sub.add_argument("--classes", type=int, nargs="+", help="restrict to these class ids")
    sub.add_argument("--per-class", type=int, help="keep the first N vertices per class")


_FLAGS = {
    "--tol-gap": dict(type=float, default=1e-6, help="relative duality-gap bound"),
    "--jobs": dict(type=int, default=1, help="budgets of the sweep solved concurrently"),
    "--format": dict(choices=["json", "csv", "both"], default="json"),
}


def _add_flags(sub, *names: str) -> None:
    """The named ``_FLAGS`` plus ``--out``, which every command takes."""
    for name in names:
        sub.add_argument(name, **_FLAGS[name])
    sub.add_argument("--out", help="output directory (default: $OPTLOSS_OUT or .)")


def _tolerances(args) -> Tolerances:
    return Tolerances(gap_rel=args.tol_gap)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def cmd_gen_gaussian(args) -> int:
    ds = dt.gen_gaussian(
        num_classes=args.num_classes,
        per_class=args.per_class,
        variance=args.variance,
        mean_radius=args.mean_radius,
        seed=args.seed,
    )
    out = _out_dir(args) / args.name
    _write_atomic(out, dt.dataset_to_json(ds))
    _emit({"command": "gen-gaussian", "outputs": [str(out)],
           "num_points": ds.num_points, "provenance": ds.provenance})
    return 0


def cmd_build(args) -> int:
    eps = hg._budget(args.epsilon)
    ds = _load_dataset(args)
    _check_max_degree(args, ds)
    graph = hg.build_conflict_graph(ds, eps)
    if args.max_degree > 2:
        graph = hg.extend_hyperedges(
            graph, args.max_degree,
            progress=_progress_printer(f"degree extension eps={eps}"),
        )
    counts = graph.edge_counts()
    print(f"edge counts by degree: {counts}", file=sys.stderr)
    out = _out_dir(args) / f"hypergraph_eps{eps:g}_m{args.max_degree}.json"
    _write_atomic(out, hg.graph_to_json(graph))
    _emit({"command": "build", "outputs": [str(out)],
           "edge_counts": {str(k): v for k, v in counts.items()}})
    return 0


def _check_max_degree(args, ds) -> None:
    if ds.num_classes < 2:
        raise ValueError("need at least two classes")
    if args.max_degree < 2 or args.max_degree > ds.num_classes:
        raise ValueError(
            f"--max-degree must lie in [2, {ds.num_classes}] for this dataset"
        )


def _caro_wei_weights(args, ds):
    if args.caro_wei_weights is None:
        return None  # degree-2 packing solution
    if args.caro_wei_weights == "uniform":
        return np.ones(ds.num_points)
    doc = json.loads(Path(args.caro_wei_weights).read_text())
    # JSON numbers only: numpy would read null as nan and true as 1
    if not isinstance(doc, list) or not all(type(w) in (int, float) for w in doc):
        raise ValueError(f"weights file {args.caro_wei_weights} must hold a JSON list of "
                         f"{ds.num_points} numbers")
    try:
        weights = np.asarray(doc, dtype=float)
    except OverflowError:  # an integer beyond float range, no more finite than 1e999
        raise ValueError("weights must be finite and nonnegative") from None
    if weights.shape != (ds.num_points,):
        raise ValueError(
            f"weights file has {weights.shape} entries, dataset has {ds.num_points}"
        )
    return weights


def cmd_bound(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.hard_cap < 0:
        raise ValueError(f"--hard-cap must be at least 0, got {args.hard_cap}")
    epsilons = sorted(hg._budget(e) for e in args.epsilon)
    for a, b in zip(epsilons, epsilons[1:]):
        if f"{a:g}" == f"{b:g}":
            raise ValueError(f"budgets {a!r} and {b!r} share the report name bound_eps{a:g}")
    ds = _load_dataset(args)
    _check_max_degree(args, ds)
    tol = _tolerances(args)
    outdir = _out_dir(args)
    weights = _caro_wei_weights(args, ds)

    def run(eps: float):
        report = bd.bound_report(
            ds, eps, m_max=args.max_degree, tol=tol, hard_cap=args.hard_cap,
            caro_wei_weights=weights, progress=_progress_printer(f"eps={eps:g}"),
        )
        return report, _write_formats(outdir, f"bound_eps{eps:g}", args.format,
                                      report.to_json_dict(), bd.BOUND_CSV_HEADER,
                                      report.to_csv_rows())

    if args.jobs > 1 and len(epsilons) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, epsilons))
    else:
        results = [run(eps) for eps in epsilons]

    outputs = [p for _, written in results for p in written]
    summary = {
        "command": "bound",
        "outputs": outputs,
        "certified": True,  # an uncertified solve raises before this point
        "losses": {f"{rep.epsilon:g}": {str(m): v for m, v in rep.losses.items()}
                   for rep, _ in results},
    }
    _emit(summary)
    return 0


def cmd_pairwise(args) -> int:
    eps = hg._budget(args.epsilon)
    ds = _load_dataset(args)
    tol = _tolerances(args)
    matrix = bd.pairwise_binary_losses(ds, eps, tol)
    names = matrix.class_names or [str(i) for i in range(matrix.losses.shape[0])]
    doc = {"schema_version": bd.SCHEMA_VERSION, "epsilon": eps,
           "classes": names, "losses": matrix.losses.tolist(), "note": bd.PAIRWISE_NOTE}
    rows = [[names[i]] + [repr(float(v)) for v in matrix.losses[i]]
            for i in range(len(names))]
    written = _write_formats(_out_dir(args), f"pairwise_eps{eps:g}", args.format, doc,
                             ["class"] + names, rows)
    _emit({"command": "pairwise", "outputs": written,
           "max_entry": float(matrix.losses.max())})
    return 0


def cmd_strategy(args) -> int:
    eps = hg._budget(args.epsilon)
    ds = _load_dataset(args)
    _check_max_degree(args, ds)
    tol = _tolerances(args)
    loss, sol, graph = bd.optimal_loss(ds, eps, args.max_degree, tol=tol)
    strategy = bd.extract_strategy(sol, graph, tol)
    outdir = _out_dir(args)
    strat_path = outdir / f"strategy_eps{eps:g}_m{args.max_degree}.json"
    _write_atomic(strat_path, json.dumps(strategy.to_json_dict(), indent=2))
    q_path = outdir / f"classifier_eps{eps:g}_m{args.max_degree}.json"
    q_doc = {
        "schema_version": bd.SCHEMA_VERSION,
        "epsilon": eps,
        "max_degree": args.max_degree,
        "loss": loss,
        "q": sol.q.tolist(),
        "over_covered_vertices": [
            vs.vertex_id for vs in strategy.per_vertex if vs.over_covered
        ],
    }
    _write_atomic(q_path, json.dumps(q_doc, indent=2))
    _emit({"command": "strategy", "outputs": [str(strat_path), str(q_path)],
           "loss": loss, "cover_cost": strategy.cover_cost})
    return 0


def cmd_stats(args) -> int:
    ds = _load_dataset(args)
    stats = bd.class_distance_stats(ds)
    names = ds.class_names or [str(i) for i in range(ds.num_classes)]
    doc = {"schema_version": bd.SCHEMA_VERSION, "classes": names,
           "mean_nearest_other_class_distance": stats.tolist()}
    rows = [[names[c], repr(float(stats[c]))] for c in range(len(stats))]
    written = _write_formats(_out_dir(args), "class_stats", args.format, doc,
                             ["class", "mean_nearest_other_class_distance"], rows)
    _emit({"command": "stats", "outputs": written, "values": stats.tolist()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optloss",
        description="Optimal adversarial 0-1 loss and bounds for labeled point sets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen-gaussian", help="generate a Gaussian mixture dataset")
    gen.add_argument("--num-classes", type=int, default=3)
    gen.add_argument("--per-class", type=int, default=1000)
    gen.add_argument("--variance", type=float, default=0.05)
    gen.add_argument("--mean-radius", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--name", default="gaussian.json")
    _add_flags(gen)
    gen.set_defaults(func=cmd_gen_gaussian)

    build = subs.add_parser("build", help="build and export a conflict hypergraph")
    _add_dataset_args(build)
    build.add_argument("--epsilon", type=float, required=True)
    build.add_argument("--max-degree", type=int, default=2)
    _add_flags(build)
    build.set_defaults(func=cmd_build)

    bound = subs.add_parser("bound", help="compute the bound chain over an epsilon sweep")
    _add_dataset_args(bound)
    bound.add_argument("--epsilon", type=float, nargs="+", required=True)
    bound.add_argument("--max-degree", type=int, default=2)
    bound.add_argument("--hard-cap", type=int, default=bd.HARD_CAP,
                       help="exact hard-classifier search only up to this many vertices")
    bound.add_argument("--caro-wei-weights", default=None,
                       help="'uniform' or a JSON file of per-vertex weights "
                            "(default: the degree-2 packing solution)")
    _add_flags(bound, "--tol-gap", "--jobs", "--format")
    bound.set_defaults(func=cmd_bound)

    pair = subs.add_parser("pairwise", help="one-versus-one optimal losses (heatmap data)")
    _add_dataset_args(pair)
    pair.add_argument("--epsilon", type=float, required=True)
    _add_flags(pair, "--tol-gap", "--format")
    pair.set_defaults(func=cmd_pairwise)

    strat = subs.add_parser("strategy", help="export the optimal adversary and classifier")
    _add_dataset_args(strat)
    strat.add_argument("--epsilon", type=float, required=True)
    strat.add_argument("--max-degree", type=int, default=2)
    _add_flags(strat, "--tol-gap")
    strat.set_defaults(func=cmd_strategy)

    stats = subs.add_parser("stats", help="per-class nearest other-class distances")
    _add_dataset_args(stats)
    _add_flags(stats, "--format")
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # report failures as machine-readable JSON
        _emit({"error": str(exc), "type": type(exc).__name__, "command": args.command})
        return 2


if __name__ == "__main__":
    sys.exit(main())
