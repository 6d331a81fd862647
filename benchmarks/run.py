#!/usr/bin/env python3
"""Benchmark of the optloss pipeline: bound chain, adversary, classifier.

Run from the repository root:

    python3 benchmarks/run.py --workload pairs-2d --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 20   # every workload

One invocation measures one workload in its own process, so peak RSS
belongs to that workload alone (``all`` starts one process per workload).
It imports the library from ``src/`` next to this directory, generates the
workload from ``--seed``, warms up on a tiny instance and then repeats
iterations of the pipeline (see ``pipeline.py``) until ``--seconds`` have
passed. Timings are medians over the iterations. Every call uses jobs=1 and
BLAS is pinned to one thread before numpy is imported.

``--trace 0`` reports the end-to-end metrics: setup_s (imports, workload
generation and warm-up; the median of this process and two fresh ones),
bound_s, strategy_s, classify_qps and peak_rss_mb. Timings are scaled to a
nominal machine speed measured by a calibration kernel run between
the timed phases (``calibration.py``); the unscaled medians are printed on the
``# env`` line. error_rate is failed / attempted and is printed with the
metrics; it is not a declared metric because it is 0 when the program is
correct. ``--trace 1`` reports the
per-layer metrics of a traced run and writes its spans to
``.bench_out/trace-<workload>-seed<seed>.json``. The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.

For the default seed the bound chain must also match the values pinned in
``reference.json``. That file is edited by hand, and only on purpose: a
change that moves a pinned value is a change of the program's answers.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {
    "setup_s": "s",
    "bound_s": "s",
    "strategy_s": "s",
    "classify_qps": "queries/s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MB"
    if "ratio" in name or name.endswith("_rel"):
        return "ratio"
    if name.endswith("_residual"):
        return "abs"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="pairs-2d, triples-2d, mnist-like-784d, small-batch or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports, generation and warm-up, then exit")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup(workload: str, seed: int, tracer=None):
    """Generate the workload and warm up; returns (instances, setup root span)."""
    import pipeline
    import workloads
    from optloss import data

    make = workloads.WORKLOADS[workload]
    root = None
    if tracer is None:
        instances = make(seed)
    else:
        saved = {name: getattr(data, name) for name in ("gen_gaussian", "from_arrays")}
        try:
            for name, fn in saved.items():
                setattr(data, name, tracer.spanned(lambda *a, _n=name, **k: f"data.{_n}", fn))
            with tracer.span("setup.workload") as root:
                instances = make(seed)
        finally:
            for name, fn in saved.items():
                setattr(data, name, fn)
    pipeline.Bench([workloads.warmup_instance(seed)]).iteration()
    return instances, root


def child_setup(args) -> tuple[float, float]:
    """(raw, calibrated) set-up seconds of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"setup child failed: {res.stderr.strip()[-500:]}")
    raw, scaled = json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]
    return float(raw), float(scaled)


def load_pins(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads(REFERENCE.read_text())["workloads"].get(workload)
    if pins is None:
        raise SystemExit(f"no pinned reference for {workload} in {REFERENCE.name}")
    return pins


def end_to_end(samples: dict, scales: list[float]) -> tuple[dict, dict]:
    """Unscaled and scaled medians over iterations of the timed phases.

    ``scales`` holds one factor per phase of every iteration, in run order.
    """
    from pipeline import Bench

    phases = Bench.PHASES
    out = []
    for scale in ([1.0] * len(scales), scales):
        per_phase = {phase: [samples[f"{phase}_s"][i] * scale[len(phases) * i + p]
                             for i in range(len(samples["queries"]))]
                     for p, phase in enumerate(phases)}
        qps = [q / c for q, c in zip(samples["queries"], per_phase["classify"]) if c > 0]
        out.append({
            "bound_s": statistics.median(per_phase["bound"]),
            "strategy_s": statistics.median(per_phase["strategy"]),
            "classify_qps": statistics.median(qps) if qps else 0.0,
        })
    return out[0], out[1]


def layer_metrics(bench, tracer, setup_root) -> dict:
    """Medians over iterations of the traced per-layer figures."""
    from spans import layer_of, summarize

    names = bench.layer_samples[0].keys()
    out = {name: statistics.median(s[name] for s in bench.layer_samples) for name in names}
    for name in names:
        if name.startswith("lp_core.max_"):  # running maxima over the whole run
            out[name] = bench.layer_samples[-1][name]
    setup_spans = tracer.subtree(setup_root)
    parents = {s.id: s.name for s in setup_spans}
    out["data.gen_s"] = sum(s.duration for s in setup_spans if layer_of(s.name) == "data"
                            and layer_of(parents.get(s.parent, "")) != "data")
    out["data.self_s"] = summarize(setup_spans)["self_s"].get("data", 0.0)
    return dict(sorted(out.items()))


def run_one(args) -> int:
    import calibration
    import pipeline
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.context = {"workload": args.workload}
    instances, setup_root = setup(args.workload, args.seed, tracer)
    own_setup = time.perf_counter() - _STARTED
    own_setup = (own_setup, own_setup * calibration.NOMINAL_S / calibration.reading())
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    bench = pipeline.Bench(instances, load_pins(args.workload, args.seed), tracer,
                           between=calibration.reading if tracer is None else None)
    deadline = time.perf_counter() + args.seconds
    while True:
        bench.iteration()
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    env = environment()

    if tracer is None:
        setups = [own_setup] + [child_setup(args) for _ in range(SETUP_CHILDREN)]
        unscaled, values = end_to_end(bench.samples, calibration.scales(bench.readings))
        values["setup_s"] = statistics.median(scaled for _, scaled in setups)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        unscaled["setup_s"] = statistics.median(raw for raw, _ in setups)
        env["unscaled"] = unscaled
        env["calibration_kernel_s"] = statistics.median(bench.readings)
    else:
        values = layer_metrics(bench, tracer, setup_root)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "metrics": values, "per_iteration": bench.layer_samples,
            "spans": [s.to_json() for s in tracer.spans],
        }))

    outcome = bench.outcome
    iterations = len(bench.samples["bound_s"])
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {iterations}  instances {len(instances)}")
    print("# env " + json.dumps(env))
    for name, metric in metrics.items():
        print(f"# {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"# {'error_rate':<34} {outcome.failed / max(outcome.attempted, 1):>14.6g} "
          f"fraction ({outcome.failed} of {outcome.attempted} operations failed)")
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints a table and a combined result."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            print(res.stdout + res.stderr, file=sys.stderr)
            return res.returncode
        lines = res.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("# env")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optloss" / "__init__.py").is_file():
        print(f"error: no optloss sources at {SRC.relative_to(ROOT)}/optloss; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
