"""The command line end to end: each command through ``cli.main`` on the files
it generates, what it writes checked against a brute force, one
``python -m optloss`` run for the module entry point, and a run of each demo."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optloss
from optloss.cli import main
from optloss.hypergraph import EXTEND_BATCH, SWEEP_BLOCK

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run(*argv) -> dict:
    """``optloss argv`` in process; its stdout JSON, after checking it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue())


def run_python(*argv, cwd: Path) -> subprocess.CompletedProcess:
    """``python -W error argv`` in a subprocess that imports this optloss."""
    src = str(Path(optloss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def write_dataset(path: Path, points, labels, masses=None) -> Path:
    """A dataset JSON file; uniform masses unless ``masses`` is given."""
    masses = np.full(len(labels), 1.0 / len(labels)) if masses is None else masses
    path.write_text(json.dumps({"points": np.asarray(points).tolist(),
                                "labels": np.asarray(labels).tolist(),
                                "masses": np.asarray(masses).tolist()}))
    return path


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    """g.json (K = 3, 40 per class) and g4.json (K = 4, 10 per class), both
    seed 3, from gen-gaussian, and g4dup.json: g4 with its three class-0
    points nearest the origin repeated under class 1."""
    out = tmp_path_factory.mktemp("entry")
    run("gen-gaussian", "--per-class", 40, "--seed", 3, "--out", out, "--name", "g.json")
    run("gen-gaussian", "--num-classes", 4, "--per-class", 10, "--seed", 3,
        "--out", out, "--name", "g4.json")
    doc = json.loads((out / "g4.json").read_text())
    pts, labels = np.array(doc["points"]), np.array(doc["labels"])
    near = np.flatnonzero(labels == 0)[np.argsort(np.linalg.norm(pts[labels == 0], axis=1))[:3]]
    write_dataset(out / "g4dup.json", np.vstack([pts, pts[near]]), labels.tolist() + [1, 1, 1])
    return out


def test_each_command_runs_and_bound_picks_its_backends(out):
    # the flow backend reads its two sides off the labels: at eps 2.0 this
    # data's pairs join two classes, so L*(2) is a min cut; at 2.4 they span
    # three and L*(2) goes to HiGHS; the one-versus-one problems, and L*(2)
    # of classes 0 and 1 alone, are min cuts
    data = out / "g.json"
    run("bound", "--data", data, "--epsilon", 2.0, 2.4, "--max-degree", 3,
        "--format", "both", "--out", out)
    run("bound", "--data", data, "--classes", 0, 1, "--epsilon", 2.4, "--max-degree", 2,
        "--out", out / "two")
    want = {"bound_eps2.json": ("flow", "flow"), "bound_eps2.4.json": ("highs", "flow"),
            "two/bound_eps2.4.json": ("flow", "flow")}
    for name, backends in want.items():
        got = json.loads((out / name).read_text())["solver_backends"]
        assert (got["solve_2"], got["pairwise"]) == backends, name
    run("pairwise", "--data", data, "--epsilon", 2.4, "--out", out)
    run("stats", "--data", data, "--out", out)


def test_k4_data_has_degree_4_edges(out):
    printed = run("build", "--data", out / "g4.json", "--epsilon", 2.8, "--max-degree", 4,
                  "--out", out / "g4")
    assert "4" in printed["edge_counts"]


# at eps 2.4 g has pairs only; 2.6 adds 58 triples, so triangle witnesses are
# read too; the K = 4 data at 2.8 has degree-4 edges, whose witnesses come
# from the k >= 4 rule
@pytest.mark.parametrize("name, eps, m", [("g", 2.4, 3), ("g", 2.6, 3), ("g4", 2.8, 4),
                                          ("g4dup", 2.8, 4)])
def test_every_played_witness_indexes_the_witness_list(out, name, eps, m):
    run("strategy", "--data", out / f"{name}.json", "--epsilon", eps, "--max-degree", m,
        "--out", out / name)
    doc = json.loads((out / name / f"strategy_eps{eps:g}_m{m}.json").read_text())
    n = len(doc["witnesses"])
    plays = [play for entry in doc["vertices"] for play in entry["plays"]]
    bad = [play for play in plays if play["witness"] is not None
           and not (type(play["witness"]) is int and 0 <= play["witness"] < n)]
    assert n and not bad


# nothing reads the hypergraph file that build writes: each edge's ids sorted,
# in 0..n-1 and of distinct labels, every (k-1)-face of a k-edge an edge, and
# the per-degree counts those printed on stdout
@pytest.mark.parametrize("name, eps, m", [("g", 2.4, 3), ("g", 2.6, 3), ("g4dup", 2.8, 4)])
def test_build_file_is_valid_and_closed_under_faces(out, name, eps, m):
    printed = run("build", "--data", out / f"{name}.json", "--epsilon", eps,
                  "--max-degree", m, "--out", out / name)["edge_counts"]
    doc = json.loads((out / name / f"hypergraph_eps{eps:g}_m{m}.json").read_text())
    n = len(doc["vertices"])
    labels = [v["label"] for v in doc["vertices"]]
    edges = {tuple(e) for e in doc["edges"]}
    bad = [e for e in doc["edges"]
           if not all(type(i) is int and 0 <= i < n for i in e)
           or e != sorted(set(e)) or len({labels[i] for i in e}) < len(e)]
    open_faces = [e for e in edges if len(e) > 2
                  and any(e[:p] + e[p + 1:] not in edges for p in range(len(e)))]
    counts = {}
    for e in doc["edges"]:
        counts[str(len(e))] = counts.get(str(len(e)), 0) + 1
    assert not bad and not open_faces and counts == printed


def test_a_coincident_pair_reaches_a_degree_4_edge(out):
    # a degree-4 candidate or witness subset holding a coincident pair has an
    # exactly singular distance matrix, which the circumradius solve must flag
    # without a warning; that path ran only if some such edge was accepted
    run("build", "--data", out / "g4dup.json", "--epsilon", 2.8, "--max-degree", 4,
        "--out", out / "dup")
    pts = json.loads((out / "g4dup.json").read_text())["points"]
    doc = json.loads((out / "dup" / "hypergraph_eps2.8_m4.json").read_text())
    edges = [e for e in doc["edges"] if len(e) == 4]
    assert [e for e in edges if any(pts[a] == pts[b] for a in e for b in e if a < b)]


def test_pair_graph_across_gram_tile_boundaries(tmp_path):
    # the pair sweep walks class-sorted strips in 2048 x 2048 Gram tiles: 2100
    # points of class 1 span two row tiles, and the 2200 later-class columns
    # of class 0 two column tiles; the pairs that build writes must equal a
    # brute force over all cross-class coordinate differences
    rng = np.random.default_rng(29)
    labels = rng.permutation(np.repeat([0, 1, 2], [50, 2100, 100]))
    assert (labels == 1).sum() > SWEEP_BLOCK
    pts = rng.normal(size=(labels.size, 2)) + 0.5 * labels[:, None]
    data = write_dataset(tmp_path / "tiles.json", pts, labels)
    run("build", "--data", data, "--epsilon", 0.15, "--max-degree", 2, "--out", tmp_path)
    d2 = sum((x[:, None] - x[None, :]) ** 2 for x in pts.T)
    i, j = np.nonzero(np.triu((d2 <= (2 * 0.15 * (1 + 1e-9)) ** 2)
                              & (labels[:, None] != labels[None, :]), 1))
    want = set(zip(i.tolist(), j.tolist()))
    got = {tuple(e) for e in json.loads((tmp_path / "hypergraph_eps0.15_m2.json").read_text())
           ["edges"]}
    assert got == want and want


def test_triangles_across_extension_batches(tmp_path):
    # 360 points of three classes in the unit square at eps 0.15 give more
    # (u, v, w) wedges than one extension batch holds, so the triangles come
    # from several batches, each reading its closing pairs from its own table;
    # the pairs and triples that build writes must equal a brute force over
    # all cross-class pairs and triples, whose enclosing radius is half the
    # longest side when some angle is not acute (a dot product at a vertex
    # <= 0) and abc / (2 |cross product|) otherwise
    rng = np.random.default_rng(41)
    labels = np.repeat([0, 1, 2], 120)
    pts = rng.uniform(size=(labels.size, 2))
    data = write_dataset(tmp_path / "wedges.json", pts, labels)
    run("build", "--data", data, "--epsilon", 0.15, "--max-degree", 3, "--out", tmp_path)
    eps = 0.15 * (1 + 1e-9)
    edges = json.loads((tmp_path / "hypergraph_eps0.15_m3.json").read_text())["edges"]
    got2 = {tuple(e) for e in edges if len(e) == 2}
    got3 = {tuple(e) for e in edges if len(e) == 3}
    d2 = sum((x[:, None] - x[None, :]) ** 2 for x in pts.T)
    i, j = np.nonzero(np.triu((d2 <= (2 * eps) ** 2) & (labels[:, None] != labels[None, :]), 1))
    want2 = set(zip(i.tolist(), j.tolist()))
    forward = np.bincount(i, minlength=labels.size)
    wedges = int(forward[j].sum())
    a, b, c = (np.flatnonzero(labels == k) for k in range(3))
    a, b, c = (x.ravel() for x in np.meshgrid(a, b, c, indexing="ij"))
    pa, pb, pc = pts[a], pts[b], pts[c]

    def dot(p, q, r):
        return ((q - p) * (r - p)).sum(axis=1)

    ab, bc, ca = (np.sqrt(((p - q) ** 2).sum(axis=1)) for p, q in ((pa, pb), (pb, pc), (pc, pa)))
    cross = np.abs((pb - pa)[:, 0] * (pc - pa)[:, 1] - (pb - pa)[:, 1] * (pc - pa)[:, 0])
    right = (dot(pa, pb, pc) <= 0) | (dot(pb, pc, pa) <= 0) | (dot(pc, pa, pb) <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(right, np.maximum(np.maximum(ab, bc), ca) / 2,
                          ab * bc * ca / (2 * cross))
    keep = radius <= eps
    want3 = {tuple(sorted(t)) for t in zip(a[keep].tolist(), b[keep].tolist(), c[keep].tolist())}
    assert wedges > EXTEND_BATCH and got2 == want2 and got3 == want3 and want3


def test_bound_and_pairwise_certify_through_the_highs_rerun(tmp_path):
    # the data of test_bounds' test_pairwise_union_certifies_every_pair_in_its_own_units:
    # its lightest mass, 2.3e-8, lies between the certificate's 1e-8 and
    # HiGHS's default 1e-7 feasibility tolerance, so every LP here goes to
    # HiGHS, whose first answer leaves that vertex uncovered; bound and
    # pairwise certify only through the rerun with tighter HiGHS tolerances
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(60, 2)) * 0.5
    data = write_dataset(tmp_path / "light.json", pts, np.arange(60) % 3,
                         rng.dirichlet(np.full(60, 0.5)))
    run("bound", "--data", data, "--epsilon", 0.2, "--max-degree", 3, "--out", tmp_path)
    run("pairwise", "--data", data, "--epsilon", 0.2, "--out", tmp_path)
    report = json.loads((tmp_path / "bound_eps0.2.json").read_text())
    losses = json.loads((tmp_path / "pairwise_eps0.2.json").read_text())["losses"]
    assert report["certified"] is True
    assert report["solver_backends"]["pairwise"] == "highs"
    assert all(math.isfinite(v) for row in losses for v in row)


def test_module_entry_point_passes_the_exit_status_on(tmp_path):
    # __main__ only does sys.exit(main()), and only a failing run shows that
    # the status gets through: labels [0, 2, 2] leave class 1 empty, so bound
    # exits 2 with the error JSON on stdout and writes no report (the same
    # case in process: test_cli's test_bound_rejects_a_dataset_missing_a_class)
    data = write_dataset(tmp_path / "gap.json", [[0.0], [1.0], [2.0]], [0, 2, 2],
                         [0.5, 0.25, 0.25])
    done = run_python("-m", "optloss", "bound", "--data", str(data),
                      "--epsilon", "0.6", "--out", str(tmp_path / "reports"), cwd=tmp_path)
    assert done.returncode == 2, done.stderr
    assert "class 1 has none" in json.loads(done.stdout)["error"]
    assert not list(tmp_path.glob("reports/*"))


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_each_demo_runs_without_a_warning(demo, tmp_path):
    # the demos read strategies and witnesses through the public API; a
    # stray warning on their path fails too
    done = run_python(str(demo), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout
