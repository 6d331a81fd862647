"""CLI behavior: thin-shell equivalence with library calls, schemas, exits."""

import csv
import importlib
import json
import os
import re
import shlex
import stat
from pathlib import Path

import numpy as np
import pytest
from test_data import make_idx_images, make_idx_labels

from optloss import bounds as bd
from optloss import cli
from optloss import data as dt
from optloss import hypergraph as hg
from optloss import lp_core
from optloss.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


@pytest.fixture
def gaussian_file(tmp_path):
    ds = dt.gen_gaussian(num_classes=3, per_class=8, variance=0.05, seed=3)
    path = tmp_path / "g.json"
    path.write_text(dt.dataset_to_json(ds))
    return path, ds


def test_gen_gaussian_writes_dataset(tmp_path, capsys):
    code, out = run_cli(
        capsys, "gen-gaussian", "--per-class", "5", "--variance", "0.05",
        "--seed", "11", "--out", str(tmp_path), "--name", "toy.json",
    )
    assert code == 0
    assert out["command"] == "gen-gaussian"
    ds = dt.dataset_from_json((tmp_path / "toy.json").read_text())
    expected = dt.gen_gaussian(num_classes=3, per_class=5, variance=0.05, seed=11)
    assert np.array_equal(ds.points, expected.points)


def test_build_exports_hypergraph(tmp_path, capsys, gaussian_file):
    path, ds = gaussian_file
    code, out = run_cli(
        capsys, "build", "--data", str(path), "--epsilon", "2.0",
        "--max-degree", "3", "--out", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "hypergraph_eps2_m3.json").read_text())
    assert doc["epsilon"] == 2.0
    assert doc["max_degree"] == 3
    assert len(doc["vertices"]) == ds.num_points


def test_bound_matches_direct_library_calls(tmp_path, capsys, gaussian_file):
    path, ds = gaussian_file
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "2.0", "2.6",
        "--max-degree", "3", "--format", "both", "--out", str(tmp_path),
    )
    assert code == 0
    assert out["certified"] is True
    for eps in (2.0, 2.6):
        doc = json.loads((tmp_path / f"bound_eps{eps:g}.json").read_text())
        report = bd.bound_report(ds, eps, m_max=3)
        for m in (2, 3):
            assert doc["losses"][str(m)] == pytest.approx(report.losses[m], abs=1e-9)
        assert doc["class_only_2"] == pytest.approx(report.class_only_2, abs=1e-9)
        assert doc["caro_wei"] == pytest.approx(report.caro_wei, abs=1e-9)
        assert doc["hard_bruteforce"] == pytest.approx(
            report.hard_bruteforce, abs=1e-9
        )
        assert doc["schema_version"] == 1
        for hist in doc["q_histograms"].values():
            assert len(hist["counts"]) == 20
        with open(tmp_path / f"bound_eps{eps:g}.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == bd.BOUND_CSV_HEADER
        values = {row[2]: float(row[3]) for row in rows[1:] if row[3]}
        assert values["lstar_2"] == pytest.approx(report.losses[2], abs=1e-9)


def test_bound_caro_wei_weight_sources(tmp_path, capsys, gaussian_file):
    path, ds = gaussian_file
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "2.4",
        "--caro-wei-weights", "uniform", "--out", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "bound_eps2.4.json").read_text())
    direct = bd.bound_report(ds, 2.4, caro_wei_weights=np.ones(ds.num_points))
    assert doc["caro_wei"] == pytest.approx(direct.caro_wei, abs=1e-9)

    weight_file = tmp_path / "w.json"
    weight_file.write_text(json.dumps([1.0] * ds.num_points))
    code, _ = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "2.4",
        "--caro-wei-weights", str(weight_file), "--out", str(tmp_path / "f"),
    )
    assert code == 0
    doc2 = json.loads((tmp_path / "f" / "bound_eps2.4.json").read_text())
    assert doc2["caro_wei"] == pytest.approx(direct.caro_wei, abs=1e-9)

    weight_file.write_text(json.dumps([1.0] * (ds.num_points - 1)))
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "2.4",
        "--caro-wei-weights", str(weight_file), "--out", str(tmp_path / "short"),
    )
    assert code == 2
    assert out["error"] == (f"weights file has ({ds.num_points - 1},) entries, "
                            f"dataset has {ds.num_points}")
    assert not list(tmp_path.glob("short/*"))


def test_bound_sweep_jobs_consistent(tmp_path, capsys, gaussian_file):
    path, _ = gaussian_file
    code1, out1 = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "1.5", "2.0", "2.5",
        "--out", str(tmp_path / "a"), "--jobs", "1",
    )
    code2, out2 = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "1.5", "2.0", "2.5",
        "--out", str(tmp_path / "b"), "--jobs", "3",
    )
    assert code1 == code2 == 0
    assert out1["losses"] == out2["losses"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bound_rejects_jobs_below_one_before_any_work(tmp_path, capsys, jobs):
    # both used to run the sweep serially and exit 0; the missing data file
    # shows that nothing was loaded before the check
    code, out = run_cli(capsys, "bound", "--data", str(tmp_path / "absent.json"),
                        "--epsilon", "2.4", "--jobs", jobs, "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == {"error": f"--jobs must be at least 1, got {jobs}",
                   "type": "ValueError", "command": "bound"}
    assert not (tmp_path / "out").exists()


def test_bound_rejects_a_negative_hard_cap_before_any_work(tmp_path, capsys):
    # -5 used to skip the exact search and write "hard_bruteforce": null
    code, out = run_cli(capsys, "bound", "--data", str(tmp_path / "absent.json"),
                        "--epsilon", "2.4", "--hard-cap", "-5", "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == {"error": "--hard-cap must be at least 0, got -5",
                   "type": "ValueError", "command": "bound"}
    assert not (tmp_path / "out").exists()


def test_bound_monotone_in_epsilon(tmp_path, capsys, gaussian_file):
    path, _ = gaussian_file
    code, out = run_cli(
        capsys, "bound", "--data", str(path),
        "--epsilon", "1.0", "1.5", "2.0", "2.5", "3.0",
        "--out", str(tmp_path),
    )
    assert code == 0
    losses = [out["losses"][f"{e:g}"]["2"] for e in (1.0, 1.5, 2.0, 2.5, 3.0)]
    assert all(a <= b + 1e-9 for a, b in zip(losses, losses[1:]))


def test_pairwise_outputs(tmp_path, capsys, gaussian_file):
    path, ds = gaussian_file
    code, out = run_cli(
        capsys, "pairwise", "--data", str(path), "--epsilon", "2.2",
        "--format", "both", "--out", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "pairwise_eps2.2.json").read_text())
    direct = bd.pairwise_binary_losses(ds, 2.2)
    assert np.allclose(doc["losses"], direct.losses, atol=1e-9)
    with open(tmp_path / "pairwise_eps2.2.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "class"
    assert len(rows) == ds.num_classes + 1


def test_strategy_outputs(tmp_path, capsys, gaussian_file):
    path, ds = gaussian_file
    code, out = run_cli(
        capsys, "strategy", "--data", str(path), "--epsilon", "2.4",
        "--max-degree", "3", "--out", str(tmp_path),
    )
    assert code == 0
    loss, sol, graph = bd.optimal_loss(ds, 2.4, 3)
    assert out["loss"] == pytest.approx(loss, abs=1e-9)
    strat = json.loads((tmp_path / "strategy_eps2.4_m3.json").read_text())
    assert len(strat["vertices"]) == ds.num_points
    assert strat["witnesses"]  # some edge is played
    for entry in strat["vertices"]:
        total = sum(play["probability"] for play in entry["plays"])
        assert total == pytest.approx(1.0, abs=1e-8)
        for play in entry["plays"]:
            # null is the unperturbed point, the vertex's own dataset row
            members = play["edge"] or [entry["vertex"]]
            assert (play["witness"] is None) == (play["edge"] is None)
            witness = (ds.points[entry["vertex"]] if play["witness"] is None
                       else np.array(strat["witnesses"][play["witness"]]))
            dists = np.linalg.norm(ds.points[members] - witness, axis=1)
            assert dists.max() <= 2.4 * (1 + 1e-9)
    qdoc = json.loads((tmp_path / "classifier_eps2.4_m3.json").read_text())
    assert np.array(qdoc["q"]).tobytes() == sol.q.tobytes()


def test_strategy_classifier_document_rebuilds_its_table(tmp_path, capsys):
    # HiGHS leaves a q of this instance at 1.0000000000000004; the document
    # holds the solve's q, inside [0, 1], which a table accepts
    ds = dt.gen_gaussian(num_classes=3, per_class=8, seed=29)
    path = tmp_path / "g.json"
    path.write_text(dt.dataset_to_json(ds))
    loss, sol, graph = bd.optimal_loss(ds, 3.0, 3)
    # a wide LP, so the q is the covering path's
    raw_q, _ = lp_core._highs_covering(sol.lp.masses, sol.lp.incidence.matrix,
                                       lp_core.Tolerances())
    assert raw_q.max() > 1.0
    code, out = run_cli(capsys, "strategy", "--data", str(path), "--epsilon", "3",
                        "--max-degree", "3", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "classifier_eps3_m3.json").read_text())
    table = bd.SoftClassifierTable(ds.points, ds.labels, ds.num_classes, doc["epsilon"], doc["q"])
    assert table.q.tobytes() == bd.SoftClassifierTable.from_solution(ds, 3.0, sol).q.tobytes()


def test_strategy_builds_no_classifier_table(tmp_path, capsys, monkeypatch, gaussian_file):
    built = []
    post_init = bd.SoftClassifierTable.__post_init__

    def counted(table):
        built.append(table)
        post_init(table)

    monkeypatch.setattr(bd.SoftClassifierTable, "__post_init__", counted)
    path, ds = gaussian_file
    bd.SoftClassifierTable(ds.points, ds.labels, ds.num_classes, 2.4, np.zeros(ds.num_points))
    assert len(built) == 1  # the count sees a construction
    code, _ = run_cli(capsys, "strategy", "--data", str(path), "--epsilon", "2.4",
                      "--max-degree", "3", "--out", str(tmp_path))
    assert code == 0
    assert len(built) == 1


def test_stats_outputs(tmp_path, capsys, gaussian_file):
    path, ds = gaussian_file
    code, out = run_cli(
        capsys, "stats", "--data", str(path), "--format", "both",
        "--out", str(tmp_path),
    )
    assert code == 0
    direct = bd.class_distance_stats(ds)
    assert np.allclose(out["values"], direct, atol=1e-12)
    doc = json.loads((tmp_path / "class_stats.json").read_text())
    assert np.allclose(doc["mean_nearest_other_class_distance"], direct)


def test_missing_epsilon_is_usage_error(capsys, gaussian_file):
    path, _ = gaussian_file
    with pytest.raises(SystemExit) as err:
        main(["bound", "--data", str(path)])
    assert err.value.code != 0


def test_failure_emits_error_json(tmp_path, capsys):
    code, out = run_cli(
        capsys, "bound", "--data", str(tmp_path / "missing.json"),
        "--epsilon", "1.0", "--out", str(tmp_path),
    )
    assert code == 2
    assert "error" in out
    # a dataset without masses used to print {"error": "'masses'", "type": "KeyError"}
    data = tmp_path / "massless.json"
    data.write_text(json.dumps({"points": [[0.0], [1.0]], "labels": [0, 1]}))
    code, out = run_cli(capsys, "bound", "--data", str(data), "--epsilon", "1.0",
                        "--out", str(tmp_path))
    assert code == 2
    assert out["type"] == "ValueError" and out["error"] == "dataset JSON has no masses field"


def test_invalid_max_degree_rejected(tmp_path, capsys, gaussian_file):
    path, _ = gaussian_file
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "1.0",
        "--max-degree", "9", "--out", str(tmp_path),
    )
    assert code == 2
    assert "max-degree" in out["error"]


@pytest.mark.parametrize("max_degree", ["1", "4"])
def test_build_rejects_max_degree_outside_class_count(tmp_path, capsys, gaussian_file, max_degree):
    # 1 used to write a degree-2 graph named _m1; the dataset has 3 classes
    path, _ = gaussian_file
    code, out = run_cli(
        capsys, "build", "--data", str(path), "--epsilon", "1.0",
        "--max-degree", max_degree, "--out", str(tmp_path),
    )
    assert code == 2
    assert "max-degree" in out["error"]
    assert not list(tmp_path.glob("hypergraph_*.json"))


def test_classes_flag_rejects_a_repeated_id(tmp_path, capsys, gaussian_file):
    # --classes 0 0 2 used to list class 0's rows twice
    path, _ = gaussian_file
    code, out = run_cli(
        capsys, "stats", "--data", str(path), "--classes", "0", "0", "2",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "class 0 is listed more than once" in out["error"]
    assert not list(tmp_path.glob("class_stats*"))


@pytest.mark.parametrize("command", ["strategy", "bound"])
def test_a_nan_mass_is_rejected_at_load(tmp_path, capsys, command):
    # strategy used to exit 0 and certify loss 0.25 without the NaN vertex;
    # bound failed inside linprog
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8], [5.0, 5.0]],
        "labels": [0, 1, 2, 0], "masses": [0.25, float("nan"), 0.5, 0.25],
    }))
    code, out = run_cli(
        capsys, command, "--data", str(path), "--epsilon", "0.6", "--max-degree", "3",
        "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert out["type"] == "ValueError" and "masses" in out["error"]
    assert not list(tmp_path.glob("out/*"))


def test_bound_rejects_a_dataset_missing_a_class(tmp_path, capsys):
    # labels [0, 2, 2] used to load as three classes and warn "empty side"
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0], [2.0]], "labels": [0, 2, 2],
                                "masses": [0.5, 0.25, 0.25]}))
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "0.6",
        "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert out["type"] == "ValueError" and "class 1 has none" in out["error"]
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("argv", [["pairwise", "--epsilon", "0.6", "--format", "both"],
                                  ["stats"], ["bound", "--classes", "0", "2", "--epsilon", "0.6"]])
def test_a_class_names_list_of_the_wrong_length_is_rejected_at_load(tmp_path, capsys, argv):
    # pairwise used to exit 0 with a CSV header naming one class over rows of
    # three losses; stats and bound --classes failed with an IndexError
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0], [2.0]], "labels": [0, 1, 2],
                                "masses": [0.5, 0.25, 0.25], "class_names": ["a"]}))
    code, out = run_cli(capsys, *argv, "--data", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert out["type"] == "ValueError" and "class_names has length 1" in out["error"]
    assert not list(tmp_path.glob("out/*"))


def test_class_names_that_are_not_a_list_are_rejected_at_load(tmp_path, capsys):
    # "abc" used to load; pairwise then exited 2 with a TypeError
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0], [2.0]], "labels": [0, 1, 2],
                                "masses": [0.5, 0.25, 0.25], "class_names": "abc"}))
    code, out = run_cli(capsys, "pairwise", "--epsilon", "0.6", "--data", str(path),
                        "--out", str(tmp_path / "out"))
    assert code == 2
    assert out["type"] == "ValueError"
    assert "class_names must be a list of strings" in out["error"]
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("budgets", [("2.4000001", "2.4000002"), ("2.4", "2.4"),
                                     ("0", "-0.0")])
def test_bound_rejects_budgets_that_share_a_report_name(tmp_path, capsys, gaussian_file,
                                                        budgets):
    # both budgets used to write one bound_eps2.4.json, listed twice under
    # "outputs", with one entry in "losses", and exit 0; 0 and -0.0 wrote
    # bound_eps0.json and bound_eps-0.json for one budget
    path, _ = gaussian_file
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", *budgets,
        "--out", str(tmp_path / "out"),
    )
    first = abs(float(budgets[0]))
    assert code == 2
    assert f"budgets {first!r} and" in out["error"] and f"bound_eps{first:g}" in out["error"]
    assert not (tmp_path / "out").exists()


def test_bound_names_a_negative_zero_budget_as_zero(tmp_path, capsys, gaussian_file):
    # -0.0 used to write bound_eps-0.json, with the loss key "-0"
    path, _ = gaussian_file
    code, out = run_cli(capsys, "bound", "--data", str(path), "--epsilon", "-0.0",
                        "--out", str(tmp_path))
    assert code == 0
    assert out["outputs"] == [str(tmp_path / "bound_eps0.json")]
    assert list(out["losses"]) == ["0"]
    assert json.loads((tmp_path / "bound_eps0.json").read_text())["epsilon"] == 0.0


def test_single_budget_commands_name_a_negative_zero_budget_as_zero(tmp_path, capsys,
                                                                   gaussian_file):
    # build, pairwise and strategy used to name their files from the raw
    # budget: hypergraph_eps-0_m2.json, pairwise_eps-0.json and so on
    path, _ = gaussian_file
    common = ("--data", str(path), "--epsilon", "-0.0", "--out", str(tmp_path))
    for command, extra in (("build", ("--max-degree", "2")),
                           ("pairwise", ("--format", "both")),
                           ("strategy", ("--max-degree", "2"))):
        code, _ = run_cli(capsys, command, *common, *extra)
        assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "classifier_eps0_m2.json", "g.json", "hypergraph_eps0_m2.json", "pairwise_eps0.csv",
        "pairwise_eps0.json", "strategy_eps0_m2.json"]
    for name in ("pairwise_eps0.json", "classifier_eps0_m2.json"):
        epsilon = json.loads((tmp_path / name).read_text())["epsilon"]
        assert epsilon == 0.0 and str(epsilon) == "0.0"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
def test_bound_rejects_non_finite_caro_wei_weights(tmp_path, capsys, gaussian_file, bad):
    # a NaN weight used to write "caro_wei": NaN into a certified report,
    # and a negative one was read as 0
    path, ds = gaussian_file
    weight_file = tmp_path / "w.json"
    weight_file.write_text(json.dumps([bad] + [1.0] * (ds.num_points - 1)))
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "2.4",
        "--caro-wei-weights", str(weight_file), "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "weights must be finite and nonnegative" in out["error"]
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_bound_rejects_a_caro_wei_weight_beyond_float_range(tmp_path, capsys, gaussian_file,
                                                            sign):
    # an integer literal of 401 digits used to exit as "OverflowError: int too
    # large to convert to float", where 1e999 gets the weights ValueError
    path, ds = gaussian_file
    weight_file = tmp_path / "w.json"
    weight_file.write_text(json.dumps([sign * 10**400] + [1] * (ds.num_points - 1)))
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "2.4",
        "--caro-wei-weights", str(weight_file), "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert out["type"] == "ValueError"
    assert out["error"] == "weights must be finite and nonnegative"
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("doc", [{"a": 1}, ["x"], [None, 1.0], [True], [[1.0]]],
                         ids=["object", "string", "null", "bool", "nested"])
def test_bound_rejects_a_caro_wei_weights_file_that_is_not_a_list_of_numbers(
        tmp_path, capsys, gaussian_file, doc):
    # an object used to fail inside float() as "TypeError: float() argument
    # must be a string or a real number, not 'dict'"
    path, ds = gaussian_file
    weight_file = tmp_path / "w.json"
    weight_file.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", "2.4",
        "--caro-wei-weights", str(weight_file), "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert out["type"] == "ValueError"
    assert out["error"] == (f"weights file {weight_file} must hold a JSON list of "
                            f"{ds.num_points} numbers")
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("command", ["bound", "build", "strategy"])
def test_degree_commands_refuse_a_one_class_dataset(tmp_path, capsys, command):
    # the message used to read "--max-degree must lie in [2, 1]"
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0]], "labels": [0, 0],
                                "masses": [0.5, 0.5]}))
    code, out = run_cli(capsys, command, "--data", str(path), "--epsilon", "0.6",
                        "--out", str(tmp_path / "out"))
    assert code == 2
    assert out["error"] == "need at least two classes"
    assert not list(tmp_path.glob("out/*"))


def test_out_dir_from_environment(tmp_path, capsys, monkeypatch, gaussian_file):
    path, _ = gaussian_file
    monkeypatch.setenv("OPTLOSS_OUT", str(tmp_path / "envout"))
    code, out = run_cli(capsys, "stats", "--data", str(path))
    assert code == 0
    assert (tmp_path / "envout" / "class_stats.json").exists()


def test_csv_subset_flags(tmp_path, capsys):
    lines = [f"{label},{x},0.0" for x, label in zip(range(8), [0, 1, 2, 0, 1, 2, 0, 1])]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(lines) + "\n")
    code, out = run_cli(
        capsys, "stats", "--data", str(data), "--classes", "0", "1",
        "--per-class", "2", "--out", str(tmp_path),
    )
    assert code == 0
    assert len(out["values"]) == 2


def test_a_per_class_cap_below_one_is_rejected(tmp_path, capsys, gaussian_file):
    # --per-class -1 used to keep all but the last point of each class and exit 0
    path, _ = gaussian_file
    code, out = run_cli(
        capsys, "stats", "--data", str(path), "--per-class", "-1",
        "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert out["type"] == "ValueError" and "per-class cap must be at least 1" in out["error"]
    assert not list(tmp_path.glob("out/*"))


def test_each_command_takes_only_the_flags_it_reads(capsys):
    dataset = {"--data", "--idx-images", "--idx-labels", "--normalize", "--classes",
               "--per-class"}
    expected = {
        "gen-gaussian": {"--num-classes", "--per-class", "--variance", "--mean-radius",
                         "--seed", "--name", "--out"},
        "build": dataset | {"--epsilon", "--max-degree", "--out"},
        "bound": dataset | {"--epsilon", "--max-degree", "--hard-cap", "--caro-wei-weights",
                            "--tol-gap", "--jobs", "--format", "--out"},
        "pairwise": dataset | {"--epsilon", "--tol-gap", "--format", "--out"},
        "strategy": dataset | {"--epsilon", "--max-degree", "--tol-gap", "--out"},
        "stats": dataset | {"--format", "--out"},
    }
    for name, flags in expected.items():
        with pytest.raises(SystemExit) as done:
            main([name, "--help"])
        assert done.value.code == 0
        shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert shown - {"--help"} == flags, name


@pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
def test_bound_rejects_a_non_finite_or_negative_budget(tmp_path, capsys, gaussian_file, eps):
    path, _ = gaussian_file
    code, out = run_cli(
        capsys, "bound", "--data", str(path), "--epsilon", eps, "2.6", "--out", str(tmp_path),
    )
    assert code == 2
    assert "epsilon" in out["error"] and out["command"] == "bound"
    assert not list(tmp_path.glob("bound_*"))


def readme_cli_commands():
    """Every ``optloss ...`` command of the README's CLI ``sh`` block, as argv."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("optloss ")]


def test_readme_cli_examples_run(tmp_path, capsys):
    commands = readme_cli_commands()
    assert len(commands) == 6
    for argv in commands:
        # the examples read and write under runs/; keep that inside tmp_path
        argv = [str(tmp_path / arg) if arg == "runs" or arg.startswith("runs/") else arg
                for arg in argv]
        code, out = run_cli(capsys, *argv)
        assert code == 0, (argv, out)


def test_readme_quick_start_prints_the_values_in_its_comments(capsys):
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each value a print's comment promises, as in "print(loss)  # 0.6667: ..."
    promised = [float(v) for v in re.findall(r"^print\(.*\)\s+# ([0-9.]+)", block, re.M)]
    assert promised == [0.6667, 0.3333]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [round(float(line), 4) for line in printed[:2]] == promised


def test_readme_dotted_names_exist():
    # every backticked `optloss.<module>.<NAME>`, the prefix optional, such
    # as `optloss.hypergraph.MAGNITUDE_LIMIT` or `lp_core.GENERATION_ROWS`
    names = set(re.findall(r"`(?:optloss\.)?(bounds|cli|data|hypergraph|lp_core)\.(\w+)`",
                           README.read_text()))
    assert {("hypergraph", "MAGNITUDE_LIMIT"), ("bounds", "QUERY_REACH")} <= names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"optloss.{module}"), name)]
    assert missing == []


def write_idx_pair(tmp_path):
    """Six 2 x 2 images, two per class of labels 0, 1, 2."""
    images = np.arange(24).reshape(6, 2, 2) * 10
    make_idx_images(tmp_path / "imgs", images)
    make_idx_labels(tmp_path / "labs", [0, 1, 2, 0, 1, 2])
    return images.reshape(6, -1) / 255.0


def test_bound_reads_an_idx_pair(tmp_path, capsys):
    points = write_idx_pair(tmp_path)
    code, out = run_cli(
        capsys, "bound", "--idx-images", str(tmp_path / "imgs"),
        "--idx-labels", str(tmp_path / "labs"), "--normalize", "divide-255",
        "--epsilon", "0.2", "--max-degree", "3", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    doc = json.loads((tmp_path / "out" / "bound_eps0.2.json").read_text())
    report = bd.bound_report(dt.from_arrays(points, [0, 1, 2, 0, 1, 2]), 0.2, m_max=3)
    assert doc["losses"] == {str(m): v for m, v in report.losses.items()}
    assert doc["edge_counts"] == {str(k): c for k, c in report.edge_counts.items()}


@pytest.mark.parametrize("images_only, message", [
    (True, "--idx-images requires --idx-labels"),
    (False, "no dataset given: use --data or --idx-images/--idx-labels"),
])
def test_bound_refuses_an_incomplete_dataset_choice(tmp_path, capsys, images_only, message):
    write_idx_pair(tmp_path)
    flags = ["--idx-images", str(tmp_path / "imgs")] if images_only else []
    code, out = run_cli(capsys, "bound", *flags, "--epsilon", "0.2",
                        "--out", str(tmp_path / "out"))
    assert code == 2
    assert out["error"] == message
    assert not list(tmp_path.glob("out/*"))


def test_progress_goes_to_stderr_and_stdout_stays_one_line(tmp_path, capsys, monkeypatch,
                                                           gaussian_file):
    # at eps 2.6, in batches of 50 wedges, the extension reports 27, 59, 98,
    # 138 and 162 tested candidates; a line is printed once 60 more have been
    # tested since the last line
    monkeypatch.setattr(hg, "EXTEND_BATCH", 50)
    monkeypatch.setattr(cli, "PROGRESS_EVERY", 60)
    path, _ = gaussian_file
    assert main(["bound", "--data", str(path), "--epsilon", "2.6", "--max-degree", "3",
                 "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if line.startswith("eps=")] == [
        "eps=2.6: 98 candidates tested", "eps=2.6: 162 candidates tested"]
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["command"] == "bound"


def test_written_files_follow_the_umask(tmp_path, capsys, gaussian_file):
    path, _ = gaussian_file
    old = os.umask(0o022)
    try:
        code, _ = run_cli(capsys, "gen-gaussian", "--per-class", "3",
                          "--out", str(tmp_path / "gen"))
        assert code == 0
        code, _ = run_cli(capsys, "bound", "--data", str(path), "--epsilon", "0.1", "0.2",
                          "--format", "both", "--jobs", "2", "--out", str(tmp_path / "bound"))
        assert code == 0
    finally:
        os.umask(old)
    written = [*(tmp_path / "gen").iterdir(), *(tmp_path / "bound").iterdir()]
    assert len(written) >= 3
    assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {0o644}


def test_a_failed_rename_leaves_no_temporary_file(tmp_path, capsys, monkeypatch,
                                                  gaussian_file):
    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    path, _ = gaussian_file
    code, out = run_cli(capsys, "stats", "--data", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert out["type"] == "OSError" and "cannot rename" in out["error"]
    assert list((tmp_path / "out").iterdir()) == []
