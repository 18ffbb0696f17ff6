import json
import os

import pytest

from simonovits import cli, solvers
from simonovits.graph import complete_graph


def run(argv):
    return cli.main(argv)


def test_analyze_pattern(tmp_path):
    out = tmp_path / "prof.json"
    assert run(["analyze-pattern", "--pattern", "triangle",
                "--json-out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["two_density"] == "2/1"
    assert d["edge_critical"] is True


def test_check_simonovits_exit_codes(tmp_path):
    assert run(["check-simonovits", "--graph", "k5",
                "--pattern", "triangle",
                "--json-out", str(tmp_path / "a.json")]) == 0
    assert run(["check-simonovits", "--graph", "c5",
                "--pattern", "triangle",
                "--json-out", str(tmp_path / "b.json")]) == 3


def test_scan_threshold_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "8",
                "--trials", "4", "--seed", "1", "--no-timing",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,p,p/p_H,yes")
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[3]) + int(cells[4]) + int(cells[5]) == 4


def test_scan_threshold_deterministic(tmp_path):
    args = ["scan-threshold", "--pattern", "triangle", "--n-grid", "8",
            "--trials", "4", "--seed", "7", "--no-timing"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_threshold_config_errors():
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "",
                "--trials", "4"]) == 2
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "8",
                "--trials", "0"]) == 2
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "8",
                "--p-grid", "2.0", "--trials", "1"]) == 2


def test_simulate_switching(tmp_path):
    out = tmp_path / "sw.json"
    assert run(["simulate-switching", "--n", "10", "--p", "0.5",
                "--runs", "3", "--seed", "2", "--json-out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["all_valid"] is True
    assert len(d["results"]) == 3


def test_simulate_switching_guard():
    assert run(["simulate-switching", "--n", "40", "--runs", "1"]) == 5


def test_verify_lemma_dispatch(tmp_path):
    for lemma in ("poisson", "janson", "corollaries", "uppertail",
                  "balanced", "sum"):
        out = tmp_path / (lemma + ".json")
        assert run(["verify-lemma", "--lemma", lemma, "--n", "10",
                    "--p", "0.5", "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["lemma"] == lemma
    assert run(["verify-lemma", "--lemma", "nonsense"]) == 2


def test_verify_lemma_pif_balanced(tmp_path):
    out = tmp_path / "pif.json"
    assert run(["verify-lemma", "--lemma", "pif-balanced", "--n", "10",
                "--p", "0.6", "--trials", "6", "--seed", "1",
                "--json-out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert 0.0 <= d["balanced_fraction"] <= 1.0
    assert len(d["details"]) == 6


def test_run_config_round_trip(tmp_path):
    cfg = {"command": "scan-threshold", "pattern": "triangle",
           "n_grid": [8], "trials": 3, "seed": 5, "timing": False,
           "out": str(tmp_path / "scan.csv")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # the config file format round-trips losslessly
    assert json.loads(path.read_text()) == cfg
    assert run(["run-config", str(path)]) == 0
    assert (tmp_path / "scan.csv").exists()
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert len(lines) == 1 + 5


def test_run_config_errors(tmp_path):
    assert run(["run-config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run(["run-config", str(bad)]) == 2
    unk = tmp_path / "unk.json"
    unk.write_text(json.dumps({"command": "nope"}))
    assert run(["run-config", str(unk)]) == 2


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "x.json"
    assert run(["analyze-pattern", "--pattern", "triangle",
                "--json-out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


def test_graph_formats(tmp_path):
    out = tmp_path / "prof.json"
    assert run(["analyze-pattern", "--pattern", "3:0-1,1-2,0-2",
                "--json-out", str(out)]) == 0
    inline = json.loads(out.read_text())
    path = tmp_path / "tri.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    assert run(["analyze-pattern", "--pattern", str(path),
                "--json-out", str(out)]) == 0
    assert json.loads(out.read_text()) == inline
    assert run(["check-simonovits", "--graph", "5:0-1,1-2,2-3,3-4,0-4",
                "--pattern", "triangle",
                "--json-out", str(tmp_path / "c5.json")]) == 3


def test_malformed_inline_graphs_are_config_errors():
    for spec in ("3:0-1,x", "3:0-1,1-3", "3:1-1", "3:0-1,1-0"):
        assert run(["analyze-pattern", "--pattern", spec]) == 2


def test_enumeration_cap_exits_indeterminate(tmp_path, monkeypatch):
    monkeypatch.setattr(solvers, "SOL_CAP", 20)
    k8 = "8:" + ",".join("%d-%d" % e for e in complete_graph(8).edges())
    out = tmp_path / "k8.json"
    assert run(["check-simonovits", "--graph", k8, "--pattern", "triangle",
                "--json-out", str(out)]) == 4
    assert json.loads(out.read_text())["decision"] == "indeterminate"
