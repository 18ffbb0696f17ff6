import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from simonovits import cli, copies, graph, solvers
from simonovits.graph import blowup_plus, complete_graph


def run(argv):
    return cli.main(argv)


def test_cli_import_loads_no_numpy():
    # numpy is imported inside the functions that use it, so CLI start-up
    # does not pay for its import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, simonovits.cli; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.stdout.strip() == "False"


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


@pytest.mark.parametrize("pattern", ["4:0-1,1-2,2-3,3-0", "3:", "1:"],
                         ids=["c4", "edgeless-3", "edgeless-1"])
def test_simulate_switching_refuses_chromatic_number_below_3(capsys,
                                                             pattern):
    # r = chi - 1 is 1 for C4 and 0 for an edgeless pattern: no part takes
    # the structure's colour 2, and r = 0 has no cuts at all
    assert run(["simulate-switching", "--pattern", pattern, "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: pattern must have chromatic "
                            "number at least 3\n")


@pytest.mark.parametrize("argv, message", [
    (["--runs", "-1"], "runs must be at least 1"),
    (["--runs", "0"], "runs must be at least 1"),
    (["--rounds", "-5", "--runs", "1"], "rounds must be at least 0"),
    (["--n", "1"], "n must be at least 2"),
], ids=["runs-negative", "runs-zero", "rounds", "n"])
def test_simulate_switching_refuses_meaningless_arguments(capsys, argv,
                                                          message):
    assert run(["simulate-switching", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: %s" % message)


def test_simulate_switching_accepts_the_smallest_arguments(capsys):
    assert run(["simulate-switching", "--n", "2", "--runs", "1",
                "--rounds", "0"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["all_valid"] is True
    assert d["results"][0]["terminal"] == {"reason": "L", "steps": 0}


def test_verify_lemma_dispatch(tmp_path):
    for lemma in ("poisson", "janson", "corollaries", "uppertail",
                  "balanced", "sum"):
        out = tmp_path / (lemma + ".json")
        assert run(["verify-lemma", "--lemma", lemma, "--n", "10",
                    "--p", "0.5", "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["lemma"] == lemma
    assert run(["verify-lemma", "--lemma", "nonsense"]) == 2


@pytest.mark.parametrize("lemma", ["poisson", "janson", "corollaries",
                                   "uppertail", "sum"])
def test_verify_lemma_without_a_pattern_ignores_it(capsys, lemma):
    assert run(["verify-lemma", "--lemma", lemma]) == 0
    plain = capsys.readouterr().out
    assert run(["verify-lemma", "--lemma", lemma, "--pattern", "nosuch"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("lemma", ["balanced", "fql", "high",
                                   "pif-balanced"])
def test_verify_lemma_with_a_pattern_resolves_it(capsys, lemma):
    assert run(["verify-lemma", "--lemma", lemma, "--pattern", "nosuch"]) == 2
    assert "unknown graph name 'nosuch'" in capsys.readouterr().err


def test_verify_lemma_high_builds_a_star_union(tmp_path):
    # the structure is one star: centre 0 joined to vertices 1..r-1
    for pattern, restricted in (("triangle", 6), ("c5", 120), ("k4", 0)):
        out = tmp_path / (pattern + ".json")
        assert run(["verify-lemma", "--lemma", "high", "--pattern", pattern,
                    "--json-out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert (d["applicable"], d["k_Q"], d["restricted_size"]) \
            == (True, 1, restricted)


def test_verify_lemma_high_embedding_cap_is_a_guard_refusal(monkeypatch,
                                                            capsys):
    monkeypatch.setattr(copies, "EMBED_CAP", 10)
    assert run(["verify-lemma", "--lemma", "high", "--pattern", "c5"]) == 5
    assert "guard refusal" in capsys.readouterr().err


def test_verify_lemma_pif_balanced_refuses_zero_trials(capsys):
    assert run(["verify-lemma", "--lemma", "pif-balanced",
                "--trials", "0"]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("pattern", ["3:", "0:", "1:"])
def test_verify_lemma_pif_balanced_refuses_an_edgeless_pattern(capsys,
                                                                pattern):
    # every copy of an edgeless pattern is the empty edge set, which no
    # deletion hits, so the hitting-set program has no solution
    assert run(["verify-lemma", "--lemma", "pif-balanced", "--pattern",
                pattern, "--n", "6", "--trials", "1"]) == 2
    assert capsys.readouterr().err == ("config error: pattern has no edges, "
                                       "so no subgraph is free of it\n")


def test_verify_lemma_balanced_refuses_n_below_one(capsys):
    for n in ("0", "-3"):
        assert run(["verify-lemma", "--lemma", "balanced", "--n", n]) == 2
        assert capsys.readouterr().err == "config error: need n >= 1\n"
    assert run(["verify-lemma", "--lemma", "balanced", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["applicable"] is False


@pytest.mark.parametrize("argv, message", [
    (["--lemma", "pif-balanced", "--n", "-2", "--trials", "1"],
     "need n >= 1"),
    (["--lemma", "sum", "--n", "0"], "need n >= 1"),
    (["--lemma", "balanced", "--p", "1.5"], "need 0 <= p <= 1"),
], ids=["pif-balanced-n", "sum-n", "balanced-p"])
def test_verify_lemma_refuses_meaningless_n_and_p(capsys, argv, message):
    assert run(["verify-lemma", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s\n" % message


def test_verify_lemma_pif_balanced(tmp_path):
    out = tmp_path / "pif.json"
    assert run(["verify-lemma", "--lemma", "pif-balanced", "--n", "10",
                "--p", "0.6", "--trials", "6", "--seed", "1",
                "--json-out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert 0.0 <= d["balanced_fraction"] <= 1.0
    assert len(d["details"]) == 6


@pytest.mark.parametrize("argv, call", [
    (["verify-lemma", "--lemma", "pif-balanced", "--trials", "2"],
     lambda: cli.verify_lemma("pif-balanced", trials=2)),
    (["simulate-switching", "--runs", "2"],
     lambda: cli.simulate_switching(runs=2)),
], ids=["verify-lemma", "simulate-switching"])
def test_cli_defaults_are_the_library_defaults(tmp_path, argv, call):
    # the command line reads its defaults from the library signatures
    cmd_out, lib_out = tmp_path / "cmd.json", tmp_path / "lib.json"
    assert run(argv + ["--json-out", str(cmd_out)]) == 0
    cli._emit(call(), str(lib_out))
    assert cmd_out.read_bytes() == lib_out.read_bytes()


def test_run_config_round_trip(tmp_path):
    cfg = {"command": "scan-threshold", "pattern": "triangle",
           "n_grid": [8], "trials": 3, "seed": 5, "no_timing": True,
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


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_config_parses_values_like_the_command_line(tmp_path):
    out = tmp_path / "scan.csv"
    cfg = {"command": "scan-threshold", "pattern": "triangle", "n_grid": [8],
           "trials": "3", "no_timing": True, "p_grid": None,
           "out": str(out)}
    assert run(["run-config", _write_config(tmp_path, cfg)]) == 0
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert int(cells[3]) + int(cells[4]) + int(cells[5]) == 3


SCAN_CONFIG = {"command": "scan-threshold", "pattern": "triangle",
               "n_grid": [8], "trials": 2, "out": "scan.csv"}


@pytest.mark.parametrize("cfg", [
    dict(SCAN_CONFIG, trails=3),
    dict(SCAN_CONFIG, timing=False),
    {"command": "simulate-switching", "n": 8, "runs": 1, "L": 5,
     "json_out": "sw.json"},
    {"command": "analyze-pattern", "pattern": "triangle",
     "out": "prof.json"},
], ids=["trails", "timing", "L", "out-on-json-command"])
def test_run_config_refuses_unknown_keys(tmp_path, monkeypatch, cfg):
    monkeypatch.chdir(tmp_path)
    assert run(["run-config", _write_config(tmp_path, cfg)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_run_config_passes_rounds_json_out_and_zero_values(tmp_path):
    out = tmp_path / "sw.json"
    cfg = {"command": "simulate-switching", "n": 8, "p": 0.0, "runs": 1,
           "rounds": 3, "seed": 0, "json_out": str(out)}
    assert run(["run-config", _write_config(tmp_path, cfg)]) == 0
    d = json.loads(out.read_text())
    assert (d["L"], d["p"], d["seed"], d["runs"]) == (3, 0.0, 0, 1)
    assert d["results"][0]["steps"] <= 3


def test_run_config_refuses_nested_run_config(tmp_path):
    inner = _write_config(tmp_path, {"command": "analyze-pattern",
                                     "pattern": "triangle"}, "inner.json")
    outer = _write_config(tmp_path, {"command": "run-config",
                                     "config": inner})
    assert run(["run-config", outer]) == 2


def test_run_config_matches_command_line(tmp_path):
    cli_out, cfg_out = tmp_path / "cli.csv", tmp_path / "cfg.csv"
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "7,8",
                "--multipliers", "0.5,1", "--trials", "3", "--seed", "4",
                "--no-timing", "--out", str(cli_out)]) == 0
    cfg = {"command": "scan-threshold", "pattern": "triangle",
           "n_grid": [7, 8], "multipliers": [0.5, 1], "trials": 3, "seed": 4,
           "no_timing": True, "out": str(cfg_out)}
    assert run(["run-config", _write_config(tmp_path, cfg)]) == 0
    assert cli_out.read_bytes() == cfg_out.read_bytes()


def test_run_config_reports_indeterminate_cells(tmp_path, monkeypatch,
                                                capsys):
    # p = 1 samples K8, whose largest triangle-free subgraphs exceed the cap
    monkeypatch.setattr(solvers, "SOL_CAP", 20)
    cli_out, cfg_out = tmp_path / "cli.csv", tmp_path / "cfg.csv"
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "8",
                "--p-grid", "1.0", "--trials", "2", "--no-timing",
                "--out", str(cli_out)]) == 0
    cli_err = capsys.readouterr().err
    cfg = {"command": "scan-threshold", "pattern": "triangle",
           "n_grid": [8], "p_grid": [1.0], "trials": 2, "no_timing": True,
           "out": str(cfg_out)}
    assert run(["run-config", _write_config(tmp_path, cfg)]) == 0
    cfg_err = capsys.readouterr().err
    assert "fully indeterminate" in cli_err
    assert cfg_err == cli_err
    assert cli_out.read_bytes() == cfg_out.read_bytes()


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_examples_parse_and_run(tmp_path, monkeypatch):
    text = open(README).read()
    shell = "".join(re.findall(r"```sh\n(.*?)```", text, re.S))
    commands = [line.strip() for line in
                shell.replace("\\\n", " ").splitlines()
                if line.startswith("simonovits ")]
    assert len(commands) >= 7
    parser = cli.build_parser()
    for line in commands:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]
    configs = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(configs) == 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(configs[0])
    assert cli.run_config("config.json") == 0
    assert (tmp_path / "scan.csv").exists()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "x.json"
    assert run(["analyze-pattern", "--pattern", "triangle",
                "--json-out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


OUTPUT_COMMANDS = {
    "--out": {"command": "scan-threshold", "pattern": "triangle",
              "n_grid": "10,11", "trials": 10},
    "--json-out": {"command": "check-simonovits", "graph": "k5",
                   "pattern": "triangle"},
}


@pytest.mark.parametrize("via_config", [False, True], ids=["argv", "config"])
@pytest.mark.parametrize("target", ["missing", "folder"])
@pytest.mark.parametrize("option", sorted(OUTPUT_COMMANDS))
def test_unwritable_output_path_exits_2_before_the_work(
        tmp_path, monkeypatch, capsys, option, target, via_config):
    def no_decision(*args):
        raise AssertionError("decided a host")
    monkeypatch.setattr(cli, "is_simonovits", no_decision)
    if target == "folder":
        path = tmp_path / "folder"
        path.mkdir()
    else:
        path = tmp_path / "missing" / "x.out"
    cfg = dict(OUTPUT_COMMANDS[option], **{option[2:].replace("-", "_"):
                                           str(path)})
    if via_config:
        argv = ["run-config", _write_config(tmp_path, cfg)]
    else:
        argv = [cfg.pop("command")] + ["--%s=%s" % (k.replace("_", "-"), v)
                                       for k, v in cfg.items()]
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err
    assert ".tmp-" not in err
    assert sorted(tmp_path.rglob("*")) == before


class _Sampled(Exception):
    pass


def test_scan_refuses_trials_that_would_share_streams(monkeypatch):
    # trial t of cell c draws from stream c * 10007 + t: one more trial
    # would reuse the next cell's first stream
    def sample(*args):
        raise _Sampled
    monkeypatch.setattr(cli, "sample_gnp", sample)
    with pytest.raises(cli.ConfigError):
        cli.scan_threshold("triangle", [8], trials=10008)
    with pytest.raises(_Sampled):
        cli.scan_threshold("triangle", [8], trials=10007)
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "8",
                "--trials", "10008"]) == 2


def test_scan_out_into_missing_directory_exits_2(tmp_path, capsys):
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "6",
                "--trials", "1", "--no-timing",
                "--out", str(tmp_path / "missing" / "scan.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_json_out_into_missing_directory_exits_2(tmp_path, capsys):
    assert run(["analyze-pattern", "--pattern", "triangle",
                "--json-out", str(tmp_path / "missing" / "p.json")]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--graph", "--pattern"])
def test_graph_path_naming_a_directory_exits_2(tmp_path, capsys, option):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {"--graph": "k5", "--pattern": "triangle", option: str(folder)}
    assert run(["check-simonovits", *(x for kv in argv.items() for x in kv),
                "--json-out", str(tmp_path / "v.json")]) == 2
    assert "config error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["folder"]


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


def test_unknown_graph_name_is_named(capsys):
    assert run(["check-simonovits", "--graph", "k9", "--pattern", "c5"]) == 2
    err = capsys.readouterr().err
    assert "unknown graph name 'k9' (known: c5, k4, k5, petersen, " \
        "triangle)" in err


def test_host_past_16_vertices_is_decided(capsys):
    # 18 vertices: the max cut used to be refused at n > 16 (exit 5)
    g = blowup_plus(2, 9)
    spec = "%d:%s" % (g.n, ",".join("%d-%d" % e for e in g.edges()))
    assert run(["check-simonovits", "--graph", spec,
                "--pattern", "triangle"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["decision"], d["ex_size"], d["optima_count"]) == ("yes", 81, 1)


def test_malformed_inline_graphs_are_config_errors():
    for spec in ("3:0-1,x", "3:0-1,1-3", "3:1-1", "3:0-1,1-0"):
        assert run(["analyze-pattern", "--pattern", spec]) == 2


def test_refused_max_cut_exits_5(monkeypatch, capsys):
    # the refusal comes from max_r_cut, before the listing and its fallback
    monkeypatch.setattr(solvers, "NODE_CAP", 100)
    k14 = "14:" + ",".join("%d-%d" % e for e in complete_graph(14).edges())
    assert run(["check-simonovits", "--graph", k14,
                "--pattern", "triangle"]) == 5
    assert "guard refusal: max-cut search passed 100 nodes" \
        in capsys.readouterr().err


def test_pattern_of_chromatic_number_2_exits_2(capsys):
    # r = chi(K2) - 1 = 1: max_r_cut's refusal, before any ceiling is used
    assert run(["check-simonovits", "--graph", "3:0-1",
                "--pattern", "2:0-1"]) == 2
    assert "config error: need r >= 2" in capsys.readouterr().err


# a path on 1,100 vertices with a triangle (decided: its floor meets the
# copy-packing ceiling) or a K4 (the max-cut search would recurse once per
# vertex): no search may end in RecursionError
@pytest.mark.parametrize("extra", [["0-2"], ["0-2", "0-3", "1-3"]],
                         ids=["triangle", "k4"])
def test_long_host_exits_0_or_5(capsys, extra):
    edges = ["%d-%d" % (v, v + 1) for v in range(1099)] + extra
    code = run(["check-simonovits", "--graph", "1100:" + ",".join(edges),
                "--pattern", "triangle"])
    assert code in (0, 5)
    if code == 5:
        assert "recursion limit" in capsys.readouterr().err


def test_enumeration_cap_exits_indeterminate(tmp_path, monkeypatch):
    monkeypatch.setattr(solvers, "SOL_CAP", 20)
    k8 = "8:" + ",".join("%d-%d" % e for e in complete_graph(8).edges())
    out = tmp_path / "k8.json"
    assert run(["check-simonovits", "--graph", k8, "--pattern", "triangle",
                "--json-out", str(out)]) == 4
    assert json.loads(out.read_text())["decision"] == "indeterminate"


def test_refused_trial_counts_as_indeterminate(monkeypatch, capsys):
    # a 100-node budget refuses the max cut of most n = 14 hosts; each such
    # trial is indeterminate and the scan writes every row
    monkeypatch.setattr(solvers, "NODE_CAP", 100)
    assert run(["scan-threshold", "--pattern", "triangle", "--n-grid", "14",
                "--trials", "3", "--seed", "0", "--no-timing"]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 5
    assert all(int(r[3]) + int(r[4]) + int(r[5]) == 3 for r in rows)
    assert sum(int(r[5]) for r in rows) >= 12


BOWTIE = "5:0-1,0-2,1-2,2-3,2-4,3-4"     # chi 3, no critical edge


@pytest.mark.parametrize("name", sorted(graph.NAMED_GRAPHS))
def test_analyze_pattern_every_named_graph(name, capsys):
    assert run(["analyze-pattern", "--pattern", name]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["theta"] is None) == (d["pi"] == "0/1")


def test_analyze_pattern_not_edge_critical(capsys):
    assert run(["analyze-pattern", "--pattern", BOWTIE]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["edge_critical"] is False
    assert (d["pi"], d["theta"], d["theta_power"]) == ("0/1", None, None)


def test_analyze_pattern_bipartite_exits_2():
    assert run(["analyze-pattern", "--pattern", "4:0-1,1-2,2-3,3-0"]) == 2


@pytest.mark.parametrize("extra", [[], ["--p-grid", "0.5"]],
                         ids=["multipliers", "p-grid"])
def test_scan_threshold_not_edge_critical_exits_2(tmp_path, monkeypatch,
                                                  capsys, extra):
    def no_sampling(*args):
        raise AssertionError("sampled a host")
    monkeypatch.setattr(cli, "sample_gnp", no_sampling)
    out = tmp_path / "scan.csv"
    assert run(["scan-threshold", "--pattern", BOWTIE, "--n-grid", "8",
                "--trials", "2", "--out", str(out)] + extra) == 2
    assert "p_H needs an edge-critical pattern" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_lemma_balanced_not_edge_critical(capsys):
    assert run(["verify-lemma", "--lemma", "balanced",
                "--pattern", BOWTIE]) == 0
    assert json.loads(capsys.readouterr().out)["lemma"] == "balanced"
