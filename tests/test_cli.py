"""End-to-end checks of the argparse front end via cli_entry."""

import argparse
import json
from dataclasses import fields

import pytest

from annealab import svmc
from annealab.cli import build_parser, cli_entry
from annealab.experiments import ExperimentConfig
from annealab.graphs import Graph, generate_er


@pytest.fixture
def p5_file(tmp_path):
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    path = tmp_path / "p5.json"
    g.save(path)
    return path


def run(argv, capsys):
    code = cli_entry([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    code, out, _ = run(["sweep", "--help"], capsys)
    assert code == 0
    assert "--s-grid" in out


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert out.startswith("annealab ")


def test_spectrum_writes_expected_csv_shape(tmp_path, p5_file, capsys):
    out = tmp_path / "spec"
    code, _, _ = run(["spectrum", "--graph", p5_file, "--k", 2,
                      "--levels", 5, "--grid", 20, "--out", out], capsys)
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "s,level_0,level_1,level_2,level_3,level_4"
    assert len(lines) == 21
    assert (out / "manifest.json").exists()


def test_missing_graph_is_a_clean_error(tmp_path, capsys):
    code, _, err = run(["spectrum", "--graph", tmp_path / "nope.json", "--k", 2,
                        "--out", tmp_path], capsys)
    assert code == 1
    assert "nope.json" in err


def test_unknown_schedule_is_a_clean_error(tmp_path, p5_file, capsys):
    code, _, err = run(["spectrum", "--graph", p5_file, "--k", 2,
                        "--schedule", "bogus", "--out", tmp_path], capsys)
    assert code == 1
    assert "bogus" in err


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(["generate", "--n-vertices", 4, "--count", 3,
                          "--seed", 7, "--out", out], capsys)
        assert code == 0
    for name in ("graph_000.json", "graph_002.json", "instances.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    g = Graph.load(a / "graph_001.json")
    assert g == generate_er(4, 0.5, [7, 0, 1])


@pytest.mark.parametrize("count", [-1, 0])
def test_generate_rejects_bad_count_before_writing(tmp_path, capsys, count):
    out = tmp_path / "gen"
    code, stdout, err = run(["generate", "--count", count, "--out", out], capsys)
    assert code == 1
    assert stdout == ""
    assert err == f"error: count must be >= 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--levels", -3, "--levels must be >= 1, got -3"),
    ("--grid", 0, "--grid must be >= 1, got 0"),
    ("--levels", 2000, "need 1 <= m <= 1024, got 2000"),  # P5 at k=2 has 1024 levels
])
def test_spectrum_rejects_bad_sizes_before_writing(tmp_path, p5_file, capsys, flag, value,
                                                   message):
    out = tmp_path / "spec"
    code, stdout, err = run(["spectrum", "--graph", p5_file, "--k", 2, flag, value,
                             "--out", out], capsys)
    assert code == 1
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("content, expected", [
    ('{"edges": [[0, 1]]}', "keys 'n' and 'edges'"),
    ('{"n": "3", "edges": []}', "'n' must be an integer"),
    ("[1, 2]", "keys 'n' and 'edges'"),
])
def test_malformed_graph_file_is_a_clean_error(tmp_path, capsys, content, expected):
    graph = tmp_path / "g.json"
    graph.write_text(content)
    for command in ("anneal", "spectrum"):
        code, _, err = run([command, "--graph", graph, "--k", 2, "--out", tmp_path / "o"], capsys)
        assert code == 1
        assert err.startswith("error: ") and expected in err
    assert not (tmp_path / "o").exists()


def test_graph_file_that_is_not_json_is_named_in_the_error(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 3, "edges": [[0, 1] [1, 2]]}')
    for command in ("anneal", "spectrum"):
        code, stdout, err = run([command, "--graph", graph, "--k", 2, "--out", tmp_path / "o"],
                                capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: {graph}: Expecting ',' delimiter: line 1 column 27 (char 26)\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--svmc-beta", "nan", "svmc_beta must be positive, got nan"),
    ("--svmc-sweeps", 0, "svmc_sweeps must be >= 1, got 0"),
    ("--forward-shots", 0, "forward_shots must be >= 1, got 0"),
    ("--s-prime", "nan", "reverse distance must be in (0, 1), got nan"),
    ("--total-time", "inf", "total_time must be positive and finite, got inf"),
    # finite, but not times the rotor sampler's 1000 sweeps per waypoint
    ("--ra-time-scale", "1e308", "time_scale must be positive and finite, got 1e+308 "
                                 "(times 1000)"),
    ("--forward-time-scale", "1e306", "time_scale must be positive and finite, got 1e+306 "
                                      "(times 1000)"),
])
def test_anneal_rejects_bad_values_before_writing(tmp_path, p5_file, capsys, flag, value,
                                                  message):
    out = tmp_path / "run"
    code, stdout, err = run(["anneal", "--graph", p5_file, "--k", 2, "--backend", "svmc",
                             flag, value, "--out", out], capsys)
    assert code == 1
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_statevector_anneal_refuses_a_plan_it_cannot_finish(tmp_path, p5_file, capsys):
    # finite times total_time, but far past the Chebyshev terms an evolve may take
    out = tmp_path / "run"
    code, stdout, err = run(["anneal", "--graph", p5_file, "--k", 2, "--backend", "statevector",
                             "--forward-time-scale", "1e306", "--out", out], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: evolve would need over 1e+08 Chebyshev terms")
    assert "lower time_scale (1e+306)" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--backend", "svmc", "--forward-time-scale", "1e9"],
     "SVMC trajectory would need over 3e+11 spin updates: "
     "lower time_scale (1e+09) or sweeps_per_waypoint (1000)"),
    (["--backend", "svmc", "--svmc-sweeps", 10**12],
     "SVMC trajectory would need over 3e+11 spin updates: "
     "lower sweeps_per_waypoint (1000000000000)"),
    # the forward stage solves P3, but the reverse stage could not finish
    (["--backend", "svmc", "--forward-shots", 1, "--ra-time-scale", "1e9"],
     "SVMC trajectory would need over 3e+11 spin updates: "
     "lower time_scale (1e+09) or sweeps_per_waypoint (1000)\n"),
    # the shot draws ask for 800 TB at once, past any 47-bit address space,
    # so the allocation fails before anything is written into it
    (["--backend", "statevector", "--forward-shots", 10**14], "Unable to allocate"),
], ids=["svmc-time-scale", "svmc-sweeps", "svmc-ra-time-scale", "statevector-shots"])
def test_anneal_refuses_a_run_it_cannot_finish(tmp_path, capsys, argv, message):
    graph, out = tmp_path / "p3.json", tmp_path / "run"
    Graph(3, ((0, 1), (1, 2))).save(graph)
    code, stdout, err = run(["anneal", "--graph", graph, "--k", 2, "--max-cycles", 1, *argv,
                             "--out", out], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {message}")
    assert not out.exists()


def test_anneal_writes_record_and_reports_outcome(tmp_path, p5_file, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(["anneal", "--graph", p5_file, "--k", 2,
                           "--schedule", "steep", "--forward-shots", 20,
                           "--seed", 3, "--out", out], capsys)
    assert code == 0
    assert stdout.startswith("outcome: solved-by-")
    rec = json.loads((out / "anneal_record.jsonl").read_text())
    assert rec["n_vars"] == 10
    assert rec["outcome"].startswith("solved-by-")


def test_anneal_past_the_statevector_cap_keeps_the_svmc_settings(tmp_path, p5_file, capsys,
                                                                  monkeypatch):
    # at k=5 P5 has 25 variables, so the rotor sampler stands in for the
    # statevector backend, with the run's --svmc-sweeps and --svmc-beta
    settings = set()
    svmc_run = svmc.svmc_run

    def spy(*args, **kwargs):
        settings.add((kwargs["sweeps_per_waypoint"], kwargs["beta"]))
        return svmc_run(*args, **kwargs)

    monkeypatch.setattr(svmc, "svmc_run", spy)
    out = tmp_path / "run"
    code, _, err = run(["anneal", "--graph", p5_file, "--k", 5, "--svmc-sweeps", 7,
                        "--svmc-beta", 3.0, "--forward-shots", 2, "--max-cycles", 1,
                        "--out", out], capsys)
    assert (code, err) == (0, "")
    rec = json.loads((out / "anneal_record.jsonl").read_text())
    assert (rec["backend_kind"], rec["backend_substituted"]) == ("svmc", True)
    assert settings == {(7, 3.0)}


def test_sweep_from_config_file_with_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "n_vertices": 4, "count": 2, "seed": 5, "backend": "svmc",
        "schedule": "steep", "s_grid": [0.44], "forward_shots": 4,
        "ra_samples": 2, "svmc_sweeps": 25,
    }))
    out = tmp_path / "sweep"
    code, stdout, _ = run(["sweep", "--config", cfg_file, "--seed", 6,
                           "--out", out], capsys)
    assert code == 0
    assert "2 (problem, s') rows" in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 6  # flag wins over the file
    assert manifest["config"]["out_dir"] == str(out)


def test_manifest_replay_is_bit_exact(tmp_path, capsys):
    first = tmp_path / "first"
    code, _, _ = run(["sweep", "--n-vertices", 4, "--count", 2, "--seed", 9,
                      "--backend", "svmc", "--schedule", "steep",
                      "--s-grid", 0.44, 0.72, "--forward-shots", 4,
                      "--ra-samples", 2, "--svmc-sweeps", 25,
                      "--out", first], capsys)
    assert code == 0
    replay = tmp_path / "replay"
    code, _, _ = run(["sweep", "--config", first / "manifest.json",
                      "--out", replay], capsys)
    assert code == 0
    for name in ("sweep_summary.csv", "sweep_records.jsonl"):
        assert (first / name).read_bytes() == (replay / name).read_bytes()


def test_batch_command_refuses_another_commands_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    config = {"n_vertices": 3, "count": 1, "backend": "svmc", "s_grid": [0.44],
              "forward_shots": 2, "ra_samples": 1, "svmc_sweeps": 5, "sizes": [3, 4]}
    manifest.write_text(json.dumps({"command": "scaling", "config": config}))
    out = tmp_path / "cross"
    code, stdout, err = run(["sweep", "--config", manifest, "--out", out], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: {manifest} is a 'scaling' manifest; 'sweep' cannot replay it\n"
    assert not out.exists()


BATCH = ["--count", 1, "--backend", "svmc", "--forward-shots", 3, "--ra-samples", 2,
         "--svmc-sweeps", 20]


@pytest.mark.parametrize("argv, line", [
    (["sweep", "--n-vertices", 4, "--count", 2, "--seed", 9, "--backend", "svmc",
      "--schedule", "steep", "--s-grid", 0.44, 0.72, "--forward-shots", 4, "--ra-samples", 2,
      "--svmc-sweeps", 25],
     "sweep: 4 (problem, s') rows, 4 with valid samples; config 619f0be5ce5c -> {out}"),
    (["scaling", "--sizes", 3, 4, "--s-grid", 0.44, *BATCH],
     "scaling: 2 qubit-count groups; config 61501d98531f -> {out}"),
    (["baseline", "--n-vertices", 4, "--s-grid", 0.44, 0.72, *BATCH],
     "baseline: 4 series rows; config addb8d97083e -> {out}"),
], ids=["sweep", "scaling", "baseline"])
def test_batch_commands_print_one_summary_line(tmp_path, capsys, argv, line):
    out = tmp_path / argv[0]
    code, stdout, err = run([*argv, "--out", out], capsys)
    assert (code, err) == (0, "")
    assert stdout == line.format(out=out) + "\n"


def test_unknown_config_field_fails(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"n_vertices": 4, "mystery": 1}')
    code, _, err = run(["sweep", "--config", cfg_file, "--out", tmp_path], capsys)
    assert code == 1
    assert "mystery" in err


def test_out_of_range_probability_fails(tmp_path, capsys):
    code, _, err = run(["sweep", "--p", 1.5, "--count", 1, "--out", tmp_path], capsys)
    assert code == 1
    assert "p" in err


def test_scaling_requires_sizes(tmp_path, capsys):
    code, _, err = run(["scaling", "--count", 1, "--backend", "svmc",
                        "--out", tmp_path], capsys)
    assert code == 1
    assert "sizes" in err


@pytest.mark.parametrize("content, expected", [
    ("[1, 2]", "JSON object"),
    ('{"count": "3"}', "count must be int"),
])
def test_bad_config_file_is_a_clean_error(tmp_path, capsys, content, expected):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(content)
    code, _, err = run(["sweep", "--config", cfg_file, "--out", tmp_path / "o"], capsys)
    assert code == 1
    assert err.startswith("error: ") and expected in err


def test_config_file_that_is_not_json_is_named_in_the_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text('{"count": 1 "seed": 2}')
    code, stdout, err = run(["sweep", "--config", cfg_file, "--out", tmp_path / "o"], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: {cfg_file}: Expecting ',' delimiter: line 1 column 13 (char 12)\n"
    assert not (tmp_path / "o").exists()


def _options(command) -> dict[str, str]:
    """option string -> dest for one subcommand, leaving out --help."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt: a.dest for a in sub.choices[command]._actions
            for opt in a.option_strings if opt not in ("-h", "--help")}


@pytest.mark.parametrize("command", ["sweep", "scaling", "baseline"])
def test_batch_flags_are_one_per_config_field(command):
    want = {"--config": "config"}
    for f in fields(ExperimentConfig):
        if f.name == "out_dir":
            want["--out"] = "out"
        elif f.name != "sizes" or command == "scaling":
            want["--" + f.name.replace("_", "-")] = f.name
    assert _options(command) == want


def test_single_run_flags_are_unchanged():
    assert set(_options("anneal")) == {
        "--graph", "--k", "--schedule", "--s-prime", "--forward-shots", "--max-cycles",
        "--seed", "--total-time", "--forward-time-scale", "--ra-time-scale",
        "--shots-per-cycle", "--policy", "--backend", "--svmc-sweeps", "--svmc-beta", "--out",
    }
    assert set(_options("generate")) == {"--n-vertices", "--p", "--count", "--seed", "--out"}
    assert set(_options("spectrum")) == {
        "--graph", "--k", "--schedule", "--levels", "--grid", "--out"}


@pytest.mark.parametrize("argv, command, config, config_hash, outputs", [
    (["generate", "--n-vertices", 3, "--count", 2, "--seed", 4, "--out", "./x/"], "generate",
     {"count": 2, "n_vertices": 3, "out": "x", "p": 0.5, "seed": 4}, "0f4a9a7ac286",
     ["graph_000.json", "graph_001.json", "instances.csv"]),
    (["spectrum", "--graph", "p5.json", "--k", 2, "--levels", 3, "--grid", 4, "--out", "x"],
     "spectrum", {"graph": "p5.json", "grid": 4, "k": 2, "levels": 3, "out": "x",
                  "schedule": "linear"}, "c6bdcfc338cc", ["spectrum.csv"]),
    # no --k: the manifest records the greedy count the run used, so it
    # equals the one of the same run with --k 2
    (["spectrum", "--graph", "p5.json", "--levels", 3, "--grid", 4, "--out", "./x/"],
     "spectrum", {"graph": "p5.json", "grid": 4, "k": 2, "levels": 3, "out": "x",
                  "schedule": "linear"}, "c6bdcfc338cc", ["spectrum.csv"]),
    (["anneal", "--graph", "p5.json", "--backend", "svmc", "--svmc-sweeps", 5,
      "--forward-shots", 3, "--max-cycles", 2, "--out", "./x/"], "anneal",
     {"backend": "svmc", "forward_shots": 3, "forward_time_scale": None, "graph": "p5.json",
      "k": 2, "max_cycles": 2, "out": "x", "policy": "feed-last", "ra_time_scale": None,
      "s_prime": 0.44, "schedule": "linear", "seed": 0, "shots_per_cycle": 1,
      "svmc_beta": 10.0, "svmc_sweeps": 5, "total_time": 100.0}, "3eb10ad14512",
     ["anneal_record.jsonl"]),
    (["anneal", "--graph", "p5.json", "--k", 2, "--schedule", "steep", "--forward-shots", 5,
      "--max-cycles", 2, "--s-prime", 0.5, "--seed", 2, "--out", "x"], "anneal",
     {"backend": "statevector", "forward_shots": 5, "forward_time_scale": None,
      "graph": "p5.json", "k": 2, "max_cycles": 2, "out": "x", "policy": "feed-last",
      "ra_time_scale": None, "s_prime": 0.5, "schedule": "steep", "seed": 2,
      "shots_per_cycle": 1, "svmc_beta": 10.0, "svmc_sweeps": 1000, "total_time": 100.0},
     "57333dcc3ab8", ["anneal_record.jsonl"]),
], ids=["generate", "spectrum", "spectrum-greedy-k", "anneal-greedy-k", "anneal-statevector"])
def test_single_run_manifests_are_pinned(tmp_path, p5_file, capsys, monkeypatch, argv, command,
                                         config, config_hash, outputs):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(argv, capsys)
    assert (code, err) == (0, "")
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    del manifest["versions"]
    want = {"command": command, "config": config, "config_hash": config_hash,
            "outputs": outputs}
    if "seed" in config:
        want["seeds"] = {"master": config["seed"]}
    assert manifest == want
