"""Batch-harness tests on deliberately tiny configs."""

import csv
import hashlib
import json
import pickle
from collections import defaultdict
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealab import dynamics, experiments, heuristic, svmc
from annealab.experiments import (
    ConfigError,
    ExperimentConfig,
    baseline_run,
    config_hash,
    instance,
    load_config,
    make_backend,
    scaling_run,
    sweep_reverse_distance,
)
from annealab.coloring_qubo import validate
from annealab.heuristic import (StatevectorBackend, SvmcBackend, assisted_reverse_anneal,
                                problem_id)
from annealab.schedules import resolve_schedule, reverse_distance_grid
from annealab.spectrum import ProblemDiagonal
from test_golden import GOLDEN, STATEVECTOR


def tiny_config(**over):
    base = dict(
        n_vertices=4, p=0.5, count=2, seed=11, backend="svmc", schedule="steep",
        s_grid=(0.44, 0.93), forward_shots=4, ra_samples=3, svmc_sweeps=25,
        out_dir="unused",
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_default_grid_is_the_ten_step_descent():
    assert ExperimentConfig().s_grid == tuple(reverse_distance_grid())


@pytest.mark.parametrize("bad", [
    dict(p=1.5),
    dict(n_vertices=0),
    dict(count=0),
    dict(backend="quantum"),
    dict(s_grid=(0.0, 0.5)),
    dict(s_grid=()),
    dict(policy="feed-first"),
    dict(forward_shots=0),
    dict(svmc_beta=0.0),
    dict(shots_per_cycle=0),
    dict(total_time=-1.0),
    dict(sizes=(0,)),
    dict(s_grid=(0.44, 0.44)),
    dict(sizes=(3, 3)),
    dict(total_time=float("inf")),
    dict(forward_time_scale=float("inf")),
    dict(ra_time_scale=0.0),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        tiny_config(**bad)


@pytest.mark.parametrize("data, match", [
    ([1, 2], "JSON object"),
    ({"count": "3"}, "count must be int"),
    ({"n_vertices": 4.0}, "n_vertices must be int"),
    ({"p": True}, "p must be float"),
    ({"k": "2"}, "k must be int or null"),
    ({"s_grid": 0.5}, "s_grid must be a list of float"),
    ({"sizes": [3, 4.5]}, "sizes must be a list of int"),
])
def test_config_from_dict_rejects_wrong_types(data, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(data)


def test_config_from_dict_overrides_win():
    cfg = ExperimentConfig.from_dict({"count": 0, "seed": 4}, count=2)
    assert (cfg.count, cfg.seed) == (2, 4)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"n_vertices": 4, "frobnicate": True})


def test_config_roundtrips_through_dict():
    cfg = tiny_config()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
configs = st.builds(
    ExperimentConfig,
    n_vertices=st.integers(1, 50),
    p=st.floats(0.0, 1.0),
    count=st.integers(1, 100),
    seed=st.integers(0, 2**32),
    k=st.none() | st.integers(1, 10),
    backend=st.sampled_from(["statevector", "svmc"]),
    schedule=st.sampled_from(["linear", "steep", "my schedule.csv"]),
    s_grid=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=6, unique=True),
    forward_shots=st.integers(1, 10_000),
    ra_samples=st.integers(0, 1000),
    total_time=positive,
    forward_time_scale=st.none() | positive,
    ra_time_scale=st.none() | positive,
    shots_per_cycle=st.integers(1, 10),
    policy=st.sampled_from(["feed-last", "keep-best"]),
    svmc_sweeps=st.integers(1, 5000),
    svmc_beta=positive,
    sizes=st.lists(st.integers(1, 30), max_size=4, unique=True),
    out_dir=st.text(min_size=1, max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(configs)
def test_config_dict_and_json_roundtrip(cfg):
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    through_json = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert through_json == cfg
    assert config_hash(through_json) == config_hash(cfg)


def test_config_hash_ignores_output_location_only():
    a = tiny_config(out_dir="here")
    b = tiny_config(out_dir="there")
    c = tiny_config(seed=12)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_instances_are_a_pure_function_of_config():
    cfg = tiny_config()
    assert instance(cfg, 0) == instance(cfg, 0)
    ids = {problem_id(instance(cfg, i)) for i in range(4)}
    assert len(ids) > 1


def test_sweep_outputs_and_structure(tmp_path):
    cfg = tiny_config()
    rows = sweep_reverse_distance(cfg, tmp_path)
    assert len(rows) == cfg.count * len(cfg.s_grid)
    for r in rows:
        assert r["unique_valid"] <= r["total_valid"] <= r["n_cycles"] == cfg.ra_samples
        assert r["case"] == ("AB" if r["initial_valid"] else "CD")
    for name in ("sweep_summary.csv", "sweep_records.jsonl", "manifest.json"):
        assert (tmp_path / name).exists()
    records = [json.loads(line) for line in
               (tmp_path / "sweep_records.jsonl").read_text().splitlines()]
    assert len(records) == len(rows)
    h = config_hash(cfg)
    for rec in records:
        assert rec["config_hash"] == h
        assert rec["path_info"]["mode"] == "collect"
        assert len(rec["cycles"]) == cfg.ra_samples
        chain = [rec["initial_bits"]] + [c["output_bits"] for c in rec["cycles"]]
        for prev, cyc in zip(chain, rec["cycles"]):
            assert cyc["input_bits"] == prev


def test_sweep_validity_flags_recheck_against_oracle(tmp_path):
    cfg = tiny_config()
    sweep_reverse_distance(cfg, tmp_path)
    problems = {problem_id(instance(cfg, i)): instance(cfg, i) for i in range(cfg.count)}
    for line in (tmp_path / "sweep_records.jsonl").read_text().splitlines():
        rec = json.loads(line)
        problem = problems[rec["problem_id"]]
        for cyc in rec["cycles"]:
            assert cyc["valid"] == validate(problem, cyc["output_bits"])


def test_sweep_reruns_bit_exactly(tmp_path):
    cfg = tiny_config()
    a, b = tmp_path / "a", tmp_path / "b"
    sweep_reverse_distance(cfg, a)
    sweep_reverse_distance(cfg, b)
    for name in ("sweep_summary.csv", "sweep_records.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_statevector_sweep_tabulates_its_diagonal_once(tmp_path, monkeypatch):
    # the golden 6-qubit sweep: its stage checks, forward stage and all six
    # reverse cycles share one diagonal, and its outputs keep their digests
    tabulated = []
    post_init = ProblemDiagonal.__post_init__

    def counted(diag):
        tabulated.append(diag.problem.n_vars)
        post_init(diag)

    monkeypatch.setattr(ProblemDiagonal, "__post_init__", counted)
    sweep_reverse_distance(ExperimentConfig(**STATEVECTOR), tmp_path)
    assert tabulated == [6]
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in GOLDEN["sweep_statevector"]} == GOLDEN["sweep_statevector"]


@pytest.mark.parametrize("protocol, outputs", [
    (sweep_reverse_distance, ("sweep_records.jsonl", "sweep_summary.csv")),
    (scaling_run, ("scaling_records.jsonl", "scaling.csv")),
    (baseline_run, ("baseline_records.jsonl", "baseline.csv")),
], ids=["sweep", "scaling", "baseline"])
def test_parallel_workers_match_serial(tmp_path, monkeypatch, protocol, outputs):
    cfg = tiny_config(sizes=(3, 4))
    a, b = tmp_path / "serial", tmp_path / "pool"
    protocol(cfg, a)
    monkeypatch.setenv("ANNEALAB_WORKERS", "2")
    protocol(cfg, b)
    for name in outputs:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_scaling_groups_by_qubit_count_and_skips_empty(tmp_path):
    cfg = tiny_config(sizes=(3, 4), s_grid=(0.44,))
    rows = scaling_run(cfg, tmp_path)
    assert rows, "expected at least one populated group"
    assert [r["n_vars"] for r in rows] == sorted({r["n_vars"] for r in rows})
    assert all(r["n_problems"] >= 1 for r in rows)
    assert (tmp_path / "scaling.csv").exists()
    assert (tmp_path / "scaling_records.jsonl").exists()


def test_scaling_seeds_carry_the_size_at_every_stage(tmp_path, monkeypatch):
    """Problem 0 of sizes 3 and 4 takes [master, stage, n, 0] at every stage,
    so no stream is shared between sizes."""
    seen = {"graph": [], "forward": [], "select": [], "chain": []}

    class Recording:  # the configured backend, recording every call's seed
        def __init__(self, inner):
            self.inner, self.kind, self.check = inner, inner.kind, inner.check

        def forward(self, problem, sched, total_time, shots, seed, time_scale=None):
            seen["forward"].append(list(seed))
            return self.inner.forward(problem, sched, total_time, shots, seed, time_scale)

        def reverse(self, problem, sched, path, initial, shots, seed, time_scale=None):
            seen["chain"].append(list(seed[:-2]))  # cycle c of a chain is [*chain, 2, c]
            return self.inner.reverse(problem, sched, path, initial, shots, seed, time_scale)

    def spy(stage, fn):
        def wrapper(*args):
            seen[stage].append(list(args[-1]))  # the seed is the last argument
            return fn(*args)
        return wrapper

    monkeypatch.delenv("ANNEALAB_WORKERS", raising=False)
    monkeypatch.setattr(experiments, "make_backend", lambda config: Recording(make_backend(config)))
    monkeypatch.setattr(experiments, "generate_er", spy("graph", experiments.generate_er))
    monkeypatch.setattr(heuristic, "select_initial", spy("select", heuristic.select_initial))
    cfg = tiny_config(sizes=(3, 4), count=1, ra_samples=1)
    scaling_run(cfg, tmp_path)
    m = cfg.seed
    assert seen == {"graph": [[m, 0, 3, 0], [m, 0, 4, 0]], "forward": [[m, 1, 3, 0], [m, 1, 4, 0]],
                    "select": [[m, 2, 3, 0], [m, 2, 4, 0]], "chain": [[m, 3, 3, 0], [m, 3, 4, 0]]}


def _read_csv(path) -> list[dict]:
    """CSV rows with every column but the text ones read as a float."""
    with open(path, newline="") as f:
        return [{k: v if k in ("problem_id", "case", "series") else float(v)
                 for k, v in row.items()} for row in csv.DictReader(f)]


def _read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _ra_valid(rec) -> tuple[int, int]:
    """(valid, unique valid) cycle outputs of a record."""
    bits = [c["output_bits"] for c in rec["cycles"] if c["valid"]]
    return len(bits), len(set(bits))


def test_aggregates_recompute_from_the_records(tmp_path):
    """Every sweep_summary.csv and baseline.csv value, and every scaling.csv
    column but avg_forward_unique, follows from the JSONL records alone.
    Records keep the forward count, valid count and minimum energy, not the
    valid bitstrings, so the forward unique-valid count cannot be rebuilt."""
    cfg = tiny_config(sizes=(3, 4))
    sweep_reverse_distance(cfg, tmp_path / "sweep")
    expected = []
    for rec in _read_jsonl(tmp_path / "sweep" / "sweep_records.jsonl"):
        seeded_valid = rec["forward"]["valid_count"] > 0
        total, unique = _ra_valid(rec)
        expected.append({
            "problem_index": rec["seeds"]["chain"][2], "problem_id": rec["problem_id"],
            "n_vars": rec["n_vars"], "k": rec["k"], "s_prime": rec["path_info"]["s_prime"],
            "initial_valid": int(seeded_valid), "case": "AB" if seeded_valid else "CD",
            "total_valid": total, "unique_valid": unique, "n_cycles": len(rec["cycles"]),
        })
    assert _read_csv(tmp_path / "sweep" / "sweep_summary.csv") == expected

    baseline_run(cfg, tmp_path / "baseline")
    arms = defaultdict(list)
    for rec in _read_jsonl(tmp_path / "baseline" / "baseline_records.jsonl"):
        arms[(rec["series"], rec["path_info"]["s_prime"])].append(_ra_valid(rec))
    expected = [{"series": series, "s_prime": s, "n_problems": len(counts),
                 "avg_valid": fmean(v for v, _ in counts),
                 "avg_unique": fmean(u for _, u in counts)}
                for (series, s), counts in arms.items()]
    key = lambda row: (row["series"], row["s_prime"])
    assert sorted(_read_csv(tmp_path / "baseline" / "baseline.csv"), key=key) == sorted(
        expected, key=key)

    scaling_run(cfg, tmp_path / "scaling")
    sizes = defaultdict(list)
    for rec in _read_jsonl(tmp_path / "scaling" / "scaling_records.jsonl"):
        sizes[rec["n_vars"]].append(rec)
    expected = [{"n_vars": n, "n_problems": len(recs),
                 "avg_forward_valid": fmean(r["forward"]["valid_count"] for r in recs),
                 "avg_ra_valid": fmean(_ra_valid(r)[0] for r in recs),
                 "avg_ra_unique": fmean(_ra_valid(r)[1] for r in recs)}
                for n, recs in sorted(sizes.items())]
    rows = _read_csv(tmp_path / "scaling" / "scaling.csv")
    assert all(0 <= row.pop("avg_forward_unique") <= row["avg_forward_valid"] for row in rows)
    assert rows == expected


def test_scaling_requires_sizes(tmp_path):
    with pytest.raises(ConfigError, match="sizes"):
        scaling_run(tiny_config(), tmp_path)


def test_baseline_emits_both_series_with_shared_chain_seeds(tmp_path):
    cfg = tiny_config()
    rows = baseline_run(cfg, tmp_path)
    series = {r["series"] for r in rows}
    assert series == {"best_bitstring", "random_bitstring"}
    assert len(rows) == 2 * len(cfg.s_grid)
    by_key = {}
    for line in (tmp_path / "baseline_records.jsonl").read_text().splitlines():
        rec = json.loads(line)
        key = (rec["problem_id"], rec["path_info"]["s_prime"])
        by_key.setdefault(key, {})[rec["series"]] = rec
    for pair in by_key.values():
        assert set(pair) == {"best_bitstring", "random_bitstring"}
        # paired arms share the chain seed stream and differ only in the seed bits
        assert pair["best_bitstring"]["seeds"]["chain"] == pair["random_bitstring"]["seeds"]["chain"]
        assert pair["random_bitstring"]["forward"] is None
        assert pair["best_bitstring"]["forward"] is not None


def test_manifest_replay_roundtrip(tmp_path):
    cfg = tiny_config()
    sweep_reverse_distance(cfg, tmp_path)
    manifest = tmp_path / "manifest.json"
    assert json.loads(manifest.read_text())["command"] == "sweep"
    loaded = load_config(manifest, "sweep")
    assert loaded == cfg
    other = tmp_path / "replay"
    sweep_reverse_distance(loaded, other)
    assert (other / "sweep_records.jsonl").read_bytes() == \
        (tmp_path / "sweep_records.jsonl").read_bytes()


def test_config_loader_reads_a_bare_config_or_a_manifest_with_overrides(tmp_path):
    bare = tmp_path / "config.json"
    bare.write_text(json.dumps(tiny_config().to_dict()))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "sweep", "config": tiny_config().to_dict()}))
    for path in (bare, manifest):
        assert load_config(path, "sweep") == tiny_config()
        assert load_config(path, "sweep", seed=4, out_dir="x") == tiny_config(seed=4, out_dir="x")
    assert load_config(None, "sweep", count=3) == ExperimentConfig(count=3)
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "missing.json", "sweep")


def test_config_loader_refuses_another_commands_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "scaling",
                                    "config": tiny_config(sizes=(3, 4)).to_dict()}))
    assert load_config(manifest, "scaling") == tiny_config(sizes=(3, 4))
    with pytest.raises(ConfigError, match="'scaling' manifest; 'sweep' cannot replay it"):
        load_config(manifest, "sweep")
    bare = tmp_path / "config.json"
    bare.write_text(json.dumps(tiny_config(sizes=(3, 4)).to_dict()))
    assert load_config(bare, "sweep") == tiny_config(sizes=(3, 4))


def test_rejected_run_creates_no_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("ANNEALAB_WORKERS", "abc")
    out = tmp_path / "bad"
    with pytest.raises(ConfigError, match="ANNEALAB_WORKERS must be an integer"):
        sweep_reverse_distance(tiny_config(), out)
    assert not out.exists()


def test_reverse_stage_that_cannot_finish_is_refused_before_any_evolve(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("evolved before refusing the reverse stage")

    monkeypatch.setattr(dynamics, "evolve", unreachable)
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match=r"over 1e\+08 Chebyshev terms: lower time_scale "
                                         r"\(1e\+306\)"):
        sweep_reverse_distance(tiny_config(backend="statevector", n_vertices=3, k=2,
                                           ra_time_scale=1e306), out)
    assert not out.exists()


def test_svmc_stage_that_overflows_its_time_scale_is_refused_before_any_draw(tmp_path,
                                                                            monkeypatch):
    # the config takes any finite positive scale; the rotor sampler's check
    # refuses one whose product with the 25 sweeps per waypoint overflows
    def unreachable(*args, **kwargs):
        raise AssertionError("drew before refusing the reverse stage")

    monkeypatch.delenv("ANNEALAB_WORKERS", raising=False)
    monkeypatch.setattr(svmc, "svmc_run", unreachable)
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match=r"time_scale must be positive and finite, got 1e\+308 "
                                         r"\(times 25\)"):
        sweep_reverse_distance(tiny_config(ra_time_scale=1e308), out)
    assert not out.exists()


def test_substituted_rotor_sampler_keeps_the_run_settings(monkeypatch):
    big = instance(tiny_config(n_vertices=5, k=5), 0)  # 25 variables
    settings = set()
    svmc_run = svmc.svmc_run

    def spy(*args, **kwargs):
        settings.add((kwargs["sweeps_per_waypoint"], kwargs["beta"]))
        return svmc_run(*args, **kwargs)

    monkeypatch.setattr(svmc, "svmc_run", spy)
    rec = assisted_reverse_anneal(
        big, make_backend(tiny_config(backend="statevector", svmc_sweeps=7, svmc_beta=3.0)),
        resolve_schedule("linear"), s_prime=0.5, forward_shots=2, max_cycles=1)
    assert (rec.backend_kind, rec.backend_substituted) == ("svmc", True)
    assert settings == {(7, 3.0)}


def test_make_backend_builds_the_named_backend_with_the_run_settings():
    assert make_backend(ExperimentConfig(svmc_sweeps=7, svmc_beta=3.0)) == \
        StatevectorBackend(SvmcBackend(7, 3.0))
    assert make_backend(ExperimentConfig(backend="svmc", svmc_sweeps=7, svmc_beta=3.0)) == \
        SvmcBackend(7, 3.0)


@pytest.mark.parametrize("backend", ["statevector", "svmc"])
def test_backend_survives_a_pickle_round_trip(backend):
    # ANNEALAB_WORKERS ships the backend to its worker processes this way
    made = make_backend(ExperimentConfig(backend=backend, svmc_sweeps=7, svmc_beta=3.0))
    assert pickle.loads(pickle.dumps(made)) == made
