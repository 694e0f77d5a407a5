"""Golden sha256 digests of fixed-config outputs.

Eight small runs must reproduce their record and CSV files byte for byte:
an SVMC sweep, an SVMC keep-best sweep with two shots per cycle, an SVMC
baseline, an SVMC scaling run, a 6-qubit statevector sweep (the benchmark's
sweep-sv config at seed 0), and three `anneal` runs: statevector on P3 with
k=2, SVMC on P4 with k=2 (solved by its third reverse anneal), and one whose
forward stage solves P3 (a solved-by-forward record). Manifests are left
out because they embed the numpy and scipy versions. After an intended
output change, take the new digests from the failure report (`-vv` prints
them in full) and say in CHANGES.md why they moved.
"""

import hashlib
import json

import pytest

from annealab.cli import cli_entry
from annealab.experiments import ExperimentConfig, baseline_run, scaling_run, sweep_reverse_distance
from annealab.graphs import path_graph

SVMC = dict(n_vertices=4, p=0.5, count=2, seed=3, backend="svmc", schedule="steep",
            s_grid=(0.44, 0.93), forward_shots=4, ra_samples=3, svmc_sweeps=20)
STATEVECTOR = dict(n_vertices=3, count=1, seed=0, k=2, backend="statevector", schedule="steep",
                   s_grid=(0.44, 0.72, 0.93), forward_shots=100, ra_samples=2)

GOLDEN = {
    "sweep": {
        "sweep_summary.csv":
            "431cf164f729bb327880304face74525de4235cfbb95d9495e66bd185f07a925",
        "sweep_records.jsonl":
            "2316d0eb813b94c6e98d64ccb42c55fcd23eb18cd40d4ac5dfeaeb32c792fcb0",
    },
    "sweep_statevector": {
        "sweep_summary.csv":
            "f4545c2aaddc6af424897916e557312c365ae911a78968f88c08642aafd136cc",
        "sweep_records.jsonl":
            "b8c8665cc208f714a1aec3a6ec7cfef210cb4db868a219f4aa986cd2da79bc94",
    },
    "baseline": {
        "baseline.csv":
            "e38aa8e60f222b4587b6be86aacf0cc8e069a9e635b47f7f579507ca42a67d05",
        "baseline_records.jsonl":
            "92ab0ac761be2f29adca0b0c0d0fd8b327fe6e7eb379858d0a14c121515815ce",
    },
    "scaling": {
        "scaling.csv":
            "b69db3ae8cd432196a34598708464ec909711a5e47ffbbca17ec218ac72f8bdd",
        "scaling_records.jsonl":
            "44bb50f1c7f932a6b8651c7d8fa8fc0e2fe63c80c25b0cde19b21059c7edade5",
    },
    "anneal": {
        "anneal_record.jsonl":
            "0cf5d868320990bffb04404e9554cc103a556a975435ee40097be334d8927ec0",
    },
    "sweep_keep_best": {
        "sweep_summary.csv":
            "0ebe51f311c683f595aa5474d64cc6b6975e622e7bbd6473bd34a0d0b7037917",
        "sweep_records.jsonl":
            "e38ba0f736d9e5c87c2c9ee2de53cfe93ad8471ebd11743c59271fe9fb0ec90f",
    },
    "anneal_svmc": {
        "anneal_record.jsonl":
            "19c1914815202bce780fa5e537411e2c6433f8747bd5f4f038a8187f1a2794ef",
    },
    "anneal_forward": {
        "anneal_record.jsonl":
            "7c9280dec67408807cd84eb6e40fb3630a30a68b2203a94a880a15c0f75143c1",
    },
}


def _sweep(out):
    sweep_reverse_distance(ExperimentConfig(**SVMC), out)


def _sweep_statevector(out):
    sweep_reverse_distance(ExperimentConfig(**STATEVECTOR), out)


def _baseline(out):
    baseline_run(ExperimentConfig(**SVMC), out)


def _scaling(out):
    scaling_run(ExperimentConfig(**{**SVMC, "sizes": (3, 4), "count": 1}), out)


def _sweep_keep_best(out):
    sweep_reverse_distance(ExperimentConfig(**SVMC, policy="keep-best", shots_per_cycle=2), out)


def _anneal_cli(out, n_vertices, *flags, outcome=None):
    graph = out.parent / f"p{n_vertices}.json"
    path_graph(n_vertices).save(graph)
    argv = ["anneal", "--graph", graph, "--k", 2, "--schedule", "steep", *flags, "--out", out]
    assert cli_entry([str(a) for a in argv]) == 0
    if outcome is not None:  # the path this run is meant to pin
        assert json.loads((out / "anneal_record.jsonl").read_text())["outcome"] == outcome


def _anneal(out):
    _anneal_cli(out, 3, "--s-prime", 0.44, "--forward-shots", 3, "--forward-time-scale", 0.02,
                "--max-cycles", 2, "--seed", 1)


def _anneal_svmc(out):
    _anneal_cli(out, 4, "--backend", "svmc", "--svmc-sweeps", 3, "--forward-shots", 2,
                "--ra-time-scale", 0.2, "--max-cycles", 4, "--seed", 0, outcome="solved-by-ra")


def _anneal_forward(out):
    _anneal_cli(out, 3, "--forward-shots", 3, "--max-cycles", 2, "--seed", 0,
                outcome="solved-by-forward")


RUNS = {"sweep": _sweep, "sweep_statevector": _sweep_statevector, "baseline": _baseline,
        "scaling": _scaling, "anneal": _anneal, "sweep_keep_best": _sweep_keep_best,
        "anneal_svmc": _anneal_svmc, "anneal_forward": _anneal_forward}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path):
    out = tmp_path / name
    RUNS[name](out)
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert got == GOLDEN[name]
