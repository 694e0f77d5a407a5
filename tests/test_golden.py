"""Golden sha256 digests of fixed-config outputs.

Five small runs (an SVMC sweep, an SVMC baseline, an SVMC scaling run, a
statevector `anneal` on P3 with k=2 and a 6-qubit statevector sweep, the
benchmark's sweep-sv config at seed 0) must reproduce their record and CSV
files byte for byte. Manifests are left out because they embed the numpy
and scipy versions. After an intended output change, take the new digests
from the failure report (`-vv` prints them in full) and say in CHANGES.md
why they moved.
"""

import hashlib

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
            "b477e8d46fa10c446fcec6ea11f5f29375bf854ccbadca2ac8240d0f91a2f1bf",
        "scaling_records.jsonl":
            "3fb4508201d0835ecda041e9c00b08eda01589d0de93e6c342917e910ee0b056",
    },
    "anneal": {
        "anneal_record.jsonl":
            "0cf5d868320990bffb04404e9554cc103a556a975435ee40097be334d8927ec0",
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


def _anneal(out):
    graph = out.parent / "p3.json"
    path_graph(3).save(graph)
    argv = ["anneal", "--graph", graph, "--k", 2, "--schedule", "steep",
            "--s-prime", 0.44, "--forward-shots", 3, "--forward-time-scale", 0.02,
            "--max-cycles", 2, "--seed", 1, "--out", out]
    assert cli_entry([str(a) for a in argv]) == 0


RUNS = {"sweep": _sweep, "sweep_statevector": _sweep_statevector, "baseline": _baseline,
        "scaling": _scaling, "anneal": _anneal}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path):
    out = tmp_path / name
    RUNS[name](out)
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert got == GOLDEN[name]
