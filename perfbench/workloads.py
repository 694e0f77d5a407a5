"""The benchmark's four workloads.

Each workload builds its inputs from the seed (`prepare`, the set-up a fresh
process pays), makes one timed protocol call that ends when its output files
are written (`run`), and then reads those files back: the work they record,
the properties the workload is meant to have, and a correctness check.

Sizes are fixed so that every seed does the same amount of work: qubit and
spin counts do not depend on the generated graph, collect-mode chains always
run their full cycle budget, and the anneal instance has no proper coloring,
so its chain never halts early. Only the instances change with the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from annealab import cli, coloring_qubo, experiments, graphs, heuristic, schedules, spectrum

SWEEP = dict(n_vertices=3, count=1, k=2, backend="statevector", schedule="steep",
             s_grid=(0.44, 0.72, 0.93), ra_samples=2, forward_shots=100)
BASELINE = dict(n_vertices=5, count=2, k=3, backend="svmc", schedule="steep",
                forward_shots=8, ra_samples=1, svmc_sweeps=150, svmc_beta=30.0)
ANNEAL_ARGS = ["--k", "2", "--schedule", "steep", "--s-prime", "0.44",
               "--forward-shots", "5", "--forward-time-scale", "0.02",
               "--ra-time-scale", "1.0", "--max-cycles", "1"]
# (path length, s grid): 10 and 12 qubits take the dense solver, 14 the iterative one
SPECTRUM = ((5, tuple(np.linspace(0.0, 1.0, 11))), (6, (0.5,)), (7, (0.3, 0.7)))
SPECTRUM_LEVELS = 15
LEVEL_TOL = 1e-8
ENERGY_TOL = 1e-9
# the seed whose outputs golden.json pins byte for byte
DEFAULT_SEED = 0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def relabel(g: graphs.Graph, rng: np.random.Generator) -> graphs.Graph:
    """The same graph with its vertices permuted: the instance changes, the
    amount of work does not."""
    perm = rng.permutation(g.n_vertices)
    return graphs.Graph(g.n_vertices, tuple((int(perm[u]), int(perm[v])) for u, v in g.edges))


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def check_chain(problem, rec: dict, errors: list[str]) -> None:
    """Re-derive every stored energy and valid flag; cycles feed forward."""
    current = rec["initial_bits"]
    for c in rec["cycles"]:
        bits = c["output_bits"]
        if c["input_bits"] != current:
            errors.append(f"{rec['problem_id']}: cycle input {c['input_bits']} is not {current}")
        if abs(problem.energy(bits) - c["energy"]) > ENERGY_TOL:
            errors.append(f"{rec['problem_id']}: energy of {bits} is not {c['energy']}")
        if coloring_qubo.validate(problem, bits) != c["valid"]:
            errors.append(f"{rec['problem_id']}: valid flag of {bits} is not {c['valid']}")
        current = bits


def _evolve_repeat_share(keys: list) -> float:
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def statevector_properties(n_vars: list[int], machine: dict) -> dict:
    state_bytes = [16 << n for n in n_vars]
    return {"qubits": n_vars, "state_bytes": state_bytes,
            "l1d_bytes": machine.get("l1d_bytes"), "l2_bytes": machine.get("l2_bytes"),
            "state_over_l1d": [b / machine["l1d_bytes"] for b in state_bytes]
            if machine.get("l1d_bytes") else None}


def statevector_cross_check(layer, cycles, forwards, repeat_share) -> list[str]:
    errors = []
    rev = layer["heuristic.reverse.calls"][0]
    fwd = layer["heuristic.forward.calls"][0]
    evolves = layer["dynamics.evolve.calls"][0]
    if rev != cycles:
        errors.append(f"backend reverse calls {rev} != recorded cycles {cycles}")
    if fwd != forwards:
        errors.append(f"backend forward calls {fwd} != forward stages {forwards}")
    if evolves != fwd + rev:
        errors.append(f"evolve calls {evolves} != forward {fwd} + reverse {rev}")
    traced = layer["dynamics.evolve.repeat_ratio"][0]
    if abs(traced - repeat_share) > 1e-12:
        errors.append(f"traced evolve repeat ratio {traced} != share from records {repeat_share}")
    return errors


class Workload:
    name = ""
    work_name = "cycles_per_s"
    reference = "mixed"  # the slice that samples machine speed (reference.py)
    outputs: tuple[str, ...] = ()

    def prepare(self, seed: int, in_dir: Path):
        raise NotImplementedError

    def run(self, inputs, out: Path) -> None:
        raise NotImplementedError

    def work(self, out: Path) -> int:
        """Units of work recorded in the outputs (RA cycles or eigensolves)."""
        raise NotImplementedError

    def golden(self, out: Path) -> dict:
        """Reference outputs of the default seed, as stored in golden.json."""
        return {"sha256": {name: digest(out / name) for name in self.outputs}}

    def check(self, inputs, out: Path, golden: dict, seed: int) -> list[str]:
        """Problems with the outputs; the golden digests pin the default seed."""
        if seed != DEFAULT_SEED:
            return []
        return [f"{name}: sha256 differs from the golden digest"
                for name, want in golden["sha256"].items() if digest(out / name) != want]

    def properties(self, inputs, out: Path, machine: dict) -> dict:
        return {}

    def cross_check(self, inputs, out: Path, layer: dict) -> list[str]:
        return []


class _Protocol(Workload):
    """sweep_reverse_distance / baseline_run on a generated config."""

    settings: dict = {}
    records = ""

    def prepare(self, seed, in_dir):
        return experiments.ExperimentConfig(seed=seed, out_dir="out", **self.settings)

    def instances(self, config) -> list[tuple[str, object]]:
        """(problem_id, problem) per problem index, regenerated from the config."""
        qs = [experiments.instance(config, i) for i in range(config.count)]
        return [(heuristic.problem_id(q), q) for q in qs]

    def work(self, out):
        return sum(len(r["cycles"]) for r in read_jsonl(out / self.records))

    def check(self, config, out, golden, seed):
        errors = super().check(config, out, golden, seed)
        problems = dict(self.instances(config))
        recs = read_jsonl(out / self.records)
        for rec in recs:
            q = problems.get(rec["problem_id"])
            if q is None:
                errors.append(f"record for unknown problem {rec['problem_id']}")
                continue
            if len(rec["cycles"]) != config.ra_samples:
                errors.append(f"{rec['problem_id']}: {len(rec['cycles'])} cycles, "
                              f"expected {config.ra_samples}")
            check_chain(q, rec, errors)
        return errors + self.check_summary(config, recs, out)

    def check_summary(self, config, recs, out) -> list[str]:
        raise NotImplementedError

    def properties(self, config, out, machine):
        recs = read_jsonl(out / self.records)
        n_vars = sorted({r["n_vars"] for r in recs})
        return {"problems": config.count, "n_vars": n_vars,
                "cycles": sum(len(r["cycles"]) for r in recs)}


class SweepSV(_Protocol):
    name = "sweep-sv"
    settings = SWEEP
    records = "sweep_records.jsonl"
    outputs = ("sweep_summary.csv", "sweep_records.jsonl", "manifest.json")

    def run(self, config, out):
        experiments.sweep_reverse_distance(config, out_dir=out)

    def check_summary(self, config, recs, out):
        errors = []
        rows = list(csv.DictReader((out / "sweep_summary.csv").read_text().splitlines()))
        if len(rows) != len(recs):
            errors.append(f"{len(rows)} summary rows for {len(recs)} records")
        problems = dict(self.instances(config))
        for row, rec in zip(rows, recs):
            valid = [c["output_bits"] for c in rec["cycles"] if c["valid"]]
            want = (rec["problem_id"], rec["path_info"]["s_prime"], len(valid), len(set(valid)),
                    len(rec["cycles"]),
                    int(coloring_qubo.validate(problems[rec["problem_id"]], rec["initial_bits"])))
            got = (row["problem_id"], float(row["s_prime"]), int(row["total_valid"]),
                   int(row["unique_valid"]), int(row["n_cycles"]), int(row["initial_valid"]))
            if got != want:
                errors.append(f"summary row {got} disagrees with its record {want}")
        return errors

    def properties(self, config, out, machine):
        props = super().properties(config, out, machine)
        props.update(statevector_properties(props["n_vars"], machine))
        props["evolve_repeat_share"] = _evolve_repeat_share(self.evolve_keys(config, out))
        return props

    def evolve_keys(self, config, out) -> list:
        """One key per evolve the sweep made, built from what the evolved
        state depends on: a forward anneal per problem index (identical
        problems repeat it) and a reverse anneal per recorded cycle."""
        keys = [(pid, "forward") for pid, _ in self.instances(config)]
        for r in read_jsonl(out / self.records):
            p = r["path_info"]
            keys += [(r["problem_id"], p["s_prime"], p["total_time"], p["time_scale"],
                      c["input_bits"]) for c in r["cycles"]]
        return keys

    def cross_check(self, config, out, layer):
        return statevector_cross_check(layer, self.work(out), config.count,
                                       _evolve_repeat_share(self.evolve_keys(config, out)))


class BaselineSVMC(_Protocol):
    name = "baseline-svmc"
    settings = BASELINE
    records = "baseline_records.jsonl"
    outputs = ("baseline.csv", "baseline_records.jsonl", "manifest.json")

    def run(self, config, out):
        experiments.baseline_run(config, out_dir=out)

    def check_summary(self, config, recs, out):
        errors = []
        valid: dict[tuple[str, float], list[int]] = {}
        for r in recs:
            n = sum(c["valid"] for c in r["cycles"])
            valid.setdefault((r["series"], r["path_info"]["s_prime"]), []).append(n)
        rows = list(csv.DictReader((out / "baseline.csv").read_text().splitlines()))
        if len(rows) != len(valid):
            errors.append(f"{len(rows)} baseline rows for {len(valid)} (series, s') groups")
        for row in rows:
            counts = valid.get((row["series"], float(row["s_prime"])), [])
            if int(row["n_problems"]) != len(counts) or not counts or \
                    abs(float(row["avg_valid"]) - sum(counts) / len(counts)) > 1e-12:
                errors.append(f"baseline row {row} disagrees with the records")
        return errors

    def properties(self, config, out, machine):
        props = super().properties(config, out, machine)
        props["spins_per_trajectory"] = props["n_vars"]
        props["trajectories"] = config.count * config.forward_shots + props["cycles"]
        return props

    def cross_check(self, config, out, layer):
        errors = []
        cycles = self.work(out)
        rev = layer["heuristic.reverse.calls"][0]
        runs = layer["svmc.svmc_run.calls"][0]
        shots = config.count * config.forward_shots + cycles * config.shots_per_cycle
        if rev != cycles:
            errors.append(f"backend reverse calls {rev} != recorded cycles {cycles}")
        if runs != shots:
            errors.append(f"svmc_run calls {runs} != shots {shots}")
        return errors


class AnnealSV(Workload):
    name = "anneal-sv"
    reference = "vector"
    outputs = ("anneal_record.jsonl", "manifest.json")

    def prepare(self, seed, in_dir):
        # P6 plus the chord (0, 2): the triangle leaves no 2-coloring, so
        # every seed runs the forward stage and the full cycle budget
        g = graphs.Graph(6, graphs.path_graph(6).edges + ((0, 2),))
        g = relabel(g, np.random.default_rng([seed, 1]))
        in_dir.mkdir(parents=True, exist_ok=True)
        g.save(in_dir / "graph.json")
        return {"graph": g, "path": in_dir / "graph.json", "seed": seed}

    def run(self, inputs, out):
        argv = ["anneal", "--graph", str(inputs["path"]), *ANNEAL_ARGS,
                "--seed", str(inputs["seed"]), "--out", str(out)]
        code = cli.cli_entry(argv)
        if code != 0:
            raise RuntimeError(f"annealab {' '.join(argv)} exited with {code}")

    def work(self, out):
        return len(read_jsonl(out / "anneal_record.jsonl")[0]["cycles"])

    def check(self, inputs, out, golden, seed):
        errors = super().check(inputs, out, golden, seed)
        rec = read_jsonl(out / "anneal_record.jsonl")[0]
        q = coloring_qubo.build_coloring_qubo(inputs["graph"], 2)
        check_chain(q, rec, errors)
        max_cycles = int(ANNEAL_ARGS[ANNEAL_ARGS.index("--max-cycles") + 1])
        if rec["outcome"] != "exhausted" or len(rec["cycles"]) != max_cycles:
            errors.append(f"outcome {rec['outcome']} after {len(rec['cycles'])} cycles; "
                          f"an uncolorable instance must exhaust {max_cycles}")
        if abs(q.energy(rec["initial_bits"]) - rec["forward"]["min_energy"]) > ENERGY_TOL:
            errors.append("initial bits are not the lowest-energy forward sample")
        return errors

    def evolve_keys(self, out):
        rec = read_jsonl(out / "anneal_record.jsonl")[0]
        return [("forward",)] + [(c["input_bits"],) for c in rec["cycles"]]

    def properties(self, inputs, out, machine):
        props = statevector_properties([2 * inputs["graph"].n_vertices], machine)
        props["cycles"] = self.work(out)
        props["evolve_repeat_share"] = _evolve_repeat_share(self.evolve_keys(out))
        return props

    def cross_check(self, inputs, out, layer):
        return statevector_cross_check(layer, self.work(out), 1,
                                       _evolve_repeat_share(self.evolve_keys(out)))


class Spectrum(Workload):
    name = "spectrum"
    work_name = "eigensolves_per_s"
    reference = "vector"
    outputs = tuple(f"spectrum_q{2 * n}.csv" for n, _ in SPECTRUM) + ("min_gap.csv",)

    def prepare(self, seed, in_dir):
        rng = np.random.default_rng([seed, 3])
        return [(relabel(graphs.path_graph(n), rng), grid) for n, grid in SPECTRUM]

    def run(self, inputs, out):
        out.mkdir(parents=True, exist_ok=True)
        sched = schedules.resolve_schedule("linear")
        gaps = []
        for g, grid in inputs:
            q = coloring_qubo.build_coloring_qubo(g, 2)
            diag = spectrum.build_problem_diagonal(q)
            table = spectrum.spectrum_sweep(sched, diag, grid=grid, m=SPECTRUM_LEVELS)
            table.to_csv(out / f"spectrum_q{q.n_vars}.csv")
            gaps.append((q.n_vars, *spectrum.min_gap(table)))
        with open(out / "min_gap.csv", "w") as f:
            f.write("n_qubits,s,gap\n")
            for n, s, gap in gaps:
                f.write(f"{n},{s!r},{gap!r}\n")

    def tables(self, out) -> dict[str, np.ndarray]:
        return {name: np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
                for name in self.outputs}

    def work(self, out):
        return sum(len(t) for name, t in self.tables(out).items() if name != "min_gap.csv")

    def golden(self, out):
        return {"levels": {name: t.tolist() for name, t in self.tables(out).items()}}

    def check(self, inputs, out, golden, seed):
        # levels are invariant under vertex relabeling, so the golden table
        # holds for every seed; it is compared within a tolerance because
        # rounding-level changes are not failures
        errors = []
        for name, got in self.tables(out).items():
            want = np.asarray(golden["levels"][name])
            if got.shape != want.shape:
                errors.append(f"{name}: shape {got.shape}, golden {want.shape}")
            elif not np.allclose(got, want, rtol=0.0, atol=LEVEL_TOL):
                worst = float(np.max(np.abs(got - want)))
                errors.append(f"{name}: differs from the golden table by up to {worst:.3e}")
        return errors

    def properties(self, inputs, out, machine):
        limit = getattr(spectrum, "DENSE_QUBIT_LIMIT", None)
        split = {"dense": 0, "iterative": 0}
        for g, grid in inputs:
            kind = "dense" if limit is not None and 2 * g.n_vertices <= limit else "iterative"
            split[kind] += len(grid)
        return {"qubits": [2 * g.n_vertices for g, _ in inputs],
                "solves_per_size": [len(grid) for _, grid in inputs],
                "dense_qubit_limit": limit, "solves": split}

    def cross_check(self, inputs, out, layer):
        solves = layer["spectrum.eigensolve_dense.calls"][0] + \
            layer["spectrum.eigensolve_iterative.calls"][0]
        rows = self.work(out)
        return [] if solves == rows else [f"eigensolves {solves} != spectrum rows {rows}"]


WORKLOADS = {w.name: w for w in (SweepSV(), AnnealSV(), BaselineSVMC(), Spectrum())}
