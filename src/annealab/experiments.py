"""Batch protocols: reverse-distance sweep, size scaling, random baseline.

Every run is a pure function of its config. Randomness derives from the
master seed through fixed stage tags. `batch_seed` builds every batch seed
by one rule, [master, stage, *problem key, *chain key]: the problem key is
(i,), or (n, i) for problem i of size n in a scaling run, and the chain key
is (j,) for grid index j, or () for scaling's single s'. `anneal` runs one
given problem through the same runner with its own tags:

                                batch protocols                anneal
    graph of problem i          [master, 0, *problem]          (given)
    forward stage of problem i  [master, 1, *problem]          [master, 0]
    initial selection           [master, 2, *problem]          [master, 1]
    RA chain                    [master, 3, *problem, *chain]  [master]
    cycle c of a chain          [*chain seed, 2, c]            [master, 2, c]
    random baseline initial     [master, 4, *problem]

Every protocol is a plan per problem: one forward stage, then a list of
collect-mode chains (series, chain key, s'). One driver runs the plans and
writes the records; each protocol only aggregates them into its CSV. The
baseline arms share the chain seeds, so assisted vs random comparisons
differ only in the starting bitstring. Raw records are JSONL; aggregates
are CSV recomputable from the raw dumps, bar scaling.csv's avg_forward_unique
(records keep only the forward count, valid count and minimum energy); a
manifest carrying the config and its hash makes any run replayable bit for bit.

Per-s' sample budgets count reverse-anneal cycles (one chained sample per
cycle), not measurement shots.
"""

import csv
import hashlib
import json
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

from . import __version__ as _pkg_version
from .coloring_qubo import QuboProblem, build_coloring_qubo
from .dynamics import DEFAULT_TOTAL_TIME
from .graphs import Graph, generate_er, greedy_color_largest_first
from .heuristic import (
    FEED_LAST,
    POLICIES,
    RunRecord,
    StatevectorBackend,
    SvmcBackend,
    random_bits,
    run_chain,  # noqa: F401 -- kept importable here; perfbench/test_tracer.py patches this binding
    run_problem,
)
from .schedules import Schedule, resolve_schedule, reverse_distance_grid
from .svmc import DEFAULT_BETA, DEFAULT_SWEEPS_PER_WAYPOINT

SCALING_REVERSE_DISTANCE = 0.44
WORKERS_ENV = "ANNEALAB_WORKERS"
BACKENDS = ("statevector", "svmc")
SERIES = ("best_bitstring", "random_bitstring")  # the baseline's two arms


class ConfigError(ValueError):
    """Config rejected before any computation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable description of a batch run; hash covers everything but
    the output location."""

    n_vertices: int = 5
    p: float = 0.5
    count: int = 20
    seed: int = 0
    k: int | None = None  # None: per-instance greedy color count
    backend: str = "statevector"
    schedule: str = "linear"  # bundled name or CSV path
    s_grid: tuple[float, ...] = field(default_factory=lambda: tuple(reverse_distance_grid()))
    forward_shots: int = 100
    ra_samples: int = 100  # chained RA cycles per s'
    total_time: float = DEFAULT_TOTAL_TIME
    forward_time_scale: float | None = None
    ra_time_scale: float | None = None
    shots_per_cycle: int = 1
    policy: str = FEED_LAST
    svmc_sweeps: int = DEFAULT_SWEEPS_PER_WAYPOINT
    svmc_beta: float = DEFAULT_BETA
    sizes: tuple[int, ...] = ()  # scaling runs only
    out_dir: str = "runs"

    def __post_init__(self):
        object.__setattr__(self, "s_grid", tuple(float(s) for s in self.s_grid))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        self.validate()

    def validate(self):
        def time_scale(v):  # the sampler's check_time_scale bounds its product with a span
            return v is None or 0 < v < math.inf

        for name, ok, rule in (
            ("n_vertices", self.n_vertices >= 1, ">= 1"),
            ("p", 0.0 <= self.p <= 1.0, "in [0, 1]"),
            ("count", self.count >= 1, ">= 1"),
            ("seed", self.seed >= 0, "non-negative"),
            ("k", self.k is None or self.k >= 1, ">= 1"),
            ("forward_shots", self.forward_shots >= 1, ">= 1"),
            ("ra_samples", self.ra_samples >= 0, ">= 0"),
            ("total_time", 0 < self.total_time < math.inf, "positive and finite"),
            ("forward_time_scale", time_scale(self.forward_time_scale), "positive and finite"),
            ("ra_time_scale", time_scale(self.ra_time_scale), "positive and finite"),
            ("shots_per_cycle", self.shots_per_cycle >= 1, ">= 1"),
            ("sizes", all(n >= 1 for n in self.sizes), ">= 1"),
            ("sizes", len(set(self.sizes)) == len(self.sizes), "free of repeated values"),
            ("s_grid", self.s_grid and all(0.0 < s < 1.0 for s in self.s_grid),
             "non-empty with values in (0, 1)"),
            ("s_grid", len(set(self.s_grid)) == len(self.s_grid), "free of repeated values"),
            ("backend", self.backend in BACKENDS, f"one of {BACKENDS}"),
            ("policy", self.policy in POLICIES, f"one of {POLICIES}"),
            ("svmc_sweeps", self.svmc_sweeps >= 1, ">= 1"),
            ("svmc_beta", self.svmc_beta > 0, "positive"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, **overrides) -> "ExperimentConfig":
        """Config from a JSON-shaped dict; `overrides` win over `d`."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        d = {**d, **overrides}
        extra = set(d) - set(FIELD_TYPES)
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        for name, value in d.items():
            kind, many, optional = FIELD_TYPES[name]
            if not _type_ok(value, kind, many, optional):
                want = ("a list of " if many else "") + kind.__name__
                raise ConfigError(f"{name} must be {want}{' or null' if optional else ''}, "
                                  f"got {value!r}")
        return cls(**d)


def _field_type(tp) -> tuple[type, bool, bool]:
    """(value type, is a tuple of them, may be None) of a field annotation."""
    args = typing.get_args(tp)
    optional = type(None) in args
    if optional:
        tp = next(a for a in args if a is not type(None))
    if typing.get_origin(tp) is tuple:
        return typing.get_args(tp)[0], True, optional
    return tp, False, optional


# field name -> (value type, is a tuple, may be None); drives from_dict's
# type check and the CLI's config flags
FIELD_TYPES = {f.name: _field_type(f.type) for f in fields(ExperimentConfig)}


def _type_ok(value, kind, many: bool, optional: bool) -> bool:
    if value is None:
        return optional
    if many:
        return isinstance(value, (list, tuple)) and all(
            _type_ok(v, kind, False, False) for v in value)
    # no field is a bool, and JSON ints are fine where a float is expected
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and not isinstance(value, bool)


def _params_hash(params: dict) -> str:
    # the output location is `out` for single-run commands, `out_dir` in configs
    payload = {k: v for k, v in params.items() if k not in ("out", "out_dir")}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def config_hash(config: ExperimentConfig) -> str:
    """Hash of everything that affects results; output location excluded."""
    return _params_hash(config.to_dict())


def make_backend(config: ExperimentConfig):
    """Backend named by config.backend. The rotor sampler runs with the
    config's svmc_sweeps and svmc_beta whether it is named or swapped in past
    the statevector cap."""
    svmc = SvmcBackend(sweeps_per_waypoint=config.svmc_sweeps, beta=config.svmc_beta)
    return svmc if config.backend == "svmc" else StatevectorBackend(svmc)


def coloring_problem(g: Graph, k: int | None) -> QuboProblem:
    """The k-coloring QUBO of g; k None means g's greedy color count."""
    return build_coloring_qubo(g, greedy_color_largest_first(g)[0] if k is None else k)


def batch_seed(config: ExperimentConfig, stage: int, i: int, size: int | None,
               chain: tuple[int, ...]) -> list[int]:
    """[master, stage, *problem key, *chain key], the one rule of every batch
    seed: the problem key is (i,), or (size, i) when size is not None."""
    return [config.seed, stage, *((i,) if size is None else (size, i)), *chain]


def instance(config: ExperimentConfig, i: int, size: int | None = None) -> QuboProblem:
    """Problem i of the configured set, with `size` vertices if not None
    (deterministic in config.seed)."""
    n = config.n_vertices if size is None else size
    return coloring_problem(generate_er(n, config.p, batch_seed(config, 0, i, size, ())),
                            config.k)


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        w = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    return max(w, 1)


def _pmap(fn, items):
    """Map preserving order; fans out to processes when workers > 1."""
    items = list(items)
    w = _workers()
    if w <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, items))


class ChainResult(typing.NamedTuple):
    index: int  # problem index
    forward_valid: list[str]  # valid bitstrings among the problem's forward samples
    series: str | None
    record: RunRecord


def _run_problem(config: ExperimentConfig, backend, sched: Schedule, chash: str,
                 job: tuple[int, int | None, list[tuple]]):
    """Run problem i (with `size` vertices if not None) and the collect-mode
    chain of every (series, chain key, s') entry of its plan; a chain of the
    random_bitstring series starts from random bits."""
    i, size, plan = job
    problem = instance(config, i, size=size)
    seed = partial(batch_seed, config, i=i, size=size)
    fwd, records = run_problem(
        problem, backend, sched,
        [(s_prime, seed(3, chain=key),
          random_bits(problem.n_vars, seed(4, chain=())) if series == SERIES[1] else None,
          {"master": config.seed, "chain": seed(3, chain=key)})
         for series, key, s_prime in plan],
        forward_seed=seed(1, chain=()), select_seed=seed(2, chain=()),
        forward_shots=config.forward_shots, total_time=config.total_time,
        forward_time_scale=config.forward_time_scale, n_cycles=config.ra_samples,
        ra_time_scale=config.ra_time_scale, shots_per_cycle=config.shots_per_cycle,
        policy=config.policy, halt_on_valid=False, config_hash=chash,
    )
    forward_valid = [s.bits for s in fwd if s.valid]
    return [ChainResult(i, forward_valid, series, rec)
            for (series, *_), rec in zip(plan, records)]


def _run_protocol(config: ExperimentConfig, command: str, jobs, csv_name: str, aggregate,
                  out_dir=None) -> list[dict]:
    """Run every (problem index, size, plan) job with one backend, schedule
    and config hash, sort the chain results by problem, s' and series, and
    write the CSV rows `aggregate` makes of them, <command>_records.jsonl and
    manifest.json; returns the CSV rows. The output directory is created only
    once every chain has run."""
    run = partial(_run_problem, config, make_backend(config),
                  resolve_schedule(config.schedule), config_hash(config))
    results = sorted(
        (r for batch in _pmap(run, jobs) for r in batch),
        key=lambda r: (r.record.problem_id, r.record.path_info["s_prime"], r.series or ""))
    rows = aggregate(results)
    write_run(config.out_dir if out_dir is None else out_dir, command, config.to_dict(), {
        csv_name: partial(_write_csv, rows=rows),
        f"{command}_records.jsonl": partial(_write_jsonl, dicts=(
            {**r.record.to_dict(), **({"series": r.series} if r.series else {})}
            for r in results)),
    })
    return rows


def _valid_counts(cycles) -> tuple[int, int]:
    valid_bits = [c.output_bits for c in cycles if c.valid]
    return len(valid_bits), len(set(valid_bits))


def _sweep_rows(results: list[ChainResult]) -> list[dict]:
    rows = []
    for index, forward_valid, _, rec in results:
        total, unique = _valid_counts(rec.cycles)
        rows.append({
            "problem_index": index, "problem_id": rec.problem_id, "n_vars": rec.n_vars,
            "k": rec.k, "s_prime": f"{rec.path_info['s_prime']:.10g}",
            # select_initial picks a valid forward sample whenever there is one
            "initial_valid": int(bool(forward_valid)),
            "case": "AB" if forward_valid else "CD",  # AB: the seed was valid
            "total_valid": total, "unique_valid": unique, "n_cycles": len(rec.cycles),
        })
    return rows


def sweep_reverse_distance(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Forward stage per problem, then chains over the reverse-distance grid.

    Writes sweep_summary.csv, sweep_records.jsonl and manifest.json to the
    output directory and returns the summary rows.
    """
    jobs = [(i, None, [(None, (j,), s) for j, s in enumerate(config.s_grid)])
            for i in range(config.count)]
    return _run_protocol(config, "sweep", jobs, "sweep_summary.csv", _sweep_rows, out_dir)


def _scaling_rows(results: list[ChainResult]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for r in sorted(results, key=lambda r: r.record.n_vars):
        ra_total, ra_unique = _valid_counts(r.record.cycles)
        groups.setdefault((r.record.n_vars,), []).append({
            "forward_valid": len(r.forward_valid),
            "forward_unique": len(set(r.forward_valid)),
            "ra_valid": ra_total,
            "ra_unique": ra_unique,
        })
    return _averages(groups, ("n_vars",))


def scaling_run(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Fixed reverse distance, instance sizes from config.sizes, averages
    grouped by logical qubit count (n_vars). Groups with no problems are
    omitted rather than zero-filled."""
    if not config.sizes:
        raise ConfigError("scaling run needs a non-empty sizes list")
    jobs = [(i, n, [(None, (), SCALING_REVERSE_DISTANCE)])
            for n in config.sizes for i in range(config.count)]
    return _run_protocol(config, "scaling", jobs, "scaling.csv", _scaling_rows, out_dir)


def _baseline_rows(s_grid, results: list[ChainResult]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {(series, s): [] for series in SERIES for s in s_grid}
    for r in results:
        total, unique = _valid_counts(r.record.cycles)
        groups[(r.series, r.record.path_info["s_prime"])].append({"valid": total, "unique": unique})
    rows = _averages(groups, ("series", "s_prime"))
    for row in rows:
        row["s_prime"] = f"{row['s_prime']:.10g}"
    return rows


def baseline_run(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Paired comparison: chains seeded by the selected forward bitstring vs
    a random bitstring, sharing per-chain seed streams. Emits per-s' averages
    for both series."""
    jobs = [(i, None, [(series, (j,), s) for j, s in enumerate(config.s_grid) for series in SERIES])
            for i in range(config.count)]
    return _run_protocol(config, "baseline", jobs, "baseline.csv",
                         partial(_baseline_rows, config.s_grid), out_dir)


def _averages(groups: dict[tuple, list[dict]], key_names: tuple[str, ...]) -> list[dict]:
    """One row per group: its key, its size as n_problems, and avg_<name>
    for every count its dicts carry."""
    return [
        {**dict(zip(key_names, key)), "n_problems": len(batch),
         **{f"avg_{name}": sum(b[name] for b in batch) / len(batch) for name in batch[0]}}
        for key, batch in groups.items()
    ]


def _write_csv(path, rows: list[dict]):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _write_jsonl(path, dicts):
    with open(path, "w") as f:
        for d in dicts:
            f.write(json.dumps(d, sort_keys=True) + "\n")


def write_run(out_dir, command: str, params: dict, files: dict) -> None:
    """Create out_dir, call files[name](out_dir / name) for each output, then
    write manifest.json: all a replay needs and no timestamps, so replays are
    byte-identical. `params` is a config's to_dict() or a command's flags."""
    import numpy
    import scipy

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    manifest = {
        "command": command,
        "config": params,
        "config_hash": _params_hash(params),
        "versions": {
            "annealab": _pkg_version,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": sorted(files),
    }
    if "seed" in params:
        manifest["seeds"] = {"master": params["seed"]}
    if "ra_samples" in params:
        manifest["sample_accounting"] = "ra_samples counts chained reverse-anneal cycles"
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_config(path, command: str, **overrides) -> ExperimentConfig:
    """Config for `command` from a JSON file holding a bare config or a run
    manifest (whose embedded config replays the run bit for bit), `overrides`
    on top; path None starts from the defaults. A manifest written by another
    command is refused: its config would run a different protocol under the
    same hash."""
    data = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e
        if isinstance(data, dict) and "config" in data and "command" in data:
            if data["command"] != command:
                raise ConfigError(f"{path} is a {data['command']!r} manifest; "
                                  f"{command!r} cannot replay it")
            data = data["config"]
    return ExperimentConfig.from_dict(data, **overrides)
