"""Batch protocols: reverse-distance sweep, size scaling, random baseline.

Every run is a pure function of its config. Randomness derives from the
master seed through fixed stage tags:

    graph of problem i          [master, 0, i]        (scaling: [master, 0, n, i])
    forward stage of problem i  [master, 1, i]
    initial selection           [master, 2, i]
    RA chain at grid index j    [master, 3, i, j]     (cycle c appends 2, c)
    random baseline initial     [master, 4, i]

The baseline arms share the chain seeds, so assisted vs random comparisons
differ only in the starting bitstring. Raw records are JSONL; aggregates
are CSV recomputable from the raw dumps; a manifest carrying the config and
its hash makes any run replayable bit for bit.

Per-s' sample budgets count reverse-anneal cycles (one chained sample per
cycle), not measurement shots.
"""

import csv
import hashlib
import json
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

from . import __version__ as _pkg_version
from .coloring_qubo import QuboProblem, build_coloring_qubo, validate
from .graphs import generate_er, greedy_color_largest_first
from .heuristic import (
    FEED_LAST,
    POLICIES,
    StatevectorBackend,
    SvmcBackend,
    _forward_summary,
    _run_record,
    random_bits,
    resolve_backend,
    run_chain,  # noqa: F401 -- kept importable here; perfbench/test_tracer.py patches this binding
    select_initial,
)
from .schedules import resolve_schedule, reverse_distance_grid
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
    total_time: float = 100.0
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
        def positive(v):
            return v is None or v > 0

        for name, ok, rule in (
            ("n_vertices", self.n_vertices >= 1, ">= 1"),
            ("p", 0.0 <= self.p <= 1.0, "in [0, 1]"),
            ("count", self.count >= 1, ">= 1"),
            ("seed", self.seed >= 0, "non-negative"),
            ("k", self.k is None or self.k >= 1, ">= 1"),
            ("forward_shots", self.forward_shots >= 1, ">= 1"),
            ("ra_samples", self.ra_samples >= 0, ">= 0"),
            ("total_time", self.total_time > 0, "positive"),
            ("forward_time_scale", positive(self.forward_time_scale), "positive"),
            ("ra_time_scale", positive(self.ra_time_scale), "positive"),
            ("shots_per_cycle", self.shots_per_cycle >= 1, ">= 1"),
            ("sizes", all(n >= 1 for n in self.sizes), ">= 1"),
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


def make_backend(config):
    """Backend named by config.backend; reads svmc_sweeps and svmc_beta, so
    parsed CLI arguments work as well as an ExperimentConfig."""
    if config.backend == "svmc":
        return SvmcBackend(sweeps_per_waypoint=config.svmc_sweeps, beta=config.svmc_beta)
    return StatevectorBackend()


def instance(config: ExperimentConfig, i: int, size: int | None = None) -> QuboProblem:
    """Problem i of the configured set (deterministic in config.seed)."""
    n = config.n_vertices if size is None else size
    tag = [config.seed, 0, i] if size is None else [config.seed, 0, size, i]
    g = generate_er(n, config.p, tag)
    k = config.k if config.k is not None else max(greedy_color_largest_first(g)[0], 1)
    return build_coloring_qubo(g, k)


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


def _setup(config: ExperimentConfig, i: int, size: int | None = None):
    """Problem i, its forward samples, the initial bits selected from them,
    and `chain(initial, chain_seed, s_prime=, forward=) -> RunRecord`, which
    runs one collect-mode chain on the problem."""
    problem = instance(config, i, size=size)
    backend, substituted = resolve_backend(problem, make_backend(config))
    sched = resolve_schedule(config.schedule)
    fts = config.forward_time_scale
    kwargs = {} if fts is None else {"time_scale": fts}
    fwd = backend.forward(
        problem, sched, total_time=config.total_time, shots=config.forward_shots,
        seed=[config.seed, 1, i], **kwargs,
    )
    chain = partial(
        _run_record, problem, backend, substituted, sched, n_cycles=config.ra_samples,
        total_time=config.total_time, time_scale=config.ra_time_scale,
        shots_per_cycle=config.shots_per_cycle, policy=config.policy,
        halt_on_valid=False, config_hash=config_hash(config),
    )
    return problem, fwd, select_initial(fwd, [config.seed, 2, i]), chain


def _valid_counts(cycles) -> tuple[int, int]:
    valid_bits = [c.output_bits for c in cycles if c.valid]
    return len(valid_bits), len(set(valid_bits))


@dataclass(frozen=True)
class SweepRow:
    problem_index: int
    problem_id: str
    n_vars: int
    k: int
    s_prime: float
    initial_valid: bool
    case: str  # "AB" when the seed was valid, "CD" otherwise
    total_valid: int
    unique_valid: int
    n_cycles: int

    def __post_init__(self):
        if self.unique_valid > self.total_valid:
            raise ValueError("unique count cannot exceed total count")
        if self.case != ("AB" if self.initial_valid else "CD"):
            raise ValueError("case label inconsistent with seed validity")


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple[SweepRow, ...]

    def to_csv(self, path):
        _write_csv(path, [{**asdict(r), "s_prime": f"{r.s_prime:.10g}",
                           "initial_valid": int(r.initial_valid)} for r in self.rows])


def _sweep_problem(config: ExperimentConfig, i: int):
    """Forward once, then one collect-mode chain per grid value; returns
    (summary row, record) pairs."""
    problem, fwd, initial, chain = _setup(config, i)
    initial_valid = validate(problem, initial)
    summary = _forward_summary(fwd)
    out = []
    for j, s_prime in enumerate(config.s_grid):
        rec = chain(initial, (config.seed, 3, i, j), s_prime=s_prime, forward=summary)
        total, unique = _valid_counts(rec.cycles)
        out.append((SweepRow(
            problem_index=i, problem_id=rec.problem_id, n_vars=problem.n_vars,
            k=problem.k, s_prime=s_prime, initial_valid=initial_valid,
            case="AB" if initial_valid else "CD",
            total_valid=total, unique_valid=unique, n_cycles=len(rec.cycles),
        ), rec))
    return out


def sweep_reverse_distance(config: ExperimentConfig, out_dir=None) -> SweepSummary:
    """Forward stage per problem, then chains over the reverse-distance grid.

    Writes sweep_summary.csv, sweep_records.jsonl and manifest.json to the
    output directory and returns the summary.
    """
    out = prepare_out(config.out_dir if out_dir is None else out_dir)
    results = _pmap(partial(_sweep_problem, config), range(config.count))
    pairs = sorted((pair for batch in results for pair in batch),
                   key=lambda pair: (pair[1].problem_id, pair[1].path_info["s_prime"]))
    summary = SweepSummary(tuple(row for row, _ in pairs))
    summary.to_csv(out / "sweep_summary.csv")
    _write_jsonl(out / "sweep_records.jsonl", (rec.to_dict() for _, rec in pairs))
    write_manifest(out, "sweep", config.to_dict(),
                   ["sweep_summary.csv", "sweep_records.jsonl"])
    return summary


def _scaling_problem(config: ExperimentConfig, job: tuple[int, int]):
    n, i = job
    problem, fwd, initial, chain = _setup(config, i, size=n)
    rec = chain(initial, (config.seed, 3, n, i), s_prime=SCALING_REVERSE_DISTANCE,
                forward=_forward_summary(fwd))
    fwd_bits = [s.bits for s in fwd if s.valid]
    ra_total, ra_unique = _valid_counts(rec.cycles)
    return {
        "forward_valid": len(fwd_bits),
        "forward_unique": len(set(fwd_bits)),
        "ra_valid": ra_total,
        "ra_unique": ra_unique,
    }, rec


def scaling_run(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Fixed reverse distance, instance sizes from config.sizes, averages
    grouped by logical qubit count (n_vars). Groups with no problems are
    omitted rather than zero-filled."""
    if not config.sizes:
        raise ConfigError("scaling run needs a non-empty sizes list")
    out = prepare_out(config.out_dir if out_dir is None else out_dir)
    jobs = [(n, i) for n in config.sizes for i in range(config.count)]
    results = _pmap(partial(_scaling_problem, config), jobs)
    groups: dict[tuple, list[dict]] = {}
    for stats, rec in sorted(results, key=lambda result: result[1].n_vars):
        groups.setdefault((rec.n_vars,), []).append(stats)
    rows = _averages(groups, ("n_vars",))
    _write_csv(out / "scaling.csv", rows)
    records = sorted((rec for _, rec in results), key=lambda r: (r.problem_id, r.n_vars))
    _write_jsonl(out / "scaling_records.jsonl", (rec.to_dict() for rec in records))
    write_manifest(out, "scaling", config.to_dict(), ["scaling.csv", "scaling_records.jsonl"])
    return rows


def _baseline_problem(config: ExperimentConfig, i: int):
    """(series, record) for both arms at every grid value."""
    problem, fwd, best_initial, chain = _setup(config, i)
    rand_initial = random_bits(problem.n_vars, [config.seed, 4, i])
    summary = _forward_summary(fwd)
    return [
        (series, chain(initial, (config.seed, 3, i, j), s_prime=s_prime, forward=fsum))
        for j, s_prime in enumerate(config.s_grid)
        for series, initial, fsum in zip(SERIES, (best_initial, rand_initial), (summary, None))
    ]


def baseline_run(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Paired comparison: chains seeded by the selected forward bitstring vs
    a random bitstring, sharing per-chain seed streams. Emits per-s' averages
    for both series."""
    out = prepare_out(config.out_dir if out_dir is None else out_dir)
    results = _pmap(partial(_baseline_problem, config), range(config.count))
    flat = sorted((item for batch in results for item in batch), key=lambda item: (
        item[1].problem_id, item[1].path_info["s_prime"], item[0]))
    groups: dict[tuple, list[dict]] = {(series, s): [] for series in SERIES for s in config.s_grid}
    for series, rec in flat:
        total, unique = _valid_counts(rec.cycles)
        groups[(series, rec.path_info["s_prime"])].append({"valid": total, "unique": unique})
    rows = _averages(groups, ("series", "s_prime"))
    for row in rows:
        row["s_prime"] = f"{row['s_prime']:.10g}"
    _write_csv(out / "baseline.csv", rows)
    _write_jsonl(out / "baseline_records.jsonl",
                 ({**rec.to_dict(), "series": series} for series, rec in flat))
    write_manifest(out, "baseline", config.to_dict(),
                   ["baseline.csv", "baseline_records.jsonl"])
    return rows


def prepare_out(path) -> Path:
    """The output directory, created if missing."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def write_manifest(out_dir, command: str, params: dict, outputs):
    """Everything needed to replay the run; no timestamps, so replays of the
    same config are byte-identical. `params` is a batch config's to_dict()
    or a single-run command's parameters."""
    import numpy
    import scipy

    manifest = {
        "command": command,
        "config": params,
        "config_hash": _params_hash(params),
        "versions": {
            "annealab": _pkg_version,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": sorted(outputs),
    }
    if "seed" in params:
        manifest["seeds"] = {"master": params["seed"]}
    if "ra_samples" in params:
        manifest["sample_accounting"] = "ra_samples counts chained reverse-anneal cycles"
    with open(Path(out_dir) / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def is_manifest(data) -> bool:
    """Whether parsed JSON is a run manifest rather than a bare config."""
    return isinstance(data, dict) and "config" in data and "command" in data


def load_manifest_config(path) -> tuple[str, ExperimentConfig]:
    """(command, config) from a manifest written by write_manifest."""
    with open(path) as f:
        data = json.load(f)
    if not is_manifest(data):
        raise ConfigError(f"{path} is not a run manifest")
    return data["command"], ExperimentConfig.from_dict(data["config"])
