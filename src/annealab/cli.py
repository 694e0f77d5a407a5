"""Command-line front end.

Subcommands: generate, spectrum, anneal, sweep, scaling, baseline. Batch
subcommands read an ExperimentConfig JSON (or a manifest the same command
wrote, whose embedded config is reused verbatim for bit-exact replay) with
flag overrides on top. Every run directory gets a manifest.json.
"""

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    BACKENDS,
    FIELD_TYPES,
    ConfigError,
    ExperimentConfig,
    _write_csv,
    _write_jsonl,
    baseline_run,
    coloring_problem,
    config_hash,
    instance,
    load_config,
    make_backend,
    scaling_run,
    sweep_reverse_distance,
    write_run,
)
from .graphs import Graph
from .heuristic import POLICIES, assisted_reverse_anneal
from .schedules import resolve_schedule
from .spectrum import SpectrumError, build_problem_diagonal, spectrum_sweep

CHOICES = {"backend": BACKENDS, "policy": POLICIES}
HELP = {"k": "colors (default: greedy bound)", "out_dir": "output directory"}
DEFAULTS = ExperimentConfig()
ANNEAL_FIELDS = ("k", "schedule", "forward_shots", "seed", "total_time", "forward_time_scale",
                 "ra_time_scale", "shots_per_cycle", "policy", "backend", "svmc_sweeps",
                 "svmc_beta", "out_dir")


def _dest(name: str) -> str:
    return "out" if name == "out_dir" else name


def _add_config_flags(p: argparse.ArgumentParser, names, defaults: bool = False):
    """One flag per ExperimentConfig field: --field-name (out_dir is --out),
    typed and constrained as the field is. With defaults, each flag defaults
    to the field's default; otherwise to None, meaning "not given"."""
    for name in names:
        kind, many, _ = FIELD_TYPES[name]
        p.add_argument("--" + _dest(name).replace("_", "-"), dest=_dest(name), type=kind,
                       nargs="+" if many else None, choices=CHOICES.get(name),
                       default=getattr(DEFAULTS, name) if defaults else None,
                       help=HELP.get(name))


def _load_graph(path: str) -> Graph:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"graph file not found: {p}")
    try:
        return Graph.load(p)
    except ValueError as e:
        raise ConfigError(f"{p}: {e}") from e


def _flags(args, **resolved) -> dict:
    """A single-run manifest's params: the parsed flags, `resolved` on top."""
    flags = {name: v for name, v in vars(args).items() if name not in ("command", "fn")}
    return {**flags, "out": str(Path(args.out)), **resolved}


def cmd_generate(args) -> int:
    config = ExperimentConfig(**{f: getattr(args, f) for f in ("n_vertices", "p", "count", "seed")})
    files, rows = {}, []
    for i in range(args.count):
        problem = instance(config, i)
        g = problem.source
        name = f"graph_{i:03d}.json"
        files[name] = g.save
        rows.append({"index": i, "file": name, "n_vertices": g.n_vertices,
                     "n_edges": len(g.edges), "greedy_k": problem.k, "n_vars": problem.n_vars})
    files["instances.csv"] = partial(_write_csv, rows=rows)
    write_run(args.out, "generate", _flags(args), files)
    print(f"wrote {args.count} graphs to {Path(args.out)}")
    return 0


def cmd_spectrum(args) -> int:
    for flag, value in (("--levels", args.levels), ("--grid", args.grid)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    sched = resolve_schedule(args.schedule)
    problem = coloring_problem(_load_graph(args.graph), args.k)
    diag = build_problem_diagonal(problem)
    table = spectrum_sweep(sched, diag, grid=np.linspace(0.0, 1.0, args.grid),
                           m=args.levels)
    write_run(args.out, "spectrum", _flags(args, k=problem.k), {"spectrum.csv": table.to_csv})
    print(f"wrote {Path(args.out) / 'spectrum.csv'} ({args.grid} rows x {args.levels} levels)")
    return 0


def cmd_anneal(args) -> int:
    # the config's checks on the fields anneal shares with it, before anything is written
    config = ExperimentConfig(**{name: getattr(args, _dest(name)) for name in ANNEAL_FIELDS})
    sched = resolve_schedule(args.schedule)
    problem = coloring_problem(_load_graph(args.graph), args.k)
    record = assisted_reverse_anneal(
        problem, make_backend(config), sched, args.s_prime, forward_shots=args.forward_shots,
        max_cycles=args.max_cycles, seed=args.seed, total_time=args.total_time,
        forward_time_scale=args.forward_time_scale, ra_time_scale=args.ra_time_scale,
        shots_per_cycle=args.shots_per_cycle, policy=args.policy)
    write_run(args.out, "anneal", _flags(args, k=problem.k),
              {"anneal_record.jsonl": partial(_write_jsonl, dicts=[record.to_dict()])})
    print(f"outcome: {record.outcome} after {len(record.cycles)} RA cycles "
          f"(forward valid {record.forward['valid_count']}/{record.forward['count']})")
    return 0


def cmd_batch(protocol, summary, args) -> int:
    """Run `protocol` on the --config file's config (a bare config or a
    manifest to replay) with the given flags on top, and print one line:
    what `summary` makes of the CSV rows, the config hash, the output."""
    overrides = {name: getattr(args, _dest(name)) for name in FIELD_TYPES
                 if getattr(args, _dest(name), None) is not None}
    config = load_config(args.config, args.command, **overrides)
    rows = protocol(config)
    print(f"{args.command}: {summary(rows)}; config {config_hash(config)} -> {config.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annealab",
        description="Forward-assisted reverse annealing on graph-coloring QUBOs",
    )
    parser.add_argument("--version", action="version", version=f"annealab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a deterministic set of random graphs")
    _add_config_flags(p, ("n_vertices", "p", "count", "seed", "out_dir"), defaults=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("spectrum", help="tabulate the low-lying spectrum over s")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--levels", type=int, default=15)
    p.add_argument("--grid", type=int, default=100)
    _add_config_flags(p, ("k", "schedule", "out_dir"), defaults=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("anneal", help="run the assisted reverse-anneal algorithm once")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--s-prime", dest="s_prime", type=float, default=0.44)
    p.add_argument("--max-cycles", dest="max_cycles", type=int, default=50)
    _add_config_flags(p, ANNEAL_FIELDS, defaults=True)
    p.set_defaults(fn=cmd_anneal)

    for name, protocol, blurb, summary in (
        ("sweep", sweep_reverse_distance, "reverse-distance sweep over the s' grid",
         lambda rows: f"{len(rows)} (problem, s') rows, "
                      f"{sum(r['total_valid'] > 0 for r in rows)} with valid samples"),
        ("scaling", scaling_run, "fixed s' = 0.44 across instance sizes",
         lambda rows: f"{len(rows)} qubit-count groups"),
        ("baseline", baseline_run, "assisted vs random-bitstring comparison",
         lambda rows: f"{len(rows)} series rows"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="ExperimentConfig JSON or a manifest.json to replay")
        _add_config_flags(p, [f for f in FIELD_TYPES if f != "sizes" or name == "scaling"])
        p.set_defaults(fn=partial(cmd_batch, protocol, summary))
    return parser

def cli_entry(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (OSError, ValueError, SpectrumError) as e:  # ConfigError, ScheduleError too
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_entry(sys.argv[1:]))


if __name__ == "__main__":
    main()
