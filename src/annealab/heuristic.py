"""Forward anneal, validate, select, then iterate reverse anneals.

The algorithm: solve by forward annealing if any sample is valid; otherwise
pick a starting bitstring from the forward samples and run reverse-anneal
cycles, feeding each cycle's output into the next, halting on the first
valid output or when the cycle budget runs out.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from . import dynamics, svmc
from .coloring_qubo import QuboProblem, Sample, qubo_to_ising
from .schedules import Schedule, make_forward_path, make_reverse_path
from .spectrum import QUBIT_CAP, build_problem_diagonal

OUTCOME_FORWARD = "solved-by-forward"
OUTCOME_RA = "solved-by-ra"
OUTCOME_EXHAUSTED = "exhausted"

FEED_LAST = "feed-last"
KEEP_BEST = "keep-best"
POLICIES = (FEED_LAST, KEEP_BEST)


def problem_id(problem: QuboProblem) -> str:
    return hashlib.sha256(problem.to_json().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SvmcBackend:
    """Rotor-sampler drop-in with the same call surface; no qubit cap.

    The rotor analog of annealing time is the sweep count, so time_scale
    multiplies sweeps_per_waypoint (rounded, floored at one sweep); a small
    time_scale freezes the chain just as a fast anneal does.
    """

    kind: ClassVar[str] = "svmc"
    sweeps_per_waypoint: int = svmc.DEFAULT_SWEEPS_PER_WAYPOINT
    beta: float = svmc.DEFAULT_BETA

    def check(self, problem, sched, path, time_scale) -> int:
        """Everything a stage on `path` refuses before its first draw; returns
        the sweeps per waypoint it runs with."""
        dynamics.check_time_scale(time_scale, self.sweeps_per_waypoint)
        sweeps = (self.sweeps_per_waypoint if time_scale is None else
                  max(1, round(self.sweeps_per_waypoint * time_scale)))
        svmc.check_sweeps(problem.n_vars, path, sweeps, time_scale and (
            f"time_scale ({time_scale:g}) or sweeps_per_waypoint ({self.sweeps_per_waypoint})"))
        return sweeps

    def _batch(self, problem, sched, path, initial, shots, seed, time_scale):
        dynamics.check_shots(shots)
        sweeps = self.check(problem, sched, path, time_scale)
        # every shot is an independent trajectory on its own child stream
        ising = qubo_to_ising(problem)
        return [
            svmc.svmc_run(
                ising, sched, path, initial=initial, sweeps_per_waypoint=sweeps,
                beta=self.beta, seed=child,
            )
            for child in np.random.SeedSequence(seed).spawn(shots)
        ]

    def forward(self, problem, sched, total_time, shots, seed, time_scale=None):
        return self._batch(problem, sched, make_forward_path(total_time), None,
                           shots, seed, time_scale)

    def reverse(self, problem, sched, path, initial, shots, seed, time_scale=None):
        return self._batch(problem, sched, path, initial, shots, seed, time_scale)


@dataclass(frozen=True)
class StatevectorBackend:
    """Unitary-evolution sampler; exact but capped at 20 qubits."""

    kind: ClassVar[str] = "statevector"
    # what run_problem swaps in past QUBIT_CAP
    fallback: SvmcBackend = SvmcBackend()

    def check(self, problem, sched, path, time_scale):
        """Everything a stage on `path` refuses before its first matvec;
        returns the diagonal and the time scale, None meaning SLOW_TIME_SCALE
        on a forward path and REVERSE_TIME_SCALE on any other."""
        if time_scale is None:
            time_scale = (dynamics.SLOW_TIME_SCALE if path.kind == "forward" else
                          dynamics.REVERSE_TIME_SCALE)
        diag = build_problem_diagonal(problem)
        dynamics.plan(path, sched, diag, dynamics.DEFAULT_ACCURACY, time_scale)
        return diag, time_scale

    def forward(self, problem, sched, total_time, shots, seed, time_scale=None):
        path = make_forward_path(total_time)
        diag, time_scale = self.check(problem, sched, path, time_scale)
        return dynamics.anneal(diag, sched, path, shots=shots, seed=seed, time_scale=time_scale)

    def reverse(self, problem, sched, path, initial, shots, seed, time_scale=None):
        diag, time_scale = self.check(problem, sched, path, time_scale)
        return dynamics.anneal(diag, sched, path, initial, shots=shots, seed=seed,
                               time_scale=time_scale)


def select_initial(samples: list[Sample], seed) -> str:
    """Seeded uniform choice among valid samples; otherwise the lowest-energy
    sample, ties broken by lexicographically smallest bitstring."""
    if not samples:
        raise ValueError("cannot select from an empty sample list")
    valid = [s for s in samples if s.valid]
    if valid:
        rng = np.random.default_rng(seed)
        return valid[int(rng.integers(len(valid)))].bits
    return min(samples, key=lambda s: (s.energy, s.bits)).bits


@dataclass(frozen=True)
class CycleRecord:
    input_bits: str
    output_bits: str
    energy: float
    valid: bool


@dataclass(frozen=True)
class RunRecord:
    problem_id: str
    k: int
    n_vars: int
    backend_kind: str
    backend_substituted: bool
    forward: dict | None
    initial_bits: str | None
    cycles: tuple[CycleRecord, ...]
    outcome: str
    seeds: dict
    schedule_name: str
    path_info: dict
    config_hash: str | None = None

    def __post_init__(self):
        if self.outcome == OUTCOME_FORWARD and self.cycles:
            raise ValueError("solved-by-forward records must contain no cycles")
        if self.outcome == OUTCOME_RA and not any(c.valid for c in self.cycles):
            raise ValueError("solved-by-ra requires a valid cycle output")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_jsonl(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _as_entropy(seed) -> tuple[int, ...]:
    """Normalize a seed (int or sequence of ints) to an entropy tuple."""
    if isinstance(seed, (int, np.integer)):
        parts = (int(seed),)
    else:
        try:
            parts = tuple(int(x) for x in seed)
        except (TypeError, ValueError):
            raise ValueError(f"seed must be an int or sequence of ints, got {seed!r}")
    if not parts or any(x < 0 for x in parts):
        raise ValueError(f"seed entries must be non-negative, got {seed!r}")
    return parts


def run_chain(problem, backend, sched, path, initial: str, n_cycles: int, seed,
              shots_per_cycle: int = 1, policy: str = FEED_LAST,
              time_scale=None, halt_on_valid: bool = True):
    """run_problem's inner loop: reverse-anneal cycles from `initial`, cycle c seeded [*seed, 2, c].

    Each cycle draws shots_per_cycle samples and keeps the lowest-energy one
    (ties to the lexicographically smaller bitstring). feed-last hands that
    output to the next cycle; keep-best instead re-feeds the best-energy
    bitstring seen so far. With halt_on_valid the chain stops at the first
    valid output; otherwise it always runs n_cycles (collection mode, used
    by the sweep protocols).
    """
    path.check_start(initial, problem.n_vars)
    prefix = [*_as_entropy(seed), 2]
    cycles: list[CycleRecord] = []
    current = initial
    best = (problem.energy(initial), initial)
    for c in range(1, n_cycles + 1):
        outs = backend.reverse(problem, sched, path, current, shots=shots_per_cycle,
                               seed=[*prefix, c], time_scale=time_scale)
        chosen = min(outs, key=lambda s: (s.energy, s.bits))
        cycles.append(CycleRecord(current, chosen.bits, chosen.energy, chosen.valid))
        if chosen.valid and halt_on_valid:
            break
        if (chosen.energy, chosen.bits) < best:
            best = (chosen.energy, chosen.bits)
        current = chosen.bits if policy == FEED_LAST else best[1]
    return tuple(cycles)


def run_problem(problem, backend, sched: Schedule, chains, *, forward_seed, select_seed,
                forward_shots: int, total_time: float, forward_time_scale, n_cycles: int,
                ra_time_scale, shots_per_cycle: int, policy: str, halt_on_valid: bool,
                config_hash: str | None) -> tuple[list[Sample], list[RunRecord]]:
    """Forward-anneal `problem` once, then run one reverse-anneal chain per
    (s', chain seed, start bits, record seeds) entry of `chains`; returns
    the forward samples and one RunRecord per entry.

    Start bits None start the chain from the bitstring selected from the
    forward samples and record the forward summary; given bits record none.
    With halt_on_valid a valid forward sample solves the problem, so the
    chains that would start from the selection run no cycle and record
    solved-by-forward. A StatevectorBackend hands a problem past QUBIT_CAP
    to its fallback rotor sampler, and the records say so. It refuses every
    setting before the forward stage: s' and total_time via the reverse
    paths, and each stage's limits via backend.check on every path, so a
    reverse stage that could not finish is refused even where the forward
    stage would solve the problem.
    """
    paths = [make_reverse_path(s_prime, total_time) for s_prime, *_ in chains]
    if policy not in POLICIES:
        raise ValueError(f"unknown feeding policy {policy!r}")
    if shots_per_cycle < 1:
        raise ValueError(f"need shots_per_cycle >= 1, got {shots_per_cycle}")
    substituted = isinstance(backend, StatevectorBackend) and problem.n_vars > QUBIT_CAP
    if substituted:
        backend = backend.fallback
    backend.check(problem, sched, make_forward_path(total_time), forward_time_scale)
    for path in paths:
        backend.check(problem, sched, path, ra_time_scale)
    fwd = backend.forward(problem, sched, total_time=total_time, shots=forward_shots,
                          seed=forward_seed, time_scale=forward_time_scale)
    summary = {"count": len(fwd), "valid_count": sum(s.valid for s in fwd),
               "min_energy": min(s.energy for s in fwd)}
    solved = halt_on_valid and summary["valid_count"] > 0
    selected = None if solved else select_initial(fwd, select_seed)
    records = []
    for (s_prime, chain_seed, start, seeds), path in zip(chains, paths):
        initial = selected if start is None else start
        cycles = () if initial is None else run_chain(
            problem, backend, sched, path, initial, n_cycles,
            chain_seed, shots_per_cycle=shots_per_cycle, policy=policy, time_scale=ra_time_scale,
            halt_on_valid=halt_on_valid)
        records.append(RunRecord(
            problem_id=problem_id(problem), k=problem.k, n_vars=problem.n_vars,
            backend_kind=backend.kind, backend_substituted=substituted,
            forward=summary if start is None else None, initial_bits=initial, cycles=cycles,
            outcome=(OUTCOME_FORWARD if initial is None else
                     OUTCOME_RA if any(c.valid for c in cycles) else OUTCOME_EXHAUSTED),
            seeds=seeds, schedule_name=sched.name,
            path_info={
                "kind": "reverse", "s_prime": s_prime, "total_time": total_time,
                "time_scale": ra_time_scale, "shots_per_cycle": shots_per_cycle,
                "policy": policy, "mode": "halt" if halt_on_valid else "collect",
            },
            config_hash=config_hash,
        ))
    return fwd, records


def assisted_reverse_anneal(
    problem: QuboProblem,
    backend,
    sched: Schedule,
    s_prime: float,
    forward_shots: int,
    max_cycles: int,
    seed=0,
    total_time: float = dynamics.DEFAULT_TOTAL_TIME,
    forward_time_scale=None,
    ra_time_scale=None,
    shots_per_cycle: int = 1,
    policy: str = FEED_LAST,
) -> RunRecord:
    """Forward stage, early exit on any valid sample, else iterated RA."""
    if max_cycles < 0:
        raise ValueError(f"need max_cycles >= 0, got {max_cycles}")
    entropy = _as_entropy(seed)
    seeds = {"master": entropy[0] if len(entropy) == 1 else list(entropy),
             "forward": [*entropy, 0], "select": [*entropy, 1], "cycle_prefix": [*entropy, 2]}
    _, (record,) = run_problem(
        problem, backend, sched, [(s_prime, entropy, None, seeds)],
        forward_seed=seeds["forward"], select_seed=seeds["select"],
        forward_shots=forward_shots, total_time=total_time,
        forward_time_scale=forward_time_scale, n_cycles=max_cycles,
        ra_time_scale=ra_time_scale, shots_per_cycle=shots_per_cycle, policy=policy,
        halt_on_valid=True, config_hash=None,
    )
    return record


def random_bits(n_vars: int, seed) -> str:
    rng = np.random.default_rng(seed)
    return "".join("1" if b else "0" for b in rng.integers(0, 2, n_vars))
