"""Spin-vector Monte Carlo: a classical rotor proxy for the annealer.

Each qubit is a unit vector in the x-z plane parameterized by an angle
theta in [0, pi] with z-component cos(theta). The driver favors the -x
orientation; rather than extend the angle range to reach it, each rotor
is gauge-rotated about z (sigma^x -> -sigma^x, which leaves every
z-basis quantity unchanged) so the driver minimum sits at theta = pi/2.
The resulting classical energy at anneal position s is

    E(theta; s) = a(s) * E_ising(cos theta) - b(s) * sum_i sin(theta_i)

and Metropolis sweeps with uniform angle proposals track s along the
anneal path. Bits are read out by the sign of cos(theta).
"""

import math
from dataclasses import dataclass

import numpy as np

from .coloring_qubo import VALID_ENERGY_TOL, IsingProblem, Sample
from .schedules import AnnealPath, Schedule

DEFAULT_BETA = 10.0
DEFAULT_SWEEPS_PER_WAYPOINT = 1000


@dataclass(frozen=True)
class RotorConfiguration:
    """Per-spin angles; projection to bits is the sign of the z-component."""

    angles: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=np.float64)
        if ang.ndim != 1 or ang.size == 0:
            raise ValueError("angles must be a non-empty 1-d array")
        if np.any(ang < -1e-12) or np.any(ang > math.pi + 1e-12):
            raise ValueError("angles must lie in [0, pi]")
        object.__setattr__(self, "angles", np.clip(ang, 0.0, math.pi))

    def bits(self) -> str:
        # bit = 0 iff cos(theta) >= 0
        return "".join("0" if c >= 0.0 else "1" for c in np.cos(self.angles))


def _initial_angles(ising: IsingProblem, path: AnnealPath, initial) -> np.ndarray:
    if path.kind == "reverse":
        if initial is None:
            raise ValueError("reverse path needs an initial bitstring")
    elif path.kind == "forward":
        if initial is not None:
            raise ValueError("forward path takes no initial bitstring")
    if initial is None:
        return np.full(ising.n_spins, math.pi / 2.0)
    if len(initial) != ising.n_spins:
        raise ValueError(f"initial has {len(initial)} bits, problem has {ising.n_spins} spins")
    return np.array([0.0 if ch == "0" else math.pi for ch in initial])


def svmc_run(
    ising: IsingProblem,
    sched: Schedule,
    path: AnnealPath,
    initial=None,
    sweeps_per_waypoint: int = DEFAULT_SWEEPS_PER_WAYPOINT,
    beta: float = DEFAULT_BETA,
    seed=0,
) -> Sample:
    """One rotor trajectory along the path; returns the projected Sample.

    Forward runs start at the driver minimum (all theta = pi/2), reverse
    runs at theta in {0, pi} per initial bit. The path's time axis is cut
    into sweeps_per_waypoint * n_waypoints equal slices and each sweep
    uses the schedule weights at its slice midpoint. Deterministic per seed.
    """
    if sweeps_per_waypoint < 1:
        raise ValueError(f"need sweeps_per_waypoint >= 1, got {sweeps_per_waypoint}")
    if beta <= 0:
        raise ValueError(f"need beta > 0, got {beta}")
    theta = _initial_angles(ising, path, initial)
    n = ising.n_spins
    rng = np.random.default_rng(seed)

    h = np.asarray(ising.h, dtype=np.float64)
    nbr_idx: list[list[int]] = [[] for _ in range(n)]
    nbr_val: list[list[float]] = [[] for _ in range(n)]
    for i, j, v in ising.j:
        nbr_idx[i].append(j)
        nbr_val[i].append(v)
        nbr_idx[j].append(i)
        nbr_val[j].append(v)
    adj = [(np.array(ix, dtype=np.intp), np.array(vx)) for ix, vx in zip(nbr_idx, nbr_val)]

    m = np.cos(theta)
    sin_t = np.sin(theta)
    z = h.copy()  # local fields h_i + sum_j J_ij m_j, kept incrementally
    for i, (ix, vx) in enumerate(adj):
        if ix.size:
            z[i] += float(np.dot(vx, m[ix]))

    total_sweeps = sweeps_per_waypoint * len(path.times)
    mids = (np.arange(total_sweeps) + 0.5) * (path.total_time / total_sweeps)
    s_ladder = path.s_of_t(mids)
    a_ladder = sched.a(s_ladder)
    b_ladder = sched.b(s_ladder)

    for sweep in range(total_sweeps):
        a_s = float(a_ladder[sweep])
        b_s = float(b_ladder[sweep])
        prop = rng.uniform(0.0, math.pi, n)
        accept_u = rng.random(n)
        cos_p = np.cos(prop)
        sin_p = np.sin(prop)
        for i in range(n):
            dm = cos_p[i] - m[i]
            d_e = a_s * z[i] * dm - b_s * (sin_p[i] - sin_t[i])
            if d_e > 0.0 and accept_u[i] >= math.exp(-beta * d_e):
                continue
            theta[i] = prop[i]
            m[i] = cos_p[i]
            sin_t[i] = sin_p[i]
            ix, vx = adj[i]
            if ix.size:
                z[ix] += vx * dm

    config = RotorConfiguration(theta)
    bits = config.bits()
    spins = np.where(np.cos(config.angles) >= 0.0, 1.0, -1.0)
    energy = float(ising.energy(spins))
    return Sample(bits=bits, energy=energy, valid=abs(energy) <= VALID_ENERGY_TOL)
