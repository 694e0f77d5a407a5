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

import numpy as np

from .coloring_qubo import IsingProblem, Sample
from .schedules import AnnealPath, Schedule

DEFAULT_BETA = 10.0
DEFAULT_SWEEPS_PER_WAYPOINT = 1000


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
    n = ising.n_spins
    path.check_start(initial, n)
    if initial is None:
        theta = np.full(n, math.pi / 2.0)
    else:
        theta = np.array([0.0 if ch == "0" else math.pi for ch in initial])
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

    m = np.cos(theta)  # z-components; their signs are the readout
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
            m[i] = cos_p[i]
            sin_t[i] = sin_p[i]
            ix, vx = adj[i]
            if ix.size:
                z[ix] += vx * dm

    # bit 0 (spin +1) iff cos(theta) >= 0
    spins = np.where(m >= 0.0, 1.0, -1.0)
    bits = "".join("0" if sp > 0 else "1" for sp in spins)
    return Sample.scored(bits, float(ising.energy(spins)))
