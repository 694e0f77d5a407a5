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

Stream contract: a trajectory's outputs are fixed by its seed through the
order in which it consumes the generator's doubles u. Sweep by sweep, it
takes n proposal doubles (spin 0 to n-1), then n acceptance doubles. The
proposed angle of spin i is pi * u, and the move is accepted when the
energy change is not positive or the acceptance double is below
exp(-beta * dE). Drawing many sweeps, and their schedule weights, in one
block keeps this order, so the block size does not change any output.
"""

import math

import numpy as np

from .coloring_qubo import IsingProblem, Sample, bits_to_array
from .schedules import AnnealPath, Schedule

DEFAULT_BETA = 10.0
DEFAULT_SWEEPS_PER_WAYPOINT = 1000
# sweeps whose random numbers are drawn in one block; bounds the block's memory
_SWEEP_BLOCK = 256
# a trajectory past this many spin updates (sweeps times spins) is refused:
# over a day of work at the ~0.4 us an update measured on a 2-core VM
MAX_SPIN_UPDATES = 3e11


def check_sweeps(n_spins: int, path: AnnealPath, sweeps_per_waypoint: int, setting=None):
    """The one sweep-count rule, before any draw; a refusal names `setting` if given."""
    if sweeps_per_waypoint < 1:
        raise ValueError(f"need sweeps_per_waypoint >= 1, got {sweeps_per_waypoint}")
    if sweeps_per_waypoint * len(path.times) * n_spins > MAX_SPIN_UPDATES:
        raise ValueError(f"SVMC trajectory would need over {MAX_SPIN_UPDATES:.0e} spin updates: "
                         f"lower {setting or f'sweeps_per_waypoint ({sweeps_per_waypoint})'}")


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
    check_sweeps(ising.n_spins, path, sweeps_per_waypoint)
    if not beta > 0:  # NaN fails this test too
        raise ValueError(f"need beta > 0, got {beta}")
    n = ising.n_spins
    path.check_start(initial, n)
    theta = np.full(n, math.pi / 2.0) if initial is None else math.pi * bits_to_array(initial)
    rng = np.random.default_rng(seed)

    # the sweeps run on Python floats: the same IEEE operations as numpy's
    # elementwise float64 ones, without the per-element numpy call overhead
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(n)]  # (j, J_ij) per spin i
    for i, j, v in ising.j:
        nbrs[i].append((j, float(v)))
        nbrs[j].append((i, float(v)))
    m_arr = np.cos(theta)
    z = [float(h) for h in ising.h]  # local fields h_i + sum_j J_ij m_j, kept incrementally
    for i, nb in enumerate(nbrs):
        if nb:
            ix, vx = zip(*nb)
            z[i] += float(np.dot(vx, m_arr[list(ix)]))
    m = m_arr.tolist()  # z-components; their signs are the readout
    sin_t = np.sin(theta).tolist()

    total_sweeps = sweeps_per_waypoint * len(path.times)
    exp = math.exp
    for start in range(0, total_sweeps, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, total_sweeps)
        s = path.s_of_t((np.arange(start, stop) + 0.5) * (path.total_time / total_sweeps))
        u = rng.random((stop - start, 2, n))
        prop = math.pi * u[:, 0, :]
        for a_s, b_s, cos_p, sin_p, accept_u in zip(
            sched.a(s).tolist(), sched.b(s).tolist(),
            np.cos(prop).tolist(), np.sin(prop).tolist(), u[:, 1, :].tolist(),
        ):
            for i in range(n):
                dm = cos_p[i] - m[i]
                d_e = a_s * z[i] * dm - b_s * (sin_p[i] - sin_t[i])
                if d_e > 0.0 and accept_u[i] >= exp(-beta * d_e):
                    continue
                m[i] = cos_p[i]
                sin_t[i] = sin_p[i]
                for j, v in nbrs[i]:
                    z[j] += v * dm

    # bit 0 (spin +1) iff cos(theta) >= 0
    spins = np.where(np.array(m) >= 0.0, 1.0, -1.0)
    bits = "".join("0" if sp > 0 else "1" for sp in spins)
    return Sample(bits, float(ising.energy(spins)))
