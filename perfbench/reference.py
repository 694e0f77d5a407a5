"""A fixed reference loop that samples how fast the machine runs right now.

On a shared host the speed of a virtual CPU changes by a factor of up to
about 1.7 from one second to the next, as other tenants load the same cores
and caches, and a slow or fast spell lasts from a second to minutes. Raw wall
times then spread more between runs than any useful regression bound. The
benchmark therefore times a short slice of this loop every PERIOD_S seconds
while a workload repetition runs (from a timer signal, in the same process),
and once before it starts. It subtracts the slices' time from the
repetition's wall time and reports the rest as a multiple of the median
slice time, which cancels most of the drift.

Each workload names the slice that does the kind of work its time goes to,
because a fast or slow spell does not move all code alike. A "mixed" slice
runs interpreter-bound Python and numpy calls on a 64-entry and on a 64 KB
vector (the SVMC sampler, the 6-qubit integrator); a "vector" slice runs
numpy on a 1 MB vector. Against the 12-qubit anneal's wall time, the log of
the interpreter part's time had a slope of 0.4 and the 1 MB part's 0.9.

No slice uses annealab code, so a change to the program does not change
them, and none runs a BLAS call: right after a multithreaded LAPACK solve,
the library's idle threads spin for a while, and a BLAS call in a slice then
took three times as long, which made the spectrum workload's slice times
bimodal. A signal is handled between Python bytecodes, so during one long
numpy or LAPACK call the slices wait for it to return.
"""

from __future__ import annotations

import math
import random
import signal
import time

import numpy as np

PERIOD_S = 0.25


def _interpreter(n: int) -> float:
    rng = random.Random(0)
    s = 0.0
    for i in range(n):
        if rng.random() < math.exp(-0.001 * (i % 50)):
            s += 1.0
    return s


def _bit_flips(x: np.ndarray, reps: int) -> np.ndarray:
    """Sum of the single-bit-flip images of x, applied reps times."""
    dim = x.shape[0]
    n = dim.bit_length() - 1
    for _ in range(reps):
        out = np.zeros_like(x)
        for j in range(n):
            out += x.reshape(-1, 2, 1 << j)[:, ::-1, :].reshape(dim)
        x = out / n
    return x


_SMALL = np.ones(1 << 6, dtype=complex)
_LARGE = np.ones(1 << 12, dtype=complex)
_HUGE = np.ones(1 << 16, dtype=complex)


def _mixed() -> None:
    _interpreter(50_000)
    _bit_flips(_SMALL, 450)
    _bit_flips(_LARGE, 70)


def _vector() -> None:
    _bit_flips(_HUGE, 5)


# each slice takes about 20 ms on a 2 GHz Xeon (Sapphire Rapids) vCPU
SLICES = {"mixed": _mixed, "vector": _vector}


class Sampler:
    """Within `with Sampler(kind) as s:`, time a slice of that kind every
    PERIOD_S seconds. `s.slices` holds the slice times and `s.spent` the
    seconds the sampling took, signal handling included."""

    def __init__(self, kind: str):
        self.run_slice = SLICES[kind]
        self.slices: list[float] = []
        self.spent = 0.0

    def time_slice(self) -> float:
        t0 = time.perf_counter()
        self.run_slice()
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.slices.append(self.time_slice())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.run_slice()  # first-call costs stay out of the samples
        self.slices.append(self.time_slice())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
