"""Annealing schedules and control paths.

A schedule is a table of (s, a, b) rows on s in [0, 1]; the instantaneous
Hamiltonian is H(s) = a(s) * H_problem + b(s) * H_driver with a growing from
0 to 1 and b shrinking from 1 to 0. Values between rows are linearly
interpolated. A path maps lab time to s: forward anneals ramp 0 -> 1, reverse
anneals start at s = 1, descend to a turning point s', optionally pause, and
climb back.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np


class ScheduleError(ValueError):
    """Malformed schedule table."""


@dataclass(frozen=True)
class Schedule:
    name: str
    s_grid: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=np.float64)
        a = np.asarray(self.a_vals, dtype=np.float64)
        b = np.asarray(self.b_vals, dtype=np.float64)
        if not (s.ndim == 1 and s.shape == a.shape == b.shape and s.size >= 2):
            raise ScheduleError("schedule needs matching s/a/b columns with at least two rows")
        finite = np.isfinite(s) & np.isfinite(a) & np.isfinite(b)
        if not finite.all():
            raise ScheduleError(f"non-finite entry at row {int(np.argmin(finite))}")
        if np.any(np.diff(s) <= 0):
            row = int(np.argmax(np.diff(s) <= 0)) + 1
            raise ScheduleError(f"s column must be strictly increasing (violated at row {row})")
        if abs(s[0]) > 1e-12 or abs(s[-1] - 1.0) > 1e-12:
            raise ScheduleError(f"s must span [0, 1], table covers [{s[0]}, {s[-1]}]")
        if np.any(a < 0) or np.any(b < 0):
            row = int(np.argmax((a < 0) | (b < 0)))
            raise ScheduleError(f"negative weight at row {row}")
        if a[-1] <= 0 or b[0] <= 0:
            raise ScheduleError("schedule must have a(1) > 0 and b(0) > 0")
        # normalize so a(1) = b(0) = 1
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "a_vals", a / a[-1])
        object.__setattr__(self, "b_vals", b / b[0])

    def a(self, s):
        return np.interp(s, self.s_grid, self.a_vals)

    def b(self, s):
        return np.interp(s, self.s_grid, self.b_vals)

    @classmethod
    def from_csv_text(cls, text: str, name: str = "custom") -> "Schedule":
        rdr = csv.reader(io.StringIO(text))
        header = next(rdr, None)
        if header is None or [h.strip() for h in header] != ["s", "a", "b"]:
            raise ScheduleError(f"expected header 's,a,b', got {header}")
        rows = [r for r in rdr if r]
        for i, r in enumerate(rows):
            if len(r) != 3:
                raise ScheduleError(f"every row needs exactly three columns; row {i} has {len(r)}")
        try:
            cols = np.array([[float(x) for x in r] for r in rows], dtype=np.float64).reshape(-1, 3)
        except ValueError as err:
            raise ScheduleError(f"non-numeric schedule entry: {err}") from err
        return cls(name, cols[:, 0], cols[:, 1], cols[:, 2])


def resolve_schedule(spec: str) -> Schedule:
    """The one schedule loader: a bundled schedule, or the CSV file at path
    `spec`, named by its stem. The bundled tables have 201 rows on equal
    steps of s: 'linear' is a(s) = s, b(s) = 1 - s; 'steep' is a(s) = s,
    b(s) = (1 - s)^4, whose driver is below 0.4% of its initial strength at
    s = 0.75, pushing the small-gap region toward mid-anneal."""
    if spec in ("linear", "steep"):
        text = resources.files("annealab.data").joinpath(f"{spec}.csv").read_text()
        return Schedule.from_csv_text(text, name=spec)
    p = Path(spec)
    if not p.exists():
        raise ScheduleError(f"schedule file not found: {spec}")
    return Schedule.from_csv_text(p.read_text(), name=p.stem)


def reverse_distance_grid() -> list[float]:
    """The ten turning points swept in the reverse-distance experiments:
    0.93 down to 0.30 in equal steps of 0.07."""
    return [round(0.30 + 0.07 * i, 2) for i in range(10)]


# time fractions for the 11 intervals of a reverse path: the initial descent
# step takes 105/11 percent of the total, every later interval 199/22 percent
_REVERSE_FRACTIONS = np.array([21.0 / 220.0] + [199.0 / 2200.0] * 10)


@dataclass(frozen=True)
class AnnealPath:
    """Piecewise-linear control path s(t) given by (time, s) waypoints.

    kind records intent: 'forward' ramps 0 -> 1, 'reverse' starts and ends at
    s = 1 with an interior turning point, anything else is 'custom'.
    """

    times: np.ndarray
    svals: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        s = np.asarray(self.svals, dtype=np.float64)
        if t.ndim != 1 or t.shape != s.shape or t.size < 2:
            raise ValueError("path needs matching time and s arrays with at least two points")
        if not (np.isfinite(t).all() and np.isfinite(s).all()):
            raise ValueError("path waypoints must be finite")
        if abs(t[0]) > 1e-12 or np.any(np.diff(t) <= 0):
            raise ValueError("waypoint times must start at 0 and strictly increase")
        if np.any(s < -1e-12) or np.any(s > 1 + 1e-12):
            raise ValueError("s waypoints must lie in [0, 1]")
        if self.kind == "forward" and (s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) < 0)):
            raise ValueError("forward path must ramp monotonically from s=0 to s=1")
        if self.kind == "reverse" and (s[0] != 1.0 or s[-1] != 1.0 or s.min() >= 1.0):
            raise ValueError("reverse path must start and end at s=1 with an interior dip")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "svals", np.clip(s, 0.0, 1.0))

    @property
    def total_time(self) -> float:
        return float(self.times[-1])

    def s_of_t(self, t):
        return np.interp(t, self.times, self.svals)

    def segments(self):
        """Yield (t0, t1, s0, s1) per linear piece."""
        for i in range(len(self.times) - 1):
            yield (
                float(self.times[i]),
                float(self.times[i + 1]),
                float(self.svals[i]),
                float(self.svals[i + 1]),
            )

    def check_start(self, initial, n: int) -> None:
        """The one start rule for both samplers: a reverse path starts from
        the bitstring `initial`, a forward path from the driver ground state
        (initial None), and `initial` has one 0 or 1 per variable."""
        if self.kind == "reverse" and initial is None:
            raise ValueError("reverse path needs an initial bitstring")
        if self.kind == "forward" and initial is not None:
            raise ValueError("forward path takes no initial bitstring")
        if initial is not None and len(initial) != n:
            raise ValueError(f"initial has {len(initial)} bits, problem has {n} variables")
        if initial is not None and not set(initial) <= {"0", "1"}:
            raise ValueError(f"initial must be a string of 0s and 1s, got {initial!r}")


def make_forward_path(total_time: float) -> AnnealPath:
    return AnnealPath(np.array([0.0, total_time]), np.array([0.0, 1.0]), kind="forward")


def make_reverse_path(s_prime: float, total_time: float) -> AnnealPath:
    """Reverse-anneal template: 1 -> s' in five equal s-steps, one pause
    interval at s', then five equal steps back to 1. Twelve waypoints, with
    interval durations fixed by _REVERSE_FRACTIONS."""
    if not 0.0 < s_prime < 1.0:
        raise ValueError(f"reverse distance must be in (0, 1), got {s_prime}")
    down = np.linspace(1.0, s_prime, 6)
    up = np.linspace(s_prime, 1.0, 6)
    svals = np.concatenate([down, [s_prime], up[1:]])
    times = np.concatenate([[0.0], np.cumsum(_REVERSE_FRACTIONS)]) * total_time
    return AnnealPath(times, svals, kind="reverse")
