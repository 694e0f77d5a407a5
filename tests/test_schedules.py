import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealab.schedules import (
    AnnealPath,
    Schedule,
    ScheduleError,
    make_forward_path,
    make_reverse_path,
    resolve_schedule,
    reverse_distance_grid,
)
from oracles import reversed_path

LINEAR = resolve_schedule("linear")
STEEP = resolve_schedule("steep")


def table_text(s, b) -> str:
    """CSV text of the table a = s, b on the given s grid."""
    rows = (f"{float(x)!r},{float(x)!r},{float(y)!r}\n" for x, y in zip(s, b))
    return "s,a,b\n" + "".join(rows)


def test_linear_endpoints_and_midpoint():
    sch = LINEAR
    assert sch.a(0.0) == pytest.approx(0.0)
    assert sch.b(0.0) == pytest.approx(1.0)
    assert sch.a(1.0) == pytest.approx(1.0)
    assert sch.b(1.0) == pytest.approx(0.0)
    assert sch.a(0.5) == pytest.approx(0.5)
    assert sch.b(0.5) == pytest.approx(0.5)


def test_steep_driver_collapse():
    sch = STEEP
    assert sch.b(0.75) == pytest.approx(0.25**4)
    assert sch.b(0.5) == pytest.approx(0.5**4)
    assert sch.a(0.75) == pytest.approx(0.75)
    # strictly below linear in the interior
    s = np.linspace(0.05, 0.95, 19)
    assert np.all(sch.b(s) < LINEAR.b(s))


def test_bundled_tables_match_closed_forms():
    s = np.linspace(0.0, 1.0, 201)
    for sch, b in ((LINEAR, 1.0 - s), (STEEP, (1.0 - s) ** 4)):
        assert np.allclose(sch.s_grid, s, rtol=0.0, atol=1e-15)
        assert np.allclose(sch.a_vals, s, rtol=0.0, atol=1e-15)
        assert np.allclose(sch.b_vals, b, rtol=0.0, atol=1e-15)
    with pytest.raises(ScheduleError, match="not found: bogus"):
        resolve_schedule("bogus")


def test_loader_normalizes():
    text = "s,a,b\n0,0,4\n0.5,3,2\n1,6,0\n"
    sch = Schedule.from_csv_text(text)
    assert sch.a(1.0) == pytest.approx(1.0)
    assert sch.b(0.0) == pytest.approx(1.0)
    assert sch.a(0.5) == pytest.approx(0.5)
    assert sch.b(0.5) == pytest.approx(0.5)


def test_loader_rejects_bad_tables():
    with pytest.raises(ScheduleError, match="header"):
        Schedule.from_csv_text("x,y,z\n0,0,1\n1,1,0\n")
    with pytest.raises(ScheduleError, match="increasing"):
        Schedule.from_csv_text("s,a,b\n0,0,1\n0.6,0.5,0.5\n0.4,0.7,0.3\n1,1,0\n")
    with pytest.raises(ScheduleError, match="span"):
        Schedule.from_csv_text("s,a,b\n0.1,0,1\n1,1,0\n")
    with pytest.raises(ScheduleError, match="negative"):
        Schedule.from_csv_text("s,a,b\n0,0,1\n0.5,-0.2,0.5\n1,1,0\n")
    with pytest.raises(ScheduleError, match="non-numeric"):
        Schedule.from_csv_text("s,a,b\n0,0,1\n1,one,0\n")


@pytest.mark.parametrize("row", ["nan,0.5,0.5", "0.5,nan,0.5", "0.5,0.5,inf", "0.5,-inf,0.5"])
def test_loader_rejects_non_finite_entries(row):
    with pytest.raises(ScheduleError, match="non-finite entry at row 1"):
        Schedule.from_csv_text(f"s,a,b\n0,0,1\n{row}\n1,1,0\n")


def test_csv_roundtrip(tmp_path):
    grid = np.linspace(0.0, 1.0, 51)
    f = tmp_path / "sched.csv"
    f.write_text(table_text(grid, (1.0 - grid) ** 4))
    back = resolve_schedule(str(f))
    assert back.name == "sched"
    assert back.s_grid.tobytes() == grid.tobytes()
    assert back.b_vals.tobytes() == ((1.0 - grid) ** 4).tobytes()
    s = np.linspace(0, 1, 97)
    assert np.allclose(back.a(s), STEEP.a(s))
    assert np.allclose(back.b(s), STEEP.b(s), rtol=0.0, atol=1e-3)


def test_make_forward_path():
    p = make_forward_path(10.0)
    assert p.total_time == 10.0
    assert p.s_of_t(0.0) == pytest.approx(0.0)
    assert p.s_of_t(10.0) == pytest.approx(1.0)
    assert p.s_of_t(2.5) == pytest.approx(0.25)


def test_make_reverse_path_shape():
    p = make_reverse_path(0.5, 100.0)
    assert len(p.times) == 12
    assert p.svals[0] == pytest.approx(1.0)
    assert p.svals[-1] == pytest.approx(1.0)
    assert p.svals.min() == pytest.approx(0.5)
    # descent in five equal s steps
    assert np.allclose(p.svals[:6], [1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    # one flat pause interval at the turning point
    assert p.svals[6] == pytest.approx(0.5)
    assert np.allclose(p.svals[6:], [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])


@settings(max_examples=100, deadline=None)
@given(s_prime=st.floats(0.001, 0.999), total_time=st.floats(1e-3, 1e4),
       n=st.integers(1, 12), data=st.data())
def test_reverse_path_invariants(s_prime, total_time, n, data):
    p = make_reverse_path(s_prime, total_time)
    assert len(p.times) == 12
    assert p.times[-1] == pytest.approx(total_time)
    assert np.allclose(p.svals, p.svals[::-1], rtol=0.0, atol=1e-12)
    assert p.svals[5] == p.svals[6] == s_prime
    assert p.svals.min() == s_prime
    bits = st.text("01", min_size=n, max_size=n)
    p.check_start(data.draw(bits), n)
    with pytest.raises(ValueError, match="reverse path needs an initial bitstring"):
        p.check_start(None, n)
    with pytest.raises(ValueError, match="forward path takes no initial bitstring"):
        make_forward_path(total_time).check_start(data.draw(bits), n)
    wrong = data.draw(st.text("01", max_size=2 * n).filter(lambda b: len(b) != n))
    with pytest.raises(ValueError, match=f"initial has {len(wrong)} bits"):
        p.check_start(wrong, n)


def test_make_reverse_path_timing():
    p = make_reverse_path(0.25, 100.0)
    # first interval takes 105/11 percent of the total, the rest 199/22 each
    assert p.times[1] == pytest.approx(105.0 / 11.0)
    assert np.allclose(np.diff(p.times)[1:], 199.0 / 22.0)
    assert p.times[-1] == pytest.approx(100.0)


def test_make_reverse_path_turning_points():
    for sp in (0.25, 0.75):
        p = make_reverse_path(sp, 50.0)
        assert p.svals.min() == pytest.approx(sp)
        assert np.allclose(p.svals[:6], np.linspace(1.0, sp, 6))


def test_path_mirror():
    p = make_reverse_path(0.4, 80.0)
    m = reversed_path(p)
    assert m.total_time == pytest.approx(80.0)
    ts = np.linspace(0, 80.0, 33)
    assert np.allclose(m.s_of_t(ts), p.s_of_t(80.0 - ts))


def test_reverse_distance_grid():
    grid = reverse_distance_grid()
    assert len(grid) == 10
    assert grid[0] == 0.30 and grid[-1] == 0.93
    assert 0.44 in grid
    assert np.allclose(np.diff(grid), 0.07)


def test_resolve_schedule(tmp_path):
    assert resolve_schedule("steep").name == "steep"
    f = tmp_path / "mine.csv"
    f.write_text(table_text(LINEAR.s_grid, LINEAR.b_vals))
    assert resolve_schedule(str(f)).a(0.5) == pytest.approx(0.5)
    with pytest.raises(ScheduleError, match="not found"):
        resolve_schedule(str(tmp_path / "missing.csv"))


def test_load_schedule_is_file_loader(tmp_path):
    f = tmp_path / "lin.csv"
    grid = np.linspace(0.0, 1.0, 11)
    f.write_text(table_text(grid, 1.0 - grid))
    assert resolve_schedule(str(f)).b(0.25) == pytest.approx(0.75)


def test_path_guards():
    with pytest.raises(ValueError):
        make_forward_path(0.0)
    with pytest.raises(ValueError):
        make_reverse_path(1.0, 10.0)
    with pytest.raises(ValueError):
        make_reverse_path(0.5, -1.0)
    with pytest.raises(ValueError):
        AnnealPath(np.array([0.0, 1.0]), np.array([0.0, 1.5]))
    with pytest.raises(ValueError):
        AnnealPath(np.array([0.5, 1.0]), np.array([0.0, 1.0]))


def test_loader_names_a_short_row():
    with pytest.raises(ScheduleError, match="every row needs exactly three columns; row 1 has 2"):
        Schedule.from_csv_text("s,a,b\n0,0,1\n1,1\n")


@pytest.mark.parametrize("call, match", [
    (lambda: Schedule("x", [0.0, 1.0], [0.0, 0.5, 1.0], [1.0, 0.0]), "matching s/a/b columns"),
    (lambda: Schedule("x", [0.0], [1.0], [1.0]), "at least two rows"),
    (lambda: Schedule("x", [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]), r"a\(1\) > 0 and b\(0\) > 0"),
    (lambda: AnnealPath([0.0, 1.0], [0.0, 0.5, 1.0]), "matching time and s arrays"),
    (lambda: AnnealPath([0.0, 1.0, 2.0, 3.0], [0.0, 0.6, 0.4, 1.0], kind="forward"),
     "forward path must ramp monotonically"),
    (lambda: AnnealPath([0.0, 1.0, 2.0], [1.0, 0.5, 0.9], kind="reverse"),
     "reverse path must start and end at s=1"),
    (lambda: make_reverse_path(0.5, float("nan")), "path waypoints must be finite"),
    (lambda: make_forward_path(float("inf")), "path waypoints must be finite"),
], ids=["schedule-columns", "schedule-one-row", "schedule-a1-zero", "path-arrays",
        "forward-not-monotone", "reverse-end", "reverse-time-nan", "forward-time-inf"])
def test_schedules_and_paths_refuse_bad_tables(call, match):
    with pytest.raises(ValueError, match=match):
        call()
