"""Trajectory CSV I/O: the streamed writer and loader against reference
copies of the whole-file formatter and loader they replaced, at sizes
around the block edges, on the error paths, and in memory."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symkoop.dynamics import (
    _CSV_BLOCK,
    TIME_GRID_TOL,
    Trajectory,
    load_trajectory,
    save_trajectory,
    write_trajectory_rows,
)
from symkoop.errors import ConfigurationError

B = _CSV_BLOCK


# ---------------------------------------------------------------------------
# reference copies of the whole-file code: the writer's bytes and the
# loader's results and errors must stay exactly theirs

def reference_rows(traj, prefix=""):
    dt = float(traj.dt)
    states = np.asarray(traj.states, dtype=float).tolist()
    return "".join([f"{prefix}{k * dt!r},{','.join(map(repr, row))}\n"
                    for k, row in enumerate(states)])


def reference_load(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("t,"):
        raise ConfigurationError(f"{path}:1: expected header 't,x1,...,xn'")
    dim = len(lines[0].split(",")) - 1
    values, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ConfigurationError(
                f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}"
            )
        try:
            values.extend(map(float, parts))
        except ValueError as err:
            raise ConfigurationError(f"{path}:{lineno}: {err}") from err
        linenos.append(lineno)
    if len(linenos) < 2:
        raise ConfigurationError(
            f"{path}: need at least 2 data rows to recover the sample interval"
        )
    data = np.array(values).reshape(-1, dim + 1)
    bad = ~np.all(np.isfinite(data), axis=1)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ConfigurationError(f"{path}:{linenos[k]}: non-finite value (NaN or Inf)")
    t = data[:, 0]
    dt = float(t[1] - t[0])
    drift = np.abs(t - (t[0] + np.arange(len(t)) * dt))
    off_grid = drift > TIME_GRID_TOL * np.maximum(1.0, np.abs(t))
    if np.any(off_grid):
        k = int(np.argmax(off_grid))
        raise ConfigurationError(
            f"{path}:{linenos[k]}: time {float(t[k])!r} is off the uniform grid "
            f"t0 + k*dt (dt={dt!r} from the first two rows)"
        )
    return Trajectory(dim=dim, dt=dt, states=data[:, 1:])


def outcome(load, path):
    """What ``load`` makes of ``path``: its error message, or its result."""
    try:
        traj = load(path)
    except ConfigurationError as err:
        return str(err)
    return traj.dt, traj.states.tolist()


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# ---------------------------------------------------------------------------
# round trip and writer bytes

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1.7976931348623157e308, -1e308, 1e-300, 1e22, 0.1, -1.0 / 3.0]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.sampled_from([B - 1, B, B + 1, 3 * B + 5]),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(min_value=5e-324, max_value=1e100),
    extra=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16),
    prefix=st.sampled_from(["", "7,", "%d%%,"]),
)
def test_roundtrip_is_bit_exact_and_bytes_match_reference(
        tmp_path, n, dim, seed, dt, extra, prefix):
    rng = np.random.default_rng(seed)
    # half the values from every exponent (random bit patterns, subnormals
    # included), half ordinary; then the special values at random places
    x = rng.integers(0, 2**64, size=(n, dim), dtype=np.uint64).view(np.float64)
    ordinary = rng.random((n, dim)) < 0.5
    x[ordinary] = rng.standard_normal(int(ordinary.sum()))
    x[~np.isfinite(x)] = 1.0
    for v in SPECIAL + extra:
        x.flat[rng.integers(x.size)] = v
    traj = Trajectory(dim=dim, dt=dt, states=x)

    # compared as lists of lines: a failing comparison of two long strings
    # would make pytest diff them line by line, which takes minutes
    buf = io.StringIO()
    write_trajectory_rows(buf, traj, prefix=prefix)
    assert buf.getvalue().split("\n") == reference_rows(traj, prefix=prefix).split("\n")

    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    header = "t," + ",".join(f"x{i + 1}" for i in range(dim)) + "\n"
    assert path.read_bytes().decode().split("\n") == \
        (header + reference_rows(traj)).split("\n")
    loaded = load_trajectory(path)
    assert loaded.dt == dt and loaded.dim == dim
    assert np.array_equal(bits(loaded.states), bits(x))


# ---------------------------------------------------------------------------
# error paths beyond the first block

def valid_lines(n=2 * B + 50, dim=2, dt=0.5):
    """A header and n rows on the grid k*dt, as lines without terminators."""
    states = np.random.default_rng(3).standard_normal((n, dim))
    return [ln for ln in ("t,x1,x2\n" + reference_rows(
        Trajectory(dim=dim, dt=dt, states=states))).split("\n") if ln]


def with_value(lines, i, field, text):
    parts = lines[i].split(",")
    parts[field] = text
    lines[i] = ",".join(parts)


def off_grid(lines, i):
    with_value(lines, i, 0, repr(float(lines[i].split(",")[0]) + 0.125))


L = B + 300  # a data line in the second block


@pytest.mark.parametrize("mutate, expected", [
    (lambda ls: ls.__setitem__(L, "1.0,2.0"), f":{L + 1}: expected 3 fields, got 2"),
    (lambda ls: ls.__setitem__(L, ls[L] + ",4"), f":{L + 1}: expected 3 fields, got 4"),
    (lambda ls: with_value(ls, L, 1, "abc"),
     f":{L + 1}: could not convert string to float: 'abc'"),
    (lambda ls: with_value(ls, L, 2, "nan"), f":{L + 1}: non-finite value"),
    (lambda ls: with_value(ls, L, 1, "-inf"), f":{L + 1}: non-finite value"),
    (lambda ls: with_value(ls, L, 0, "inf"), f":{L + 1}: non-finite value"),
    (lambda ls: off_grid(ls, L), f":{L + 1}: time "),
    # blank and whitespace-only lines, one in each block, shift the number
    (lambda ls: (with_value(ls, 2 * B, 1, "x"),
                 [ls.insert(i, blank) for i, blank in
                  ((2 * B - 5, ""), (B + 7, "  "), (5, "\t"))]),
     f":{2 * B + 4}: could not convert string to float: 'x'"),
    (lambda ls: (off_grid(ls, 2 * B), ls.insert(B, ""), ls.insert(3, "")),
     f":{2 * B + 3}: time "),
    # two faults: a field-count or parse error anywhere wins over an
    # earlier NaN or off-grid time, and a NaN anywhere over an earlier
    # off-grid time; within one block the first bad line wins
    (lambda ls: (with_value(ls, 10, 1, "nan"), with_value(ls, L, 1, "?")),
     f":{L + 1}: could not convert string to float: '?'"),
    (lambda ls: (off_grid(ls, 10), ls.__setitem__(2 * B + 20, "0")),
     f":{2 * B + 21}: expected 3 fields, got 1"),
    (lambda ls: (off_grid(ls, 10), with_value(ls, L, 2, "inf")),
     f":{L + 1}: non-finite value"),
    (lambda ls: (with_value(ls, L, 1, "y"), ls.__setitem__(L + 5, "1,2")),
     f":{L + 1}: could not convert string to float: 'y'"),
    (lambda ls: (ls.__setitem__(L, "1,2"), with_value(ls, L + 5, 1, "y")),
     f":{L + 1}: expected 3 fields, got 2"),
], ids=["too-few-fields", "too-many-fields", "text", "nan", "-inf", "inf-time",
        "off-grid", "blank-lines-then-text", "blank-lines-then-off-grid",
        "parse-beats-earlier-nan", "fields-beat-earlier-off-grid",
        "nan-beats-earlier-off-grid", "first-of-two-in-a-block-text",
        "first-of-two-in-a-block-fields"])
def test_error_beyond_the_first_block_keeps_message_and_line(tmp_path, mutate, expected):
    lines = valid_lines()
    mutate(lines)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError) as info:
        load_trajectory(path)
    assert expected in str(info.value)
    assert str(info.value) == outcome(reference_load, path)


FAULTS = ["", "  ", "1,2", "1,2,3,4", "0.5,x,1", "0.5,nan,1", "inf,1,2", "off",
          "\x0c", "1.0\x0b2.0,3.0", "\x1e"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    faults=st.lists(st.tuples(st.integers(1, 2 * B + 10), st.sampled_from(FAULTS)),
                    max_size=3),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
)
def test_loader_matches_reference_on_generated_faults(tmp_path, faults, newline,
                                                      final_newline):
    # blank lines, field-count, parse, NaN/Inf and off-grid faults, and
    # separators that str.splitlines breaks at (form feed, vertical tab,
    # record separator), under every newline convention
    lines = valid_lines(n=2 * B + 10)
    for i, fault in sorted(faults, key=lambda f: f[1] != "off"):  # data rows first
        if fault == "off":
            off_grid(lines, i)
        else:
            lines.insert(i, fault)
    path = tmp_path / "gen.csv"
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(lines) + (newline if final_newline else ""))
    assert outcome(load_trajectory, path) == outcome(reference_load, path)


@pytest.mark.parametrize("text", [
    "", "\n", "x,y\n0,1\n", "t,x1\n", "t,x1\n0.0,1.0\n", "t,x1\n\n0.0,1.0\n\n",
    "t,x1\n0.0,1.0\n" + "\n" * (2 * B) + "0.5,2.0",
    "t,x1\n" + "\n" * (B - 1) + "0.0,1.0\n" + "\n" * B + "0.5,2.0\n1.0,3.0\n",
    # the first two data rows in different blocks, then a time off the grid
    # (or a NaN first time) that is known only once the second row is read
    "t,x1\n0.0,1.0\n" + "\n" * (B - 2) + "0.5,2.0\n1.1,3.0\n",
    "t,x1\n0.0,1.0\n" + "\n" * (B - 2) + "0.5,2.0\n" + "\n" * B + "1.5,3.0\n",
    "t,x1\nnan,1.0\n" + "\n" * (B - 2) + "0.5,2.0\n1.0,3.0\n",
])
def test_short_files_match_reference(tmp_path, text):
    path = tmp_path / "short.csv"
    path.write_text(text)
    assert outcome(load_trajectory, path) == outcome(reference_load, path)


# ---------------------------------------------------------------------------
# memory: neither direction holds the file's text or a Python float per value

def test_save_and_load_memory_stay_bounded(tmp_path):
    states = np.random.default_rng(5).standard_normal((200_000, 2))
    traj = Trajectory(dim=2, dt=0.001, states=states)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        save_trajectory(traj, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_trajectory(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.states, states)
    # the whole-file code peaked at 53 MB and 18 x states.nbytes, a loader
    # keeping every parsed (rows, dim + 1) block at 2.6 x
    assert save_peak < 2_000_000, save_peak
    assert load_peak < 2.5 * loaded.states.nbytes, (load_peak, loaded.states.nbytes)
