"""Benchmark dynamical systems, fixed-step RK4 integration, and snapshot
extraction.

Built-in systems:

* ``lorenz`` : the Lorenz equations, invariant under the half-turn
  (x, y, z) -> (-x, -y, z).
* ``toggle_switch`` : a bistable genetic toggle switch, invariant under the
  coordinate swap (x1, x2) -> (x2, x1) when its parameters are symmetric.
* ``hamiltonian`` : a double-well-style Hamiltonian flow with the Klein
  four-group of symmetries (swap, negation, and their product).

All trajectories are produced by a fixed-step classical 4th-order
Runge-Kutta scheme so that snapshot spacing is exactly uniform.
"""

import functools
import itertools
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InputError, NumericalDivergenceError, json_value

TIME_GRID_TOL = 1e-9  # relative departure of a CSV time from t0 + k*dt


@dataclass(frozen=True)
class SystemDef:
    """A named dynamical system x' = field(x, params): its vector field, the
    sample interval it is simulated at by default, the matrices generating
    its symmetry group, and a quantity constant along its orbits, if any."""

    name: str
    dim: int
    params: dict
    field: Callable[[Sequence, dict], Sequence]
    dt: float
    generators: tuple = ()  # of (label, state-space matrix)
    conserved: Optional[Callable] = None  # constant along orbits, of x[0], ..., x[dim-1]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states, one row per sample."""

    dim: int
    dt: float
    states: np.ndarray  # shape (n_samples, dim)

    @property
    def n_states(self):
        return self.states.shape[0]


@dataclass(frozen=True)
class SnapshotPairs:
    """Paired data matrices of consecutive states, one column per pair.
    Kept only because ``perfbench/`` binds it; ROADMAP items 6 and 23 delete it."""

    dim: int
    Xp: np.ndarray  # dim x M
    Xf: np.ndarray  # dim x M


# ---------------------------------------------------------------------------
# built-in vector fields
#
# Fields are written with explicit multiplies (no pow) so that applying a
# signed-permutation symmetry to the input commutes with the arithmetic
# bit-for-bit; the equivariance checks rely on this being exact.

def lorenz_field(x, params):
    sigma, rho, beta = params["sigma"], params["rho"], params["beta"]
    return (
        sigma * (x[1] - x[0]),
        x[0] * (rho - x[2]) - x[1],
        x[0] * x[1] - beta * x[2],
    )


def toggle_switch_field(x, params):
    a1, a2 = params["alpha1"], params["alpha2"]
    k1, k2 = params["kappa1"], params["kappa2"]
    beta, theta = params["beta"], params["theta"]
    # np.power, not **: see "evaluation and integration" below
    return (
        a1 / (1.0 + np.power(x[1], beta)) - k1 * x[0],
        a2 / (1.0 + np.power(x[0], theta)) - k2 * x[1],
    )


def hamiltonian_field(x, params):
    q, p = x[0], x[1]
    return (p * p * p - 9.0 * p, q * q * q - 9.0 * q)


def hamiltonian_energy(q, p):
    """Conserved energy H(q, p) = p^4/4 - 9 p^2/2 - q^4/4 + 9 q^2/2.

    Antisymmetric under the swap q <-> p, even in each variable; its zero
    level set (the lines p = +/-q and the circle q^2 + p^2 = 18) separates
    the four families of periodic orbits around (+/-3, 0) and (0, +/-3).
    """
    return 0.25 * p**4 - 4.5 * p**2 - 0.25 * q**4 + 4.5 * q**2


def _read_only(array):
    """``array``, made read-only: a constant every caller shares."""
    array.flags.writeable = False
    return array


# Toggle-switch defaults: the repression strengths must exceed the pitchfork
# threshold alpha = 2 (at kappa=1, beta=theta=2) for two stable equilibria
# to exist; alpha = 4 puts them at (2 + sqrt(3), 2 - sqrt(3)) and mirror.
_BUILTINS = {system.name: system for system in (
    SystemDef(
        "lorenz", 3, {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}, lorenz_field, 0.01,
        (("rot_pi_z", _read_only(np.diag([-1.0, -1.0, 1.0]))),),
    ),
    SystemDef(
        "toggle_switch", 2,
        {
            "alpha1": 4.0,
            "alpha2": 4.0,
            "kappa1": 1.0,
            "kappa2": 1.0,
            "beta": 2.0,
            "theta": 2.0,
        },
        toggle_switch_field, 0.01,
        (("swap", _read_only(np.array([[0.0, 1.0], [1.0, 0.0]]))),),
    ),
    SystemDef(
        "hamiltonian", 2, {}, hamiltonian_field, 0.001,
        (
            ("swap", _read_only(np.array([[0.0, 1.0], [1.0, 0.0]]))),
            ("negate", _read_only(np.array([[-1.0, 0.0], [0.0, -1.0]]))),
        ),
        conserved=hamiltonian_energy,
    ),
)}


def system_names():
    return sorted(_BUILTINS)


def make_system(name, params=None):
    """The built-in system ``name``, optionally overriding named parameters,
    with a params dict of its own: writing to it changes no other system."""
    if name not in _BUILTINS:
        raise ConfigurationError(
            f"unknown system {name!r}; available: {', '.join(system_names())}"
        )
    record = _BUILTINS[name]
    params = json_value({} if params is None else params, f"params for system {name!r}",
                        "a JSON object")
    merged = dict(record.params)
    for key, value in params.items():
        if key not in record.params:
            raise ConfigurationError(
                f"unknown parameter {key!r} for system {name!r}"
            )
        merged[key] = json_value(value, f"parameter {key!r} for system {name!r}",
                                 "a finite number")
    return replace(record, params=merged)


# ---------------------------------------------------------------------------
# evaluation and integration
#
# Every function taking a state also takes a block of states, one per row
# (N, dim), as in Trajectory.states. A field is called with the
# coordinates x[i] of what it steps and returns its dim coordinates, as a
# tuple or an array. One RK4 loop, _RK4_SOURCE, steps both. One state, of
# shape (dim,) or a block of one row, is stepped on Python floats, so no
# array is built per RK4 stage and no numpy scalar per operation. A block
# of N > 1 states is stepped as one C-contiguous (dim, N) array, which the
# field gets (x[i] is the (N,) row of coordinate i); each stage input and
# the update is one expression on the whole block, doing element by
# element the same operations in the same order. Python's + - * / on
# floats are the same IEEE double operations as numpy's, so a column of a
# block gets bit for bit what stepping it alone gives. Python's rules part
# from numpy's in three places: 1/0 and an overflowing ``**`` raise, and a
# negative base to a fractional power gives a complex number, where numpy
# under np.errstate gives Inf or NaN. So a run of one-state steps that
# raises an ArithmeticError or ends on a complex coordinate is rerun from
# its start as a block of one, the (dim, 1) array, which follows numpy's
# rules. A field raising to a power must call np.power: ``**`` on a scalar
# calls the C library's pow, which can differ in the last bit from numpy's
# own power loop that ``**`` on an array runs, while np.power runs that
# loop on scalars and arrays alike (and gives numpy's NaN, not a complex
# number, on a Python float).

STATE_CHUNK = 256  # simulate steps, checks and stores at most this many steps at a time
CHUNK_FLOATS = 2 ** 14  # and coordinates, at least one step; so do the image check's windows


def _chunk_steps(size):
    """Steps per chunk of a block of ``size`` coordinates."""
    return max(1, min(STATE_CHUNK, CHUNK_FLOATS // size))


def _check_state(system, x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (system.dim,) or x.ndim > 2:
        raise InputError(
            f"state has shape {x.shape}, system {system.name!r} expects "
            f"({system.dim},) or (N, {system.dim})"
        )
    if not np.isfinite(x).all():
        raise InputError(f"state of {system.name!r} contains NaN or Inf")
    return x


def _check_dt(dt):
    if not np.isfinite(dt):
        raise InputError(f"dt must be finite, got {dt}")
    if dt <= 0:
        raise InputError(f"dt must be positive, got {dt}")


def _field_output(system, k, shape):
    """The field's output k as a float array of ``shape``."""
    try:
        k = np.asarray(k, dtype=float)
    except ValueError:  # coordinates of different shapes
        returned = tuple(np.shape(v) for v in k)
    else:
        returned = k.shape
    if returned != shape:
        raise InputError(
            f"field of {system.name!r} returned shape {returned}, expected {shape}"
        )
    return k


# The RK4 loop, written once. _rk4_kernel writes out each {field}: an
# expression in the state y and the stages k1 .. k4, or one of the
# statements {check k1} and {store y}. For a block it stays as it reads,
# on the (dim, N) array: f checks every stage through _field_output, h, s,
# two and dt are 0-d arrays (numpy multiplies by them faster than by
# floats), {check k1} is empty and {store y} writes the step into states,
# an (n, dim, N) array. For one state each expression is written out per
# coordinate, (y0 + h * k1[0], y1 + h * k1[1],), on Python floats; {check
# k1} sends a k1 other than a tuple of dim values through _field_output,
# and {store y} appends the coordinates to states, a flat list.
_RK4_SOURCE = """
def rk4(system, f, y, dt, n, states):
    p = system.params
    {y} = y
    h, s, two, dt = number(0.5 * dt), number(dt / 6.0), number(2.0), number(dt)
    for i in range(n):
        k1 = f({y}, p)
        {check k1}
        k2 = f({y + h * k1}, p)
        k3 = f({y + h * k2}, p)
        k4 = f({y + dt * k3}, p)
        {y} = {y + s * (k1 + two * k2 + two * k3 + k4)}
        {store y}
    return states
"""


@functools.cache
def _rk4_kernel(dim):
    """The RK4 loop ``rk4(system, f, y, dt, n, states)``, which steps y n
    times with the field f and stores the n states after it in ``states``:
    for a block (dim None), y is a (dim, N) array; for one state of ``dim``
    coordinates, a tuple of scalars. Compiled once per dim from source made
    of the integer dim alone."""
    if dim is None:
        fields, number = {"check k1": "", "store y": "states[i] = y"}, np.asarray
        write = lambda field: fields.get(field, field)
    else:
        dim, number = int(dim), float

        def write(field):
            if field == "check k1":
                return (f"if type(k1) is not tuple or len(k1) != {dim}:\n"
                        f"            k1 = tuple(_field_output(system, k1, ({dim},)))")
            if field == "store y":
                return f"states.extend({write('y')})"
            return "(" + " ".join(
                re.sub(r"\b(k\d)\b", rf"\1[{i}]", re.sub(r"\by\b", f"y{i}", field)) + ","
                for i in range(dim)) + ")"
    namespace = {"_field_output": _field_output, "number": number}
    exec(re.sub(r"{([^}]*)}", lambda field: write(field[1]), _RK4_SOURCE), namespace)
    return namespace["rk4"]


def _advance_chunk(system, x, dt, n):
    """The n states after the states x (N, dim), one RK4 step each, as an
    array (n, dim, N). One state is stepped as Python floats; where their
    rules part from numpy's (1/0 and ``**`` overflow raise, a negative base
    to a fractional power is complex), the n steps are rerun from x as a
    block of one, so the states, or the error, are numpy's. A block is
    stepped as one (dim, N) array, its field's output checked at every
    stage."""
    if len(x) == 1:
        dim = x.shape[1]
        try:
            states = _rk4_kernel(dim)(system, system.field, tuple(x[0].tolist()), dt, n, [])
        except ArithmeticError:
            pass
        else:
            # a complex coordinate stays complex, so the last state shows it
            if not any(isinstance(v, complex) for v in states[-dim:]):
                # a field that returns arrays for one state makes every
                # later state one of arrays, so the last state shows it
                _field_output(system, states[-dim:], (dim,))
                return np.array(states, dtype=float).reshape(n, dim, 1)
    y = np.array(x.T, dtype=float, order="C")
    field, shape = system.field, y.shape
    checked = lambda z, p: _field_output(system, field(z, p), shape)
    return _rk4_kernel(None)(system, checked, y, dt, n, np.empty((n,) + shape))


def _divergence(system, y, batch, step_index=None, total=None):
    """The error for a non-finite y (a state, or states as columns); from a
    block it names the first start whose state is non-finite."""
    start = int(np.argmin(np.isfinite(y).all(axis=0))) if batch else None
    where = f" at step {step_index} of {total}" if step_index is not None else ""
    where += f" from start {start}" if batch else ""
    return NumericalDivergenceError(
        f"non-finite state from {system.name!r}{where}",
        step_index=step_index, start_index=start,
    )


def step(system, x, dt):
    """Advance a state (dim,) or each row of a block (N, dim) by one
    classical RK4 step of size ``dt``.

    RK4 commutes exactly with any linear symmetry of an equivariant field,
    so this discretization preserves the group structure the rest of the
    toolkit relies on. Each row of a block gets bit for bit the result of
    stepping it alone.
    """
    x = _check_state(system, x)
    _check_dt(dt)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _advance_chunk(system, x.reshape(-1, system.dim), dt, 1)[0].T.reshape(x.shape)
    if not np.isfinite(out).all():
        raise _divergence(system, out.T, batch=x.ndim == 2)
    return out


def simulate(system, x0, dt, n_steps, discard=0):
    """Integrate ``n_steps + discard`` steps and drop the first ``discard``
    states (transient removal).

    ``x0`` of shape (dim,) gives one Trajectory of n_steps + 1 states;
    ``x0`` of shape (N, dim) integrates all N starts together and gives a
    list of N such Trajectories, each bit for bit the one its start would
    give alone. A divergence names the first step with a non-finite state
    and, for a block, the first start that holds one.
    """
    x0 = _check_state(system, x0)
    if n_steps < 1:
        raise InputError("n_steps must be a positive integer")
    if discard < 0:
        raise InputError("discard must be nonnegative")
    _check_dt(dt)
    batch = x0.ndim == 2
    total = n_steps + discard
    states = np.empty((x0.size // system.dim, total + 1, system.dim))
    states[:, 0] = x0.reshape(-1, system.dim)
    chunk = _chunk_steps(x0.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(1, total + 1, chunk):
            stop = min(start + chunk, total + 1)
            block = _advance_chunk(system, states[:, start - 1], dt, stop - start)
            finite = np.isfinite(block).all(axis=(1, 2))
            if not finite.all():
                k = int(np.argmin(finite))
                raise _divergence(system, block[k], batch, step_index=start + k, total=total)
            states[:, start:stop] = block.transpose(2, 0, 1)
    if not batch:
        return Trajectory(dim=system.dim, dt=float(dt), states=states[0, discard:])
    return [Trajectory(dim=system.dim, dt=float(dt), states=s[discard:]) for s in states]


def snapshots(traj):
    """Split a trajectory into consecutive-state pairs: Xf[:, k] is the
    successor of Xp[:, k].
    Kept only because ``perfbench/`` binds it; ROADMAP items 6 and 23 delete it."""
    if traj.n_states < 2:
        raise InputError("need at least 2 states to form snapshot pairs")
    Xp = np.ascontiguousarray(traj.states[:-1].T)
    Xf = np.ascontiguousarray(traj.states[1:].T)
    return SnapshotPairs(dim=traj.dim, Xp=Xp, Xf=Xf)


# ---------------------------------------------------------------------------
# trajectory CSV format: header "t,x1,...,xn", time column k*dt, values
# written as shortest round-trip decimals so load(save(x)) == x exactly.
# Loading rejects NaN/Inf values and times off the grid t0 + k*dt.
#
# Both directions stream: the writer formats _CSV_BLOCK rows at a time, and
# the loader parses _CSV_BLOCK lines at a time into float blocks, so neither
# holds the whole file's text or a Python object for each of its values.

_CSV_BLOCK = 1024  # rows written, or lines parsed, at a time


def write_trajectory_rows(fh, traj, prefix=""):
    """Write the CSV rows "<prefix>t,x1,...,xn" of ``traj``, one per state,
    to the text file ``fh``: t = k*dt and every value in shortest round-trip
    form (``repr``)."""
    dt = float(traj.dt)
    states = np.asarray(traj.states, dtype=float)
    n, dim = states.shape
    row = prefix.replace("%", "%%") + "%r," * dim + "%r\n"
    block = np.empty((min(n, _CSV_BLOCK), dim + 1))
    for a in range(0, n, _CSV_BLOCK):
        rows = block[:min(_CSV_BLOCK, n - a)]
        rows[:, 0] = np.arange(a, a + len(rows)) * dt
        rows[:, 1:] = states[a:a + len(rows)]
        fh.write(row * len(rows) % tuple(rows.ravel().tolist()))


def save_trajectory(traj, path):
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(traj.dim)) + "\n")
        write_trajectory_rows(fh, traj)


def _line_blocks(fh):
    """The lines of the text file ``fh``, _CSV_BLOCK file lines at a time,
    split and so numbered as ``fh.read().splitlines()`` would split them."""
    while True:
        block = "".join(itertools.islice(fh, _CSV_BLOCK))
        if not block:
            return
        yield block.splitlines()


def _parse_lines(path, lines, lineno, width, blank):
    """Parse CSV lines, the first being line ``lineno``, into a (rows, width)
    float array; blank lines are skipped and their numbers appended to
    ``blank``. The first line with the wrong number of fields or a value
    ``float`` rejects raises, naming that line.

    numpy's reader parses the block first, rounding as ``float`` does. It
    skips blank lines, takes the unit separator U+001F for white space,
    which ``float`` refuses, and refuses the "1_0" and non-ASCII digits
    that ``float`` takes; so a block with any of these goes line by line,
    as does an all-blank one, on which numpy would warn."""
    if any(lines) and "\x1f" not in "".join(lines):
        try:
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if data.shape == (len(lines), width):
                return data
        except ValueError:
            pass
    # a blank or a bad line: go line by line to skip or name it
    values = []
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            blank.append(lineno)
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ConfigurationError(
                f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
            )
        try:
            values.extend(map(float, parts))
        except ValueError as err:
            raise ConfigurationError(f"{path}:{lineno}: {err}") from err
    return np.array(values, dtype=float).reshape(-1, width)


def _row_lineno(k, blank):
    """The line number of data row k, given the ascending numbers of the
    blank lines (the header is line 1)."""
    lineno = k + 2
    for b in blank:
        if b > lineno:
            break
        lineno += 1
    return lineno


def _off_grid(t, row, t0, dt):
    """(row index, time) of the first time in t, the times of the data rows
    from ``row`` on, that is off the grid t0 + k*dt; None if there is none.
    An infinite or huge time makes the grid arithmetic overflow to Inf or
    NaN quietly; such a time is caught as non-finite or off the grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.abs(t - (t0 + np.arange(row, row + len(t)) * dt))
        off_grid = drift > TIME_GRID_TOL * np.maximum(1.0, np.abs(t))
    if np.any(off_grid):
        j = int(np.argmax(off_grid))
        return row + j, float(t[j])
    return None


def load_trajectory(path):
    """Read a trajectory CSV. A line with the wrong number of fields or an
    unparsable value anywhere is reported first, then too few rows, then
    the first NaN or Inf, then the first time off the grid; each error
    names its line. Each block's times are checked against the grid as it
    is parsed, and only its state columns are kept."""
    states, blank, head, n = [], [], [], 0
    bad = off = None
    with open(path) as fh:
        line_blocks = _line_blocks(fh)
        first = next(line_blocks, [])
        if not first or not first[0].startswith("t,"):
            raise ConfigurationError(f"{path}:1: expected header 't,x1,...,xn'")
        width = len(first[0].split(","))
        lineno = 2
        for lines in itertools.chain([first[1:]], line_blocks):
            data = _parse_lines(path, lines, lineno, width, blank)
            lineno += len(lines)
            finite = np.isfinite(data).all(axis=1)
            if bad is None and not finite.all():
                bad = n + int(np.argmin(finite))
            # the grid t0 + k*dt comes from the first two times, which may
            # lie in different blocks; the first row, t0 itself, is on it
            times = data[:, 0]
            if len(head) < 2:
                head += times[:2 - len(head)].tolist()
            if off is None and len(head) == 2:
                off = _off_grid(times, n, head[0], head[1] - head[0])
            states.append(data[:, 1:].copy())
            n += len(data)
    if n < 2:
        raise ConfigurationError(
            f"{path}: need at least 2 data rows to recover the sample interval"
        )
    if bad is not None:
        raise ConfigurationError(
            f"{path}:{_row_lineno(bad, blank)}: non-finite value (NaN or Inf)"
        )
    dt = head[1] - head[0]
    if off is not None:
        raise ConfigurationError(
            f"{path}:{_row_lineno(off[0], blank)}: time {off[1]!r} is off "
            f"the uniform grid t0 + k*dt (dt={dt!r} from the first two rows)"
        )
    return Trajectory(dim=width - 1, dt=dt, states=np.concatenate(states))
