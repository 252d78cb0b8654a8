import warnings

import numpy as np
import pytest

from symkoop import (
    ConfigurationError,
    GroupElement,
    InputError,
    NumericalDivergenceError,
    SystemDef,
    hamiltonian_energy,
    load_trajectory,
    make_system,
    save_trajectory,
    simulate,
    step,
    verify_invariant_set_images,
)
from symkoop.dynamics import STATE_CHUNK, _rk4_kernel


def decay_system():
    return SystemDef(
        name="decay", dim=1, params={},
        field=lambda x, p: (-x[0],), dt=0.1,
    )


def test_lorenz_field_values():
    system = make_system("lorenz")
    assert np.allclose(system.field([0.0, 0.0, 0.0], system.params), [0, 0, 0])
    np.testing.assert_allclose(
        system.field([1.0, 1.0, 1.0], system.params), [0.0, 26.0, -5.0 / 3.0], atol=1e-14
    )


def test_hamiltonian_equilibrium_and_energy():
    system = make_system("hamiltonian")
    assert np.allclose(system.field([3.0, 0.0], system.params), [0.0, 0.0])
    assert hamiltonian_energy(0.0, 0.0) == 0.0
    for a in (0.3, -1.7, 2.9):
        assert hamiltonian_energy(a, a) == pytest.approx(0.0, abs=1e-12)
    assert hamiltonian_energy(3.0, 0.0) == pytest.approx(81.0 / 4.0)


def test_factory_rejects_unknown_names_and_params():
    with pytest.raises(ConfigurationError):
        make_system("van_der_pol")
    with pytest.raises(ConfigurationError):
        make_system("lorenz", {"mu": 1.0})


def test_param_override():
    system = make_system("lorenz", {"rho": 10.0})
    assert system.params["rho"] == 10.0
    assert system.params["sigma"] == 10.0
    # an int or a real numpy scalar is a number, and is stored as a float
    for value in (10, np.float64(10.0), np.int64(10), np.float32(10.0)):
        rho = make_system("lorenz", {"rho": value}).params["rho"]
        assert type(rho) is float and rho == 10.0


@pytest.mark.parametrize("value", ["10", True, np.bool_(True), None, [10.0], np.inf])
def test_param_that_is_no_finite_number_is_refused(value):
    # "10" and true were read as 10.0 and 1.0
    with pytest.raises(ConfigurationError,
                       match="parameter 'rho' for system 'lorenz' must be a finite number"):
        make_system("lorenz", {"rho": value})


def test_state_dimension_mismatch():
    with pytest.raises(InputError):
        step(make_system("lorenz"), [1.0, 2.0], 0.01)


def test_misshapen_field_output_rejected():
    broken = SystemDef("broken", 3, {}, lambda x, p: np.zeros(2), 0.1)
    with pytest.raises(InputError):
        step(broken, [1.0, 2.0, 3.0], 0.1)
    two_coordinates = SystemDef("broken", 3, {}, lambda x, p: (x[0], x[1]), 0.1)
    for x in ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]):
        with pytest.raises(InputError):
            simulate(two_coordinates, x, 0.1, 3)
    # the right number of coordinates, each an array
    arrays = SystemDef("broken", 2, {}, lambda x, p: (np.zeros(3), np.zeros(3)), 0.1)
    for x, expected in (([1.0, 2.0], r"\(2,\)"), ([[1.0, 2.0]], r"\(2,\)"),
                        ([[1.0, 2.0], [3.0, 4.0]], r"\(2, 2\)")):
        shape = r"returned shape \(2, 3\), expected " + expected
        with pytest.raises(InputError, match=shape):
            step(arrays, x, 0.1)
        with pytest.raises(InputError, match=shape):
            simulate(arrays, x, 0.1, 3)
    with pytest.raises(InputError, match=r"returned shape \(2, 3\), expected \(2, 2\)"):
        verify_invariant_set_images(
            arrays, [(GroupElement("e", np.eye(2)), lambda x: np.ones(x.shape[1], bool))],
            np.array([[1.0, 2.0], [3.0, 4.0]]), 0.1, 3)
    # coordinates of different shapes: a float beside a block's row, or an
    # array beside one state's float, is one line naming each shape
    scalar = SystemDef("bad", 2, {}, lambda x, p: (x[1], 0.0), 0.01)
    assert np.isfinite(step(scalar, [1.0, 2.0], 0.01)).all()
    block = [[1.0, 2.0], [3.0, 4.0]]
    shape = r"^field of 'bad' returned shape \(\(2,\), \(\)\), expected \(2, 2\)$"
    for run in (lambda: step(scalar, block, 0.01), lambda: simulate(scalar, block, 0.01, 3),
                lambda: verify_invariant_set_images(
                    scalar, [(GroupElement("e", np.eye(2)), lambda x: x[0] < 9.0)],
                    np.array(block), 0.01, 3)):
        with pytest.raises(InputError, match=shape):
            run()
    ragged = SystemDef("bad", 2, {}, lambda x, p: (np.zeros(3), 0.0), 0.01)
    for run in (lambda: step(ragged, [1.0, 2.0], 0.01), lambda: simulate(ragged, [1.0, 2.0], 0.01, 3)):
        with pytest.raises(InputError, match=r"returned shape \(\(3,\), \(\)\), expected \(2,\)$"):
            run()


def test_a_block_field_gets_the_array_and_one_state_a_tuple_of_floats():
    """The field of a block of N > 1 states is called with the (dim, N)
    array, and of one state (or a block of one row) with a tuple of Python
    floats. So a field written on the whole array, such as 2 * x, steps a
    block and is refused on one state, whose 2 * x is four floats; written
    coordinate by coordinate, it steps both alike."""
    seen = []

    def field(x, p):
        seen.append(type(x))
        return (x[1], -x[0])

    recording = SystemDef("recording", 2, {}, field, 0.01)
    step(recording, [1.0, 2.0], 0.01)
    step(recording, [[1.0, 2.0]], 0.01)
    step(recording, [[1.0, 2.0], [3.0, 4.0]], 0.01)
    assert seen == [tuple] * 8 + [np.ndarray] * 4
    whole = SystemDef("whole", 2, {}, lambda x, p: 2 * x, 0.01)
    coordinatewise = SystemDef("coordinatewise", 2, {}, lambda x, p: (2 * x[0], 2 * x[1]), 0.01)
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(step(whole, block, 0.01), step(coordinatewise, block, 0.01))
    assert np.array_equal(step(coordinatewise, block[0], 0.01), step(coordinatewise, block, 0.01)[0])
    for x in (block[0], block[:1]):
        with pytest.raises(InputError, match=r"returned shape \(4,\), expected \(2,\)$"):
            step(whole, x, 0.01)


def test_step_fixed_point_of_zero_field():
    system = SystemDef("still", 2, {}, lambda x, p: np.zeros(2), 0.7)
    x = np.array([0.3, -1.2])
    assert np.array_equal(step(system, x, 0.7), x)


def test_step_exponential_decay_against_closed_form():
    # RK4 local error for xdot = -x over one step of 0.1
    out = step(decay_system(), np.array([1.0]), 0.1)
    assert abs(out[0] - np.exp(-0.1)) <= 1e-7


def test_step_halving_richardson():
    system = make_system("lorenz")
    x = np.array([1.0, 1.0, 1.0])
    assert np.all(np.isfinite(step(system, x, 0.01)))
    # full-vs-halved disagreement tracks the local truncation error C dt^5;
    # measured C ~ 2.5e4 here, so the 1e-9 agreement needs dt <= 1e-3
    dt = 1e-3
    full = step(system, x, dt)
    halved = step(system, step(system, x, dt / 2), dt / 2)
    assert np.linalg.norm(full - halved) <= 1e-9


def test_step_rejects_nonpositive_dt():
    with pytest.raises(InputError):
        step(make_system("lorenz"), [1.0, 1.0, 1.0], 0.0)


def test_simulate_minimal():
    system = make_system("lorenz")
    x0 = np.array([1.0, 2.0, 3.0])
    traj = simulate(system, x0, 0.01, 1)
    assert traj.n_states == 2
    assert np.array_equal(traj.states[1], step(system, x0, 0.01))


def test_simulate_discard_drops_transient():
    system = make_system("lorenz")
    x0 = np.array([1.0, 2.0, 3.0])
    full = simulate(system, x0, 0.01, 12)
    cut = simulate(system, x0, 0.01, 7, discard=5)
    assert cut.n_states == 8
    assert np.array_equal(cut.states, full.states[5:])


def test_toggle_switch_bistability_against_root_oracle():
    # equilibrium oracle: fixed-point iteration on the nullcline equations,
    # independent of the integrator
    system = make_system("toggle_switch")
    a, k = system.params["alpha1"], system.params["kappa1"]
    x1 = 3.0
    for _ in range(200):
        x1 = a / k / (1.0 + (a / k / (1.0 + x1 * x1)) ** 2)
    x2 = a / k / (1.0 + x1 * x1)
    assert x1 > x2  # the stable equilibrium of the x1 > x2 region
    final = simulate(system, [2.5, 0.5], 0.01, 4000).states[-1]
    np.testing.assert_allclose(final, [x1, x2], atol=1e-6)
    mirrored = simulate(system, [0.5, 2.5], 0.01, 4000).states[-1]
    np.testing.assert_allclose(mirrored, [x2, x1], atol=1e-6)


def test_hamiltonian_energy_drift_bounded():
    traj = simulate(make_system("hamiltonian"), [2.8, 0.4], 1e-3, 10_000)
    h0 = hamiltonian_energy(*traj.states[0])
    hN = hamiltonian_energy(*traj.states[-1])
    assert abs(hN - h0) <= 1e-6 * (1.0 + abs(h0))


def test_snapshots_shift_structure():
    a, b, c = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
    traj_states = np.vstack([a, b, c])
    from symkoop import Trajectory
    from symkoop.dynamics import snapshots

    pairs = snapshots(Trajectory(dim=2, dt=0.1, states=traj_states))
    assert np.array_equal(pairs.Xp, np.column_stack([a, b]))
    assert np.array_equal(pairs.Xf, np.column_stack([b, c]))

    minimal = snapshots(Trajectory(dim=2, dt=0.1, states=np.vstack([a, b])))
    assert pairs.dim == minimal.dim == 2
    assert minimal.Xp.shape[1] == 1


def test_snapshots_needs_two_states():
    from symkoop import Trajectory
    from symkoop.dynamics import snapshots

    with pytest.raises(InputError):
        snapshots(Trajectory(dim=1, dt=0.1, states=np.array([[1.0]])))


def test_snapshots_reintegration_roundtrip():
    from symkoop.dynamics import snapshots

    system = make_system("toggle_switch")
    traj = simulate(system, [2.0, 1.0], 0.05, 30)
    pairs = snapshots(traj)
    for k in range(pairs.Xp.shape[1]):
        assert np.array_equal(pairs.Xf[:, k], step(system, pairs.Xp[:, k], 0.05))


def test_lorenz_divergence_detected():
    system = make_system("lorenz")
    with pytest.raises(NumericalDivergenceError) as info:
        simulate(system, [2e6, 2e6, 2e6], 1.0, 50)
    assert info.value.step_index is not None
    assert info.value.step_index >= 1


@pytest.mark.parametrize("x", [[1.0, -0.5], [[1.0, -0.5]], [[3.0, 1.0], [1.0, -0.5]]],
                         ids=["state", "one-row-block", "block"])
def test_fractional_power_of_negative_coordinate_diverges_at_step_one(x):
    # numpy gives NaN for (-0.5)**2.5 where a Python float gives a complex
    # number, so a state must be stepped on np.float64 scalars
    system = make_system("toggle_switch", {"beta": 2.5})
    start = None if np.ndim(x) == 1 else len(x) - 1
    with pytest.raises(NumericalDivergenceError) as info:
        step(system, x, 0.01)
    assert info.value.start_index == start
    with pytest.raises(NumericalDivergenceError) as info:
        simulate(system, x, 0.01, 5)
    assert (info.value.start_index, info.value.step_index) == (start, 1)


# RK4 steps x' = c x by the factor 1 + z + z^2/2 + z^3/6 + z^4/24, z = c dt,
# which is 2 at this z: in floating point one step of 1.0 gives exactly 2.0
DOUBLING_Z = 0.6939031456293855


@pytest.mark.parametrize("x0, first", [(1.0, 1024), (0.75, 1025)])
def test_divergence_names_first_step_across_stored_chunks(x0, first):
    # x -> 2x; the largest RK4 stage, y + dt k3, is about 2.02 y, so the
    # step from 2**1023 overflows (step 1024 from 1.0), as does the step
    # from about 1.5 * 2**1023 (step 1025 from 0.75): the last row of one
    # chunk of stored rows and the first of the next
    assert 1024 % STATE_CHUNK == 0
    double = SystemDef("double", 1, {}, lambda x, p: (x[0] * (DOUBLING_Z / 64.0),), 64.0)
    assert step(double, [1.0], 64.0).tolist() == [2.0]
    for starts, start in (([x0], None), ([[x0]], 0), ([[0.0], [x0]], 1)):
        with pytest.raises(NumericalDivergenceError) as info:
            simulate(double, starts, 64.0, 2000)
        assert (info.value.start_index, info.value.step_index) == (start, first)


def stepped(fn):
    """fn()'s result, or the type and step index of the divergence it raises."""
    try:
        return fn()
    except NumericalDivergenceError as err:
        return type(err), err.step_index


# Fields where Python floats raise or turn complex while numpy, under
# np.errstate, gives Inf or NaN; a state must get numpy's result alone too.
# ``expected`` is the last coordinate after one step, or the error.
@pytest.mark.parametrize("field, x0, expected", [
    # 1/0: ZeroDivisionError on Python floats; numpy's 1/(1 + Inf) is 0
    (lambda x, p: (1.0 / (1.0 + 1.0 / x[0]),), [0.0], 0.0),
    # an overflowing **: OverflowError; numpy's Inf * 0 is NaN
    (lambda x, p: (x[0] ** 2.0 * 0.0 + 1.0,), [1e200], NumericalDivergenceError),
    # a negative base to a fractional power: complex; numpy's is NaN
    (lambda x, p: ((x[0] - 5.0) ** 0.5,), [1.0], NumericalDivergenceError),
    # the same in one coordinate of several
    (lambda x, p: (x[1], -x[0], 1.0 / (1.0 + 1.0 / x[2])), [0.5, 0.25, 0.0], 0.0),
    (lambda x, p: (x[1], x[0] ** 2.0 * 0.0 + 1.0), [1e200, 0.5], NumericalDivergenceError),
], ids=["divide-by-zero", "pow-overflow", "pow-complex", "divide-by-zero-dim3",
        "pow-overflow-dim2"])
def test_one_state_follows_numpy_where_python_floats_raise(field, x0, expected):
    system = SystemDef("rerun", len(x0), {}, field, 0.1)
    alone = stepped(lambda: step(system, x0, 0.1))
    row = stepped(lambda: step(system, [x0, x0], 0.1)[0])
    trajs = [stepped(lambda: simulate(system, x, 0.1, 300)) for x in (x0, [x0, x0])]
    if expected is NumericalDivergenceError:
        assert alone == row == (expected, None)
        assert trajs[0] == trajs[1] == (expected, 1)
    else:
        assert np.array_equal(alone, row) and alone[-1] == expected
        assert np.array_equal(trajs[0].states, trajs[1][0].states)


@pytest.mark.parametrize("dim", range(1, 7))
def test_too_many_field_coordinates_raise_at_the_first_call(dim):
    # the generated loop reads coordinates 0 .. dim-1 of each stage, so
    # only the check on k1 sees an extra one
    calls = []

    def field(x, p):
        calls.append(x)
        return tuple(x) + (0.0,)

    system = SystemDef("long", dim, {}, field, 0.1)
    shape = rf"returned shape \({dim + 1},\), expected \({dim},\)"
    for run in (lambda: step(system, [0.5] * dim, 0.1),
                lambda: simulate(system, [0.5] * dim, 0.1, 5)):
        calls.clear()
        with pytest.raises(InputError, match=shape):
            run()
        assert len(calls) == 1


def test_one_rk4_kernel_is_built_per_dimension():
    _rk4_kernel.cache_clear()
    for dim in (1, 2, 3):
        system = SystemDef("decay", dim, {}, lambda x, p: tuple(-v for v in x), 0.1)
        for _ in range(3):
            step(system, [1.0] * dim, 0.1)
            simulate(system, [1.0] * dim, 0.1, 2 * STATE_CHUNK)
    assert _rk4_kernel.cache_info().misses == 3
    assert _rk4_kernel(2) is _rk4_kernel(2)


def test_division_by_zero_in_a_field_warns_nothing():
    # numpy's 1/0 is Inf and 1/(1 + Inf) is 0: the state stays at 0, and
    # the steppers' np.errstate keeps numpy from warning on the way
    system = SystemDef("inv", 1, {}, lambda x, p: (1.0 / (1.0 + 1.0 / x[0]),), 0.1)
    at_rest = lambda x: x[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert step(system, [0.0], 0.1).tolist() == [0.0]
        assert step(system, [[0.0], [0.0]], 0.1).tolist() == [[0.0], [0.0]]
        assert simulate(system, [0.0], 0.1, 3).states.tolist() == [[0.0]] * 4
        block = simulate(system, [[0.0], [0.0]], 0.1, 3)
        assert [t.states.tolist() for t in block] == [[[0.0]] * 4] * 2
        report, = verify_invariant_set_images(
            system, [(GroupElement("e", np.eye(1)), at_rest)], np.zeros((2, 1)), 0.1, 3)
        assert report.fraction == 1.0


def test_rerun_starts_from_the_chunk_that_raised():
    # x' = -1 at dt = 1 steps x -> x - 1 exactly, evaluating the field at x,
    # x - 0.5 (twice) and x - 1. From 301 the last stage of step 300 passes
    # 1/0 at x = 1 (numpy's 0 * 0 is 0), and that of step 301 0 * (1/0) at
    # x = 0, which is NaN: both in the second stored chunk
    assert STATE_CHUNK < 300
    down = SystemDef("down", 1, {}, lambda x, p: (
        -1.0 + 0.0 * (1.0 / (1.0 + 1.0 / (x[0] - 1.0))),), 1.0)
    assert simulate(down, [301.0], 1.0, 299).states[-1].tolist() == [2.0]
    for starts, start in (([301.0], None), ([[301.0], [301.0]], 0)):
        with pytest.raises(NumericalDivergenceError) as info:
            simulate(down, starts, 1.0, 400)
        assert (info.value.start_index, info.value.step_index) == (start, 301)


def test_trajectory_csv_roundtrip_exact(tmp_path):
    traj = simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, 25)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3"
    loaded = load_trajectory(path)
    assert loaded.dt == traj.dt
    assert np.array_equal(loaded.states, traj.states)


def test_trajectory_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1\n0.0,1.0\n0.01,not_a_number\n")
    with pytest.raises(ConfigurationError, match="3"):
        load_trajectory(path)


def test_trajectory_csv_too_short(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t,x1\n0.0,1.0\n")
    with pytest.raises(ConfigurationError):
        load_trajectory(path)
