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
    snapshots,
    step,
    vector_field,
    verify_invariant_set_images,
)
from symkoop.dynamics import DISCRETE, STATE_CHUNK, _rk4_kernel


def decay_system():
    return SystemDef(
        name="decay", dim=1, params={},
        field=lambda x, p: (-x[0],),
    )


def test_lorenz_field_values():
    system = make_system("lorenz")
    assert np.allclose(vector_field(system, [0, 0, 0]), [0, 0, 0])
    np.testing.assert_allclose(
        vector_field(system, [1, 1, 1]), [0.0, 26.0, -5.0 / 3.0], atol=1e-14
    )


def test_hamiltonian_equilibrium_and_energy():
    system = make_system("hamiltonian")
    assert np.allclose(vector_field(system, [3.0, 0.0]), [0.0, 0.0])
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


def test_vector_field_dimension_mismatch():
    with pytest.raises(InputError):
        vector_field(make_system("lorenz"), [1.0, 2.0])


def test_misshapen_field_output_rejected():
    broken = SystemDef("broken", 3, {}, lambda x, p: np.zeros(2))
    with pytest.raises(InputError):
        vector_field(broken, [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        step(broken, [1.0, 2.0, 3.0], 0.1)
    two_coordinates = SystemDef("broken", 3, {}, lambda x, p: (x[0], x[1]))
    for x in ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]):
        with pytest.raises(InputError):
            simulate(two_coordinates, x, 0.1, 3)
    # the right number of coordinates, each an array
    arrays = SystemDef("broken", 2, {}, lambda x, p: (np.zeros(3), np.zeros(3)))
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


def test_step_fixed_point_of_zero_field():
    system = SystemDef("still", 2, {}, lambda x, p: np.zeros(2))
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


def test_step_discrete_map_ignores_dt():
    double = SystemDef("double", 1, {}, lambda x, p: (2.0 * x[0],), kind=DISCRETE)
    assert step(double, np.array([3.0]), 123.0) == pytest.approx(6.0)


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

    pairs = snapshots(Trajectory(dim=2, dt=0.1, states=traj_states))
    assert np.array_equal(pairs.Xp, np.column_stack([a, b]))
    assert np.array_equal(pairs.Xf, np.column_stack([b, c]))

    minimal = snapshots(Trajectory(dim=2, dt=0.1, states=np.vstack([a, b])))
    assert pairs.dim == minimal.dim == 2
    assert minimal.n_pairs == 1


def test_snapshots_needs_two_states():
    from symkoop import Trajectory

    with pytest.raises(InputError):
        snapshots(Trajectory(dim=1, dt=0.1, states=np.array([[1.0]])))


def test_snapshots_reintegration_roundtrip():
    system = make_system("toggle_switch")
    traj = simulate(system, [2.0, 1.0], 0.05, 30)
    pairs = snapshots(traj)
    for k in range(pairs.n_pairs):
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


@pytest.mark.parametrize("x0, first", [(1.0, 1024), (0.75, 1025)])
def test_divergence_names_first_step_across_stored_chunks(x0, first):
    # x -> 2x overflows first at step 1024 from 1.0 and 1025 from 0.75: the
    # last row of one chunk of stored rows and the first of the next
    assert 1024 % STATE_CHUNK == 0
    double = SystemDef("double", 1, {}, lambda x, p: (2.0 * x[0],), kind=DISCRETE)
    for starts, start in (([x0], None), ([[x0]], 0), ([[0.0], [x0]], 1)):
        with pytest.raises(NumericalDivergenceError) as info:
            simulate(double, starts, 0.1, 2000)
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
    system = SystemDef("rerun", len(x0), {}, field)
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

    system = SystemDef("long", dim, {}, field)
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
        system = SystemDef("decay", dim, {}, lambda x, p: tuple(-v for v in x))
        for _ in range(3):
            step(system, [1.0] * dim, 0.1)
            simulate(system, [1.0] * dim, 0.1, 2 * STATE_CHUNK)
    assert _rk4_kernel.cache_info().misses == 3
    assert _rk4_kernel(2) is _rk4_kernel(2)


def test_division_by_zero_in_a_field_warns_nothing():
    # numpy's 1/0 is Inf and 1/(1 + Inf) is 0: the state stays at 0, and
    # the steppers' np.errstate keeps numpy from warning on the way
    system = SystemDef("inv", 1, {}, lambda x, p: (1.0 / (1.0 + 1.0 / x[0]),))
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
    # x -> x - 1 passes 1/0 at x = 1 (step 299 to 300; numpy's 0 * 0 is 0),
    # then 0 * (1/0) at x = 0 is NaN at step 301, in the second stored chunk
    assert STATE_CHUNK < 300
    down = SystemDef("down", 1, {}, lambda x, p: (
        x[0] - 1.0 + 0.0 * (1.0 / (1.0 + 1.0 / (x[0] - 1.0))),), kind=DISCRETE)
    for starts, start in (([300.0], None), ([[300.0], [300.0]], 0)):
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
