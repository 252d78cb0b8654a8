"""Block integration: stepping and simulating (N, dim) blocks of states must
give bit for bit what each state gives alone, and the invariant-set image
check, for one image or several stacked in one block and stepped a window
of steps at a time, must decide every sample as a one-sample-at-a-time loop
would."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symkoop import (
    GroupElement,
    InputError,
    NumericalDivergenceError,
    SystemDef,
    builtin_group,
    make_system,
    simulate,
    step,
    vector_field,
    verify_invariant_set_image,
    verify_invariant_set_images,
)
from symkoop import equivariant
from symkoop.dynamics import DEFAULT_DT, DISCRETE
from symkoop.scenarios import sample_box

SYSTEMS = ("lorenz", "toggle_switch", "hamiltonian")
PROPERTY = settings(max_examples=25, deadline=None)


def state_blocks(name, max_rows=8):
    """(N, dim) blocks inside the system's probe box, where one step at the
    default dt stays finite."""
    dim = make_system(name).dim
    lo, hi = {"lorenz": (-30.0, 30.0), "toggle_switch": (0.0, 4.0),
              "hamiltonian": (-4.0, 4.0)}[name]
    return st.integers(1, max_rows).flatmap(lambda n: arrays(
        float, (n, dim),
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    ))


@pytest.mark.parametrize("name", SYSTEMS)
@PROPERTY
@given(data=st.data())
def test_block_step_equals_per_row_step(name, data):
    system, dt = make_system(name), DEFAULT_DT[name]
    block = data.draw(state_blocks(name))
    stepped = step(system, block, dt)
    fields = vector_field(system, block)
    assert stepped.shape == fields.shape == block.shape
    for row, out, f in zip(block, stepped, fields):
        assert np.array_equal(step(system, row, dt), out)
        assert np.array_equal(vector_field(system, row), f)


def test_toggle_block_step_equals_per_row_step_where_pow_differs():
    # states where the C library's pow and numpy's power loop round
    # x ** 2.0 apart; the toggle field must raise to its powers alike on
    # one state and on a block
    system = make_system("toggle_switch")
    block = np.array([[float.fromhex(a), float.fromhex(b)] for a, b in (
        ("0x1.0cd9b78fe28cap+0", "0x1.226706badf105p+1"),
        ("0x1.e2aa4375f9b00p-2", "0x1.52a60c16d1e46p+1"),
        ("0x1.f025185bd08c0p-4", "0x1.14ef180097a84p+0"),
    )])
    stepped = step(system, block, DEFAULT_DT["toggle_switch"])
    for row, out in zip(block, stepped):
        assert np.array_equal(step(system, row, DEFAULT_DT["toggle_switch"]), out)


@pytest.mark.parametrize("name", SYSTEMS)
@PROPERTY
@given(data=st.data())
def test_block_simulate_equals_per_start_simulate(name, data):
    system, dt = make_system(name), DEFAULT_DT[name]
    starts = data.draw(state_blocks(name, max_rows=4))
    n_steps = data.draw(st.integers(1, 30))
    discard = data.draw(st.integers(0, 3))
    trajs = simulate(system, starts, dt, n_steps, discard)
    assert len(trajs) == len(starts)
    for x0, traj in zip(starts, trajs):
        alone = simulate(system, x0, dt, n_steps, discard)
        assert traj.dt == alone.dt and traj.dim == alone.dim
        assert np.array_equal(traj.states, alone.states)


def polynomial_field(terms):
    """The field whose coordinate i is the sum over terms[i] of c * x[j1] *
    x[j2] ..., for each (c, (j1, j2, ...)), multiplied out left to right."""
    def field(x, p):
        out = []
        for coordinate in terms:
            # 0 * x[0], not 0.0, so a constant term is a row on a block
            total = 0.0 * x[0]
            for c, factors in coordinate:
                term = c
                for j in factors:
                    term = term * x[j]
                total = total + term
            out.append(total)
        return tuple(out)
    return field


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_state_equals_block_rows_on_generated_polynomial_fields(data):
    # dims 1 to 6, where the built-ins have 2 and 3; coefficients, states
    # and n_steps * dt are small enough that no orbit leaves |x| < 2
    dim = data.draw(st.integers(1, 6))
    term = st.tuples(st.floats(-1.0, 1.0), st.lists(st.integers(0, dim - 1), max_size=3))
    terms = data.draw(st.lists(st.lists(term, min_size=1, max_size=3),
                               min_size=dim, max_size=dim))
    system = SystemDef("polynomial", dim, {}, polynomial_field(terms))
    block = data.draw(st.integers(2, 4).flatmap(lambda n: arrays(
        float, (n, dim), elements=st.floats(-1.0, 1.0))))
    dt = data.draw(st.floats(1e-3, 1e-2))
    n_steps = data.draw(st.integers(1, 10))
    stepped = step(system, block, dt)
    trajs = simulate(system, block, dt, n_steps)
    for row, out, traj in zip(block, stepped, trajs):
        assert np.array_equal(step(system, row, dt), out)
        assert np.array_equal(simulate(system, row, dt, n_steps).states, traj.states)


def test_field_returning_numpy_scalars_steps_alike_alone_and_in_a_block():
    # np.subtract and np.multiply give np.float64 on Python floats, so one
    # state's stages after the first run on numpy scalars
    system = SystemDef("scalars", 2, {}, lambda x, p: (
        np.subtract(x[1], x[0]), np.multiply(x[0], x[1] - 1.0)))
    assert type(system.field((0.5, 0.25), {})[0]) is np.float64
    block = np.array([[0.5, 0.25], [-0.3, 0.7], [1.1, -0.4]])
    stepped = step(system, block, 0.05)
    trajs = simulate(system, block, 0.05, 300)
    for row, out, traj in zip(block, stepped, trajs):
        assert np.array_equal(step(system, row, 0.05), out)
        assert np.array_equal(simulate(system, row, 0.05, 300).states, traj.states)


def per_sample_failed(system, g, samples, dt, horizon, membership):
    """The one-sample-at-a-time reference for verify_invariant_set_image."""
    inside = lambda y: bool(membership(y[:, None])[0])
    failed = []
    for idx, x in enumerate(samples):
        y = g.matrix @ x
        ok = inside(y)
        for _ in range(horizon):
            if not ok:
                break
            y = step(system, y, dt)
            ok = inside(y)
        if not ok:
            failed.append(idx)
    return tuple(failed)


def disc(radius):
    """Membership in the disc |(x1, x2)| < radius; orbits cross its edge."""
    return lambda x: x[0] * x[0] + x[1] * x[1] < radius * radius


@pytest.mark.parametrize("name", SYSTEMS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       horizon=st.integers(0, 60), radius=st.floats(1.0, 20.0),
       element=st.integers(0, 3))
def test_invariant_set_image_matches_per_sample_reference(
        name, seed, n, horizon, radius, element):
    system, dt = make_system(name), DEFAULT_DT[name]
    group = builtin_group(name)
    g = group.elements[element % group.order]
    samples = sample_box(name, n, np.random.default_rng(seed))
    report = verify_invariant_set_image(system, g, samples, dt, horizon, disc(radius))
    expected = per_sample_failed(system, g, samples, dt, horizon, disc(radius))
    assert report.failed_indices == expected
    assert report.fraction == (n - len(expected)) / n


@pytest.mark.parametrize("name, radius", [
    ("lorenz", 25.0), ("toggle_switch", 2.0), ("hamiltonian", 3.0),
])
def test_disc_predicate_is_left_by_some_orbits(name, radius):
    # the property above is not vacuous: with these radii some seeded orbits
    # start inside the disc and leave it within 60 steps, and some stay
    system, dt = make_system(name), DEFAULT_DT[name]
    g = builtin_group(name).elements[-1]
    samples = sample_box(name, 12, np.random.default_rng(3))
    report = verify_invariant_set_image(system, g, samples, dt, 60, disc(radius))
    started_inside = disc(radius)(g.matrix @ samples.T)
    assert any(started_inside[i] for i in report.failed_indices)
    assert len(report.failed_indices) < 12
    assert report.failed_indices == per_sample_failed(
        system, g, samples, dt, 60, disc(radius))


# dt at which every start with 5 <= |x_i| <= 50 diverges within the horizon,
# while one step from inside the box |x_i| < 100 stays finite; an orbit can
# only diverge after it has left the box
DIVERGENT = {"lorenz": (0.5, 60), "toggle_switch": (5.0, 400), "hamiltonian": (0.5, 60)}


@pytest.mark.parametrize("name", SYSTEMS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_sample_that_leaves_then_would_diverge_raises_nothing(name, seed, n):
    system = make_system(name)
    dt, horizon = DIVERGENT[name]
    rng = np.random.default_rng(seed)
    samples = rng.uniform(5.0, 50.0, size=(n, system.dim))
    if name != "toggle_switch":
        samples *= rng.choice([-1.0, 1.0], size=samples.shape)
    for x in samples:
        with pytest.raises(NumericalDivergenceError):
            simulate(system, x, dt, horizon)
    in_box = lambda x: np.all(np.abs(x) < 100.0, axis=0)
    g = builtin_group(name).identity
    report = verify_invariant_set_image(system, g, samples, dt, horizon, in_box)
    assert report.failed_indices == tuple(range(n))


def test_block_divergence_names_first_start_and_step():
    system = make_system("lorenz")
    starts = np.array([[1.0, 1.0, 1.05], [2e6, 2e6, 2e6], [2e6, 2e6, 2e6]])
    with pytest.raises(NumericalDivergenceError) as info:
        simulate(system, starts, 1.0, 50)
    assert (info.value.start_index, info.value.step_index) == (1, 2)
    with pytest.raises(NumericalDivergenceError) as info:
        simulate(system, starts[0], 1.0, 50)
    assert info.value.start_index is None and info.value.step_index == 4
    with pytest.raises(NumericalDivergenceError) as info:
        step(system, np.array([[1.0, 1.0, 1.0], [1e200, 1e200, 2e200]]), 1.0)
    assert (info.value.start_index, info.value.step_index) == (1, None)


def test_membership_must_return_one_flag_per_state():
    system = make_system("toggle_switch")
    g = builtin_group("toggle_switch").identity
    with pytest.raises(ValueError):
        verify_invariant_set_image(
            system, g, np.array([[3.0, 1.0], [2.5, 0.5]]), 0.05, 5, lambda x: True)


@pytest.mark.parametrize("name", SYSTEMS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       horizon=st.integers(0, 60),
       images=st.lists(st.tuples(st.integers(0, 3), st.floats(1.0, 20.0)),
                       min_size=2, max_size=4))
def test_stacked_images_match_per_sample_reference(name, seed, n, horizon, images):
    # discs of different radii make the images drop columns at different
    # steps, so the slices of the stacked block shrink unevenly
    system, dt = make_system(name), DEFAULT_DT[name]
    group = builtin_group(name)
    images = [(group.elements[e % group.order], disc(r)) for e, r in images]
    samples = sample_box(name, n, np.random.default_rng(seed))
    reports = verify_invariant_set_images(system, images, samples, dt, horizon)
    assert len(reports) == len(images)
    for (g, membership), report in zip(images, reports):
        expected = per_sample_failed(system, g, samples, dt, horizon, membership)
        assert report.failed_indices == expected
        assert report.fraction == (n - len(expected)) / n


def drops_first_sample_once():
    """A membership that rejects sample 0 at the first call only."""
    calls = []

    def membership(x):
        inside = np.ones(x.shape[1], dtype=bool)
        inside[0] = bool(calls)
        calls.append(x.shape[1])
        return inside

    return membership


def test_image_divergence_names_sample_step_and_element():
    # sample 0 leaves at step 0; sample 2 diverges at step 2 (sample 1 only
    # at step 4), while the block then holds it at position 1
    system = make_system("lorenz")
    samples = np.array([[1.0, 1.0, 1.05], [1.0, 1.0, 1.05], [2e6, 2e6, 2e6]])
    g = builtin_group("lorenz").identity
    with pytest.raises(NumericalDivergenceError, match="'e'") as info:
        verify_invariant_set_image(system, g, samples, 1.0, 50, drops_first_sample_once())
    assert (info.value.start_index, info.value.step_index) == (2, 2)
    assert "step 2 of 50 from start 2" in str(info.value)


def test_stacked_divergence_names_the_image_it_happens_in():
    # the first image keeps samples 0 and 1 only; sample 2 diverges in the
    # second image, at the last column of the block
    system = make_system("lorenz")
    group = builtin_group("lorenz")
    samples = np.array([[1.0, 1.0, 1.05], [-1.0, 1.0, 1.05], [2e6, 2e6, 2e6]])
    images = [(group.identity, lambda x: np.abs(x[0]) < 100.0),
              (group.element("rot_pi_z"), lambda x: np.ones(x.shape[1], dtype=bool))]
    with pytest.raises(NumericalDivergenceError, match="'rot_pi_z'") as info:
        verify_invariant_set_images(system, images, samples, 1.0, 50)
    assert (info.value.start_index, info.value.step_index) == (2, 2)


def test_stacked_membership_shape_is_checked_per_image():
    system = make_system("toggle_switch")
    group = builtin_group("toggle_switch")
    images = [(group.identity, lambda x: x[0] > x[1]), (group.element("swap"), lambda x: True)]
    with pytest.raises(InputError, match="one boolean per state"):
        verify_invariant_set_images(
            system, images, np.array([[3.0, 1.0], [2.5, 0.5]]), 0.05, 5)


@pytest.mark.parametrize("name", SYSTEMS)
@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       images=st.lists(st.tuples(st.integers(0, 3), st.floats(1.0, 20.0)),
                       min_size=1, max_size=3))
def test_windowed_images_match_per_sample_reference_at_window_edges(
        name, data, seed, n, images):
    # a small coordinate budget makes windows of W steps, W taken from the
    # budget as the check takes it; horizons end just before, at and just
    # after a window's end, and a few windows on
    system, dt = make_system(name), DEFAULT_DT[name]
    group = builtin_group(name)
    images = [(group.elements[e % group.order], disc(r)) for e, r in images]
    samples = sample_box(name, n, np.random.default_rng(seed))
    stepped = sum(int(np.count_nonzero(m(g.matrix @ samples.T))) for g, m in images)
    size = system.dim * max(stepped, 1)
    budget = data.draw(st.integers(1, 6 * size), label="budget")
    with mock.patch.object(equivariant, "_IMAGE_WINDOW_FLOATS", budget):
        W = max(1, equivariant._IMAGE_WINDOW_FLOATS // size)
        horizon = data.draw(st.sampled_from([W - 1, W, W + 1, 3 * W + 2]), label="horizon")
        reports = verify_invariant_set_images(system, images, samples, dt, horizon)
    for (g, membership), report in zip(images, reports):
        expected = per_sample_failed(system, g, samples, dt, horizon, membership)
        assert report.failed_indices == expected
        assert report.fraction == (n - len(expected)) / n


def blowup():
    """x -> 1e160 x: from 1 the orbit is 1e160 at step 1 and inf at step 2;
    from 1e-200 it is 1e-40, 1e120, then inf at step 3."""
    return SystemDef("blowup", 1, {}, lambda x, p: (x[0] * 1e160,), DISCRETE)


IDENTITY_1D = GroupElement("e", np.eye(1))


def below(bound):
    return lambda x: np.abs(x[0]) < bound


def test_orbit_that_leaves_then_diverges_within_a_window_raises_nothing():
    # sample 1 leaves |x| < 1e100 at step 1 and overflows at step 2, in the
    # same window; only a divergence at or before the exit step counts
    samples = np.array([[1e-200], [1.0]])
    report = verify_invariant_set_image(
        blowup(), IDENTITY_1D, samples, 1.0, 50, below(1e100))
    assert report.failed_indices == (0, 1)
    # with |x| < 1e300 sample 1 leaves at the step it overflows, which counts
    with pytest.raises(NumericalDivergenceError) as info:
        verify_invariant_set_image(blowup(), IDENTITY_1D, samples, 1.0, 50, below(1e300))
    assert (info.value.start_index, info.value.step_index) == (1, 2)


def test_window_divergence_names_the_earliest_step_not_the_lowest_column():
    # sample 0 overflows at step 3, sample 1 at step 2, both inside one window
    samples = np.array([[1e-200], [1.0]])
    with pytest.raises(NumericalDivergenceError) as info:
        verify_invariant_set_image(
            blowup(), IDENTITY_1D, samples, 1.0, 50, lambda x: np.ones(x.shape[1], bool))
    assert (info.value.start_index, info.value.step_index) == (1, 2)
    assert "at step 2 of 50 from start 1 under element 'e'" in str(info.value)


def image_check_peak_bytes(horizon):
    system = make_system("hamiltonian")
    samples = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2000, 2))
    tracemalloc.start()
    try:
        verify_invariant_set_image(
            system, builtin_group("hamiltonian").identity, samples,
            DEFAULT_DT["hamiltonian"], horizon, lambda x: np.ones(x.shape[1], bool))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_image_check_memory_does_not_grow_with_the_horizon():
    # every sample stays inside, so all 1000 steps (32 MB) are buffered
    # unless the check works a window at a time; the first run warms up, and
    # the slack covers the previous window's per-column results
    image_check_peak_bytes(1)
    assert image_check_peak_bytes(1000) < 1.1 * image_check_peak_bytes(10)


def block_simulate_peak_over_output(n, steps=512):
    system = make_system("hamiltonian")
    starts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(n, 2))
    tracemalloc.start()
    try:
        simulate(system, starts, DEFAULT_DT["hamiltonian"], steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * (steps + 1) * 2 * 8)


def test_block_simulate_memory_does_not_grow_with_the_number_of_starts():
    # beyond its output (41 MB at n = 5000), simulate holds a chunk of
    # coordinates and a few states; a chunk of a fixed number of steps of
    # every start would hold a share of the output that grows with n
    block_simulate_peak_over_output(10)
    for n in (1000, 5000):
        assert block_simulate_peak_over_output(n) < 1.1


@pytest.mark.parametrize("horizon", [-1, 2.5])
def test_image_check_rejects_a_horizon_that_is_not_a_nonnegative_integer(horizon):
    group = builtin_group("hamiltonian")
    with pytest.raises(InputError, match="horizon must be a nonnegative integer") as info:
        verify_invariant_set_image(
            make_system("hamiltonian"), group.identity, np.array([[1.0, 0.5]]),
            0.05, horizon, lambda x: np.zeros(x.shape[1], bool))
    assert "\n" not in str(info.value)


def test_image_check_rejects_an_empty_image_list():
    with pytest.raises(InputError, match="at least one") as info:
        verify_invariant_set_images(
            make_system("hamiltonian"), [], np.array([[1.0, 0.5]]), 0.05, 5)
    assert "\n" not in str(info.value)


def test_image_check_rejects_zero_samples():
    group = builtin_group("hamiltonian")
    with pytest.raises(InputError, match="at least one sample") as info:
        verify_invariant_set_image(
            make_system("hamiltonian"), group.identity, np.empty((0, 2)), 0.05, 5,
            lambda x: np.ones(x.shape[1], bool))
    assert "\n" not in str(info.value)
