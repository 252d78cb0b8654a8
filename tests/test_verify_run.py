"""The checks of a verify run share the built-in groups and exact-tier
trajectories, which are built once per process and are read-only: the
results equal those of each check run alone and those of the next run, and
no check can change an input another check or run reads."""

from collections import Counter

import numpy as np
import pytest

from symkoop import dynamics, groups, scenarios


@pytest.fixture
def builds(monkeypatch):
    """Empty the caches of built-in groups and exact-tier trajectories, then
    count (and keep) every one built."""
    made = {"group": [], "exact_tier": []}
    generate, simulate = groups.generate_group, dynamics.simulate
    systems = {tuple(label for label, _ in dynamics.make_system(name).generators): name
               for name in dynamics.system_names()}

    def counting_generate(generators, *args, **kwargs):
        group = generate(generators, *args, **kwargs)
        made["group"].append((systems.get(group.generator_labels), group))
        return group

    def counting_simulate(system, x0, dt, n_steps, discard=0):
        traj = simulate(system, x0, dt, n_steps, discard)
        exact = scenarios.experiment(system.name).exact_run
        if np.shape(x0) == exact[0].shape and np.array_equal(x0, exact[0]):
            made["exact_tier"].append((system.name, traj))
        return traj

    groups.builtin_group.cache_clear()
    scenarios.exact_tier_trajectory.cache_clear()
    monkeypatch.setattr(groups, "generate_group", counting_generate)
    monkeypatch.setattr(dynamics, "simulate", counting_simulate)
    return made


def counts(made, kind):
    return Counter(name for name, _ in made[kind])


ONCE = Counter(lorenz=1, toggle_switch=1, hamiltonian=1)


def test_run_results_equal_each_check_run_alone():
    results = scenarios.run_verification()
    assert [r.name for r in results] == scenarios.check_names()
    for result, (_, check) in zip(results, scenarios.ALL_CHECKS):
        assert result.to_dict() == check().to_dict()


def test_two_runs_in_one_process_give_equal_results():
    first = [r.to_dict() for r in scenarios.run_verification()]
    assert [r.to_dict() for r in scenarios.run_verification()] == first


def test_each_group_and_exact_tier_trajectory_is_built_once_per_process(builds):
    scenarios.run_verification()
    assert counts(builds, "group") == ONCE
    assert counts(builds, "exact_tier") == ONCE
    scenarios.run_verification()  # the second run builds nothing
    assert counts(builds, "group") == ONCE
    assert counts(builds, "exact_tier") == ONCE


def test_cached_inputs_are_read_only_wherever_they_come_from(builds):
    scenarios.run_verification()
    # a direct call returns the very objects the run's checks read
    for name, group in builds["group"]:
        assert groups.builtin_group(name) is group
        assert not group.cayley.flags.writeable
        assert not any(g.matrix.flags.writeable for g in group.elements)
    for name, traj in builds["exact_tier"]:
        assert scenarios.exact_tier_trajectory(name) is traj
        assert not traj.states.flags.writeable
    # and so are the built-in constants they are built from
    for system in dynamics._BUILTINS.values():
        assert not any(m.flags.writeable for _, m in system.generators)
    assert not any(e.exact_run[0].flags.writeable for e in scenarios._EXPERIMENTS.values())


def test_a_check_that_raises_leaves_the_cached_inputs_intact_and_read_only(builds,
                                                                          monkeypatch):
    def writing(name):
        scenarios.exact_tier_trajectory(name).states[0, 0] = 5.0

    monkeypatch.setattr(scenarios, "check_spectrum_invariance", writing)
    with pytest.raises(ValueError, match="read-only"):
        scenarios.run_verification()
    assert counts(builds, "exact_tier") == ONCE  # built by the exact tier
    traj = scenarios.exact_tier_trajectory("lorenz")
    assert counts(builds, "exact_tier") == ONCE  # still cached after the raise
    assert not traj.states.flags.writeable
    x0, dt, n = scenarios.experiment("lorenz").exact_run
    fresh = dynamics.simulate(dynamics.make_system("lorenz"), x0, dt, n)
    assert np.array_equal(traj.states, fresh.states)


def test_writing_to_a_builtin_constant_raises_and_changes_nothing():
    group = groups.builtin_group("lorenz")
    matrices = [g.matrix.copy() for g in group.elements]
    cayley = group.cayley.copy()
    states = scenarios.exact_tier_trajectory("lorenz").states.copy()
    with pytest.raises(ValueError, match="read-only"):
        dynamics.make_system("lorenz").generators[0][1][0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        scenarios.experiment("lorenz").exact_run[0][0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        groups.builtin_group("lorenz").elements[1].matrix[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        groups.builtin_group("lorenz").identity.matrix[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        groups.builtin_group("lorenz").cayley[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        scenarios.exact_tier_trajectory("lorenz").states[0, 0] = 5.0
    later = groups.builtin_group("lorenz")
    assert later.labels() == group.labels()
    assert all(np.array_equal(g.matrix, m) for g, m in zip(later.elements, matrices))
    assert np.array_equal(later.cayley, cayley)
    assert np.array_equal(scenarios.exact_tier_trajectory("lorenz").states, states)
