"""One verify run shares its groups and exact-tier trajectories between the
checks: the results equal those of each check run alone, each input is
built once per run, the shared arrays are read-only, and nothing carries
over from one run to the next."""

from collections import Counter

import numpy as np
import pytest

from symkoop import dynamics, groups, scenarios


@pytest.fixture
def builds(monkeypatch):
    """Count (and keep) every built-in group and exact-tier trajectory."""
    made = {"group": [], "exact_tier": []}
    build_group, simulate = groups.builtin_group, dynamics.simulate

    def counting_group(name):
        group = build_group(name)
        made["group"].append((name, group))
        return group

    def counting_simulate(system, x0, dt, n_steps, discard=0):
        traj = simulate(system, x0, dt, n_steps, discard)
        exact = scenarios.experiment(system.name).exact_run
        if np.shape(x0) == exact[0].shape and np.array_equal(x0, exact[0]):
            made["exact_tier"].append((system.name, traj))
        return traj

    monkeypatch.setattr(groups, "builtin_group", counting_group)
    monkeypatch.setattr(dynamics, "simulate", counting_simulate)
    return made


def counts(made, kind):
    return Counter(name for name, _ in made[kind])


def test_run_results_equal_each_check_run_alone():
    results = scenarios.run_verification()
    assert [r.name for r in results] == scenarios.check_names()
    for result, (_, check) in zip(results, scenarios.ALL_CHECKS):
        assert result.to_dict() == check().to_dict()


def test_run_builds_each_group_and_exact_tier_trajectory_once(builds):
    once = Counter(lorenz=1, toggle_switch=1, hamiltonian=1)
    scenarios.run_verification()
    assert counts(builds, "group") == once
    assert counts(builds, "exact_tier") == once
    scenarios.run_verification()  # nothing cached across runs: all built again
    assert counts(builds, "group") == once + once
    assert counts(builds, "exact_tier") == once + once


def test_shared_inputs_are_read_only_and_private_to_the_run(builds):
    scenarios.run_verification()
    for _, group in builds["group"]:
        assert not group.cayley.flags.writeable
        assert not any(g.matrix.flags.writeable for g in group.elements)
    for _, traj in builds["exact_tier"]:
        assert not traj.states.flags.writeable
    # outside a run every call builds afresh, writable, from the built-in
    # constants, which are read-only
    assert scenarios.exact_tier_trajectory("lorenz").states.flags.writeable
    assert scenarios.exact_tier_trajectory("lorenz") is not scenarios.exact_tier_trajectory("lorenz")
    assert all(g.matrix.flags.writeable for g in groups.builtin_group("hamiltonian").elements)
    for system in dynamics._BUILTINS.values():
        assert not any(m.flags.writeable for _, m in system.generators)
    assert not any(e.exact_run[0].flags.writeable for e in scenarios._EXPERIMENTS.values())


def test_memo_is_dropped_when_a_check_raises(builds, monkeypatch):
    def failing(name):
        scenarios.exact_tier_trajectory(name)
        raise RuntimeError("check failed")

    monkeypatch.setattr(scenarios, "check_spectrum_invariance", failing)
    with pytest.raises(RuntimeError):
        scenarios.run_verification()
    assert scenarios.exact_tier_trajectory("lorenz").states.flags.writeable
    before = counts(builds, "exact_tier")["lorenz"]
    scenarios.exact_tier_trajectory("lorenz")
    assert counts(builds, "exact_tier")["lorenz"] == before + 1


def test_writing_to_a_builtin_constant_raises_and_changes_nothing():
    group = groups.builtin_group("lorenz")
    traj = scenarios.exact_tier_trajectory("lorenz")
    with pytest.raises(ValueError, match="read-only"):
        dynamics.make_system("lorenz").generators[0][1][0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        scenarios.experiment("lorenz").exact_run[0][0] = 5.0
    later = groups.builtin_group("lorenz")
    assert later.labels() == group.labels()
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(later.elements, group.elements))
    assert np.array_equal(scenarios.exact_tier_trajectory("lorenz").states, traj.states)
