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
        exact = scenarios._EXACT_TIER_RUNS[system.name]
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
    # outside a run every call builds afresh, writable, and the built-in
    # generator constants were never frozen
    assert scenarios.exact_tier_trajectory("lorenz").states.flags.writeable
    assert scenarios.exact_tier_trajectory("lorenz") is not scenarios.exact_tier_trajectory("lorenz")
    assert all(g.matrix.flags.writeable for g in groups.builtin_group("hamiltonian").elements)
    for generators in dynamics.BUILTIN_SYMMETRY_GENERATORS.values():
        assert all(m.flags.writeable for _, m in generators)


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
