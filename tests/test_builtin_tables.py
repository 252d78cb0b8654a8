"""The built-in systems are two tables: ``dynamics._BUILTINS`` (one
SystemDef each: the physics and its symmetry generators) and
``scenarios._EXPERIMENTS`` (what the checks run on). Everything keyed by
system name is read from them: ``make_system`` gives a table's record with
params of its own, the registries and predicates agree label for label,
every registry element is in the system's group, an unknown name is one
ConfigurationError from every accessor, and the verify rows are today's."""

import numpy as np
import pytest

from symkoop import ConfigurationError, SystemDef, builtin_group, cli, dynamics, scenarios

SYSTEMS = tuple(scenarios._EXPERIMENTS)
PREDICATED = [name for name in SYSTEMS
              if None not in (p for _, p in scenarios._EXPERIMENTS[name].sets.values())]


def test_both_tables_hold_the_same_systems():
    assert set(SYSTEMS) == set(dynamics.system_names())
    assert PREDICATED == ["toggle_switch", "hamiltonian"]


@pytest.mark.parametrize("name", SYSTEMS)
def test_make_system_keeps_the_record_and_gives_params_of_its_own(name):
    record = dynamics._BUILTINS[name]
    defaults = dict(record.params)
    overrides = [None, {}] + [{key: 0.5} for key in defaults]
    for params in overrides:
        system = dynamics.make_system(name, params)
        assert system.name == name
        for field in ("dim", "field", "dt", "generators", "conserved"):
            assert getattr(system, field) is getattr(record, field), field
        assert system.params == {**defaults, **(params or {})}
        system.params.clear()
        system.params["written"] = 1.0
        assert dynamics.make_system(name).params == record.params == defaults


@pytest.mark.parametrize("name", PREDICATED)
def test_registry_labels_are_the_predicate_keys_base_first(name):
    registry = scenarios.builtin_registry(name)
    predicates = scenarios.membership_predicates(name)
    assert registry.labels == tuple(predicates)
    assert registry.labels[0] == registry.base_label
    # each predicate holds on the image of the base set's states it holds on
    rng = np.random.default_rng(1)
    base = np.array([scenarios.draw_base_state(name, rng) for _ in range(50)])
    group = builtin_group(name)
    for label, element in registry.mapping.items():
        image = base @ group.element(element).matrix.T
        assert predicates[label](image.T).all()


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_registry_element_is_in_the_builtin_group(name):
    group = builtin_group(name)
    registry = scenarios.builtin_registry(name)
    assert scenarios._EXPERIMENTS[name].sets[registry.base_label][0] == "e"
    for element in registry.mapping.values():
        group.element(element)


UNKNOWN = "no_such_system"


@pytest.mark.parametrize("call", [
    lambda: scenarios.experiment(UNKNOWN),
    lambda: scenarios.sample_box(UNKNOWN, 3, np.random.default_rng(0)),
    lambda: scenarios.draw_base_state(UNKNOWN, np.random.default_rng(0)),
    lambda: scenarios.membership_predicates(UNKNOWN),
    lambda: scenarios.builtin_registry(UNKNOWN),
    lambda: scenarios.exact_tier_trajectory(UNKNOWN),
    lambda: scenarios.check_conjugation_statistical(UNKNOWN),
    lambda: scenarios.check_invariant_set_image(UNKNOWN),
    lambda: dynamics.make_system(UNKNOWN),
    lambda: builtin_group(UNKNOWN),
    # what the Lorenz experiment does not set
    lambda: scenarios.membership_predicates("lorenz"),
    lambda: scenarios.check_conjugation_statistical("lorenz"),
    lambda: scenarios.seed_spread("lorenz"),
    lambda: scenarios.check_invariant_set_image("lorenz"),
    lambda: scenarios.check_commutation_symmetric("lorenz"),
], ids=["experiment", "sample_box", "draw_base_state", "membership_predicates",
        "builtin_registry", "exact_tier_trajectory", "conjugation_statistical",
        "invariant_set_image", "make_system", "builtin_group",
        "lorenz-predicates", "lorenz-statistical", "lorenz-seed-spread",
        "lorenz-image", "lorenz-commutation"])
def test_a_missing_entry_is_one_configuration_error(call):
    with pytest.raises(ConfigurationError):
        call()


def test_phase_portrait_of_an_unknown_system_is_a_configuration_error():
    system = SystemDef(name=UNKNOWN, dim=2, params={}, field=lambda x, p: x, dt=0.01)
    with pytest.raises(ConfigurationError):
        cli._phase_portrait(system, 0.01)


def test_check_names_are_pinned():
    assert scenarios.check_names() == [
        "group_axioms:lorenz",
        "group_axioms:toggle_switch",
        "group_axioms:hamiltonian",
        "equivariance:lorenz",
        "equivariance:toggle_switch",
        "equivariance:hamiltonian",
        "conjugation_exact:lorenz",
        "conjugation_exact:toggle_switch",
        "conjugation_exact:hamiltonian",
        "conjugation_statistical:toggle_switch",
        "conjugation_statistical:hamiltonian",
        "spectrum_invariance:lorenz",
        "spectrum_invariance:toggle_switch",
        "spectrum_invariance:hamiltonian",
        "commutation_symmetric:toggle_switch",
        "invariant_set_image:toggle_switch",
        "invariant_set_image:hamiltonian",
    ]


def test_energy_drift_is_printed_for_systems_with_a_conserved_quantity(tmp_path, capsys):
    for name in SYSTEMS:
        record = dynamics.make_system(name)
        x0 = ",".join(["1.5"] * record.dim)
        assert cli.main(["simulate", "--system", name, "--x0", x0, "--steps", "3",
                         "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out
        assert ("energy drift" in line) == (record.conserved is not None)
    assert dynamics.make_system("hamiltonian").conserved is dynamics.hamiltonian_energy
