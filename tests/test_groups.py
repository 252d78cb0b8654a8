import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from symkoop import (
    ConfigurationError,
    FiniteMatrixGroup,
    GroupElement,
    IdentityDictionary,
    InputError,
    MonomialDictionary,
    NonFiniteGroupError,
    TransformedDictionary,
    Trajectory,
    builtin_group,
    check_axioms,
    check_equivariance,
    data_stabilizer_labels,
    generate_group,
    load_group,
    make_system,
    save_group,
    simulate,
    transform_trajectory,
)
from symkoop.groups import EQUIVARIANCE_TOL, MATRIX_MATCH_TOL, group_to_dict

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
NEG = np.array([[-1.0, 0.0], [0.0, -1.0]])


def test_lorenz_group_is_order_two():
    group = builtin_group("lorenz")
    assert group.order == 2
    gamma = group.elements[1].matrix
    assert np.array_equal(gamma @ gamma, np.eye(3))
    assert group.multiply(1, 1) == 0


def test_klein_four_group_relations():
    group = generate_group(
        [GroupElement("g1", SWAP), GroupElement("g2", NEG)]
    )
    assert group.order == 4
    i1, i2 = group.index_of("g1"), group.index_of("g2")
    i3 = group.multiply(i1, i2)
    assert np.array_equal(group.elements[i3].matrix, SWAP @ NEG)
    # g1^2 = g2^2 = (g1 g2)^2 = e
    assert group.multiply(i1, i1) == 0
    assert group.multiply(i2, i2) == 0
    assert group.multiply(i3, i3) == 0


def test_empty_generators_give_trivial_group():
    group = generate_group([], dim=3)
    assert group.order == 1
    assert np.array_equal(group.identity.matrix, np.eye(3))
    with pytest.raises(InputError):
        generate_group([])


@pytest.mark.parametrize("generators, dim, message", [
    ([], 0, "dim must be a positive integer, got 0"),
    ([], True, "dim must be a positive integer, got True"),
    ([GroupElement("swap", SWAP)], 3, "generator 'swap' is 2 x 2, but dim is 3"),
    ([GroupElement("swap", SWAP), GroupElement("flip", np.diag([-1.0, 1.0, 1.0]))], None,
     "generator 'flip' is 3 x 3, but dim is 2"),
], ids=["zero", "bool", "mismatch", "mixed"])
def test_dim_must_be_positive_and_every_generators_size(generators, dim, message):
    with pytest.raises(InputError, match=message):
        generate_group(generators, dim=dim)


def test_a_label_may_name_only_one_element():
    with pytest.raises(InputError, match="label 'a' names more than one group element"):
        generate_group([GroupElement("a", SWAP), GroupElement("a", NEG)])
    # a generator equal to an earlier one is dropped, and its label with it
    group = generate_group([GroupElement("a", SWAP), GroupElement("a", SWAP.copy())])
    assert group.labels() == ["e", "a"]


def test_non_orthogonal_generator_rejected():
    with pytest.raises(InputError):
        GroupElement("shear", np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_generator_rejected(bad):
    # NaN passes the orthogonality test (defect > tol is False for NaN), and
    # would end in a misleading max_order error in generate_group
    with pytest.raises(InputError, match="element 'bad': matrix contains NaN or Inf"):
        GroupElement("bad", np.array([[bad, 0.0], [0.0, 1.0]]))


def test_infinite_group_hits_max_order():
    phi = 1.0  # irrational multiple of pi: rotation generates an infinite group
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    with pytest.raises(NonFiniteGroupError):
        generate_group([GroupElement("r", rot)], max_order=32)


def test_element_acts_on_states_by_its_matrix():
    lorenz_gamma = builtin_group("lorenz").elements[1]
    assert np.array_equal(lorenz_gamma.matrix @ [1.0, 2.0, 3.0], [-1.0, -2.0, 3.0])
    swap = GroupElement("swap", SWAP)
    assert np.array_equal(swap.matrix @ [4.0, 7.0], [7.0, 4.0])
    states = np.array([[0.3, -0.8], [4.0, 7.0], [-1.5, 2.25]])
    traj = Trajectory(dim=2, dt=0.1, states=states)
    assert np.array_equal(transform_trajectory(traj, GroupElement("e", np.eye(2))).states,
                          states)
    moved = transform_trajectory(traj, swap)
    assert moved.dt == traj.dt
    assert np.array_equal(moved.states, [swap.matrix @ x for x in states])
    with pytest.raises(InputError, match="trajectory and element dimensions differ"):
        transform_trajectory(Trajectory(dim=3, dt=0.1, states=np.ones((2, 3))), swap)


def test_transformed_dictionary_of_identity_and_negation():
    # psi(gamma^-1 x): the identity leaves the coordinates, NEG negates them
    X = np.array([[1.3, -0.4, 0.0], [-0.4, 2.5, 1.0]])
    d = IdentityDictionary(2)
    assert np.array_equal(TransformedDictionary(d, np.eye(2), "e").evaluate_matrix(X), X)
    assert np.array_equal(TransformedDictionary(d, NEG, "r").evaluate_matrix(X), -X)


@pytest.mark.parametrize("which", ["klein", "octahedral"])
def test_transformed_dictionary_is_a_group_action(which, octahedral_group):
    # psi transformed by g2, then by g1, is psi transformed by g1 g2, bit for
    # bit on states and in the induced representation of every generator
    group = octahedral_group if which == "octahedral" else generate_group(
        [GroupElement("g1", SWAP), GroupElement("g2", NEG)])
    d = MonomialDictionary(group.dim, 3)
    X = np.random.default_rng(3).uniform(-2, 2, size=(group.dim, 100))
    generators = [group.element(label) for label in group.generator_labels]
    for i, g1 in enumerate(group.elements):
        for j, g2 in enumerate(group.elements):
            g12 = group.elements[group.multiply(i, j)]
            nested = TransformedDictionary(
                TransformedDictionary(d, g2.matrix, g2.label), g1.matrix, g1.label)
            direct = TransformedDictionary(d, g12.matrix, g12.label)
            assert np.array_equal(nested.evaluate_matrix(X), direct.evaluate_matrix(X))
            for h in generators:
                assert np.array_equal(nested.representation(h.matrix),
                                      direct.representation(h.matrix))


def test_element_and_its_inverse_index_round_trip_states():
    group = builtin_group("hamiltonian")
    states = np.random.default_rng(11).uniform(-5, 5, size=(100, 2))
    traj = Trajectory(dim=2, dt=0.01, states=states)
    for i, g in enumerate(group.elements):
        ginv = group.elements[group.inverse_index(i)]
        assert np.array_equal(ginv.matrix @ g.matrix @ states.T, states.T)
        back = transform_trajectory(transform_trajectory(traj, g), ginv)
        assert np.array_equal(back.states, states)


def test_check_equivariance_passes_for_declared_group():
    system = make_system("lorenz")
    group = builtin_group("lorenz")
    rng = np.random.default_rng(0)
    samples = rng.uniform(-15, 15, size=(200, 3))
    report = check_equivariance(system, group, 0.01, samples)
    assert report.all_passed
    label, defect, passed = report.entries[0]
    assert label == "rot_pi_z" and passed and defect <= EQUIVARIANCE_TOL == 1e-12


def test_check_equivariance_flags_wrong_group():
    # flipping x alone breaks the Lorenz y-equation
    system = make_system("lorenz")
    wrong = generate_group([GroupElement("flip_x", np.diag([-1.0, 1.0, 1.0]))])
    rng = np.random.default_rng(1)
    samples = rng.uniform(-15, 15, size=(100, 3))
    report = check_equivariance(system, wrong, 0.01, samples)
    assert not report.all_passed
    assert report.entries[0][1] > 1e-6


def test_check_equivariance_trivial_group_vacuous():
    system = make_system("lorenz")
    trivial = generate_group([], dim=3)
    report = check_equivariance(system, trivial, 0.01, np.zeros((5, 3)))
    assert report.entries == ()
    assert report.all_passed


def test_isotropy_origin_is_everything():
    group = builtin_group("hamiltonian")
    assert data_stabilizer_labels(group, np.zeros((10, 2))) == tuple(group.labels())


def test_isotropy_generic_lorenz_trajectory_is_trivial():
    group = builtin_group("lorenz")
    traj = simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, 200)
    assert data_stabilizer_labels(group, traj.states) == ("e",)


def test_isotropy_hamiltonian_diagonal_contains_swap():
    group = builtin_group("hamiltonian")
    traj = simulate(make_system("hamiltonian"), [1.0, 1.0], 1e-3, 200)
    assert data_stabilizer_labels(group, traj.states) == ("e", "swap")


@pytest.mark.parametrize("generator, conjugates", [("swap", 6), ("cycle", 4)])
def test_stabilizer_of_a_moved_cloud_is_the_conjugate_subgroup(octahedral_group, generator,
                                                               conjugates):
    """Orbit-stabilizer on a non-abelian group: a cloud closed under the
    cyclic subgroup H = <generator>, and under nothing more, moved by any g,
    is stabilized by exactly g H g^-1, read off the Cayley table. H is not
    normal, so g H g^-1 runs through several subgroups."""
    group = octahedral_group
    h = group.index_of(generator)
    H = [0]
    while group.multiply(H[-1], h) != 0:
        H.append(group.multiply(H[-1], h))
    base = np.random.default_rng(0).uniform(-2.0, 2.0, size=(20, 3))
    cloud = np.vstack([base @ group.elements[k].matrix.T for k in H])
    seen = set()
    for g, element in enumerate(group.elements):
        g_inv = group.inverse_index(g)
        members = sorted(group.multiply(group.multiply(g, k), g_inv) for k in H)
        expected = tuple(group.elements[k].label for k in members)
        assert data_stabilizer_labels(group, cloud @ element.matrix.T) == expected
        seen.add(expected)
    assert len(seen) == conjugates


def test_axioms_hold_for_builtin_groups():
    for name in ("lorenz", "toggle_switch", "hamiltonian"):
        report = check_axioms(builtin_group(name))
        assert report["ok"], report


@pytest.mark.parametrize("n", range(2, 13))
def test_dihedral_group_table_matches_products(n):
    # rotation by 2 pi / n has irrational entries, so elements are told
    # apart only up to MATRIX_MATCH_TOL
    c, s = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
    group = generate_group([
        GroupElement("rot", np.array([[c, -s], [s, c]])),
        GroupElement("ref", np.array([[1.0, 0.0], [0.0, -1.0]])),
    ])
    assert group.order == 2 * n
    assert check_axioms(group)["ok"]
    for i, a in enumerate(group.elements):
        for j, b in enumerate(group.elements):
            product = group.elements[group.multiply(i, j)].matrix
            assert np.max(np.abs(product - a.matrix @ b.matrix)) <= MATRIX_MATCH_TOL


def test_check_axioms_reports_out_of_range_entry():
    group = builtin_group("hamiltonian")
    cayley = group.cayley.copy()
    cayley[1, 2] = group.order
    report = check_axioms(dataclasses.replace(group, cayley=cayley))
    assert report["closure"] is False
    assert report["ok"] is False


def test_check_axioms_checks_associativity_in_quadratic_memory():
    n = 150
    angles = 2 * np.pi * np.arange(n) / n
    elements = tuple(
        GroupElement(f"r{i}", np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]))
        for i, a in enumerate(angles)
    )
    i = np.arange(n)
    group = FiniteMatrixGroup(elements=elements, cayley=(i[:, None] + i) % n, dim=2)
    tracemalloc.start()
    try:
        report = check_axioms(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["ok"]
    # comparing whole tables builds two n^3 int64 arrays, 2 * n^3 * 8 bytes
    assert peak < 2 * n**3 * 8 / 20


def test_group_json_roundtrip(tmp_path):
    group = builtin_group("hamiltonian")
    path = tmp_path / "klein.json"
    save_group(group, path)
    loaded = load_group(path)
    assert loaded.order == group.order
    assert loaded.labels() == group.labels()
    assert np.array_equal(loaded.cayley, group.cayley)
    for a, b in zip(loaded.elements, group.elements):
        assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("generators, labels", [
    ([("a", SWAP), ("b", SWAP.copy())], ("a",)),
    ([("i1", np.eye(2)), ("i2", np.eye(2)), ("s", SWAP)], ("i2", "s")),
], ids=["repeated-generator", "two-identity-generators"])
def test_a_group_with_dropped_generators_saves_and_loads(tmp_path, generators, labels):
    # a copy of a generator, and all but the last identity generator, name
    # no element; only the generators that do are saved
    group = generate_group([GroupElement(lbl, m) for lbl, m in generators])
    assert group.generator_labels == labels
    path = tmp_path / "group.json"
    save_group(group, path)
    loaded = load_group(path)
    assert loaded.labels() == group.labels()
    assert np.array_equal(loaded.cayley, group.cayley)
    for a, b in zip(loaded.elements, group.elements):
        assert np.array_equal(a.matrix, b.matrix)


def rotation_generator(n):
    c, s = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
    return GroupElement("r", np.array([[c, -s], [s, c]]))


def test_only_a_group_above_order_64_saves_its_max_order(tmp_path):
    # files of groups up to order 64 keep their keys and bytes
    assert list(group_to_dict(builtin_group("hamiltonian"))) == ["dim", "generators"]
    assert "max_order" not in group_to_dict(generate_group([rotation_generator(64)]))
    group = generate_group([rotation_generator(65)], max_order=65)
    assert group_to_dict(group)["max_order"] == 65
    path = tmp_path / "c65.json"
    save_group(group, path)
    assert load_group(path).labels() == group.labels()
    # without the key the default limit of 64 holds
    data = json.loads(path.read_text())
    del data["max_order"]
    path.write_text(json.dumps(data))
    with pytest.raises(NonFiniteGroupError, match="max_order=64"):
        load_group(path)


def test_a_group_file_max_order_below_the_order_stops_the_closure(tmp_path):
    path = tmp_path / "klein.json"
    save_group(builtin_group("hamiltonian"), path)
    data = json.loads(path.read_text())
    path.write_text(json.dumps(dict(data, max_order=3)))
    with pytest.raises(NonFiniteGroupError, match="max_order=3"):
        load_group(path)


@pytest.mark.parametrize("value", [0, -128, 128.0, True, "128", None, [128]],
                         ids=["zero", "negative", "float", "true", "string", "null", "list"])
def test_a_group_file_max_order_must_be_a_positive_integer(tmp_path, value):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"dim": 2, "generators": [], "max_order": value}))
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"max_order must be a positive integer, got {value!r}")):
        load_group(path)
