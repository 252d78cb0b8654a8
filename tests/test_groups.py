import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from symkoop import (
    FiniteMatrixGroup,
    GroupElement,
    InputError,
    NonFiniteGroupError,
    Trajectory,
    act_on_function,
    act_on_state,
    builtin_group,
    check_axioms,
    check_equivariance,
    conjugate_isotropy,
    generate_group,
    isotropy_set,
    load_group,
    make_system,
    save_group,
    simulate,
    transform_trajectory,
)
from symkoop.groups import MATRIX_MATCH_TOL

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


def test_act_on_state_examples():
    lorenz_gamma = builtin_group("lorenz").elements[1]
    assert np.array_equal(
        act_on_state(lorenz_gamma, [1.0, 2.0, 3.0]), [-1.0, -2.0, 3.0]
    )
    swap = GroupElement("swap", SWAP)
    assert np.array_equal(act_on_state(swap, [4.0, 7.0]), [7.0, 4.0])
    e = GroupElement("e", np.eye(2))
    x = np.array([0.3, -0.8])
    assert np.array_equal(act_on_state(e, x), x)
    with pytest.raises(InputError):
        act_on_state(swap, [1.0, 2.0, 3.0])


def test_act_on_function_identity_and_linear():
    f = lambda x: x[0]
    e = GroupElement("e", np.eye(2))
    rot = GroupElement("r", NEG)
    x = np.array([1.3, -0.4])
    assert act_on_function(e, f)(x) == pytest.approx(f(x))
    assert act_on_function(rot, f)(x) == pytest.approx(-x[0])


def test_act_on_function_is_group_action():
    # (g1 * (g2 * f))(x) == ((g1 g2) * f)(x)
    group = builtin_group("hamiltonian")
    f = lambda x: x[0] ** 2 + 0.5 * x[1] - 0.3 * x[0] * x[1]
    rng = np.random.default_rng(3)
    for i, g1 in enumerate(group.elements):
        for j, g2 in enumerate(group.elements):
            g12 = group.elements[group.multiply(i, j)]
            nested = act_on_function(g1, act_on_function(g2, f))
            direct = act_on_function(g12, f)
            for x in rng.uniform(-2, 2, size=(100, 2)):
                assert abs(nested(x) - direct(x)) <= 1e-12


def test_act_state_inverse_roundtrip():
    group = builtin_group("hamiltonian")
    rng = np.random.default_rng(11)
    for i, g in enumerate(group.elements):
        ginv = group.elements[group.inverse_index(i)]
        for x in rng.uniform(-5, 5, size=(100, 2)):
            back = act_on_state(ginv, act_on_state(g, x))
            assert np.linalg.norm(back - x) <= 1e-12


def test_check_equivariance_passes_for_declared_group():
    system = make_system("lorenz")
    group = builtin_group("lorenz")
    rng = np.random.default_rng(0)
    samples = rng.uniform(-15, 15, size=(200, 3))
    report = check_equivariance(system, group, 0.01, samples, tol=1e-12)
    assert report.all_passed
    assert report.to_dict()["elements"][0]["passed"]


def test_check_equivariance_flags_wrong_group():
    # flipping x alone breaks the Lorenz y-equation
    system = make_system("lorenz")
    wrong = generate_group([GroupElement("flip_x", np.diag([-1.0, 1.0, 1.0]))])
    rng = np.random.default_rng(1)
    samples = rng.uniform(-15, 15, size=(100, 3))
    report = check_equivariance(system, wrong, 0.01, samples, tol=1e-6)
    assert not report.all_passed


def test_check_equivariance_trivial_group_vacuous():
    system = make_system("lorenz")
    trivial = generate_group([], dim=3)
    report = check_equivariance(system, trivial, 0.01, np.zeros((5, 3)), tol=1e-12)
    assert report.entries == ()
    assert report.all_passed


def test_isotropy_origin_is_everything():
    group = builtin_group("hamiltonian")
    traj = Trajectory(dim=2, dt=0.1, states=np.zeros((10, 2)))
    report = isotropy_set(group, traj)
    assert report.member_indices == (0, 1, 2, 3)
    assert report.is_subgroup


def test_isotropy_generic_lorenz_trajectory_is_trivial():
    group = builtin_group("lorenz")
    traj = simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, 200)
    report = isotropy_set(group, traj)
    assert report.member_indices == (0,)
    assert report.is_subgroup


def test_isotropy_hamiltonian_diagonal_contains_swap():
    group = builtin_group("hamiltonian")
    traj = simulate(make_system("hamiltonian"), [1.0, 1.0], 1e-3, 200)
    report = isotropy_set(group, traj)
    assert group.index_of("swap") in report.member_indices
    assert 0 in report.member_indices
    assert report.is_subgroup


def test_conjugate_isotropy_fixed_cases():
    group = builtin_group("hamiltonian")
    g = group.elements[1]
    from symkoop import IsotropyReport

    trivial = IsotropyReport(member_indices=(0,), is_subgroup=True, tolerance=1e-8)
    assert conjugate_isotropy(group, trivial, g).member_indices == (0,)
    whole = IsotropyReport(
        member_indices=tuple(range(group.order)), is_subgroup=True, tolerance=1e-8
    )
    assert conjugate_isotropy(group, whole, g).member_indices == tuple(
        range(group.order)
    )
    # abelian group: conjugation never moves a member set
    some = IsotropyReport(member_indices=(0, 2), is_subgroup=True, tolerance=1e-8)
    for g in group.elements:
        assert conjugate_isotropy(group, some, g).member_indices == (0, 2)


def test_conjugate_isotropy_matches_transformed_trajectory():
    for name in ("lorenz", "toggle_switch", "hamiltonian"):
        group = builtin_group(name)
        system = make_system(name)
        rng = np.random.default_rng(7)
        x0 = rng.uniform(0.5, 2.0, size=system.dim)
        traj = simulate(system, x0, 0.01, 50)
        report = isotropy_set(group, traj)
        for g in group.elements:
            direct = isotropy_set(group, transform_trajectory(traj, g))
            conjugated = conjugate_isotropy(group, report, g)
            assert direct.member_indices == conjugated.member_indices


def test_conjugate_isotropy_unknown_element():
    group = builtin_group("lorenz")
    report = isotropy_set(
        group, Trajectory(dim=3, dt=0.1, states=np.zeros((3, 3)))
    )
    stranger = GroupElement("other", np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(InputError):
        conjugate_isotropy(group, report, stranger)


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
