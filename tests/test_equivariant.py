import functools
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkoop import (
    ConfigurationError,
    CustomDictionary,
    GroupElement,
    IdentityDictionary,
    InputError,
    InvariantSetRegistry,
    IsotropyRequiredError,
    MonomialDictionary,
    assemble_global,
    builtin_group,
    check_registry,
    data_stabilizer_labels,
    fit_trajectory,
    generate_group,
    global_predict,
    load_registry,
    make_system,
    predict,
    save_registry,
    simulate,
    transform_trajectory,
    transport_case1,
    transport_case2,
    verify_commutation,
    verify_conjugation,
    verify_invariant_set_images,
)
from symkoop import equivariant, scenarios
from symkoop.equivariant import global_to_dict
from symkoop.errors import write_json
from symkoop.groups import _BLOCK
from symkoop.koopman import KoopmanApprox, operator_from_dict
from symkoop.scenarios import (
    EXACT_TIER_TOL,
    base_dictionaries,
    builtin_registry,
    draw_base_state,
    experiment,
    membership_predicates,
)

# Fixed example operators, one per built-in system. The expected transported
# matrices are hand-derived: conjugating by a signed permutation permutes and
# sign-flips entries, so K_LEFT is K_RIGHT with rows and columns swapped,
# K_MAGENTA is K_BLUE with the z-coupling entries negated, and K_IS2 is the
# swap-conjugate of K_IS1.
K_RIGHT = np.array([[0.6039, 0.0313], [-0.4784, 1.0375]])
K_LEFT = np.array([[1.0375, -0.4784], [0.0313, 0.6039]])
K_BLUE = np.array(
    [[0.076, 0.709, 0.042], [-0.667, 1.064, 0.124], [-0.422, 0.926, 0.836]]
)
K_MAGENTA = np.array(
    [[0.076, 0.709, -0.042], [-0.667, 1.064, -0.124], [0.422, -0.926, 0.836]]
)
K_IS1 = np.array([[0.955, 0.486], [-0.059, 0.215]])
K_IS2 = np.array([[0.215, -0.059], [0.486, 0.955]])


def wrap(K, label="set"):
    K = np.asarray(K, dtype=float)
    return KoopmanApprox(
        matrix=K, dictionary=IdentityDictionary(K.shape[0]),
        set_label=label, fit_residual=0.0, rank_used=K.shape[0],
    )


def swap_element(dim=2):
    return builtin_group("toggle_switch" if dim == 2 else "lorenz").elements[1]


def test_transport_reproduces_toggle_switch_example():
    out = transport_case1(wrap(K_RIGHT, "right"), swap_element(), target_label="left")
    assert np.array_equal(out.matrix, K_LEFT)
    assert out.set_label == "left"
    assert out.is_transported
    assert out.provenance["base_label"] == "right"


def test_transport_identity_representation_is_noop():
    out = transport_case1(wrap(K_RIGHT), builtin_group("toggle_switch").identity)
    assert np.array_equal(out.matrix, K_RIGHT)


def test_transport_reproduces_lorenz_sign_pattern():
    group = builtin_group("lorenz")
    out = transport_case1(wrap(K_BLUE, "blue"), group.elements[1], target_label="magenta")
    assert np.array_equal(out.matrix, K_MAGENTA)


def test_transport_reproduces_hamiltonian_swap_block():
    group = builtin_group("hamiltonian")
    out = transport_case1(wrap(K_IS1, "IS-1"), group.element("swap"), target_label="IS-2")
    assert np.array_equal(out.matrix, K_IS2)


def test_transport_round_trip():
    group = builtin_group("hamiltonian")
    d = MonomialDictionary(2, 2)
    traj = simulate(make_system("hamiltonian"), [3.2, 0.3], 1e-3, 150)
    op = fit_trajectory(traj, d, set_label="IS-1")
    for i, g in enumerate(group.elements):
        g_inv = group.elements[group.inverse_index(i)]
        back = transport_case1(transport_case1(op, g), g_inv)
        assert np.max(np.abs(back.matrix - op.matrix)) <= 1e-12


def test_transport_composition_follows_group_product():
    group = builtin_group("hamiltonian")
    d = MonomialDictionary(2, 2)
    traj = simulate(make_system("hamiltonian"), [3.2, 0.3], 1e-3, 150)
    op = fit_trajectory(traj, d, set_label="IS-1")
    g = group.elements
    for i in range(group.order):
        for j in range(group.order):
            chained = transport_case1(transport_case1(op, g[i]), g[j])
            direct = transport_case1(op, g[group.multiply(j, i)])
            assert np.max(np.abs(chained.matrix - direct.matrix)) <= 1e-10


def test_inverse_representation_is_the_transpose_bit_for_bit():
    # conjugation forms R^-1 as R(g^T); for signed permutations that is R^T
    # exactly, signs of zero included, so transported bytes do not move
    cases = [(builtin_group(name), d) for name in ("lorenz", "toggle_switch", "hamiltonian")
             for d in base_dictionaries(name).values()]
    group = generate_group([  # the octahedral group: every signed permutation of 3
        GroupElement("cycle", [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        GroupElement("swap", [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        GroupElement("flip", [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ], max_order=48)
    assert group.order == 48
    cases.append((group, MonomialDictionary(3, 4)))
    for group, d in cases:
        for g in group.elements:
            R, R_inv = d.representation(g.matrix), d.representation(g.matrix.T)
            assert np.array_equal(R_inv, R.T), (g.label, d.kind)
            assert np.array_equal(np.signbit(R_inv), np.signbit(R.T)), (g.label, d.kind)


def dihedral_group(n):
    """D_n in the plane: the rotation by 2 pi / n and a reflection."""
    c, s = np.cos(2.0 * np.pi / n), np.sin(2.0 * np.pi / n)
    return generate_group([GroupElement("rot", [[c, -s], [s, c]]),
                           GroupElement("ref", [[1.0, 0.0], [0.0, -1.0]])])


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("degree", [3, 5])
def test_transport_by_a_rotation_inverts_no_matrix(n, degree):
    # R(g) of a rotation is no signed permutation; R(g^T) is its inverse to
    # rounding, so conjugation agrees with np.linalg.inv, and transport by g
    # and then by the table's inverse of g comes back to K
    group = dihedral_group(n)
    assert group.order == 2 * n
    d = MonomialDictionary(2, degree)
    K = np.random.default_rng(degree).normal(size=(d.size, d.size))
    op = KoopmanApprox(matrix=K, dictionary=d, set_label="base", fit_residual=0.0,
                       rank_used=d.size)
    for i, g in enumerate(group.elements):
        R = d.representation(g.matrix)
        moved = transport_case1(op, g).matrix
        expected = R @ K @ np.linalg.inv(R)
        assert np.linalg.norm(moved - expected) <= 1e-13 * np.linalg.norm(expected), g.label
        back = transport_case1(transport_case1(op, g), group.elements[group.inverse_index(i)])
        assert np.linalg.norm(back.matrix - K) <= 1e-12 * np.linalg.norm(K), g.label


def test_transport_dimension_mismatch():
    with pytest.raises(InputError):
        transport_case1(wrap(K_RIGHT), swap_element(dim=3))


def test_case2_identity_keeps_dictionary_semantics():
    group = builtin_group("toggle_switch")
    op = wrap(K_RIGHT, "right")
    moved = transport_case2(op, group.identity)
    assert np.array_equal(moved.matrix, op.matrix)
    x = np.array([1.2, 0.4])
    assert np.array_equal(moved.dictionary.evaluate(x), op.dictionary.evaluate(x))


def test_case2_consistent_with_case1():
    # evaluating the transformed dictionary at g x equals R^-1 Psi at x, so
    # both routes predict the same feature evolution on the image set
    system = make_system("toggle_switch")
    group = builtin_group("toggle_switch")
    g = group.element("swap")
    d = MonomialDictionary(2, 2)
    traj = simulate(system, [3.5, 1.2], 0.05, 100)
    op = fit_trajectory(traj, d, set_label="right")
    case1 = transport_case1(op, g, target_label="left")
    case2_op = transport_case2(op, g, target_label="left")

    x_target = g.matrix @ np.array([2.9, 0.7])  # a state of the image set
    steps = 20
    p1 = predict(case1, x_target, steps)
    p2 = predict(case2_op, x_target, steps)
    rinv = d.representation(g.matrix.T)
    for k in range(steps + 1):
        assert np.max(np.abs(rinv @ p1[k] - p2[k])) <= 1e-10
    # the transformed dictionary observes the image state exactly as the
    # base dictionary observes the source state
    assert np.max(np.abs(case2_op.dictionary.evaluate(x_target)
                         - d.evaluate([2.9, 0.7]))) <= 1e-12


def test_case2_one_step_residual_matches_fit():
    system = make_system("toggle_switch")
    group = builtin_group("toggle_switch")
    g = group.element("swap")
    d = MonomialDictionary(2, 2)
    traj = simulate(system, [3.5, 1.2], 0.05, 100)
    op = fit_trajectory(traj, d, set_label="right")
    case2_op = transport_case2(op, g, target_label="left")
    # transformed data x' = g x with the transformed dictionary reproduces
    # exactly the original lifted data, hence the original residual
    moved = g.matrix @ traj.states.T
    Xp_t, Xf_t = moved[:, :-1], moved[:, 1:]
    Yp = case2_op.dictionary.evaluate_matrix(Xp_t)
    Yf = case2_op.dictionary.evaluate_matrix(Xf_t)
    residual = np.linalg.norm(case2_op.matrix @ Yp - Yf) / np.linalg.norm(Yf)
    assert residual == pytest.approx(op.fit_residual, rel=1e-9)


@functools.cache
def exact_run_fit(name, degree):
    """A monomial fit on the built-in system's well-conditioned exact run."""
    x0, dt, n_steps = experiment(name).exact_run
    d = MonomialDictionary(len(x0), degree)
    return fit_trajectory(simulate(make_system(name), x0, dt, n_steps), d, set_label="base")


# Both readouts below do the same products, R and R^-1 being signed
# permutations, but sum them in another order (and multiply each monomial's
# factors in another order), so they differ by rounding only: about K eps
# per step, K <= 20, over 50 steps of an operator whose spectral radius is
# at most 1.02, which is below 1e-12 (seen: at most 3.3e-15).
STATE_SPACE_TOL = 1e-12


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["lorenz", "toggle_switch", "hamiltonian"]),
       degree=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_case1_and_case2_agree_in_state_space(name, degree, data, seed):
    """From g x0, the case-2 block forecasts the base block's features from
    x0 bit for bit, and the conjugated block's degree-1 readout is g times
    the base readout over 50 steps."""
    group = builtin_group(name)
    g = group.elements[data.draw(st.integers(0, group.order - 1))]
    base = exact_run_fit(name, degree)
    x0 = draw_base_state(name, np.random.default_rng(seed))
    forecast = predict(base, x0, 50)
    case2 = transport_case2(base, g)
    assert np.array_equal(predict(case2, g.matrix @ x0, 50), forecast)
    case1 = transport_case1(base, g)
    states = slice(1, 1 + group.dim)  # the degree-1 rows, after the constant
    expected = forecast[:, states] @ g.matrix.T
    error = np.max(np.abs(predict(case1, g.matrix @ x0, 50)[:, states] - expected))
    assert error <= STATE_SPACE_TOL * np.max(np.abs(expected))


def assert_transported_from(block, base, label, element, method, changed):
    """``block`` is ``base`` carried by ``method`` through ``element`` to
    the set ``label``: transport sets the matrix, the label, the provenance
    and the fields in ``changed``; every other field is the base's own."""
    assert block.set_label == label
    assert list(block.provenance.items()) == [
        ("transported", True), ("method", method),
        ("base_label", base.set_label), ("element", element),
    ]
    assert block.matrix is not base.matrix
    inherited = {f.name for f in fields(KoopmanApprox)} - {
        "matrix", "set_label", "provenance", *changed}
    assert inherited >= {"fit_residual", "rank_used"}
    for name in inherited:
        assert getattr(block, name) is getattr(base, name), name


def test_transported_blocks_inherit_every_field_transport_does_not_set():
    group = builtin_group("toggle_switch")
    swap = group.element("swap")
    base = replace(exact_run_fit("toggle_switch", 2), set_label="right")
    assert_transported_from(transport_case1(base, swap), base, "right:swap", "swap",
                            "conjugation", changed=())
    assert_transported_from(transport_case2(base, swap, "left"), base, "left", "swap",
                            "dictionary", changed=("dictionary",))
    registry = InvariantSetRegistry(labels=("right", "left"), base_label="right",
                                    mapping={"left": "swap"})
    gk = assemble_global(registry, base, {"left": swap})
    assert gk.block("right") is base
    assert_transported_from(gk.block("left"), base, "left", "swap", "conjugation",
                            changed=())
    # a dictionary with no closed-form R is transported by its dictionary
    custom = CustomDictionary(2, [lambda x: x[0], lambda x: x[1] ** 2])
    base = KoopmanApprox(matrix=np.eye(2), dictionary=custom, set_label="right",
                         fit_residual=0.25, rank_used=1)
    gk = assemble_global(registry, base, {"left": swap})
    assert_transported_from(gk.block("left"), base, "left", "swap", "dictionary",
                            changed=("dictionary",))
    assert gk.block("left").dictionary.base is custom


# ---------------------------------------------------------------------------
# global operator

def toggle_global():
    system = make_system("toggle_switch")
    registry = builtin_registry("toggle_switch")
    group = builtin_group("toggle_switch")
    d = IdentityDictionary(2)
    base = fit_trajectory(simulate(system, [3.5, 1.2], 0.05, 100), d, set_label="right")
    elements = {label: group.element(e) for label, e in registry.mapping.items()}
    return registry, base, elements


def test_assemble_single_set():
    registry = InvariantSetRegistry(labels=("only",), base_label="only", mapping={})
    base = wrap(K_RIGHT, "only")
    gk = assemble_global(registry, base, {})
    assert gk.labels == ["only"]
    assert np.array_equal(gk.as_matrix(), K_RIGHT)


def test_assemble_toggle_two_blocks():
    registry, base, elements = toggle_global()
    gk = assemble_global(registry, base, elements)
    assert gk.labels == ["right", "left"]
    assert gk.total_size == 4
    dense = gk.as_matrix()
    assert np.array_equal(dense[:2, :2], base.matrix)
    swap = base.dictionary.representation(elements["left"].matrix)
    assert np.array_equal(dense[2:, 2:], swap @ base.matrix @ swap)
    assert np.array_equal(dense[:2, 2:], np.zeros((2, 2)))


def test_assemble_hamiltonian_four_blocks():
    system = make_system("hamiltonian")
    registry = builtin_registry("hamiltonian")
    group = builtin_group("hamiltonian")
    d = IdentityDictionary(2)
    base = fit_trajectory(simulate(system, [3.2, 0.3], 1e-3, 200), d, set_label="IS-1")
    elements = {label: group.element(e) for label, e in registry.mapping.items()}
    gk = assemble_global(registry, base, elements)
    assert gk.total_size == 8
    swap_R = d.representation(elements["IS-2"].matrix)
    expected = swap_R @ base.matrix @ swap_R.T
    assert np.array_equal(gk.block("IS-2").matrix, expected)
    for label in registry.labels:
        origin = gk.block(label).is_transported
        assert origin == (label != "IS-1")


@pytest.mark.parametrize("name", ["toggle_switch", "hamiltonian", "lorenz"])
def test_assemble_from_elements_conjugates_polynomial_dictionaries(name):
    """Given the elements, a monomial base is conjugated; each block is bit
    for bit the one assembled from FeatureRepresentation values, which are
    read as their elements, and checked against the registry as elements."""
    from symkoop.dictionaries import induced_representation

    registry, group = builtin_registry(name), builtin_group(name)
    base = replace(exact_run_fit(name, 2), set_label=registry.base_label)
    elements = {label: group.element(e) for label, e in registry.mapping.items()}
    reps = {label: induced_representation(base.dictionary, g) for label, g in elements.items()}
    from_elements = assemble_global(registry, base, elements)
    from_reps = assemble_global(registry, base, reps)
    for label, g in elements.items():
        block = from_elements.block(label)
        assert block.provenance == {"transported": True, "method": "conjugation",
                                    "base_label": registry.base_label, "element": g.label}
        assert np.array_equal(block.matrix, from_reps.block(label).matrix)
    label = next(iter(registry.mapping))
    identity = induced_representation(base.dictionary, group.identity)
    with pytest.raises(InputError, match=f"element for {label!r} is 'e', not its registry "
                                         f"element {registry.mapping[label]!r}"):
        assemble_global(registry, base, {**reps, label: identity})


def test_assemble_validates_inputs():
    registry, base, elements = toggle_global()
    with pytest.raises(InputError):
        assemble_global(registry, base, {})  # missing element
    with pytest.raises(InputError):
        assemble_global(registry, replace(base, set_label="elsewhere"), elements)


def test_assemble_checks_elements_against_registry():
    registry, base, _ = toggle_global()
    identity = builtin_group("toggle_switch").identity
    message = "element for 'left' is 'e', not its registry element 'swap'"
    with pytest.raises(InputError, match=message):
        assemble_global(registry, base, {"left": identity})


def test_registry_refuses_two_labels_through_one_element(tmp_path):
    # named in label order, whatever the order of the mapping
    message = "registry maps 'left' and 'left-again' through the same element 'swap'"
    with pytest.raises(InputError, match=f"^{message}$"):
        InvariantSetRegistry(labels=("right", "left", "left-again"), base_label="right",
                             mapping={"left-again": "swap", "left": "swap"})
    path = tmp_path / "registry.json"
    path.write_text('{"labels": ["right", "left", "left-again"], '
                    '"mapping": {"left": "swap", "left-again": "swap"}}')
    with pytest.raises(ConfigurationError, match=f"registry.json: {message}$"):
        load_registry(path)


def test_global_predict_matches_block_predict_bitwise():
    registry, base, elements = toggle_global()
    gk = assemble_global(registry, base, elements)
    rng = np.random.default_rng(8)
    for label in gk.labels:
        op = gk.block(label)
        for _ in range(10):
            x0 = rng.uniform(0.2, 3.5, size=2)
            assert np.array_equal(
                global_predict(gk, label, x0, 50), predict(op, x0, 50)
            )


def test_global_predict_off_block_exactly_zero():
    registry, base, elements = toggle_global()
    gk = assemble_global(registry, base, elements)
    # Psi_left(x0) embedded with zeros elsewhere, evolved by the dense
    # block-diagonal matrix: the right block stays exactly zero, and the
    # left one is global_predict's up to the rounding of the dense products
    stacked = np.zeros((51, gk.total_size))
    stacked[0, gk.block_slice("left")] = gk.block("left").dictionary.evaluate([0.4, 2.8])
    for k in range(50):
        stacked[k + 1] = gk.as_matrix() @ stacked[k]
    assert np.all(stacked[:, gk.block_slice("right")] == 0.0)
    local = global_predict(gk, "left", [0.4, 2.8], 50)
    left = stacked[:, gk.block_slice("left")]
    assert np.linalg.norm(left - local) <= 1e-12 * np.linalg.norm(local)
    zero_steps = global_predict(gk, "left", [0.4, 2.8], 0)
    assert zero_steps.shape == (1, 2)
    assert np.array_equal(zero_steps[0], [0.4, 2.8])
    with pytest.raises(InputError):
        global_predict(gk, "nowhere", [0.4, 2.8], 1)


# ---------------------------------------------------------------------------
# verification

def test_verify_conjugation_exact_mirror_all_systems():
    for name in ("lorenz", "toggle_switch", "hamiltonian"):
        system = make_system(name)
        group = builtin_group(name)
        x0 = {"lorenz": [1.0, 1.0, 1.05], "toggle_switch": [3.5, 1.2],
              "hamiltonian": [3.4, 0.2]}[name]
        dt = {"lorenz": 0.01, "toggle_switch": 0.05, "hamiltonian": 1e-3}[name]
        traj = simulate(system, x0, dt, 150)
        for d in (IdentityDictionary(system.dim), MonomialDictionary(system.dim, 2)):
            base = fit_trajectory(traj, d, set_label="base")
            for g in group.elements[1:]:
                mirrored = fit_trajectory(
                    transform_trajectory(traj, g), d, set_label="image"
                )
                report = verify_conjugation(base, mirrored, g)
                assert report.frobenius_error <= EXACT_TIER_TOL, (name, d.kind, g.label, report)


def test_verify_conjugation_identity_is_zero():
    op = wrap(K_RIGHT)
    report = verify_conjugation(op, op, builtin_group("toggle_switch").identity)
    assert report.frobenius_error == 0.0
    assert report.hausdorff_distance == 0.0


def test_verify_conjugation_of_a_zero_K_j_is_the_absolute_error():
    # a zero refit is no image of a nonzero K_i, so the exact tier must fail it
    op = wrap(np.array([[0.9, 0.1], [0.0, 0.5]]))
    zero = wrap(np.zeros((2, 2)))
    report = verify_conjugation(op, zero, swap_element())
    assert report.frobenius_error == np.linalg.norm(op.matrix) > EXACT_TIER_TOL
    assert verify_conjugation(zero, zero, swap_element()).frobenius_error == 0.0


def test_verify_conjugation_compares_against_transport_case1():
    # under a rotation by 2 pi / 3, R is no signed permutation; the
    # transported matrix is transport_case1's, bit for bit
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    rot = GroupElement("rot", [[c, -s], [s, c]])
    op = KoopmanApprox(matrix=np.arange(36.0).reshape(6, 6) / 36.0,
                       dictionary=MonomialDictionary(2, 2), set_label="set",
                       fit_residual=0.0, rank_used=6)
    moved = transport_case1(op, rot)
    assert np.linalg.norm(moved.matrix - op.matrix) > 0.1 * np.linalg.norm(op.matrix)
    report = verify_conjugation(op, moved, rot)
    assert report.frobenius_error == report.hausdorff_distance == 0.0


def test_spectrum_check_conjugates_by_every_element_but_the_identity(monkeypatch):
    # R(e) K R(e^T) is K exactly, so e moves no eigenvalue; the Hamiltonian
    # check conjugates each of its two base fits by the three other elements
    elements = []
    transport = equivariant.transport_case1

    def counting_transport(op, g, target_label=None):
        elements.append(g.label)
        return transport(op, g, target_label)

    monkeypatch.setattr(equivariant, "transport_case1", counting_transport)
    assert scenarios.check_spectrum_invariance("hamiltonian").passed
    others = [g.label for g in builtin_group("hamiltonian").elements[1:]]
    assert len(elements) == 6
    assert sorted(elements) == sorted(2 * others)


def test_commutation_on_symmetric_union_data():
    system = make_system("toggle_switch")
    group = builtin_group("toggle_switch")
    swap = group.element("swap")
    d = IdentityDictionary(2)
    traj = simulate(system, [3.5, 1.2], 0.05, 100)
    union = [traj, transform_trajectory(traj, swap)]
    op = fit_trajectory(union, d, set_label="union")
    stabilizers = data_stabilizer_labels(group, np.vstack([t.states[:-1] for t in union]))
    assert "swap" in stabilizers
    assert verify_commutation(op, swap, stabilizers) <= 1e-8


def test_commutation_refuses_outside_isotropy():
    system = make_system("toggle_switch")
    group = builtin_group("toggle_switch")
    swap = group.element("swap")
    d = IdentityDictionary(2)
    traj = simulate(system, [3.5, 1.2], 0.05, 100)
    op = fit_trajectory(traj, d, set_label="right")
    stabilizers = data_stabilizer_labels(group, traj.states[:-1])
    assert stabilizers == ("e",)  # one branch is not swap-invariant
    with pytest.raises(IsotropyRequiredError):
        verify_commutation(op, swap, stabilizers)


def test_stabilizer_checks_every_block():
    group = builtin_group("toggle_switch")
    half = np.random.default_rng(3).uniform(0.0, 4.0, size=(_BLOCK, 2))
    cloud = np.vstack([half, half[:, ::-1]])
    assert data_stabilizer_labels(group, cloud) == ("e", "swap")
    # one more sample, alone in the last block, whose swap image is missing
    lopsided = np.vstack([cloud, [[3.0, 1.0]]])
    assert len(lopsided) == 2 * _BLOCK + 1
    assert data_stabilizer_labels(group, lopsided) == ("e",)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cloud", [
    np.empty((0, 2)),
    np.array([[1.0, 2.0], [np.nan, 2.0]]),
    np.ones((4, 3)),
    np.array([[1.0, 2.0], [0.0, -1.1e150]]),
    np.array([[1e308, 1e308]]),
], ids=["empty", "nan", "wrong-dim", "above-limit", "norm-overflow"])
def test_stabilizer_rejects_bad_cloud(cloud):
    # an empty cloud would vacuously pass every element, a NaN would fail
    # every one, a wrong width cannot be acted on, and a norm that overflows
    # gave an infinite match radius, which every element passed
    with pytest.raises(InputError):
        data_stabilizer_labels(builtin_group("toggle_switch"), cloud)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stabilizer_matches_states_up_to_its_coordinate_limit():
    group = builtin_group("lorenz")
    assert data_stabilizer_labels(group, [[1e150, 0.0, 1.0]]) == ("e",)
    assert data_stabilizer_labels(
        group, [[1e150, -1e150, 1e150], [-1e150, 1e150, 1e150]]) == ("e", "rot_pi_z")
    # its match radius overflowed to infinity, so both elements passed
    with pytest.raises(InputError, match="coordinate above 1e\\+150"):
        data_stabilizer_labels(group, [[2e154, 0.0, 1.0]])


def test_check_registry_rejects_labels_sharing_a_stabilizer_coset():
    group = builtin_group("hamiltonian")
    base = np.array([[3.0, 0.2], [2.8, -0.1], [3.3, 0.4]])
    mapping = {"IS-2": "negate", "IS-3": "swap*negate"}
    registry = InvariantSetRegistry(labels=("IS-1", "IS-2", "IS-3"),
                                    base_label="IS-1", mapping=mapping)
    check_registry(registry, group)  # distinct elements, no samples: fine
    check_registry(InvariantSetRegistry(
        labels=registry.labels, base_label="IS-1", mapping=mapping,
        samples={"IS-1": base}), group)  # the samples are not swap-symmetric
    symmetric = InvariantSetRegistry(
        labels=registry.labels, base_label="IS-1", mapping=mapping,
        samples={"IS-1": np.vstack([base, base[:, ::-1]])})
    # negate^-1 (swap*negate) = swap fixes the base set, so IS-2 = IS-3
    with pytest.raises(InputError, match="'IS-2' and 'IS-3'.*'swap'"):
        check_registry(symmetric, group)


@pytest.mark.parametrize("second, same_set", [
    ("cycle*swap", True),  # the left coset cycle H of cycle
    ("swap*cycle", False),  # its right coset H cycle only
])
def test_check_registry_rejects_a_shared_left_coset_only(octahedral_group, second,
                                                         same_set):
    """With H = {e, swap} the stabilizer of the base samples M, g_a M = g_b M
    exactly when g_a H = g_b H: cycle*swap maps M where cycle does, and
    swap*cycle, which is cycle times the conjugate cycle^-1 swap cycle, does
    not, as that conjugate is a transposition other than swap."""
    group = octahedral_group
    base = np.random.default_rng(4).uniform(-2.0, 2.0, size=(10, 3))
    samples = np.vstack([base, base @ group.element("swap").matrix.T])
    assert data_stabilizer_labels(group, samples) == ("e", "swap")
    registry = InvariantSetRegistry(
        labels=("M", "A", "B"), base_label="M",
        mapping={"A": "cycle", "B": second}, samples={"M": samples})
    if same_set:
        with pytest.raises(InputError, match="'A' and 'B'.*differ by 'swap'"):
            check_registry(registry, group)
    else:
        check_registry(registry, group)


def test_registry_refuses_samples_of_a_label_it_does_not_have(tmp_path):
    # a typo'd samples key would drop the base set's stabilizer evidence
    with pytest.raises(InputError, match="samples for 'IS1'"):
        InvariantSetRegistry(labels=("IS-1", "IS-2"), base_label="IS-1",
                             mapping={"IS-2": "swap"}, samples={"IS1": np.ones((1, 2))})
    path = tmp_path / "registry.json"
    path.write_text('{"labels": ["IS-1", "IS-2"], "mapping": {"IS-2": "swap"}, '
                    '"samples": {"IS-1": [[3.0, 0.1]], "IS-3": [[0.1, 3.0]]}}')
    with pytest.raises(ConfigurationError, match="registry.json: samples for 'IS-3'"):
        load_registry(path)


def test_commutator_large_across_lorenz_wings():
    # the expected failure: an operator fitted on one wing does not commute
    # with the half-turn; transport, not commutation, relates the wings
    system = make_system("lorenz")
    group = builtin_group("lorenz")
    d = IdentityDictionary(3)
    traj = simulate(system, [8.0, 8.5, 27.0], 0.01, 120)
    op = fit_trajectory(traj, d, set_label="one-wing")
    half_turn = group.elements[1]
    stabilizers = data_stabilizer_labels(group, traj.states[:-1])
    assert stabilizers == ("e",)
    with pytest.raises(IsotropyRequiredError):
        verify_commutation(op, half_turn, stabilizers)
    # taking the half-turn as isotropy anyway shows why the check refuses
    assert verify_commutation(op, half_turn, (half_turn.label,)) > 0.1


def test_invariant_set_image_toggle():
    system = make_system("toggle_switch")
    group = builtin_group("toggle_switch")
    predicates = membership_predicates("toggle_switch")
    rng = np.random.default_rng(0)
    samples = np.column_stack(
        [rng.uniform(2.0, 3.5, size=15), rng.uniform(0.1, 1.2, size=15)]
    )
    report = verify_invariant_set_images(
        system, [(group.element("swap"), predicates["left"])], samples, 0.05, 200
    )[0]
    assert report.fraction == 1.0
    assert (report.n_samples, report.horizon, report.failed_indices) == (15, 200, ())
    identity_report = verify_invariant_set_images(
        system, [(group.identity, predicates["right"])], samples, 0.05, 200
    )[0]
    assert identity_report.fraction == 1.0


def test_separatrix_is_flow_invariant():
    # the fixed set of the swap (x1 = x2) is invariant for the symmetric field
    system = make_system("toggle_switch")
    group = builtin_group("toggle_switch")
    on_diagonal = lambda x: abs(x[0] - x[1]) <= 1e-9 * (1.0 + abs(x[0]))
    samples = np.array([[0.5, 0.5], [1.5, 1.5], [3.0, 3.0]])
    report = verify_invariant_set_images(
        system, [(group.element("swap"), on_diagonal)], samples, 0.05, 200
    )[0]
    assert report.fraction == 1.0


def test_registry_validation_and_roundtrip(tmp_path):
    with pytest.raises(InputError):
        InvariantSetRegistry(labels=("a", "a"), base_label="a", mapping={})
    with pytest.raises(InputError):
        InvariantSetRegistry(labels=("a", "b"), base_label="c", mapping={"b": "g"})
    with pytest.raises(InputError):
        InvariantSetRegistry(labels=("a", "b"), base_label="a", mapping={})
    registry = builtin_registry("hamiltonian")
    path = tmp_path / "registry.json"
    save_registry(registry, path)
    loaded = load_registry(path)
    assert loaded.labels == registry.labels
    assert loaded.base_label == registry.base_label
    assert loaded.mapping == registry.mapping


def test_registry_samples_round_trip(tmp_path):
    samples = {"IS-1": np.array([[3.0, 0.1], [2.9, -0.2]]), "IS-2": np.array([[0.1, 3.0]])}
    registry = replace(builtin_registry("hamiltonian"), samples=samples)
    path = tmp_path / "registry.json"
    save_registry(registry, path)
    loaded = load_registry(path)
    assert loaded.samples.keys() == samples.keys()
    for label, states in samples.items():
        assert np.array_equal(loaded.samples[label], states)


TWO_D = KoopmanApprox(matrix=np.eye(2), dictionary=IdentityDictionary(2), set_label="a",
                      fit_residual=0.0, rank_used=2)
HALF_TURN = GroupElement("rot", np.diag([-1.0, -1.0, 1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: transport_case2(TWO_D, HALF_TURN), "operator dictionary and element dimensions differ"),
    (lambda: assemble_global(InvariantSetRegistry(labels=("a", "b"), base_label="a",
                                                  mapping={"b": "rot"}),
                             TWO_D, {"b": HALF_TURN}),
     "operator dictionary and element dimensions differ"),
    (lambda: verify_conjugation(TWO_D, replace(TWO_D, matrix=np.eye(3)),
                                GroupElement("swap", [[0.0, 1.0], [1.0, 0.0]])),
     "operator sizes must match"),
], ids=["transport_case2", "assemble_global", "verify_conjugation"])
def test_operators_and_elements_of_other_sizes_are_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_registry_base_defaults_to_first_label():
    from symkoop.equivariant import registry_from_dict

    registry = registry_from_dict(
        {"labels": ["right", "left"], "mapping": {"left": "swap"}}
    )
    assert registry.base_label == "right"


def test_global_json_roundtrip(tmp_path):
    registry, base, elements = toggle_global()
    gk = assemble_global(registry, base, elements)
    path = tmp_path / "global.json"
    write_json(path, global_to_dict(gk))
    data = json.loads(path.read_text())
    assert data["labels"] == gk.labels
    assert [entry["label"] for entry in data["blocks"]] == gk.labels
    for entry, (_, op) in zip(data["blocks"], gk.blocks):
        loaded = operator_from_dict(entry)
        assert np.array_equal(loaded.matrix, op.matrix)
        assert loaded.provenance == op.provenance
