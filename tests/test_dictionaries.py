import functools
import math

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
    MonomialDictionary,
    TransformedDictionary,
    builtin_group,
    dictionary_from_spec,
    assemble_global,
    eigenvalue_hausdorff,
    fit_edmd,
    generate_group,
    make_system,
    simulate,
    transport_case1,
    verify_conjugation,
)
from symkoop.koopman import KoopmanApprox
from symkoop.scenarios import EXACT_TIER_TOL, SPECTRUM_TOL

SWAP = GroupElement("swap", np.array([[0.0, 1.0], [1.0, 0.0]]))
HALF_TURN = GroupElement("half_turn", np.array([[-1.0, 0.0], [0.0, -1.0]]))


def is_signed_permutation(m):
    """Every entry is 0.0 or +-1.0, with one nonzero per row and column."""
    ones = np.abs(m) == 1.0
    return bool(np.all(ones | (m == 0.0)) and np.all(ones.sum(axis=0) == 1)
                and np.all(ones.sum(axis=1) == 1))


def rotation(phi, label="rot"):
    return GroupElement(
        label,
        np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]),
    )


def test_identity_dictionary_evaluates_to_state():
    d = IdentityDictionary(2)
    assert np.array_equal(d.evaluate([3.0, -2.0]), [3.0, -2.0])
    assert d.labels == ("x1", "x2")
    with pytest.raises(InputError):
        d.evaluate([1.0, 2.0, 3.0])
    for dim in (0, -1):
        with pytest.raises(InputError, match="^dim must be positive$"):
            IdentityDictionary(dim)


def test_monomial_ordering_and_values():
    d = MonomialDictionary(2, 2, include_constant=False)
    assert d.labels == ("x1", "x2", "x1^2", "x1*x2", "x2^2")
    assert np.array_equal(d.evaluate([2.0, 3.0]), [2.0, 3.0, 4.0, 6.0, 9.0])


def test_monomial_constant_leads():
    d = MonomialDictionary(3, 2)
    assert d.labels[0] == "1"
    assert d.evaluate(np.array([0.4, -1.0, 2.2]))[0] == 1.0
    # every multi-index with degree <= 2, exactly once
    assert d.size == math.comb(3 + 2, 2)
    assert len(set(d.exponents)) == d.size


def per_factor_monomials(d, X):
    """Reference lift: each monomial multiplied out one factor at a time,
    x1 first, starting from 1."""
    out = np.ones((d.size, X.shape[1]))
    for k, exps in enumerate(d.exponents):
        for i, e in enumerate(exps):
            for _ in range(e):
                out[k] *= X[i]
    return out


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 4),
    degree=st.integers(1, 6),
    constant=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e60]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_monomial_lift_equals_per_factor_products(dim, degree, constant, scale, n, seed):
    d = MonomialDictionary(dim, degree, include_constant=constant)
    X = scale * np.random.default_rng(seed).normal(size=(dim, n))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(d.evaluate_matrix(X), per_factor_monomials(d, X),
                              equal_nan=True)


@pytest.mark.parametrize("dictionary", [
    IdentityDictionary(2),
    MonomialDictionary(2, 3),
    CustomDictionary(2, [lambda x: np.sin(x[0]) * x[1], lambda x: x[0] ** 3]),
    TransformedDictionary(MonomialDictionary(2, 3), rotation(0.3).matrix, "rot"),
], ids=["identity", "monomial", "custom", "transformed"])
def test_evaluate_is_one_column_of_evaluate_matrix(dictionary):
    x = np.array([0.7, -1.3])
    assert np.array_equal(
        dictionary.evaluate(x), dictionary.evaluate_matrix(x[:, None])[:, 0]
    )


def test_custom_observables_are_called_once_on_the_whole_block():
    calls = []

    def psi(x):
        calls.append(x.shape)
        return np.sin(x[0]) * x[1]

    d = CustomDictionary(2, [psi, lambda x: x[0] ** 3])
    X = np.random.default_rng(5).normal(size=(2, 7))
    Y = d.evaluate_matrix(X)
    assert calls == [(2, 7)]
    assert np.array_equal(Y, np.vstack([np.sin(X[0]) * X[1], X[0] ** 3]))


@pytest.mark.parametrize("observable, returned", [
    (lambda x: 1.0, "float64 of shape ()"),
    (lambda x: x, "float64 of shape (2, 4)"),
    (lambda x: x[0][:-1], "float64 of shape (3,)"),
    (lambda x: x[0] + 1j, "complex128 of shape (4,)"),
], ids=["scalar", "block", "short", "complex"])
def test_custom_observable_returning_other_than_n_reals_is_an_input_error(observable, returned):
    d = CustomDictionary(2, [lambda x: x[0], observable], labels=["x1", "odd"])
    with pytest.raises(InputError, match=r"^observable 'odd' returned ") as info:
        d.evaluate_matrix(np.ones((2, 4)))
    assert returned in str(info.value)
    assert "\n" not in str(info.value)


def test_transformed_evaluate_matrix_checks_shape():
    t = TransformedDictionary(MonomialDictionary(2, 2), SWAP.matrix, "swap")
    with pytest.raises(InputError):
        t.evaluate_matrix(np.ones((3, 4)))


def test_lift_identity_is_bitwise_copy():
    from symkoop.dictionaries import lift
    from symkoop.dynamics import snapshots

    pairs = snapshots(simulate(make_system("toggle_switch"), [2.0, 1.0], 0.05, 10))
    Yp, Yf = lift(IdentityDictionary(2), pairs)
    assert np.array_equal(Yp, pairs.Xp)
    assert np.array_equal(Yf, pairs.Xf)


def test_lift_single_pair():
    from symkoop.dictionaries import lift
    from symkoop.dynamics import snapshots

    pairs = snapshots(simulate(make_system("toggle_switch"), [2.0, 1.0], 0.05, 1))
    Yp, Yf = lift(MonomialDictionary(2, 2), pairs)
    assert Yp.shape == Yf.shape == (6, 1)


def test_lift_dimension_mismatch():
    from symkoop.dictionaries import lift
    from symkoop.dynamics import snapshots

    pairs = snapshots(simulate(make_system("lorenz"), [1.0, 1.0, 1.0], 0.01, 3))
    with pytest.raises(InputError):
        lift(IdentityDictionary(2), pairs)


def test_induced_identity_dictionary_is_gamma():
    gamma = builtin_group("lorenz").elements[1]
    d = IdentityDictionary(3)
    assert np.array_equal(d.representation(gamma.matrix), gamma.matrix)
    # conjugation by R(gamma) records gamma's label
    assert transport_case1(custom_operator(d), gamma).provenance["element"] == gamma.label


def test_induced_swap_on_monomials_is_permutation():
    d = MonomialDictionary(2, 2, include_constant=False)
    R = d.representation(SWAP.matrix)
    expected = np.zeros((5, 5))
    order = {"x1": "x2", "x2": "x1", "x1^2": "x2^2", "x1*x2": "x1*x2", "x2^2": "x1^2"}
    for i, lbl in enumerate(d.labels):
        expected[i, d.labels.index(order[lbl])] = 1.0
    assert np.array_equal(R, expected)


def test_induced_half_turn_on_monomials_is_degree_parity():
    d = MonomialDictionary(2, 2, include_constant=False)
    R = d.representation(HALF_TURN.matrix)
    assert np.array_equal(R, np.diag([-1.0, -1.0, 1.0, 1.0, 1.0]))


def test_induced_rotation_on_linear_monomials():
    d = MonomialDictionary(2, 1, include_constant=False)
    g = rotation(0.7)
    assert np.array_equal(d.representation(g.matrix), g.matrix)


def test_incomplete_degree_dictionary_not_closed_under_rotation():
    # (cos p x - sin p y)^2 needs x*y and y^2, which this span lacks; a
    # custom dictionary has no closed-form R at all, closed or not
    d = CustomDictionary(
        2, [lambda x: x[0], lambda x: x[1], lambda x: x[0] ** 2],
        labels=["x1", "x2", "x1^2"],
    )
    assert d.representation(rotation(0.7).matrix) is None
    with pytest.raises(InputError, match="no closed-form representation of 'rot'.*"
                                         "transport_case2"):
        transport_case1(custom_operator(d), rotation(0.7))


def test_representation_identity_element_is_exact():
    group = builtin_group("hamiltonian")
    d = MonomialDictionary(2, 3)
    R = d.representation(group.identity.matrix)
    assert np.array_equal(R, np.eye(d.size))


def test_representation_homomorphism_exact_path():
    group = builtin_group("hamiltonian")
    d = MonomialDictionary(2, 2)
    reps = [d.representation(g.matrix) for g in group.elements]
    for i in range(group.order):
        for j in range(group.order):
            k = group.multiply(i, j)
            defect = np.max(np.abs(reps[k] - reps[i] @ reps[j]))
            assert defect <= 1e-8


def as_custom(d):
    """A CustomDictionary spanning the same observables as ``d``."""
    return CustomDictionary(
        d.dim, [lambda x, k=k: d.evaluate_matrix(x)[k] for k in range(d.size)],
        labels=d.labels,
    )


def custom_operator(d, label="base"):
    """An operator on dictionary ``d``, as a fit would leave it."""
    K = np.random.default_rng(d.size).normal(size=(d.size, d.size))
    return KoopmanApprox(matrix=K, dictionary=d, set_label=label, fit_residual=0.0,
                         rank_used=d.size)


def test_custom_span_of_monomials_transports_by_dictionary():
    # a custom dictionary spanning the degree-2 monomials, under the C8
    # rotations: no R is formed, and assembling through the elements keeps
    # K and composes the dictionary with each inverse rotation
    group = generate_group([rotation(math.pi / 4.0, "r8")], max_order=16)
    assert group.order == 8
    d = as_custom(MonomialDictionary(2, 2))
    base = custom_operator(d, "e")
    for g in group.elements:
        with pytest.raises(InputError, match="no closed-form representation"):
            transport_case1(base, g)
    labels = tuple(g.label for g in group.elements)
    registry = InvariantSetRegistry(labels=labels, base_label="e",
                                    mapping={g.label: g.label for g in group.elements[1:]})
    gk = assemble_global(registry, base, {g.label: g for g in group.elements[1:]})
    X = np.random.default_rng(9).uniform(-1.0, 1.0, size=(2, 20))
    for g in group.elements[1:]:
        block = gk.block(g.label)
        assert block.provenance["method"] == "dictionary"
        assert np.array_equal(block.matrix, base.matrix)
        # g^T g is the identity to rounding, so psi_g(g x) is psi(x) to rounding
        moved = block.dictionary.evaluate_matrix(g.matrix @ X)
        assert np.max(np.abs(moved - d.evaluate_matrix(X))) <= 1e-14


def test_representation_homomorphism_nonabelian_group():
    # dihedral group of the square: swap and quarter-turn generate a
    # non-abelian order-8 signed-permutation group (exact path)
    quarter = GroupElement("rot90", np.array([[0.0, -1.0], [1.0, 0.0]]))
    group = generate_group([SWAP, quarter], max_order=16)
    assert group.order == 8
    i, j = group.index_of("swap"), group.index_of("rot90")
    assert group.multiply(i, j) != group.multiply(j, i)
    d = MonomialDictionary(2, 3)
    reps = [d.representation(g.matrix) for g in group.elements]
    for a in range(group.order):
        for b in range(group.order):
            prod = group.multiply(a, b)
            defect = np.max(np.abs(reps[prod] - reps[a] @ reps[b]))
            assert defect <= 1e-12


def test_monomial_dictionaries_closed_for_builtin_groups_degrees_1_to_4():
    for name in ("lorenz", "toggle_switch", "hamiltonian"):
        group = builtin_group(name)
        for degree in range(1, 5):
            d = MonomialDictionary(group.dim, degree)
            X = np.random.default_rng(degree).uniform(-2.0, 2.0, size=(group.dim, 20))
            F = d.evaluate_matrix(X)
            for g in group.elements:
                R = d.representation(g.matrix)
                # the built-in elements are signed permutations, and so is R
                assert is_signed_permutation(R)
                defect = np.max(np.abs(d.evaluate_matrix(g.matrix @ X) - R @ F))
                assert defect <= 1e-14 * np.max(np.abs(F))


def test_representation_defining_identity_out_of_sample():
    d = MonomialDictionary(2, 2)
    g = rotation(1.1)
    R = d.representation(g.matrix)
    rng = np.random.default_rng(99)
    for x in rng.uniform(-1, 1, size=(50, 2)):
        lhs = d.evaluate(g.matrix @ x)
        rhs = R @ d.evaluate(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_transformed_dictionary_composes_with_inverse():
    base = MonomialDictionary(2, 2)
    t = TransformedDictionary(base, SWAP.matrix, "swap")
    x = np.array([1.5, -0.25])
    assert np.array_equal(t.evaluate(x), base.evaluate(SWAP.matrix.T @ x))
    spec = t.to_spec()
    rebuilt = dictionary_from_spec(spec)
    assert np.array_equal(rebuilt.evaluate(x), t.evaluate(x))


def test_dictionary_spec_roundtrip_and_errors():
    d = dictionary_from_spec({"kind": "monomial", "max_degree": 3}, dim=2)
    assert isinstance(d, MonomialDictionary)
    assert d.max_degree == 3
    assert dictionary_from_spec({"kind": "identity", "dim": 4}).size == 4
    with pytest.raises(ConfigurationError):
        dictionary_from_spec({"kind": "identity"})
    with pytest.raises(ConfigurationError):
        dictionary_from_spec({"kind": "custom", "dim": 2, "size": 1}, dim=2)
    with pytest.raises(ConfigurationError):
        dictionary_from_spec({"kind": "sinusoid", "dim": 2})


@pytest.mark.parametrize("matrix, message", [
    ([[2.0, 0.0], [0.0, 1.0]], "is not orthogonal"),
    ([[math.nan, 0.0], [0.0, 1.0]], "NaN or Inf"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "must be square"),
    (np.eye(3), "gamma shape does not match"),
], ids=["scaling", "nan", "non-square", "wrong-dim"])
def test_transformed_dictionary_needs_an_orthogonal_gamma(matrix, message):
    with pytest.raises(InputError, match=message):
        TransformedDictionary(MonomialDictionary(2, 2), matrix, "g")
    spec = {"kind": "transformed", "base": {"kind": "identity", "dim": 2},
            "matrix": np.asarray(matrix).tolist()}
    with pytest.raises(InputError, match=message):
        dictionary_from_spec(spec)


def test_transformed_custom_dictionary_has_no_representation():
    custom = as_custom(MonomialDictionary(2, 2))
    wrapped = TransformedDictionary(custom, rotation(0.4).matrix, "w")
    assert wrapped.representation(rotation(0.7).matrix) is None
    with pytest.raises(InputError, match="no closed-form representation"):
        transport_case1(custom_operator(wrapped), rotation(0.7))
    exact = TransformedDictionary(MonomialDictionary(2, 2), rotation(0.4).matrix, "w")
    assert exact.representation(rotation(0.7).matrix) is not None
    # dictionary transport is the route for the wrapper too
    registry = InvariantSetRegistry(labels=("a", "b"), base_label="a", mapping={"b": "rot"})
    gk = assemble_global(registry, custom_operator(wrapped, "a"), {"b": rotation(0.7)})
    assert gk.block("b").provenance["method"] == "dictionary"


# ---------------------------------------------------------------------------
# properties of the exact representation over generated groups

def reflection():
    return GroupElement("ref", np.array([[1.0, 0.0], [0.0, -1.0]]))


@functools.cache
def polygon_group(kind, n):
    """C_n (kind "C") or D_n (kind "D") in 2-D, from a rotation by 2 pi / n."""
    gens = [rotation(2.0 * math.pi / n, f"r{n}")]
    if kind == "D":
        gens.append(reflection())
    return generate_group(gens, max_order=2 * n)


@functools.cache
def signed_permutation_group(name):
    """The order-48 octahedral group in 3-D, or D4 in 2-D, from exact
    signed-permutation generators."""
    if name == "octahedral":
        return generate_group([
            GroupElement("cycle", np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])),
            GroupElement("swap", np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])),
            GroupElement("flip", np.diag([-1.0, 1.0, 1.0])),
        ], max_order=64)
    return generate_group(
        [SWAP, GroupElement("rot90", np.array([[0.0, -1.0], [1.0, 0.0]]))], max_order=8)


GROUPS = st.one_of(
    st.tuples(st.sampled_from("CD"), st.integers(1, 12)).map(
        lambda key: (polygon_group(*key), False)),
    st.sampled_from(["octahedral", "D4"]).map(
        lambda name: (signed_permutation_group(name), True)),
)


@st.composite
def representation_cases(draw):
    """A group, a monomial dictionary of degree 1-4 on its space (bare or in a
    transformed wrapper), and whether every matrix involved is a signed
    permutation."""
    group, signed = draw(GROUPS)
    d = MonomialDictionary(group.dim, draw(st.integers(1, 4)),
                           include_constant=draw(st.booleans()))
    wrapper = draw(st.sampled_from([None, "signed", "generic"]))
    if wrapper == "signed":
        flip = np.eye(group.dim)[::-1].copy()
        flip[0] *= -1.0
        d = TransformedDictionary(d, flip, "w")
    elif wrapper == "generic":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.normal(size=(group.dim, group.dim)))
        d = TransformedDictionary(d, q, "w")
        signed = False
    return group, d, signed


@settings(max_examples=80, deadline=None)
@given(case=representation_cases(), data=st.data())
def test_exact_representation_is_a_homomorphism(case, data):
    group, d, signed = case
    i = data.draw(st.integers(0, group.order - 1))
    j = data.draw(st.integers(0, group.order - 1))
    r_i, r_j, r_ij = (d.representation(group.elements[k].matrix)
                      for k in (i, j, group.multiply(i, j)))
    if signed:
        assert np.array_equal(r_i @ r_j, r_ij)
    else:
        assert np.max(np.abs(r_i @ r_j - r_ij)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(case=representation_cases(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_exact_representation_holds_out_of_sample(case, data, seed):
    group, d, signed = case
    g = group.elements[data.draw(st.integers(0, group.order - 1))]
    R = d.representation(g.matrix)
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(d.dim, 20))
    F = d.evaluate_matrix(X)
    defect = np.max(np.abs(d.evaluate_matrix(g.matrix @ X) - R @ F))
    assert defect <= 1e-12 * max(1.0, np.max(np.abs(F)))
    if signed:
        assert is_signed_permutation(R)


def polynomial_map(X):
    """A fixed cubic map of the columns of X. It need not commute with the
    group: both states of each pair are transformed."""
    return 0.9 * X + 0.2 * np.roll(X, 1, axis=0) ** 2 - 0.1 * X ** 3


@settings(max_examples=80, deadline=None)
@given(case=representation_cases(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_a_refit_on_exactly_transformed_data_is_the_conjugate(case, data, seed):
    # Well-conditioned by construction: 10 uniform samples per feature on
    # [-1, 1]^dim, which every element and wrapper here keeps in the ball of
    # radius sqrt(dim), so every monomial of degree <= 4 is O(1) on them and
    # the lifted data keep full rank; then pinv(R Yp) = pinv(Yp) R^-1, and
    # the refit is R K R^-1 up to rounding.
    group, d, _ = case
    g = group.elements[data.draw(st.integers(0, group.order - 1))]
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(d.dim, 10 * d.size))
    Y = polynomial_map(X)
    op = fit_edmd(d.evaluate_matrix(X), d.evaluate_matrix(Y), dictionary=d)
    refit = fit_edmd(d.evaluate_matrix(g.matrix @ X), d.evaluate_matrix(g.matrix @ Y),
                     dictionary=d)
    assert op.rank_used == refit.rank_used == d.size
    report = verify_conjugation(op, refit, g)
    assert report.frobenius_error <= EXACT_TIER_TOL
    moved = eigenvalue_hausdorff(np.linalg.eigvals(op.matrix), np.linalg.eigvals(refit.matrix))
    assert moved <= SPECTRUM_TOL


# ---------------------------------------------------------------------------
# the exact representation against its tuple-keyed reference

def tuple_keyed_representation(dictionary, M):
    """MonomialDictionary.representation as it was with sparse rows keyed by
    exponent tuples: each monomial's row is its parent's (one power fewer of
    its last variable) times the linear form M[i] . x, expanded term by term."""
    if dictionary.kind == "transformed":
        T = dictionary.gamma
        return tuple_keyed_representation(dictionary.base, T.T @ M @ T)
    forms = [[(j, c) for j, c in enumerate(row) if c != 0.0] for row in M.tolist()]
    zero = (0,) * dictionary.dim
    rows = {zero: {zero: 1.0}}
    for e in dictionary.exponents:
        if not any(e):
            continue
        i = max(v for v in range(dictionary.dim) if e[v])
        row = {}
        for f, a in rows[e[:i] + (e[i] - 1,) + e[i + 1:]].items():
            for j, c in forms[i]:
                f_j = f[:j] + (f[j] + 1,) + f[j + 1:]
                row[f_j] = row.get(f_j, 0.0) + a * c
        rows[e] = row
    index = {e: k for k, e in enumerate(dictionary.exponents)}
    R = np.zeros((dictionary.size, dictionary.size))
    for e in dictionary.exponents:
        for f, v in rows[e].items():
            R[index[e], index[f]] = v
    return R


def drawn_matrix(draw, kind, dim, rng):
    if kind == "signed":
        m = np.eye(dim)[draw(st.permutations(range(dim)))]
        return m * rng.choice([-1.0, 1.0], size=dim)
    if kind == "orthogonal":
        return np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return rng.uniform(-2.0, 2.0, size=(dim, dim))  # invertible almost surely


MATRIX_KINDS = ["signed", "orthogonal", "invertible"]


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 4),
    degree=st.integers(1, 5),
    constant=st.booleans(),
    kind=st.sampled_from(MATRIX_KINDS),
    wrapper=st.sampled_from([None, "signed", "orthogonal"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_exact_representation_equals_the_tuple_keyed_reference_bitwise(
        dim, degree, constant, kind, wrapper, seed, data):
    """Monomial dictionaries bare or in a transformed wrapper, under signed
    permutations, orthogonal and general invertible matrices."""
    rng = np.random.default_rng(seed)
    d = MonomialDictionary(dim, degree, include_constant=constant)
    if wrapper is not None:
        d = TransformedDictionary(d, drawn_matrix(data.draw, wrapper, dim, rng), "w")
    M = drawn_matrix(data.draw, kind, dim, rng)
    R = d.representation(M)
    reference = tuple_keyed_representation(d, M)
    assert np.array_equal(R, reference)
    assert R.tobytes() == reference.tobytes()  # signed zeros too


# ---------------------------------------------------------------------------
# each dictionary class's own representation

@pytest.mark.parametrize("name", ["lorenz", "toggle_switch", "hamiltonian", "octahedral"])
def test_identity_is_the_degree_one_monomials_and_custom_has_no_representation(name):
    group = signed_permutation_group(name) if name == "octahedral" else builtin_group(name)
    identity = IdentityDictionary(group.dim)
    monomials = MonomialDictionary(group.dim, 1, include_constant=False)
    X = np.random.default_rng(3).normal(size=(group.dim, 20))
    X[:, 0] = -0.0  # signed zeros too
    assert identity.evaluate_matrix(X).tobytes() == monomials.evaluate_matrix(X).tobytes()
    assert identity.evaluate_matrix(X).tobytes() == X.tobytes()
    for g in group.elements:
        assert identity.representation(g.matrix).tobytes() == g.matrix.tobytes()
    # a custom dictionary, bare or wrapped, has no R and moves by dictionary
    custom = as_custom(identity)
    wrapped = TransformedDictionary(custom, group.elements[-1].matrix, "w")
    registry = InvariantSetRegistry(labels=tuple(group.labels()), base_label="e",
                                    mapping={g.label: g.label for g in group.elements[1:]})
    for d in (custom, wrapped):
        assert all(d.representation(g.matrix) is None for g in group.elements)
        gk = assemble_global(registry, custom_operator(d, registry.base_label),
                             {g.label: g for g in group.elements[1:]})
        assert [gk.block(g.label).provenance["method"] for g in group.elements[1:]] == \
            ["dictionary"] * (group.order - 1)
