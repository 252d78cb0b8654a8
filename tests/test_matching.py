"""Element matching: the sort-window matcher must return exactly what the
all-pairs comparisons return, for group elements and for the stabilizer,
and the group closure must discover exactly the elements, labels, matrices
and Cayley table of the sequential one-product-at-a-time closure and of the
breadth-first closure that matches each row of products in one call.
check_axioms' associativity test over a generating set must report what
the test of every triple reports. The references are kept here."""

import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkoop import (
    GroupElement,
    InputError,
    NonFiniteGroupError,
    SymkoopError,
    builtin_group,
    check_axioms,
    data_stabilizer_labels,
    generate_group,
    load_group,
    save_group,
)
from symkoop import groups
from symkoop.equivariant import _STABILIZER_LEAD
from symkoop.groups import (
    _BLOCK,
    MATRIX_MATCH_TOL,
    ORTHOGONALITY_TOL,
    FiniteMatrixGroup,
    _SortedPoints,
    _check_elements,
    _first_matches,
    _sort_direction,
)

PROPERTY = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# references

def all_pairs_stabilizer(group, states, tol=1e-8):
    """Every transformed sample against every sample."""
    labels = []
    for g in group.elements:
        mapped = states @ g.matrix.T
        dist = np.linalg.norm(mapped[:, None, :] - states[None, :, :], axis=2)
        scale = 1.0 + np.linalg.norm(mapped, axis=1)
        if np.all(dist.min(axis=1) <= tol * scale):
            labels.append(g.label)
    return tuple(labels)


def broadcast_first_matches(stack, ms):
    """Every query against every matrix, in max norm; the first hit or -1."""
    close = np.max(np.abs(stack[None] - ms[:, None]), axis=(2, 3)) <= MATRIX_MATCH_TOL
    return np.array([row.argmax() if row.any() else -1 for row in close])


def sequential_closure(generators):
    """Breadth-first closure matching one product at a time; returns the
    labels, the (order, dim, dim) matrices and the Cayley table."""

    def find(stack, m):
        hits = np.flatnonzero(
            np.max(np.abs(stack - m), axis=(1, 2)) <= MATRIX_MATCH_TOL)
        return int(hits[0]) if hits.size else None

    eye = np.eye(generators[0].dim)
    labels, stack = ["e"], eye[None]
    for g in generators:
        k = find(stack, g.matrix)
        if k is None:
            labels.append(g.label)
            stack = np.concatenate([stack, g.matrix[None]])
        elif k == 0:
            labels[0] = g.label
    frontier = list(range(len(labels)))
    while frontier:
        new_frontier = []
        for i in frontier:
            for j in range(len(labels)):
                for a, b in ((i, j), (j, i)):
                    prod = stack[a] @ stack[b]
                    if find(stack, prod) is None:
                        labels.append(f"{labels[a]}*{labels[b]}")
                        stack = np.concatenate([stack, prod[None]])
                        new_frontier.append(len(labels) - 1)
        frontier = new_frontier
    cayley = np.array([[find(stack, stack[i] @ stack[j]) for j in range(len(stack))]
                       for i in range(len(stack))])
    return labels, stack, cayley


def breadth_first_generate_group(generators, max_order=64, dim=None):
    """generate_group as it was before the elements were found first: each
    frontier element's row of 2n products matched in one call, and each miss
    again against the elements that row has added."""
    generators = list(generators)
    if not generators and dim is None:
        raise SymkoopError("empty generator set requires an explicit dim")
    dim = generators[0].dim if generators else dim

    eye = np.eye(dim)
    elements = [GroupElement("e", eye)]
    stack = eye[None]
    for g in generators:
        k = _first_matches(stack, g.matrix[None])[0]
        if k < 0:
            elements.append(g)
            stack = np.concatenate([stack, g.matrix[None]])
        elif k == 0:
            elements[0] = GroupElement(g.label, eye)

    frontier = list(range(len(elements)))
    while frontier:
        new_frontier = []
        for i in frontier:
            n = len(elements)
            prods = np.empty((2 * n, dim, dim))
            prods[0::2] = stack[i] @ stack
            prods[1::2] = stack @ stack[i]
            for m in np.flatnonzero(_first_matches(stack, prods) < 0):
                prod = prods[m].copy()
                if _first_matches(stack[n:], prod[None])[0] >= 0:
                    continue
                if len(elements) >= max_order:
                    raise NonFiniteGroupError(
                        f"generators close into no group of at most max_order={max_order} "
                        "elements at this matching tolerance; they may not generate a "
                        "finite group"
                    )
                a, b = (i, m // 2) if m % 2 == 0 else (m // 2, i)
                label = f"{elements[a].label}*{elements[b].label}"
                elements.append(GroupElement(label, prod))
                stack = np.concatenate([stack, prod[None]])
                new_frontier.append(len(elements) - 1)
        frontier = new_frontier

    products = stack[:, None] @ stack[None]
    cayley = _first_matches(stack, products).reshape(len(stack), -1)
    group = FiniteMatrixGroup(elements=tuple(elements), cayley=cayley, dim=dim,
                              generator_labels=tuple(g.label for g in generators))
    assert check_axioms(group)["ok"]
    return group


def exhaustive_check_axioms(group):
    """check_axioms with associativity tested on every triple, one table row
    at a time: [j, k] is (g_i g_j) g_k against g_i (g_j g_k)."""
    n = group.order
    cayley = group.cayley
    closure = bool(np.all((cayley >= 0) & (cayley < n)))
    identity = bool(
        np.all(cayley[0] == np.arange(n)) and np.all(cayley[:, 0] == np.arange(n))
    )
    inverses = bool(np.all(np.any(cayley == 0, axis=1)))
    assoc = closure and all(np.array_equal(cayley[row], row[cayley]) for row in cayley)
    return {
        "order": n,
        "closure": closure,
        "identity": identity,
        "inverses": inverses,
        "associativity": assoc,
        "ok": closure and identity and inverses and assoc,
    }


# ---------------------------------------------------------------------------
# element matching

def test_window_matches_with_no_queries_or_no_points_is_empty_or_misses():
    def close(diff, rows):
        return np.max(np.abs(diff), axis=1) <= 0.5

    points, none = np.eye(3), np.empty((0, 3))
    assert _SortedPoints(points).matches(none, 0.5, close).shape == (0,)
    assert _SortedPoints(points).matches(none, np.empty(0), close).shape == (0,)
    assert _SortedPoints(none).matches(none, 0.5, close).shape == (0,)
    assert _first_matches(points.reshape(1, 3, 3), np.empty((0, 3, 3))).shape == (0,)
    assert list(_SortedPoints(none).matches(points, 0.5, close)) == [-1, -1, -1]
    assert list(_SortedPoints(none).matches(points, np.full(3, 0.5), close)) == [-1, -1, -1]


def flat_keys(ms):
    """The sort keys of matrices (m, dim, dim), as _first_matches takes them."""
    return ms.reshape(len(ms), ms.shape[-1] ** 2) @ _sort_direction(ms.shape[-1] ** 2)


KEY_ORDERS = ["rows", "descending", "tied", "duplicates", "outside"]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    n=st.integers(0, 12),
    duplicates=st.integers(0, 3),
    queries=st.integers(1, 12),
    nudge=st.sampled_from([0.0, 0.999, 1.001, 2.0]),
    key_order=st.sampled_from(KEY_ORDERS),
)
def test_first_matches_equals_broadcast_reference(seed, dim, n, duplicates, queries,
                                                  nudge, key_order):
    """Queries in row order, in descending key order, all tied on the key
    (the stack too), repeated in random order, or with keys beyond both
    ends of the stack's."""
    rng = np.random.default_rng(seed)
    u = _sort_direction(dim * dim).reshape(dim, dim)
    stack = rng.uniform(-1.0, 1.0, size=(n, dim, dim))
    if key_order == "tied":  # the stack on one plane across the sort direction
        stack -= (flat_keys(stack) - 0.25)[:, None, None] * u
    if n:
        stack = np.concatenate([stack, stack[rng.integers(0, n, duplicates)]])
        # copies of stack matrices, each entry moved by nudge * tol or left alone
        picks = stack[rng.integers(0, len(stack), queries)]
        signs = rng.integers(-1, 2, size=picks.shape)
        ms = picks + nudge * MATRIX_MATCH_TOL * signs
    else:
        ms = rng.uniform(-1.0, 1.0, size=(queries, dim, dim))
    if key_order == "descending":
        ms = ms[np.argsort(-flat_keys(ms))]
    elif key_order == "duplicates":
        ms = ms[rng.integers(0, queries, 3 * queries)]
    elif key_order == "outside":
        ms = np.concatenate([ms + 10.0 * u, ms, ms - 10.0 * u])[rng.permutation(3 * queries)]
    assert np.array_equal(_first_matches(stack, ms), broadcast_first_matches(stack, ms))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("nudge, hit", [(0.999, 0), (1.001, -1)])
def test_first_matches_window_keeps_a_match_displaced_along_the_sort_key(dim, nudge,
                                                                          hit):
    q, _ = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim, dim)))
    # every entry moves by nudge * tol towards the sort direction, so the key
    # moves by nudge * tol * |u|_1, more than the tolerance itself: only a
    # window as wide as the 2-norm bound dim * tol keeps the partner
    u = _sort_direction(dim * dim).reshape(dim, dim)
    partner = q + nudge * MATRIX_MATCH_TOL * np.sign(u)
    assert _first_matches(partner[None], q[None])[0] == hit
    assert broadcast_first_matches(partner[None], q[None])[0] == hit


# ---------------------------------------------------------------------------
# the orthogonality check of group elements

def one_by_one_check(labels, stack):
    """GroupElement's check as it was, one matrix at a time: the first one
    with NaN or Inf, or with max|m^T m - I| above the tolerance, raises."""
    for label, m in zip(labels, stack):
        if not np.isfinite(m).all():
            raise InputError(f"element {label!r}: matrix contains NaN or Inf")
        defect = np.max(np.abs(m.T @ m - np.eye(m.shape[0])))
        if defect > ORTHOGONALITY_TOL:
            raise InputError(f"element {label!r} is not orthogonal (defect {defect:.3e})")


def check_outcome(check, *args):
    try:
        check(*args)
    except InputError as err:
        return str(err)
    return None


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["orthogonal", "nan", "inf", "drift", "boundary"]),
                   min_size=1, max_size=8),
)
def test_stacked_element_check_raises_what_the_one_by_one_check_raises(seed, dim, kinds):
    """Orthogonal matrices, some with a NaN or an Inf entry, some scaled off
    orthogonal by far more than the tolerance or by just about it."""
    rng = np.random.default_rng(seed)
    stack = np.array([np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in kinds])
    for m, kind in zip(stack, kinds):
        i, j = rng.integers(0, dim, 2)
        if kind == "nan":
            m[i, j] = np.nan
        elif kind == "inf":
            m[i, j] = rng.choice([-np.inf, np.inf])
        elif kind == "drift":
            m += 1e-8 * rng.standard_normal((dim, dim))
        elif kind == "boundary":  # defect about 2 t, here within 1% of the tolerance
            m *= 1.0 + 0.5 * ORTHOGONALITY_TOL * rng.uniform(0.99, 1.01)
    labels = [f"g{k}" for k in range(len(kinds))]
    assert check_outcome(_check_elements, labels, stack) \
        == check_outcome(one_by_one_check, labels, stack)


def rotation_group_outcome(generators):
    try:
        return generate_group(generators).labels()
    except SymkoopError as err:
        return type(err), str(err)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 16, 24])
@pytest.mark.parametrize("drift", [5e-12, 1e-11, 3e-11])
def test_closure_refuses_the_element_that_a_one_by_one_check_refuses_first(
        monkeypatch, n, drift):
    """A generator off orthogonal within the tolerance: its products drift.
    The closure raises what checking its elements one by one, in order,
    raises, or whatever the closure raises before it checks them."""
    generators = [GroupElement("r0", rotation(n) + drift * np.eye(2)),
                  GroupElement("r", rotation(n))]
    outcome = rotation_group_outcome(generators)
    with monkeypatch.context() as patch:
        unchecked = []
        patch.setattr(groups, "_check_elements",
                      lambda labels, stack: unchecked.append((labels, stack)))
        expected = rotation_group_outcome(generators)
    for labels, stack in unchecked:  # the identity's check, then the closure's
        message = check_outcome(one_by_one_check, labels, stack)
        if message is not None:
            expected = (InputError, message)
            break
    assert outcome == expected


# ---------------------------------------------------------------------------
# groups

def rotation(n):
    c, s = np.cos(2 * np.pi / n), np.sin(2 * np.pi / n)
    return np.array([[c, -s], [s, c]])


def octahedral():
    return [
        GroupElement("cycle", np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])),
        GroupElement("swap", np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])),
        GroupElement("flip", np.diag([-1.0, 1, 1])),
    ]


def dihedral(n):
    return [GroupElement("r", rotation(n)), GroupElement("s", np.diag([1.0, -1.0]))]


GENERATOR_SETS = {"octahedral": octahedral(), "C8": [GroupElement("r", rotation(8))]}
GENERATOR_SETS.update({f"D{n}": dihedral(n) for n in range(2, 13)})


def assert_same_group(generators):
    group = generate_group(generators)
    labels, stack, cayley = sequential_closure(generators)
    assert group.labels() == labels
    assert np.array_equal(np.array([g.matrix for g in group.elements]), stack)
    assert np.array_equal(group.cayley, cayley)


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_closure_matches_sequential_closure(name):
    assert_same_group(GENERATOR_SETS[name])


@PROPERTY
@given(data=st.data())
def test_closure_matches_sequential_closure_for_reordered_generators(data):
    """Generators shuffled, an identity generator and a repeated generator
    inserted anywhere, and everything conjugated by a random rotation so
    that matches are inexact."""
    gens = list(GENERATOR_SETS[data.draw(st.sampled_from(sorted(GENERATOR_SETS)))])
    gens = data.draw(st.permutations(gens))
    dim = gens[0].dim
    if data.draw(st.booleans()):
        gens.insert(data.draw(st.integers(0, len(gens))), GroupElement("id", np.eye(dim)))
    if data.draw(st.booleans()):
        again = data.draw(st.sampled_from(gens))
        gens.insert(data.draw(st.integers(0, len(gens))),
                    GroupElement(again.label + "'", again.matrix.copy()))
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        gens = [GroupElement(g.label, q @ g.matrix @ q.T) for g in gens]
    assert_same_group(gens)


def signed_permutation(perm, signs):
    m = np.zeros((len(perm), len(perm)))
    m[perm, np.arange(len(perm))] = signs
    return m


@st.composite
def generator_sets(draw):
    """C_n or D_n (n <= 24) as plane rotations or as signed permutations,
    or the octahedral group with its generators in any order; then perhaps
    conjugated by a random orthogonal Q, with copies of generators and
    identity generators inserted anywhere."""
    family = draw(st.sampled_from(["rotation", "permutation", "octahedral"]))
    n = draw(st.integers(1, 24))
    dihedral_group = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "octahedral":
        gens = draw(st.permutations(octahedral()))
    elif family == "rotation":
        gens = [GroupElement("r", rotation(n))]
        if dihedral_group:
            gens.append(GroupElement("s", np.diag([1.0, -1.0])))
    else:
        # the regular permutation action conjugated by a diagonal of signs
        signs = rng.choice([-1.0, 1.0], size=n)
        cycle, reverse = (np.arange(n) + 1) % n, np.arange(n)[::-1]
        gens = [GroupElement("p", signed_permutation(cycle, signs * signs[cycle]))]
        if dihedral_group:
            gens.append(GroupElement("f", signed_permutation(reverse, signs * signs[reverse])))
    dim = gens[0].dim
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        gens = [GroupElement(g.label, q @ g.matrix @ q.T) for g in gens]
    for k in range(draw(st.integers(0, 2))):
        # a copy, or one turned by an orthogonal matrix within the tolerance
        again = draw(st.sampled_from(gens))
        a = rng.standard_normal((dim, dim)) * draw(st.sampled_from([0.0, 0.01]))
        a = MATRIX_MATCH_TOL * (a - a.T)
        turn = np.linalg.solve(np.eye(dim) - a, np.eye(dim) + a)
        gens.insert(draw(st.integers(0, len(gens))),
                    GroupElement(f"{again.label}{k}", again.matrix @ turn))
    for k in range(draw(st.integers(0, 2))):
        gens.insert(draw(st.integers(0, len(gens))), GroupElement(f"id{k}", np.eye(dim)))
    return gens


def closure_outcome(generate, generators, **kwargs):
    try:
        group = generate(generators, **kwargs)
    except SymkoopError as err:
        return type(err), str(err)
    stack = np.array([g.matrix for g in group.elements])
    # the bytes of every matrix, so the sign bit of each zero counts too
    return group.labels(), stack.shape, stack.tobytes(), group.cayley.tolist()


@PROPERTY
@given(gens=generator_sets(), max_order=st.sampled_from([64, 47, 12]))
def test_closure_matches_the_breadth_first_closure(gens, max_order):
    """Labels, element order, matrices bit for bit and the Cayley table, or
    the same NonFiniteGroupError when the generators close into no group of
    at most max_order elements, as on a near-group whose words drift past
    the tolerance."""
    assert closure_outcome(generate_group, gens, max_order=max_order) \
        == closure_outcome(breadth_first_generate_group, gens, max_order=max_order)


def turned_rotation(n, angle):
    """The rotation by 2 pi / n + angle."""
    c, s = np.cos(2 * np.pi / n + angle), np.sin(2 * np.pi / n + angle)
    return np.array([[c, -s], [s, c]])


def turned_octahedral(seed):
    """The octahedral generators, each times an orthogonal turn (a Cayley
    transform) whose largest entry off I is about 2e-11."""
    rng = np.random.default_rng(seed)
    gens = []
    for g in octahedral():
        a = rng.standard_normal((3, 3))
        a = 1e-11 * (a - a.T) / np.abs(a - a.T).max()
        turn = np.linalg.solve(np.eye(3) - a, np.eye(3) + a)
        gens.append(GroupElement(g.label, g.matrix @ turn))
    return gens


@pytest.mark.parametrize("gens, max_order", [
    ([GroupElement("r", np.array([[np.cos(1.0), -np.sin(1.0)],
                                  [np.sin(1.0), np.cos(1.0)]]))], 64),
    (octahedral(), 47),
    # its 19th power is a new element, its 20th matches the generator: the
    # words alone stop at 20 elements in a table with no inverses
    ([GroupElement("r", turned_rotation(19, 5.6e-12))], 64),
    # the words alone close at order 48, with products of two long words
    # off their table entries by more than the tolerance
    (turned_octahedral(seed=1), 64),
], ids=["irrational-rotation", "octahedral-47", "near-C19", "near-octahedral"])
def test_closure_raises_what_the_breadth_first_closure_raises(gens, max_order):
    outcome = closure_outcome(generate_group, gens, max_order=max_order)
    assert outcome[0] is NonFiniteGroupError
    assert outcome == closure_outcome(breadth_first_generate_group, gens,
                                      max_order=max_order)


@pytest.mark.parametrize("n", [9, 10, 12])
def test_a_generator_orthogonal_only_to_the_tolerance_gives_no_group(n):
    """Its powers drift from orthogonal; neither closure returns a group."""
    drifting = [GroupElement("r0", rotation(n) + 1e-11 * np.eye(2)),
                GroupElement("r", rotation(n))]
    for generate in (generate_group, breadth_first_generate_group):
        with pytest.raises(SymkoopError):
            generate(drifting)


# ---------------------------------------------------------------------------
# associativity

def with_table(group, cayley, generator_labels=None):
    labels = group.generator_labels if generator_labels is None else generator_labels
    return FiniteMatrixGroup(elements=group.elements, cayley=cayley, dim=group.dim,
                             generator_labels=tuple(labels))


def relabelled(group, perm):
    """The same group with element i moved to index perm[i]."""
    cayley = np.empty_like(group.cayley)
    cayley[np.ix_(perm, perm)] = perm[group.cayley]
    elements = [None] * group.order
    for i, g in enumerate(group.elements):
        elements[perm[i]] = g
    return FiniteMatrixGroup(elements=tuple(elements), cayley=cayley, dim=group.dim,
                             generator_labels=group.generator_labels)


@PROPERTY
@given(gens=generator_sets(), data=st.data())
def test_check_axioms_reports_what_the_test_of_every_triple_reports(gens, data):
    """On a drawn group's table, perhaps relabelled so that the identity is
    not first, perhaps with one entry changed (to any index, or out of
    range), perhaps with other generator labels. A near-group whose words
    drift past the tolerance has no table: generate_group refuses it with
    the NonFiniteGroupError the breadth-first closure raises."""
    try:
        group = generate_group(gens)
    except NonFiniteGroupError as err:
        assert closure_outcome(breadth_first_generate_group, gens) \
            == (NonFiniteGroupError, str(err))
        return
    if data.draw(st.booleans()):
        group = relabelled(group, np.array(data.draw(st.permutations(range(group.order)))))
    cayley = group.cayley.copy()
    if data.draw(st.booleans()):
        i, j = data.draw(st.tuples(*[st.integers(0, group.order - 1)] * 2))
        cayley[i, j] = data.draw(st.integers(-1, group.order).filter(
            lambda v: v != cayley[i, j]))
    labels = None
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(st.sampled_from(group.labels()), max_size=4))
    table = with_table(group, cayley, labels)
    assert check_axioms(table) == exhaustive_check_axioms(table)


# the smallest loop (identity, and a Latin square) that is not associative
LOOP5 = np.array([[0, 1, 2, 3, 4],
                  [1, 0, 3, 4, 2],
                  [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])


@pytest.mark.parametrize("labels", [
    subset for k in range(6) for subset in itertools.combinations("abcde", k)])
def test_check_axioms_finds_the_order_5_loop_not_associative(labels):
    """Whatever generators the table names, elements that right
    multiplication by them does not reach join the test."""
    elements = tuple(GroupElement(lbl, np.eye(1)) for lbl in "abcde")
    loop = FiniteMatrixGroup(elements=elements, cayley=LOOP5, dim=1,
                             generator_labels=labels)
    report = check_axioms(loop)
    assert report == exhaustive_check_axioms(loop)
    assert report["closure"] and report["identity"] and report["inverses"]
    assert not report["associativity"]


# ---------------------------------------------------------------------------
# groups of order 128 and 768

def ring_generators(n):
    """Flip of x_1, cyclic shift and reversal of n coordinates: they generate
    (Z2)^n x| D_n, of order 2^n * 2n, as signed permutations."""
    flip = np.eye(n)
    flip[0, 0] = -1.0
    shift = signed_permutation((np.arange(n) + 1) % n, np.ones(n))
    reverse = signed_permutation(np.arange(n)[::-1], np.ones(n))
    return [GroupElement("f", flip), GroupElement("s", shift), GroupElement("r", reverse)]


@functools.cache
def ring_group(n):
    return generate_group(ring_generators(n), max_order=2 ** n * 2 * n)


def test_order_128_closure_matches_the_breadth_first_closure():
    outcome = closure_outcome(generate_group, ring_generators(4), max_order=128)
    assert outcome[1] == (128, 4, 4)
    assert outcome == closure_outcome(breadth_first_generate_group, ring_generators(4),
                                      max_order=128)


def test_order_128_group_saves_its_max_order_and_loads(tmp_path):
    group = ring_group(4)
    path = tmp_path / "ring4.json"
    save_group(group, path)
    assert json.loads(path.read_text())["max_order"] == 128
    loaded = load_group(path)
    assert loaded.labels() == group.labels()
    assert np.array_equal(loaded.cayley, group.cayley)
    for a, b in zip(loaded.elements, group.elements):
        assert np.array_equal(a.matrix, b.matrix)


def test_order_768_closure_stays_within_64_mb():
    tracemalloc.start()
    try:
        group = generate_group(ring_generators(6), max_order=768)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 768
    assert peak < 64 * 2**20


def test_order_768_stabilizer_of_a_d6_symmetric_cloud_is_d6():
    """The positive orthant's isotropy, D6: the elements without a sign
    flip. On a cloud closed under it, exactly its 12 labels; with one sample
    gone, the identity alone."""
    group = ring_group(6)
    d6 = [g for g in group.elements if np.all(g.matrix >= 0.0)]
    assert len(d6) == 12
    base = np.random.default_rng(6).uniform(0.1, 2.0, size=(100, 6))
    cloud = np.vstack([base @ g.matrix.T for g in d6])
    assert data_stabilizer_labels(group, cloud) == tuple(g.label for g in d6)
    assert data_stabilizer_labels(group, cloud[1:]) == ("e",)


def test_order_768_table_holds_sampled_products():
    group = ring_group(6)
    assert group.order == 768
    assert check_axioms(group)["ok"]
    stack = np.array([g.matrix for g in group.elements])
    i, j = np.random.default_rng(0).integers(0, group.order, size=(2, 2000))
    products = stack[i] @ stack[j]
    assert np.max(np.abs(products - stack[group.cayley[i, j]])) <= MATRIX_MATCH_TOL


# ---------------------------------------------------------------------------
# stabilizer

STABILIZER_GROUPS = {
    "toggle_switch": builtin_group("toggle_switch"),
    "hamiltonian": builtin_group("hamiltonian"),
    "lorenz": builtin_group("lorenz"),
    "D6": generate_group(dihedral(6)),
    "octahedral": generate_group(octahedral()),
}


def tied_copies(rng, states, scale):
    """Copies of samples moved orthogonally to the sort direction, so their
    sort keys tie with the originals' up to rounding."""
    u = _sort_direction(states.shape[1])
    step = rng.standard_normal(states.shape) * scale
    return states + step - np.outer(step @ u, u)


@PROPERTY
@given(
    name=st.sampled_from(sorted(STABILIZER_GROUPS)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    exponent=st.floats(-3.0, 3.0),
    images=st.integers(0, 4),
    duplicates=st.integers(0, 3),
    ties=st.integers(0, 4),
    nudge=st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]),
    key_order=st.sampled_from(KEY_ORDERS),
)
def test_stabilizer_matches_all_pairs(name, seed, n, exponent, images, duplicates,
                                      ties, nudge, key_order):
    """The cloud, closed under some elements, in row order, in descending
    key order (so the identity's images are), all tied on the key before
    the images, with every sample repeated in random order, or with
    samples whose keys lie beyond the others'."""
    group = STABILIZER_GROUPS[name]
    rng = np.random.default_rng(seed)
    u = _sort_direction(group.dim)
    scale = 10.0 ** exponent
    states = rng.uniform(-scale, scale, size=(n, group.dim))
    if key_order == "tied":
        states = tied_copies(rng, np.repeat(states[:1], n, axis=0), scale)
    states = np.vstack([states, states[rng.integers(0, n, duplicates)]])
    states = np.vstack([states, tied_copies(rng, states[:ties], scale)])
    # close the cloud under some elements so that they may stabilize it
    for k in rng.choice(group.order, size=min(images, group.order), replace=False):
        states = np.vstack([states, states @ group.elements[k].matrix.T])
    if key_order == "descending":
        states = states[np.argsort(-(states @ u))]
    elif key_order == "duplicates":
        states = states[rng.permutation(np.repeat(np.arange(len(states)), 3))]
    elif key_order == "outside":
        states = np.vstack([states, states[:2] + 1e3 * scale * u, states[:2] - 1e3 * scale * u])
    if nudge:
        # move one sample by about nudge * tol (1 + |x|): close to the boundary
        # of the match test for whichever element maps a sample onto it
        i = rng.integers(0, len(states))
        direction = rng.standard_normal(group.dim)
        direction /= np.linalg.norm(direction)
        states[i] += nudge * 1e-8 * (1.0 + np.linalg.norm(states[i])) * direction
    assert data_stabilizer_labels(group, states) == all_pairs_stabilizer(group, states)


LEAD = _STABILIZER_LEAD


@PROPERTY
@given(
    name=st.sampled_from(sorted(STABILIZER_GROUPS)),
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 3),
    at=st.one_of(st.sampled_from([0, LEAD - 1, LEAD, 2 * LEAD]), st.integers(0, 2 * LEAD)),
    nudge=st.sampled_from([0.0, 0.999, 1.001, 1e3]),
)
def test_stabilizer_miss_inside_or_after_the_leading_block(name, seed, extra, at, nudge):
    """A shuffled cloud closed under the group, of more than 2 * LEAD rows,
    with one more sample put at row ``at``: a copy of a cloud sample moved
    by nudge * tol (1 + |x|). Its images are the only ones that may miss,
    in the leading block (at < LEAD) or after it; a moved sample they all
    miss leaves the identity alone."""
    group = STABILIZER_GROUPS[name]
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, size=(2 * LEAD // group.order + 1 + extra, group.dim))
    cloud = np.vstack([base @ g.matrix.T for g in group.elements])
    cloud = cloud[rng.permutation(len(cloud))]
    assert len(cloud) > 2 * LEAD
    direction = rng.standard_normal(group.dim)
    direction /= np.linalg.norm(direction)
    moved = cloud[0] + nudge * 1e-8 * (1.0 + np.linalg.norm(cloud[0])) * direction
    states = np.insert(cloud, at, moved, axis=0)
    labels = data_stabilizer_labels(group, states)
    assert labels == all_pairs_stabilizer(group, states)
    if nudge == 0.0:
        assert labels == tuple(group.labels())
    if nudge == 1e3:
        assert labels == (group.identity.label,)


def test_stabilizer_matches_all_pairs_when_windows_span_chunks():
    """Half of the cloud ties on the sort key, so each window on that half
    holds the whole half and the candidate pairs fill several chunks."""
    group = builtin_group("toggle_switch")
    rng = np.random.default_rng(5)
    line = tied_copies(rng, np.tile([[2.0, 1.0]], (200, 1)), 1.0)
    cloud = np.vstack([line, line[:, ::-1]])
    assert len(line) ** 2 > 2 * _BLOCK  # the line's windows fill several chunks
    assert data_stabilizer_labels(group, cloud) == ("e", "swap")
    assert data_stabilizer_labels(group, cloud[1:]) == ("e",)
    assert all_pairs_stabilizer(group, cloud[1:]) == ("e",)


@pytest.mark.parametrize("nudge, expected", [(0.999, ("e", "swap")), (1.001, ("e",))])
def test_stabilizer_window_keeps_a_match_displaced_along_the_sort_key(nudge, expected):
    group = builtin_group("toggle_switch")
    x = np.array([2.0, 1.0])
    image = x[::-1]
    # the whole displacement shows in the sort key, so only a window at least
    # as wide as the match tolerance finds the partner
    partner = image + nudge * 1e-8 * (1.0 + np.linalg.norm(image)) * _sort_direction(2)
    cloud = np.array([x, partner])
    assert all_pairs_stabilizer(group, cloud) == expected
    assert data_stabilizer_labels(group, cloud) == expected


@pytest.mark.parametrize("nudge, expected", [(0.999, ("e", "swap")), (1.001, ("e",))])
def test_stabilizer_window_of_each_image_is_as_wide_as_its_own_radius(nudge, expected):
    """Such pairs at scales from 1 to 1000, in shuffled rows: a window as
    wide as another image's radius would miss a larger image's partner."""
    group = builtin_group("toggle_switch")
    cloud = []
    for scale in np.geomspace(1.0, 1000.0, 12):
        x = scale * np.array([2.0, 1.0])
        image = x[::-1]
        cloud += [x, image + nudge * 1e-8 * (1.0 + np.linalg.norm(image)) * _sort_direction(2)]
    cloud = np.array(cloud)[np.random.default_rng(8).permutation(24)]
    assert all_pairs_stabilizer(group, cloud) == expected
    assert data_stabilizer_labels(group, cloud) == expected
