"""Finite symmetry groups realized as orthogonal state-space matrices.

A group is generated from matrix generators by closing under products,
stored as an ordered element list (identity first) plus a Cayley table of
product indices. Group elements act on states by matrix multiplication and
on scalar observables by ``(g * f)(x) = f(g^-1 x)``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _read_only, make_system, step
from .errors import (
    InputError,
    NonFiniteGroupError,
    SymkoopError,
    json_matrix,
    json_value,
    read_json,
    write_json,
)

MATRIX_MATCH_TOL = 1e-10  # max-norm tolerance for element identification
_INCONSISTENT = "element matching at MATRIX_MATCH_TOL is inconsistent for these generators"
ORTHOGONALITY_TOL = 1e-10
DEFAULT_MAX_ORDER = 64  # closure limit unless the caller or a group file sets one
EQUIVARIANCE_TOL = 1e-12  # relative one-step defect check_equivariance passes
AXIOMS = ("closure", "identity", "inverses", "associativity")  # check_axioms' keys


def _check_elements(labels, stack):
    """Raise InputError for the first matrix of the (n, dim, dim) float
    stack, named by ``labels``, that holds NaN or Inf or whose defect
    max|m^T m - I| exceeds ORTHOGONALITY_TOL: the one rule every group
    element passes."""
    n = len(stack)  # then the index of the first matrix with NaN or Inf
    if not np.isfinite(stack).all():
        n = int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))
    m = stack[:n]
    defect = np.abs(np.swapaxes(m, 1, 2) @ m - np.eye(stack.shape[-1]))
    if n and defect.max() > ORTHOGONALITY_TOL:
        worst = defect.max(axis=(1, 2))
        k = np.flatnonzero(worst > ORTHOGONALITY_TOL)[0]
        raise InputError(f"element {labels[k]!r} is not orthogonal (defect {worst[k]:.3e})")
    if n < len(stack):
        raise InputError(f"element {labels[n]!r}: matrix contains NaN or Inf")


@dataclass(frozen=True)
class GroupElement:
    """A labeled orthogonal matrix acting on state space."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"element {self.label!r}: matrix must be square")
        _check_elements([self.label], m[None])
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _checked(cls, label, matrix):
        """The element of a float matrix that _check_elements has passed."""
        g = object.__new__(cls)
        object.__setattr__(g, "label", label)
        object.__setattr__(g, "matrix", matrix)
        return g

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """Ordered elements (index 0 = identity) with their Cayley table."""

    elements: tuple
    cayley: np.ndarray  # (order, order) int, cayley[i][j] = index of g_i g_j
    dim: int
    generator_labels: tuple = ()

    @property
    def order(self):
        return len(self.elements)

    @property
    def identity(self):
        return self.elements[0]

    def labels(self):
        return [g.label for g in self.elements]

    def index_of(self, label):
        for i, g in enumerate(self.elements):
            if g.label == label:
                return i
        raise InputError(f"no element labeled {label!r} in group")

    def element(self, label):
        return self.elements[self.index_of(label)]

    def multiply(self, i, j):
        return int(self.cayley[i, j])

    def inverse_index(self, i):
        hits = np.nonzero(self.cayley[i] == 0)[0]
        if len(hits) != 1:
            raise SymkoopError(f"element index {i} has no unique inverse")
        return int(hits[0])


@dataclass(frozen=True)
class EquivarianceReport:
    """Per-element equivariance defects of the one-step map."""

    entries: tuple  # of (label, max_defect, passed)

    @property
    def all_passed(self):
        return all(passed for _, _, passed in self.entries)


_BLOCK = 1 << 14  # candidate pairs tested per step in _SortedPoints.matches


@functools.cache
def _sort_direction(k):
    """The unit vector that sorts points in _SortedPoints: a seeded Gaussian
    draw, so symmetric point sets rarely tie on it. Cached, so read-only."""
    u = np.random.default_rng(0).standard_normal(k)
    u /= np.linalg.norm(u)
    return _read_only(u)


class _SortedPoints:
    """Point rows (n, k) sorted once by their keys u.p along the unit vector
    u = _sort_direction(k), to serve any number of query sets.

    As |u.q - u.p| <= |q - p|, binary search on the sorted keys finds all
    points a query can accept; those pairs are tested _BLOCK at a time. A
    query set is searched in the order of its own keys, so both binary
    searches run on (nearly) sorted window ends. Cost per query set of m
    rows: O(m log m + m log n) plus the pairs (about m if the points spread
    along u, n * m if all tie), in O((n + m + _BLOCK) k) memory.
    """

    def __init__(self, points):
        self.points = points
        self.u = _sort_direction(points.shape[1])
        keys = points @ self.u
        self.order = np.argsort(keys)  # ties need no order: a window holds all of them
        self.keys = keys[self.order]
        # rounding of both keys (|p| <= |q| + radius) and of the caller's distance
        self.slack = 4 * points.shape[1] * np.finfo(float).eps

    def matches(self, queries, radius, close, norms=None):
        """For each query row (m, k), the lowest index i of a point row that
        ``close(queries[rows] - points[i], rows)`` accepts, or -1; ``close``
        may accept only pairs within ``radius`` (scalar or per query) in
        2-norm. ``norms`` are the queries' 2-norms, if the caller has them."""
        n = len(self.points)
        if norms is None:
            norms = np.linalg.norm(queries, axis=1)
        at = queries @ self.u
        half = radius + self.slack * (1.0 + radius + norms)
        by_key = np.argsort(at)  # rows in key order
        at, half = at[by_key], half[by_key]
        lo = np.searchsorted(self.keys, at - half, side="left")
        counts = np.searchsorted(self.keys, at + half, side="right") - lo
        # pair p belongs to query by_key[r], with ends[r - 1] <= p < ends[r],
        # and is its window's point lo[r] + p - ends[r - 1]
        ends = np.cumsum(counts)
        total = ends[-1] if len(ends) else 0
        shift = lo - (ends - counts)
        best = np.full(len(queries), n)
        for start in range(0, total, _BLOCK):
            pair = np.arange(start, min(start + _BLOCK, total))
            r = np.searchsorted(ends, pair, side="right")
            rows = by_key[r]
            cand = self.order[shift[r] + pair]
            ok = close(queries[rows] - self.points[cand], rows)
            np.minimum.at(best, rows[ok], cand[ok])
        return np.where(best < n, best, -1)


def _first_matches(stack, ms):
    """For each matrix of ms (..., dim, dim), in C order, the index of the
    first matrix of the (n, dim, dim) stack within MATRIX_MATCH_TOL of it in
    max norm (so within dim * MATRIX_MATCH_TOL in 2-norm), or -1."""
    dim = ms.shape[-1]
    return _SortedPoints(stack.reshape(-1, dim * dim)).matches(
        ms.reshape(-1, dim * dim), dim * MATRIX_MATCH_TOL,
        lambda diff, rows: np.max(np.abs(diff), axis=1) <= MATRIX_MATCH_TOL,
    )


def _replay_discovery(table, n_gen):
    """The breadth-first discovery order of the group with the integer Cayley
    table ``table`` (order, order), whose rows are the identity and
    ``n_gen - 1`` generators first. Element i, taken in index order (which is
    breadth-first order), is multiplied with the n elements found before its
    row, in the order g_i g_0, g_0 g_i, g_i g_1, g_1 g_i, ..., and a product
    equal to no element found so far is the next element. Returns the
    factors (a, b) of each element after the generators, the row of
    ``table`` that each element is, and the table in discovery order.
    """
    order = len(table)
    at = np.arange(order)  # element i is row at[i] of the table
    slot = np.where(at < n_gen, at, -1)  # row c is element slot[c], -1 until found
    factors = []
    n = n_gen
    for i in range(order):
        if n == order or i == n:
            break  # all found, or none can be
        row = np.empty(2 * n, int)
        row[0::2] = table[at[i], at[:n]]
        row[1::2] = table[at[:n], at[i]]
        for m in np.flatnonzero(slot[row] < 0):
            if slot[row[m]] < 0:  # not found earlier in this row
                slot[row[m]], at[n] = n, row[m]
                factors.append((i, m // 2) if m % 2 == 0 else (m // 2, i))
                n += 1
    if n < order:
        raise SymkoopError(_INCONSISTENT)
    return factors, at, slot[table[np.ix_(at, at)]]


def generate_group(generators, max_order=DEFAULT_MAX_ORDER, dim=None):
    """Close a set of orthogonal generators under multiplication.

    The identity gets index 0 (inserted if absent); products keep the label
    of the earliest discovered equivalent, new ones are labeled
    ``"<a>*<b>"``. Raises NonFiniteGroupError if closure exceeds
    ``max_order`` elements, and InputError on dimension mismatches and on a
    label that names more than one element.

    The elements are found first, as words in the generators, with the
    index of each element times each generator; the Cayley table follows
    from those by columns. The order, labels and matrices are then those of
    a breadth-first closure under all products, replayed on that table (see
    _replay_discovery).
    """
    generators = list(generators)
    if not generators and dim is None:
        raise InputError("empty generator set requires an explicit dim")
    dim = generators[0].dim if dim is None else dim
    if type(dim) is not int or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    for g in generators:
        if g.dim != dim:
            raise InputError(f"generator {g.label!r} is {g.dim} x {g.dim}, but dim is {dim}")

    # A generator's first match among the identity and all generators is
    # itself (it is kept), 0 (it relabels the identity) or an earlier one (it
    # is dropped): the same as matching it against those kept before it.
    eye = np.eye(dim)
    given = np.concatenate([eye[None]] + [g.matrix[None] for g in generators])
    first = _first_matches(given, given) if generators else np.zeros(1, int)
    elements, named = [GroupElement("e", eye)], [None]
    for k, g in enumerate(generators, 1):
        if first[k] == k:
            elements.append(g)
            named.append(k)
        elif first[k] == 0:
            elements[0] = GroupElement(g.label, eye)
            named[0] = k
    n_gen = len(elements)
    # the generators that name an element, in the given order: those kept
    # and the last identity generator, whose label e takes; saving them
    # rebuilds this group
    generator_labels = tuple(generators[k - 1].label for k in sorted(filter(None, named)))

    # The elements: each word length's products with a generator on the
    # right, matched against the known elements in one call and among the
    # new ones in another. right[k, s] is the index of known[k] times
    # generator s (known[s + 1]); each word length's new elements are the
    # words known[parent] times generator letter, as the pair in ``words``.
    known = given[first == np.arange(len(given))]
    n_s = n_gen - 1
    right = [np.arange(1, n_gen)[None]]  # the identity's row
    words = [(np.zeros(n_s, int), np.arange(n_s))]
    lo = 1
    while lo < len(known):
        hi = len(known)
        prods = (known[lo:hi, None] @ known[None, 1:n_gen]).reshape(-1, dim, dim)
        hits = _first_matches(known, prods)
        new = np.flatnonzero(hits < 0)
        if len(new):
            # a new product that is its own first match among them is kept
            twin = (_first_matches(prods[new], prods[new]) if len(new) > 1
                    else np.zeros(1, int))
            kept = twin == np.arange(len(new))
            if not kept[twin].all():  # a chain of matches: no element to take
                raise SymkoopError(_INCONSISTENT)
            if hi + kept.sum() > max_order:
                raise NonFiniteGroupError(
                    f"closure exceeded max_order={max_order}; "
                    "generators may not generate a finite group "
                    "at this matching tolerance"
                )
            hits[new] = hi + (np.cumsum(kept) - 1)[twin]
            new = new[kept]
            known = np.concatenate([known, prods[new]])
            words.append((lo + new // n_s, new % n_s))
        right.append(hits.reshape(hi - lo, n_s))
        lo = hi
    right = np.concatenate(right)
    order = len(known)

    # column j of the table: g_i (known[parent] s) = (g_i known[parent]) s
    table = np.empty((order, order), int)
    table[:, 0] = np.arange(order)
    j = 1
    for parent, letter in words:
        table[:, j:j + len(parent)] = right[table[:, parent], letter]
        j += len(parent)

    labels = [g.label for g in elements]
    matrices = [g.matrix for g in elements]
    cayley = table  # the generators alone are in discovery order
    if order > n_gen:
        factors, at, cayley = _replay_discovery(table, n_gen)
        for a, b in factors:
            labels.append(f"{labels[a]}*{labels[b]}")
            matrices.append(matrices[a] @ matrices[b])
        # each stored matrix must be its own word's matrix, so each product
        # the replay took from the table is that product to the tolerance
        stack = np.array(matrices)
        if np.max(np.abs(stack - known[at])) > MATRIX_MATCH_TOL:
            raise SymkoopError(_INCONSISTENT)
    if len(set(labels)) < len(labels):
        twice = next(lbl for k, lbl in enumerate(labels) if lbl in labels[:k])
        raise InputError(f"label {twice!r} names more than one group element")
    if order > n_gen:
        _check_elements(labels[n_gen:], stack[n_gen:])
        elements += [GroupElement._checked(lbl, m)
                     for lbl, m in zip(labels[n_gen:], matrices[n_gen:])]

    group = FiniteMatrixGroup(
        elements=tuple(elements),
        cayley=cayley,
        dim=dim,
        generator_labels=generator_labels,
    )
    report = check_axioms(group)
    if not report["ok"]:
        raise SymkoopError(f"generated table violates group axioms: {report}")
    return group


def _right_generators(group):
    """Element indices S such that every element is in S or is C[w, s] for
    an element w reached before it and s in S (C the Cayley table, which
    must be closed): the group's generators, then each element that right
    multiplication by those before it does not reach."""
    index = {}
    for i, g in enumerate(group.elements):
        index.setdefault(g.label, i)
    gens = list(dict.fromkeys(index[lbl] for lbl in group.generator_labels if lbl in index))
    while True:
        columns = [group.cayley[:, s].tolist() for s in gens]
        reached = [False] * group.order
        for s in gens:
            reached[s] = True
        found = list(gens)
        for x in found:  # grows as it is read: breadth-first
            for column in columns:
                if not reached[column[x]]:
                    reached[column[x]] = True
                    found.append(column[x])
        if len(found) == group.order:
            return gens
        gens.append(reached.index(False))


def check_axioms(group):
    """Verify closure, identity, inverses, and associativity on the whole
    Cayley table. Returns a dict report with per-axiom booleans;
    associativity is only evaluated on a closed table.

    Associativity is Light's test, (x y) s = x (y s) for all x and y and
    each s of a generating set read off the table (_right_generators), in
    O(order^2) time and memory per s. It implies associativity for all z:
    z is s, or w s with w reached before it, and then
    (x y)(w s) = ((x y) w) s = (x (y w)) s = x ((y w) s) = x (y (w s))."""
    n = group.order
    cayley = group.cayley
    closure = bool(np.all((cayley >= 0) & (cayley < n)))
    identity = bool(
        np.all(cayley[0] == np.arange(n)) and np.all(cayley[:, 0] == np.arange(n))
    )
    inverses = bool(np.all(np.any(cayley == 0, axis=1)))
    # [x, y] is (g_x g_y) g_s against g_x (g_y g_s)
    assoc = closure and all(np.array_equal(cayley[:, s][cayley], cayley[:, cayley[:, s]])
                            for s in _right_generators(group))
    held = (closure, identity, inverses, assoc)
    return {"order": n, **dict(zip(AXIOMS, held)), "ok": all(held)}


@functools.cache
def builtin_group(system_name):
    """The declared symmetry group of a built-in system, built once per
    process; its element matrices and Cayley table are read-only."""
    group = generate_group(
        GroupElement(label, matrix) for label, matrix in make_system(system_name).generators
    )
    for array in [g.matrix for g in group.elements] + [group.cayley]:
        _read_only(array)
    return group


# ---------------------------------------------------------------------------
# actions

def transform_trajectory(traj, g):
    """Apply a group element to every sample of a trajectory."""
    if traj.dim != g.dim:
        raise InputError("trajectory and element dimensions differ")
    return Trajectory(dim=traj.dim, dt=traj.dt, states=traj.states @ g.matrix.T)


def transform_snapshots(pairs, g):
    """Apply a group element to both snapshot matrices."""
    if pairs.dim != g.dim:
        raise InputError("snapshot and element dimensions differ")
    from .dynamics import SnapshotPairs

    return SnapshotPairs(dim=pairs.dim, Xp=g.matrix @ pairs.Xp, Xf=g.matrix @ pairs.Xf)


# ---------------------------------------------------------------------------
# checks

def check_equivariance(system, group, dt, samples):
    """Measure, per non-identity element, the worst relative defect of
    step(g x) - g step(x) over the sample states (rows), stepped as one
    block per element; an element passes at EQUIVARIANCE_TOL."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    stepped = step(system, samples, dt)
    scale = 1.0 + np.linalg.norm(stepped, axis=1)
    entries = []
    for g in group.elements[1:]:
        lhs = step(system, samples @ g.matrix.T, dt)
        defect = np.linalg.norm(lhs - stepped @ g.matrix.T, axis=1) / scale
        worst = float(defect.max(initial=0.0))
        entries.append((g.label, worst, worst <= EQUIVARIANCE_TOL))
    return EquivarianceReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# JSON format: {"dim": n, "generators": [{"label": ..., "matrix": [[...]]}]},
# with "max_order": m for a group above DEFAULT_MAX_ORDER elements

def group_to_dict(group):
    gen_labels = group.generator_labels or tuple(
        g.label for g in group.elements[1:]
    )
    generators = [
        {"label": lbl, "matrix": group.element(lbl).matrix.tolist()}
        for lbl in gen_labels
    ]
    data = {"dim": group.dim, "generators": generators}
    if group.order > DEFAULT_MAX_ORDER:
        data["max_order"] = group.order
    return data


def group_from_dict(data):
    """The group of a group file; its ``max_order`` key, if present, replaces
    DEFAULT_MAX_ORDER as the limit of the closure."""
    max_order = json_value(data.get("max_order", DEFAULT_MAX_ORDER), "max_order",
                           "a positive integer")
    gens = [GroupElement(json_value(entry["label"], "generator label", "a string"),
                         json_matrix(entry["matrix"], "matrix"))
            for entry in json_value(data.get("generators", []), "generators",
                                    "a list of objects")]
    dim = json_value(data["dim"], "dim", "a positive integer") if "dim" in data else None
    return generate_group(gens, max_order=max_order, dim=dim)


def save_group(group, path):
    write_json(path, group_to_dict(group))


def load_group(path):
    return read_json(path, group_from_dict)
