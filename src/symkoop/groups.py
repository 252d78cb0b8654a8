"""Finite symmetry groups realized as orthogonal state-space matrices.

A group is generated from matrix generators by closing under products,
stored as an ordered element list (identity first) plus a Cayley table of
product indices. Group elements act on states by matrix multiplication and
on scalar observables by ``(g * f)(x) = f(g^-1 x)``.
"""

import functools
import reprlib
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, builtin_system, step
from .errors import (
    ConfigurationError,
    InputError,
    NonFiniteGroupError,
    SymkoopError,
    json_matrix,
    read_json,
    write_json,
)

MATRIX_MATCH_TOL = 1e-10  # max-norm tolerance for element identification
_INCONSISTENT = "element matching at MATRIX_MATCH_TOL is inconsistent for these generators"
ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class GroupElement:
    """A labeled orthogonal matrix acting on state space."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"element {self.label!r}: matrix must be square")
        if not np.isfinite(m).all():
            raise InputError(f"element {self.label!r}: matrix contains NaN or Inf")
        defect = np.max(np.abs(m.T @ m - np.eye(m.shape[0])))
        if defect > ORTHOGONALITY_TOL:
            raise InputError(
                f"element {self.label!r} is not orthogonal (defect {defect:.3e})"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def inverse_matrix(self):
        # valid because construction enforces orthogonality
        return self.matrix.T


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
class IsotropyReport:
    """Subset of element indices fixing a sampled trajectory."""

    member_indices: tuple
    is_subgroup: bool
    tolerance: float


@dataclass(frozen=True)
class EquivarianceReport:
    """Per-element equivariance defects of the one-step map."""

    entries: tuple  # of (label, max_defect, passed)
    tolerance: float

    @property
    def all_passed(self):
        return all(passed for _, _, passed in self.entries)

    def to_dict(self):
        return {
            "tolerance": self.tolerance,
            "all_passed": self.all_passed,
            "elements": [
                {"label": lbl, "max_defect": defect, "passed": passed}
                for lbl, defect, passed in self.entries
            ],
        }


_BLOCK = 1 << 14  # candidate pairs tested per step in _window_matches


@functools.cache
def _sort_direction(k):
    """The unit vector that sorts points in _window_matches: a seeded Gaussian
    draw, so symmetric point sets rarely tie on it. Cached, so read-only."""
    u = np.random.default_rng(0).standard_normal(k)
    u /= np.linalg.norm(u)
    u.flags.writeable = False
    return u


def _window_matches(points, queries, radius, close):
    """For each query row (m, k), the lowest index i of a point row (n, k)
    that ``close(queries[rows] - points[i], rows)`` accepts, or -1; ``close``
    may accept only pairs within ``radius`` (scalar or per query) in 2-norm.

    As |u.q - u.p| <= |q - p| for the unit vector u, binary search on the
    sorted keys u.p finds all points a query can accept; those pairs are
    tested _BLOCK at a time. Cost: O((n + m) log n) plus the pairs (about m
    if the points spread along u, n * m if all tie), in O((n + m + _BLOCK) k)
    memory.
    """
    n, k = points.shape
    u = _sort_direction(k)
    keys = points @ u
    order = np.argsort(keys)  # ties need no order: a window holds all of them
    keys = keys[order]
    # rounding of both keys (|p| <= |q| + radius) and of the caller's distance
    slack = 4 * k * np.finfo(float).eps
    at = queries @ u
    half = radius + slack * (1.0 + radius + np.linalg.norm(queries, axis=1))
    lo = np.searchsorted(keys, at - half, side="left")
    counts = np.searchsorted(keys, at + half, side="right") - lo
    # pair p belongs to query rows[p], with ends[r - 1] <= p < ends[r]
    ends = np.cumsum(counts)
    total = ends[-1] if len(ends) else 0
    best = np.full(len(queries), n)
    for start in range(0, total, _BLOCK):
        pair = np.arange(start, min(start + _BLOCK, total))
        rows = np.searchsorted(ends, pair, side="right")
        cand = order[lo[rows] + pair - (ends[rows] - counts[rows])]
        ok = close(queries[rows] - points[cand], rows)
        np.minimum.at(best, rows[ok], cand[ok])
    return np.where(best < n, best, -1)


def _first_matches(stack, ms):
    """For each matrix of ms (..., dim, dim), in C order, the index of the
    first matrix of the (n, dim, dim) stack within MATRIX_MATCH_TOL of it in
    max norm (so within dim * MATRIX_MATCH_TOL in 2-norm), or -1."""
    dim = ms.shape[-1]
    return _window_matches(
        stack.reshape(-1, dim * dim), ms.reshape(-1, dim * dim),
        dim * MATRIX_MATCH_TOL,
        lambda diff, rows: np.max(np.abs(diff), axis=1) <= MATRIX_MATCH_TOL,
    )


def _replay_discovery(known, n_gen):
    """The breadth-first discovery order of the group whose elements are the
    (order, dim, dim) ``known``, the identity and ``n_gen - 1`` generators
    first. Element i, taken in index order (which is breadth-first order), is
    multiplied with the n elements found before its row, in the order
    g_i g_0, g_0 g_i, g_i g_1, g_1 g_i, ..., and a product equal to no element
    found so far is the next element. Products are looked up in the Cayley
    table of ``known``, matched in one call. Returns the factors (a, b) of
    each element after the generators, and the Cayley table in discovery
    order that the matcher should return.
    """
    order = len(known)
    table = _first_matches(known, known[:, None] @ known[None]).reshape(order, -1)
    if table.min() < 0:
        raise SymkoopError(_INCONSISTENT)
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
    return factors, slot[table[np.ix_(at, at)]]


def generate_group(generators, max_order=64, dim=None):
    """Close a set of orthogonal generators under multiplication.

    The identity gets index 0 (inserted if absent); products keep the label
    of the earliest discovered equivalent, new ones are labeled
    ``"<a>*<b>"``. Raises NonFiniteGroupError if closure exceeds
    ``max_order`` elements, and InputError on dimension mismatches and on a
    label that names more than one element.

    The elements are found first, as words in the generators; the order,
    labels and matrices are then those of a breadth-first closure under
    all products, replayed on their Cayley table (see _replay_discovery).
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
    # new ones in another.
    known = given[first == np.arange(len(given))]
    frontier = known[1:]
    while len(frontier):
        prods = (frontier[:, None] @ known[None, 1:n_gen]).reshape(-1, dim, dim)
        prods = prods[_first_matches(known, prods) < 0]
        if len(prods) > 1:
            prods = prods[_first_matches(prods, prods) == np.arange(len(prods))]
        if len(prods) and len(known) + len(prods) > max_order:
            raise NonFiniteGroupError(
                f"closure exceeded max_order={max_order}; "
                "generators may not generate a finite group "
                "at this matching tolerance"
            )
        known = np.concatenate([known, prods])
        frontier = prods

    factors, expected = (_replay_discovery(known, n_gen) if len(known) > n_gen
                         else ([], None))
    labels = [g.label for g in elements]
    matrices = [g.matrix for g in elements]
    for a, b in factors:
        labels.append(f"{labels[a]}*{labels[b]}")
        matrices.append(matrices[a] @ matrices[b])
    if len(set(labels)) < len(labels):
        twice = next(lbl for k, lbl in enumerate(labels) if lbl in labels[:k])
        raise InputError(f"label {twice!r} names more than one group element")
    elements += [GroupElement(lbl, m) for lbl, m in zip(labels[n_gen:], matrices[n_gen:])]

    stack = np.array(matrices)
    products = stack[:, None] @ stack[None]  # [i, j] = g_i g_j
    cayley = _first_matches(stack, products).reshape(len(stack), -1)
    # equal tables mean that each product the replay took as new (or as an
    # earlier element) is new (or that element) to the matcher as well; a
    # replay that found too few elements gives a table of another shape
    if expected is not None and not np.array_equal(cayley, expected):
        raise SymkoopError(_INCONSISTENT)

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


def check_axioms(group):
    """Exhaustively verify closure, identity, inverses, and associativity
    on the Cayley table. Returns a dict report with per-axiom booleans;
    associativity is only evaluated on a closed table."""
    n = group.order
    cayley = group.cayley
    closure = bool(np.all((cayley >= 0) & (cayley < n)))
    identity = bool(
        np.all(cayley[0] == np.arange(n)) and np.all(cayley[:, 0] == np.arange(n))
    )
    inverses = bool(np.all(np.any(cayley == 0, axis=1)))
    # row i at a time, in O(n^2) memory: [j, k] is (g_i g_j) g_k vs g_i (g_j g_k)
    assoc = closure and all(np.array_equal(cayley[row], row[cayley]) for row in cayley)
    ok = closure and identity and inverses and assoc
    return {
        "order": n,
        "closure": closure,
        "identity": identity,
        "inverses": inverses,
        "associativity": assoc,
        "ok": ok,
    }


def builtin_group(system_name):
    """The declared symmetry group of a built-in system."""
    gens = [  # copies: a caller may make this group's matrices read-only
        GroupElement(label, np.array(matrix))
        for label, matrix in builtin_system(system_name).generators
    ]
    return generate_group(gens)


# ---------------------------------------------------------------------------
# actions

def act_on_state(g, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (g.dim,):
        raise InputError(f"state shape {x.shape} does not match element dim {g.dim}")
    return g.matrix @ x


def act_on_function(g, f):
    """Return the observable x -> f(g^-1 x)."""
    ginv = g.inverse_matrix

    def transformed(x):
        return f(ginv @ np.asarray(x, dtype=float))

    return transformed


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

def check_equivariance(system, group, dt, samples, tol=1e-12):
    """Measure, per non-identity element, the worst relative defect of
    step(g x) - g step(x) over the sample states (rows), stepped as one
    block per element."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    stepped = step(system, samples, dt)
    scale = 1.0 + np.linalg.norm(stepped, axis=1)
    entries = []
    for g in group.elements[1:]:
        lhs = step(system, samples @ g.matrix.T, dt)
        defect = np.linalg.norm(lhs - stepped @ g.matrix.T, axis=1) / scale
        worst = float(defect.max(initial=0.0))
        entries.append((g.label, worst, worst <= tol))
    return EquivarianceReport(entries=tuple(entries), tolerance=tol)


def _isotropy_report(group, members, tol):
    member_set = set(members)
    is_subgroup = all(
        group.multiply(i, j) in member_set for i in members for j in members
    )
    return IsotropyReport(
        member_indices=tuple(members), is_subgroup=is_subgroup, tolerance=tol
    )


def isotropy_set(group, traj, tol=1e-8):
    """Elements fixing every sampled state of the trajectory, membership
    decided by the relative test |g x_t - x_t| <= tol (1 + |x_t|)."""
    states = traj.states
    norms = 1.0 + np.linalg.norm(states, axis=1)
    members = []
    for i, g in enumerate(group.elements):
        residual = np.linalg.norm(states @ g.matrix.T - states, axis=1)
        if np.all(residual <= tol * norms):
            members.append(i)
    return _isotropy_report(group, members, tol)


def conjugate_isotropy(group, report, g):
    """Isotropy of the transformed trajectory, computed algebraically as
    the conjugate subgroup {g h g^-1 : h in members} via the Cayley table."""
    gi = int(_first_matches(np.array([h.matrix for h in group.elements]),
                            g.matrix[None])[0])
    if gi < 0:
        raise InputError(f"element {g.label!r} not found in group")
    gi_inv = group.inverse_index(gi)
    members = sorted(
        group.multiply(group.multiply(gi, j), gi_inv) for j in report.member_indices
    )
    return _isotropy_report(group, members, report.tolerance)


# ---------------------------------------------------------------------------
# JSON format: {"dim": n, "generators": [{"label": ..., "matrix": [[...]]}]}

def group_to_dict(group):
    gen_labels = group.generator_labels or tuple(
        g.label for g in group.elements[1:]
    )
    generators = [
        {"label": lbl, "matrix": group.element(lbl).matrix.tolist()}
        for lbl in gen_labels
    ]
    return {"dim": group.dim, "generators": generators}


def group_from_dict(data, max_order=64):
    entries = data.get("generators", [])
    if type(entries) is not list or any(type(e) is not dict for e in entries):
        raise ConfigurationError(
            f"generators must be a list of objects, got {reprlib.repr(entries)}")
    gens = []
    for entry in entries:
        if type(entry["label"]) is not str:
            raise ConfigurationError(
                f"generator label must be a string, got {entry['label']!r}")
        gens.append(GroupElement(entry["label"], json_matrix(entry["matrix"], "matrix")))
    return generate_group(gens, max_order=max_order, dim=data.get("dim"))


def save_group(group, path):
    write_json(path, group_to_dict(group))


def load_group(path, max_order=64):
    return read_json(path, lambda data: group_from_dict(data, max_order=max_order))
