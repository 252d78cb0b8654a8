"""Observable dictionaries and their induced group representations.

A dictionary is an ordered set of scalar observables psi_1..psi_K with a
vector-valued evaluation Psi(x). For a group element gamma acting on state
space, the induced feature-space representation is the K x K matrix R with

    Psi(gamma x) = R Psi(x)   for all x,

which exists exactly when the span of the dictionary is invariant under the
substitution. R is what conjugation transport of a fitted operator needs;
it has a closed form for identity and monomial dictionaries and their
transformed wrappers, and any other dictionary is transported by its
dictionary instead (``equivariant.transport_case2``), which needs no R.

Monomial ordering contract: graded lexicographic, i.e. ascending total
degree, and within a degree the order produced by
``itertools.combinations_with_replacement`` on variable indices
(for dim=2, degree 2: x1^2, x1*x2, x2^2). Representation matrices are only
reproducible relative to this fixed ordering.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, json_matrix
from .groups import GroupElement


class Dictionary:
    """Base class: subclasses set kind, dim, size, labels and implement the
    batched ``_evaluate``, which maps a dim x M block of column-states to the
    size x M block of their features. Both public entry points validate the
    shape and go through it."""

    kind = "abstract"

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InputError(
                f"state shape {x.shape} does not match dictionary dim {self.dim}"
            )
        return self._evaluate(x[:, None])[:, 0]

    def evaluate_matrix(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.dim:
            raise InputError(
                f"expected a {self.dim} x M state matrix, got shape {X.shape}"
            )
        return self._evaluate(X)

    def _evaluate(self, X):
        raise NotImplementedError

    def to_spec(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} size={self.size}>"


class IdentityDictionary(Dictionary):
    """Psi(x) = x; EDMD with this dictionary is plain DMD."""

    kind = "identity"

    def __init__(self, dim):
        if dim < 1:
            raise InputError("dim must be positive")
        self.dim = int(dim)
        self.size = self.dim
        self.labels = tuple(f"x{i + 1}" for i in range(dim))

    def _evaluate(self, X):
        return X.copy()

    def to_spec(self):
        return {"kind": "identity", "dim": self.dim}


def _monomial_label(exponents):
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


class MonomialDictionary(Dictionary):
    """Every monomial of total degree in [0 or 1, max_degree], graded-lex."""

    kind = "monomial"

    def __init__(self, dim, max_degree, include_constant=True):
        if dim < 1 or max_degree < 1:
            raise InputError("dim and max_degree must be positive")
        self.dim = int(dim)
        self.max_degree = int(max_degree)
        self.include_constant = bool(include_constant)
        exponents = []
        for degree in range(0 if include_constant else 1, max_degree + 1):
            for combo in itertools.combinations_with_replacement(
                range(dim), degree
            ):
                e = [0] * dim
                for v in combo:
                    e[v] += 1
                exponents.append(tuple(e))
        self.exponents = tuple(exponents)
        self.size = len(exponents)
        self.labels = tuple(_monomial_label(e) for e in exponents)
        index_of = {e: k for k, e in enumerate(exponents)}
        # each monomial is its graded-lex parent (one power fewer of its
        # last variable) times that variable; None stands for the factor 1
        self._products = []
        for k, e in enumerate(exponents):
            if any(e):
                i = max(v for v in range(dim) if e[v])
                parent = e[:i] + (e[i] - 1,) + e[i + 1:]
                self._products.append((k, index_of.get(parent), i))
        # _times[k][j] is the index of monomial k times x_j (None above
        # max_degree); the last row is the factor 1's
        self._times = [
            [index_of.get(e[:j] + (e[j] + 1,) + e[j + 1:]) for j in range(dim)]
            for e in (*exponents, (0,) * dim)
        ]

    def _evaluate(self, X):
        # one row product per monomial, x1^a1 * ... * xd^ad multiplied out
        # left to right, so each row is bit for bit the per-factor loop's
        out = np.empty((self.size, X.shape[1]))
        if self.include_constant:
            out[0] = 1.0
        for k, parent, i in self._products:
            if parent is None:
                out[k] = X[i]
            else:
                np.multiply(out[parent], X[i], out=out[k])
        return out

    def to_spec(self):
        return {
            "kind": "monomial",
            "dim": self.dim,
            "max_degree": self.max_degree,
            "include_constant": self.include_constant,
        }


class CustomDictionary(Dictionary):
    """User-supplied scalar observables. Each is called once on the whole
    dim x N block of column-states and returns its N real values, shape
    (N,): ``lambda x: np.sin(x[0]) * x[1]``. Anything else is an InputError."""

    kind = "custom"

    def __init__(self, dim, observables, labels=None):
        if not observables:
            raise InputError("need at least one observable")
        self.dim = int(dim)
        self.observables = tuple(observables)
        self.size = len(self.observables)
        self.labels = tuple(labels) if labels else tuple(
            f"psi{k + 1}" for k in range(self.size)
        )
        if len(self.labels) != self.size:
            raise InputError("labels and observables must have equal length")

    def _evaluate(self, X):
        out = np.empty((self.size, X.shape[1]))
        for row, f, label in zip(out, self.observables, self.labels):
            values = np.asarray(f(X))
            if values.shape != row.shape or values.dtype.kind == "c":
                raise InputError(f"observable {label!r} returned {values.dtype} of shape "
                                 f"{values.shape}, expected real values of shape {row.shape}")
            row[:] = values
        return out

    def to_spec(self):
        # callables are not serializable; the spec records shape only
        return {"kind": "custom", "dim": self.dim, "size": self.size,
                "labels": list(self.labels)}


class TransformedDictionary(Dictionary):
    """A dictionary composed with the inverse action of a group element:
    psi'_k(x) = psi_k(gamma^-1 x). This is the dictionary an operator keeps
    when it is transported by reusing the same matrix on a mapped set. gamma
    must be orthogonal (a GroupElement checks it), so gamma^T is gamma^-1."""

    kind = "transformed"

    def __init__(self, base, gamma, element_label):
        gamma = GroupElement(element_label, gamma).matrix
        if gamma.shape != (base.dim, base.dim):
            raise InputError("gamma shape does not match base dictionary dim")
        self.base = base
        self.gamma = gamma
        self.element_label = element_label
        self.dim = base.dim
        self.size = base.size
        self.labels = tuple(f"{lbl}.{element_label}" for lbl in base.labels)

    def _evaluate(self, X):
        return self.base._evaluate(self.gamma.T @ X)

    def to_spec(self):
        return {
            "kind": "transformed",
            "base": self.base.to_spec(),
            "matrix": self.gamma.tolist(),
            "element_label": self.element_label,
        }


_SPEC_KINDS = {int: "an integer", bool: "true or false", str: "a string"}


def _spec_value(key, value, kind):
    """``value``, the spec's ``key``, if it is of ``kind``, one of
    _SPEC_KINDS (a JSON true is no integer); otherwise a ConfigurationError
    naming the key."""
    if type(value) is not kind:
        raise ConfigurationError(
            f"dictionary {key!r} must be {_SPEC_KINDS[kind]}, got {value!r}")
    return value


def dictionary_from_spec(spec, dim=None):
    """Build a dictionary from its JSON spec; ``dim`` fills in when the
    spec omits it (e.g. {"kind": "identity"})."""
    if type(spec) is not dict:
        raise ConfigurationError(f"dictionary spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    d = spec.get("dim", dim)
    if kind in ("identity", "monomial"):
        if d is None:
            raise ConfigurationError("dictionary spec needs a 'dim'")
        d = _spec_value("dim", d, int)
    if kind == "identity":
        return IdentityDictionary(d)
    if kind == "monomial":
        return MonomialDictionary(
            d,
            max_degree=_spec_value("max_degree", spec.get("max_degree", 2), int),
            include_constant=_spec_value(
                "include_constant", spec.get("include_constant", True), bool),
        )
    if kind == "transformed":
        for key in ("base", "matrix"):
            if key not in spec:
                raise ConfigurationError(f"transformed dictionary spec needs {key!r}")
        base = dictionary_from_spec(spec["base"], dim=d)
        label = _spec_value("element_label", spec.get("element_label", "g"), str)
        return TransformedDictionary(base, json_matrix(spec["matrix"], "matrix"), label)
    if kind == "custom":
        raise ConfigurationError(
            "custom dictionaries hold callables and cannot be rebuilt from JSON"
        )
    raise ConfigurationError(f"unknown dictionary kind {kind!r}")


def lift(dictionary, pairs):
    """Lift snapshot pairs into feature space: Yp = Psi(Xp), Yf = Psi(Xf)."""
    if pairs.dim != dictionary.dim:
        raise InputError("snapshot dimension does not match dictionary")
    return dictionary.evaluate_matrix(pairs.Xp), dictionary.evaluate_matrix(pairs.Xf)


# ---------------------------------------------------------------------------
# induced representation

@dataclass(frozen=True)
class FeatureRepresentation:
    """The exact K x K matrix R with Psi(gamma x) = R Psi(x)."""

    label: str
    matrix: np.ndarray

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def inverse_matrix(self):
        if _is_signed_permutation(self.matrix):
            return self.matrix.T
        return np.linalg.inv(self.matrix)


def _is_signed_permutation(m):
    nonzero = m != 0.0
    return bool(np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1)
                and np.all(np.abs(m[nonzero]) == 1.0))


def has_exact_representation(dictionary):
    """Whether R has a closed form for ``dictionary``: identity and monomial
    dictionaries and transformed wrappers of them, not custom ones."""
    while dictionary.kind == "transformed":
        dictionary = dictionary.base
    return dictionary.kind in ("identity", "monomial")


def _exact_representation(dictionary, M):
    """R with Psi(M x) = R Psi(x) for a linear map M: M itself for identity
    dictionaries, each monomial expanded in the linear forms of M, and for a
    wrapper of matrix T its base's R at T^T M T."""
    if dictionary.kind == "identity":
        return M.copy()
    if dictionary.kind == "transformed":  # psi(T^T M x) = psi(T^T M T T^T x)
        T = dictionary.gamma
        return _exact_representation(dictionary.base, T.T @ M @ T)
    # psi_k(M x) is its parent's row times the linear form M[i] . x, on sparse
    # rows {monomial index: coefficient}; the factor 1 is the constant's
    # index, or the extra row of _times. Exact zeros of M are skipped, so a
    # signed permutation yields exactly one +-1.0 per row.
    forms = [[(j, c) for j, c in enumerate(row) if c != 0.0] for row in M.tolist()]
    times = dictionary._times
    one = {0 if dictionary.include_constant else dictionary.size: 1.0}
    rows = [one] if dictionary.include_constant else []
    for k, parent, i in dictionary._products:
        row = {}
        for e, a in (one if parent is None else rows[parent]).items():
            e_times = times[e]
            for j, c in forms[i]:
                e_j = e_times[j]
                row[e_j] = row.get(e_j, 0.0) + a * c
        rows.append(row)
    R = np.zeros((dictionary.size, dictionary.size))
    for k, row in enumerate(rows):
        for e, v in row.items():
            R[k, e] = v
    return R


def induced_representation(dictionary, g):
    """The feature-space representation R of a group element, exact (see
    ``_exact_representation``). A dictionary with no closed-form R (a custom
    one, or a transformed wrapper of one) raises InputError: such an operator
    is transported by its dictionary (``equivariant.transport_case2``)."""
    if dictionary.dim != g.dim:
        raise InputError("dictionary and element dimensions differ")
    if not has_exact_representation(dictionary):
        raise InputError(
            f"{dictionary!r} has no closed-form representation of {g.label!r}; "
            "transport it by its dictionary (transport_case2) instead")
    return FeatureRepresentation(label=g.label,
                                 matrix=_exact_representation(dictionary, g.matrix))
