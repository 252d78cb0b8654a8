"""Transport of local Koopman operators across symmetry-related invariant
sets, global block-diagonal assembly, and the verification suite.

Two transport routes exist for an operator K_i fitted on an invariant set
M_i when a group element g maps M_i into M_j:

* conjugation (same dictionary on both sets):  K_j = R(g) K_i R(g)^-1, where
  R(g) is the induced feature-space representation of g, when the
  dictionary's ``representation`` has a closed form for it. No matrix is
  inverted: R(g)^-1 is R(g^-1), and g^-1 is g^T for an orthogonal element;
* dictionary transport (same matrix): keep K_j = K_i but evolve the
  transformed dictionary psi_k(gamma^-1 x), exact for any dictionary.

Either way no data from M_j is needed, and each takes the GroupElement g.
``assemble_global`` conjugates where the base dictionary has an R for the
element, and transports the dictionary where it has none. The global
operator on the union of the sets is the block diagonal of the local ones,
and it is stored and applied blockwise so cross-set entries are exactly
zero.
"""

import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dictionaries import (
    FeatureRepresentation,
    TransformedDictionary,
    induced_representation,
)
from .dynamics import _advance_chunk, _check_dt, _check_state, _chunk_steps
from .errors import (
    InputError,
    IsotropyRequiredError,
    NumericalDivergenceError,
    json_matrix,
    json_value,
    read_json,
    write_json,
)
from .groups import _SortedPoints
from .koopman import KoopmanApprox, eigenvalue_hausdorff, predict

STABILIZER_TOL = 1e-8  # relative radius of a data-stabilizer match
_STABILIZER_LEAD = 64  # images of an element the stabilizer matches before the rest
# largest sample coordinate the stabilizer matches: below it no squared norm
# of an image, nor of a difference of two, overflows (for dim < 4e7)
_STABILIZER_MAX_COORD = 1e150


@dataclass(frozen=True)
class InvariantSetRegistry:
    """Labels of the invariant sets, which one carries the data-fitted
    operator, and which group element maps the base set onto each other;
    no two labels map through one element."""

    labels: tuple
    base_label: str
    mapping: dict  # non-base label -> group element label
    samples: Optional[dict] = None  # label -> representative states (n, dim)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels) or not self.labels:
            raise InputError("registry labels must be distinct and nonempty")
        if self.base_label not in self.labels:
            raise InputError(f"base label {self.base_label!r} not in labels")
        stray = sorted(set(self.samples or ()) - set(self.labels))
        if stray:
            raise InputError(
                f"samples for {stray[0]!r}, which is not a registry label; "
                f"labels are {list(self.labels)}"
            )
        expected = set(self.labels) - {self.base_label}
        if set(self.mapping) != expected:
            raise InputError(
                "mapping must cover exactly the non-base labels "
                f"{sorted(expected)}, got {sorted(self.mapping)}"
            )
        first = {}  # element label -> the first label mapped through it
        for label in sorted(self.mapping, key=self.labels.index):
            element = self.mapping[label]
            if first.setdefault(element, label) != label:
                raise InputError(f"registry maps {first[element]!r} and {label!r} "
                                 f"through the same element {element!r}")


@dataclass(frozen=True)
class GlobalKoopman:
    """Block-diagonal composite keyed by invariant-set labels."""

    blocks: tuple  # of (label, KoopmanApprox) in registry order

    @property
    def labels(self):
        return [label for label, _ in self.blocks]

    @property
    def total_size(self):
        return sum(op.size for _, op in self.blocks)

    def block(self, label):
        return self.blocks[self._index(label)][1]

    def block_slice(self, label):
        i = self._index(label)
        start = sum(op.size for _, op in self.blocks[:i])
        return slice(start, start + self.blocks[i][1].size)

    def _index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown invariant-set label {label!r}") from None

    def as_matrix(self):
        """Dense block-diagonal matrix (for export and inspection only;
        prediction never goes through this)."""
        n = self.total_size
        out = np.zeros((n, n))
        start = 0
        for _, op in self.blocks:
            out[start:start + op.size, start:start + op.size] = op.matrix
            start += op.size
        return out


# ---------------------------------------------------------------------------
# transport

def transport_case1(op, g, target_label=None):
    """Conjugate a fitted operator into the image set of the GroupElement g:
    K_j = R(g) K_i R(g^T), where R(g^T) is R(g)^-1 because g is orthogonal.

    The result keeps the same dictionary and carries provenance marking it
    as transported rather than fitted; every other field is the source
    fit's (``_transported``). A dictionary with no closed-form R raises
    InputError (``induced_representation``).
    """
    R = induced_representation(op.dictionary, g).matrix
    r_inv = op.dictionary.representation(g.matrix.T)
    return _transported(op, g.label, "conjugation", target_label,
                        matrix=R @ op.matrix @ r_inv)


def transport_case2(op, g, target_label=None):
    """Transport by transforming the dictionary instead of the matrix.

    The returned operator keeps the matrix K_i unchanged, and its dictionary
    evaluates psi_k(gamma^-1 x); together they govern feature evolution on
    the image set.
    """
    if op.dictionary.dim != g.dim:
        raise InputError("operator dictionary and element dimensions differ")
    return _transported(
        op, g.label, "dictionary", target_label, matrix=op.matrix.copy(),
        dictionary=TransformedDictionary(op.dictionary, g.matrix, g.label))


def _transported(op, element, method, target_label, **changes):
    """``op`` with ``changes``, labeled ``target_label`` (by default
    "<set>:<element>") and marked as carried by ``method`` through
    ``element``; every other field is the base fit's."""
    return replace(
        op, **changes,
        set_label=f"{op.set_label}:{element}" if target_label is None else target_label,
        provenance={"transported": True, "method": method,
                    "base_label": op.set_label, "element": element},
    )


def assemble_global(registry, base, elements):
    """Build the global block-diagonal operator in registry label order.

    ``elements`` maps each non-base label to the GroupElement of its
    registry element. Each is conjugated (``transport_case1``) where the
    base dictionary's ``representation`` has an R for it, and transported by
    the dictionary (``transport_case2``) where it has none. A
    FeatureRepresentation value is read as its element.

    Raises InputError when a label's element is not its registry element;
    ``check_registry`` needs the group to refuse the identity.
    """
    if base.set_label != registry.base_label:
        raise InputError(
            f"base operator is labeled {base.set_label!r}, registry expects "
            f"{registry.base_label!r}"
        )
    blocks = []
    for label in registry.labels:
        if label == registry.base_label:
            blocks.append((label, base))
        else:
            if label not in elements:
                raise InputError(f"no element supplied for {label!r}")
            g = elements[label]
            g = g.element if isinstance(g, FeatureRepresentation) else g
            if g.label != registry.mapping[label]:
                raise InputError(
                    f"element for {label!r} is {g.label!r}, "
                    f"not its registry element {registry.mapping[label]!r}"
                )
            if g.dim != base.dictionary.dim:
                raise InputError("operator dictionary and element dimensions differ")
            transport = (transport_case2 if base.dictionary.representation(g.matrix) is None
                         else transport_case1)
            blocks.append((label, transport(base, g, label)))
    return GlobalKoopman(blocks=tuple(blocks))


def global_predict(gk, label, x0, steps):
    """Evolve a state's features under the global operator.

    The start vector is Psi_label(x0) embedded in the stacked feature space
    with zeros elsewhere. The global operator is block-diagonal, so the
    rest stays exactly zero and the labeled slice is returned: it is
    ``koopman.predict`` on that block, bit for bit.
    """
    return predict(gk.block(label), x0, steps)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class ConjugationReport:
    """How far an independently fitted K_j is from the transported
    R K_i R^-1: the Frobenius error of the matrices, relative to ||K_j||
    (absolute when K_j is zero), and the Hausdorff distance of their
    eigenvalues. Each tier judges the error it
    needs against its own tolerance."""

    frobenius_error: float
    hausdorff_distance: float


def verify_conjugation(op_i, op_j, g):
    """Compare K_j against R(g) K_i R(g)^-1, formed by ``transport_case1``.

    The exact tier (K_j fitted on exactly transformed data) bounds the
    Frobenius error; the statistical tier (K_j fitted on an independent
    trajectory of the mirrored set) bounds the eigenvalue distance.
    """
    if op_i.size != op_j.size:
        raise InputError("operator sizes must match")
    transported = transport_case1(op_i, g).matrix
    error, denom = np.linalg.norm(op_j.matrix - transported), np.linalg.norm(op_j.matrix)
    frob = float(error / denom if denom else error)
    haus = eigenvalue_hausdorff(
        np.linalg.eigvals(op_j.matrix), np.linalg.eigvals(transported)
    )
    return ConjugationReport(frobenius_error=frob, hausdorff_distance=haus)


def data_stabilizer_labels(group, states):
    """Labels of the elements mapping a sample cloud into itself: g
    qualifies when every transformed sample gx lands within
    STABILIZER_TOL * (1 + |gx|) of some sample. This is the setwise-
    stabilizer evidence ``verify_commutation`` asks for.

    The identity (index 0) qualifies without a match. The cloud is sorted
    once (``groups._SortedPoints``), and each other element's images are
    matched against it with radius STABILIZER_TOL * (1 + |gx|): the first
    _STABILIZER_LEAD images, then the rest only if all of those landed, so
    an element that moves the cloud is mostly dropped after a few. Near-
    linear in N unless most samples tie on the sort key, in
    O((N + _BLOCK) * dim) memory.

    Raises InputError for an empty cloud (it would vacuously pass every
    element), a non-finite sample, a coordinate above _STABILIZER_MAX_COORD
    in magnitude (its match radius could overflow to infinity and pass
    every element), or a dimension other than ``group.dim``.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.ndim != 2 or states.shape[1] != group.dim:
        raise InputError(
            f"sample cloud shape {states.shape} does not match group dim {group.dim}"
        )
    if not len(states):
        raise InputError("empty sample cloud: no evidence for any stabilizer")
    if not np.all(np.isfinite(states)):
        raise InputError("sample cloud holds NaN or Inf")
    if np.abs(states).max() > _STABILIZER_MAX_COORD:
        raise InputError(f"sample cloud holds a coordinate above "
                         f"{_STABILIZER_MAX_COORD:g} in magnitude, too large to match")

    cloud = _SortedPoints(states)

    def lands_in_cloud(mapped):
        norms = np.linalg.norm(mapped, axis=1)
        radius = STABILIZER_TOL * (1.0 + norms)
        hits = cloud.matches(mapped, radius, lambda diff, rows:
                             np.linalg.norm(diff, axis=1) <= radius[rows], norms)
        return np.all(hits >= 0)

    def stabilizes(g):
        mapped = states @ g.matrix.T  # one product: each row as the whole cloud's
        return (lands_in_cloud(mapped[:_STABILIZER_LEAD])
                and lands_in_cloud(mapped[_STABILIZER_LEAD:]))

    return (group.identity.label,) + tuple(
        g.label for g in group.elements[1:] if stabilizes(g))


def check_registry(registry, group):
    """Reject a registry that would assemble one invariant set twice.

    Every non-base label must name an element of ``group`` other than the
    identity; the registry itself refuses two labels through one. When the
    registry carries samples of the base set M, orbit-stabilizer sharpens
    this: g_a M = g_b M whenever g_a^-1 g_b lies in the data stabilizer of
    those samples, so two labels whose elements share a coset of it are
    rejected too (the base label counts as the identity). Raises InputError
    naming the first offending pair in registry order.
    """
    indices = [(registry.base_label, 0)]
    for label in registry.labels:
        if label == registry.base_label:
            continue
        element = registry.mapping[label]
        try:
            indices.append((label, group.index_of(element)))
        except InputError:
            raise InputError(
                f"registry maps {label!r} through unknown element {element!r}"
            ) from None
    samples = (registry.samples or {}).get(registry.base_label)
    stabilizer = {0} if samples is None else {
        group.index_of(lbl) for lbl in data_stabilizer_labels(group, samples)
    }
    for n, (label, i) in enumerate(indices):
        for other, j in indices[:n]:
            h = group.multiply(group.inverse_index(j), i)
            if h not in stabilizer:
                continue
            if i == 0:  # always caught against the base label, checked first
                raise InputError(
                    f"registry maps {label!r} through the identity, onto the "
                    f"base set {other!r}"
                )
            raise InputError(
                f"registry labels {other!r} and {label!r} name the same set: "
                f"their elements differ by {group.elements[h].label!r}, which "
                "stabilizes the base samples"
            )


def verify_commutation(op, g, stabilizer_labels):
    """Relative commutator norm ||K R - R K||_F / ||K||_F of R = R(g),
    allowed only for elements g stabilizing the fitted set (its isotropy,
    g . M = M); for anything else finite-dimensional commutation is not
    implied and the check refuses.

    ``stabilizer_labels`` is the caller's evidence, e.g. from
    ``data_stabilizer_labels`` on the fitted samples.
    """
    if g.label not in stabilizer_labels:
        raise IsotropyRequiredError(
            f"element {g.label!r} is not in the isotropy of the fitted set; "
            "commutation with the local operator is only guaranteed for "
            "elements mapping the set to itself (use conjugation transport "
            "across sets instead)"
        )
    K, R = op.matrix, induced_representation(op.dictionary, g).matrix
    return float(np.linalg.norm(K @ R - R @ K) / np.linalg.norm(K))


@dataclass(frozen=True)
class InvariantImageReport:
    """Fraction of transformed samples whose forward orbit stays in the
    claimed image set."""

    fraction: float
    n_samples: int
    horizon: int
    failed_indices: tuple


def verify_invariant_set_image(system, g, samples, dt, horizon, membership):
    """``verify_invariant_set_images`` for the single image (g, membership)."""
    return verify_invariant_set_images(system, [(g, membership)], samples, dt, horizon)[0]


def verify_invariant_set_images(system, images, samples, dt, horizon):
    """Push samples of M_i (rows) through each element g of ``images``, a
    sequence of (g, membership) pairs, and integrate for ``horizon`` steps;
    report per image the fraction whose entire forward orbit satisfies that
    image's membership predicate.

    All images are stepped as one fixed block of columns, image by image in
    sample order. After step 0 the block is stepped a window of steps at a
    time, with the chunking of ``simulate`` (``dynamics._chunk_steps``), and
    each predicate is called once per window on its image's columns of
    every step of the window. One mask ``held`` marks the columns that
    have stayed in their set so far; the loop stops at the horizon or once
    no column is held. A column that leaves stays in the block, but an
    orbit that leaves and later diverges raises nothing: a divergence
    counts only at or before the step its column leaves.

    ``membership`` takes states as columns, a (dim, N) block, and returns a
    boolean mask of shape (N,). The block holds several steps of each
    column, and states after a column has left or gone non-finite, so the
    predicate must judge each column on its own. A divergence names the
    first step, at that step the first sample in image order, and the
    image's element.
    """
    samples = np.atleast_2d(_check_state(system, samples))
    _check_dt(dt)
    if not isinstance(horizon, numbers.Integral) or horizon < 0:
        raise InputError(f"horizon must be a nonnegative integer, got {horizon!r}")
    if len(images) == 0:
        raise InputError("need at least one (element, membership) image")
    n = len(samples)
    if n == 0:
        raise InputError("need at least one sample")
    # column c holds sample c % n of image c // n
    y = np.concatenate([g.matrix @ samples.T for g, _ in images], axis=1)
    held = _memberships(images, y[None], n)[0]
    window = _chunk_steps(y.size)
    k = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while k < horizon and held.any():
            w = min(horizon - k, window)
            states = _advance_chunk(system, y.T, dt, w)
            y = states[-1]
            # per column, the window step it first goes non-finite and the
            # one it first leaves at; w where it does neither
            bad = np.logical_and.accumulate(np.isfinite(states).all(axis=1)).sum(axis=0)
            out = np.logical_and.accumulate(_memberships(images, states, n)).sum(axis=0)
            raises_at = np.where(held & (bad <= out), bad, w)
            column = int(np.argmin(raises_at))
            if raises_at[column] < w:
                step_index = k + 1 + int(raises_at[column])
                image, start = divmod(column, n)
                raise NumericalDivergenceError(
                    f"non-finite state from {system.name!r} at step {step_index} "
                    f"of {horizon} from start {start} under element "
                    f"{images[image][0].label!r}",
                    step_index=step_index, start_index=start,
                )
            held &= out == w
            k += w
    return [
        InvariantImageReport(
            fraction=(n - len(failed)) / n,
            n_samples=n,
            horizon=horizon,
            failed_indices=tuple(failed.tolist()),
        )
        for failed in map(np.flatnonzero, ~held.reshape(len(images), n))
    ]


def _memberships(images, states, n):
    """Each image's predicate on its n columns of the window ``states``
    (w, dim, cols), called once on all w steps as one (dim, w * n) block;
    the flags as a (w, cols) mask."""
    w, dim, cols = states.shape
    inside = np.empty((w, cols), dtype=bool)
    for i, (_, membership) in enumerate(images):
        columns = slice(i * n, (i + 1) * n)
        block = states[:, :, columns].transpose(1, 0, 2).reshape(dim, w * n)
        flags = np.asarray(membership(block), dtype=bool)
        if flags.shape != (w * n,):
            raise InputError("membership must return one boolean per state (column)")
        inside[:, columns] = flags.reshape(w, n)
    return inside


# ---------------------------------------------------------------------------
# JSON formats

def registry_to_dict(registry):
    out = {
        "labels": list(registry.labels),
        "base": registry.base_label,
        "mapping": dict(registry.mapping),
    }
    if registry.samples:
        out["samples"] = {
            label: np.asarray(states).tolist()
            for label, states in registry.samples.items()
        }
    return out


def registry_from_dict(data):
    samples = {label: json_matrix(states, f"samples {label!r}") for label, states
               in json_value(data.get("samples", {}), "samples", "a JSON object").items()}
    labels = json_value(data["labels"], "labels", "a list of strings")
    base = json_value(data.get("base", labels[0] if labels else ""), "base", "a string")
    mapping = json_value(data["mapping"], "mapping", "a JSON object of strings")
    return InvariantSetRegistry(labels=tuple(labels), base_label=base,
                                mapping=dict(mapping), samples=samples)


def save_registry(registry, path):
    write_json(path, registry_to_dict(registry))


def load_registry(path):
    return read_json(path, registry_from_dict)


def global_to_dict(gk):
    from .koopman import operator_to_dict

    return {
        "labels": gk.labels,
        "total_size": gk.total_size,
        "blocks": [
            dict(operator_to_dict(op), label=label) for label, op in gk.blocks
        ],
    }
