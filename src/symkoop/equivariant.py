"""Transport of local Koopman operators across symmetry-related invariant
sets, global block-diagonal assembly, and the verification suite.

Two transport routes exist for an operator K_i fitted on an invariant set
M_i when a group element g maps M_i into M_j:

* conjugation (same dictionary on both sets):  K_j = R K_i R^-1, where R is
  the induced feature-space representation of g;
* dictionary transport (same matrix): keep K_j = K_i but evolve the
  transformed dictionary psi_k(gamma^-1 x).

Either way no data from M_j is needed. The global operator on the union of
the sets is the block diagonal of the local ones, and it is stored and
applied blockwise so cross-set entries are exactly zero.
"""

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dictionaries import TransformedDictionary
from .dynamics import CHUNK_FLOATS, _advance_chunk, _check_dt, _check_state
from .errors import (
    InputError,
    IsotropyRequiredError,
    NumericalDivergenceError,
    SymkoopError,
    json_matrix,
    read_json,
    write_json,
)
from .groups import _window_matches
from .koopman import KoopmanApprox, eigenvalue_hausdorff, predict

_IMAGE_WINDOW_FLOATS = CHUNK_FLOATS  # at most this many coordinates per image-check window


@dataclass(frozen=True)
class InvariantSetRegistry:
    """Labels of the invariant sets, which one carries the data-fitted
    operator, and which group element maps the base set onto each other."""

    labels: tuple
    base_label: str
    mapping: dict  # non-base label -> group element label
    samples: Optional[dict] = None  # label -> representative states (n, dim)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels) or not self.labels:
            raise InputError("registry labels must be distinct and nonempty")
        if self.base_label not in self.labels:
            raise InputError(f"base label {self.base_label!r} not in labels")
        expected = set(self.labels) - {self.base_label}
        if set(self.mapping) != expected:
            raise InputError(
                "mapping must cover exactly the non-base labels "
                f"{sorted(expected)}, got {sorted(self.mapping)}"
            )


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
        for lbl, op in self.blocks:
            if lbl == label:
                return op
        raise InputError(f"unknown invariant-set label {label!r}")

    def block_slice(self, label):
        start = 0
        for lbl, op in self.blocks:
            if lbl == label:
                return slice(start, start + op.size)
            start += op.size
        raise InputError(f"unknown invariant-set label {label!r}")

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

def transport_case1(op, rep, target_label=None):
    """Conjugate a fitted operator into the image set: K_j = R K_i R^-1.

    The result keeps the same dictionary and carries provenance marking it
    as transported rather than fitted; the stored residual is copied from
    the source fit.
    """
    if rep.size != op.size:
        raise InputError(
            f"representation size {rep.size} does not match operator size {op.size}"
        )
    try:
        r_inv = rep.inverse_matrix
    except np.linalg.LinAlgError as err:
        raise SymkoopError(
            f"representation {rep.label!r} is singular; construction should "
            "have rejected it"
        ) from err
    if target_label is None:
        target_label = f"{op.set_label}:{rep.label}"
    return KoopmanApprox(
        matrix=rep.matrix @ op.matrix @ r_inv,
        dictionary=op.dictionary,
        set_label=target_label,
        fit_residual=op.fit_residual,
        rank_used=op.rank_used,
        provenance={
            "transported": True,
            "method": "conjugation",
            "base_label": op.set_label,
            "element": rep.label,
            "rep_residual": rep.residual,
        },
    )


def transport_case2(op, g, target_label=None):
    """Transport by transforming the dictionary instead of the matrix.

    Returns ``(operator, dictionary)`` where the operator matrix is the
    unchanged K_i and the dictionary evaluates psi_k(gamma^-1 x). The pair
    governs feature evolution on the image set.
    """
    if op.dictionary.dim != g.dim:
        raise InputError("operator dictionary and element dimensions differ")
    if target_label is None:
        target_label = f"{op.set_label}:{g.label}"
    transformed = TransformedDictionary(op.dictionary, g.matrix, g.label)
    new_op = KoopmanApprox(
        matrix=op.matrix.copy(),
        dictionary=transformed,
        set_label=target_label,
        fit_residual=op.fit_residual,
        rank_used=op.rank_used,
        provenance={
            "transported": True,
            "method": "dictionary",
            "base_label": op.set_label,
            "element": g.label,
        },
    )
    return new_op, transformed


def assemble_global(registry, base, reps):
    """Build the global block-diagonal operator in registry label order.

    ``reps`` maps each non-base label to the FeatureRepresentation of its
    registry element; those blocks are produced by conjugation transport.

    Raises InputError when a transported label's representation is not of
    its registry element, or two transported labels share one element
    (``check_registry`` also needs the group to catch the identity).
    """
    if base.set_label != registry.base_label:
        raise InputError(
            f"base operator is labeled {base.set_label!r}, registry expects "
            f"{registry.base_label!r}"
        )
    blocks = []
    transported = {}  # element label -> the first label mapped through it
    for label in registry.labels:
        if label == registry.base_label:
            blocks.append((label, base))
        else:
            if label not in reps:
                raise InputError(f"no feature representation supplied for {label!r}")
            element = registry.mapping[label]
            if reps[label].label != element:
                raise InputError(
                    f"representation for {label!r} is of {reps[label].label!r}, "
                    f"not of its registry element {element!r}"
                )
            if element in transported:
                raise InputError(
                    f"registry maps {transported[element]!r} and {label!r} "
                    f"through the same element {element!r}"
                )
            transported[element] = label
            blocks.append((label, transport_case1(base, reps[label], label)))
    return GlobalKoopman(blocks=tuple(blocks))


def global_predict(gk, label, x0, steps, full=False):
    """Evolve a state's features under the global operator.

    The start vector is Psi_label(x0) embedded in the stacked feature space
    with zeros elsewhere. The global operator is block-diagonal, so the
    labeled slice is ``koopman.predict`` on that block, bit for bit, and
    the rest stays exactly zero; ``full=True`` returns the stacked vectors.
    """
    local = predict(gk.block(label), x0, steps)
    if not full:
        return local
    out = np.zeros((len(local), gk.total_size))
    out[:, gk.block_slice(label)] = local
    return out


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class ConjugationReport:
    """Comparison of an independently fitted operator against a transported
    one: matrix error, spectral error, and pass flags."""

    frobenius_error: float
    hausdorff_distance: float
    frobenius_tol: Optional[float]
    hausdorff_tol: Optional[float]

    @property
    def passed(self):
        ok = True
        if self.frobenius_tol is not None:
            ok &= self.frobenius_error <= self.frobenius_tol
        if self.hausdorff_tol is not None:
            ok &= self.hausdorff_distance <= self.hausdorff_tol
        return bool(ok)

    def to_dict(self):
        return {
            "frobenius_error": self.frobenius_error,
            "hausdorff_distance": self.hausdorff_distance,
            "frobenius_tol": self.frobenius_tol,
            "hausdorff_tol": self.hausdorff_tol,
            "passed": self.passed,
        }


def verify_conjugation(op_i, op_j, rep, frobenius_tol=1e-10, hausdorff_tol=None):
    """Check K_j against R K_i R^-1.

    Pass ``frobenius_tol`` for the exact tier (K_j fitted on exactly
    transformed data) and ``hausdorff_tol`` for the statistical tier (K_j
    fitted on an independent trajectory of the mirrored set); either
    tolerance may be None to skip that criterion.
    """
    if op_i.size != op_j.size or op_i.size != rep.size:
        raise InputError("operator and representation sizes must match")
    transported = rep.matrix @ op_i.matrix @ rep.inverse_matrix
    denom = np.linalg.norm(op_j.matrix)
    frob = float(np.linalg.norm(op_j.matrix - transported) / denom) if denom else 0.0
    haus = eigenvalue_hausdorff(
        np.linalg.eigvals(op_j.matrix), np.linalg.eigvals(transported)
    )
    return ConjugationReport(
        frobenius_error=frob,
        hausdorff_distance=haus,
        frobenius_tol=frobenius_tol,
        hausdorff_tol=hausdorff_tol,
    )


def commutator_norm(op, rep):
    """||K R - R K||_F / ||K||_F, with no isotropy precondition (diagnostic
    use; expected to be large when the element moves the fitted set)."""
    K, R = op.matrix, rep.matrix
    return float(np.linalg.norm(K @ R - R @ K) / np.linalg.norm(K))


def data_stabilizer_labels(group, states, tol=1e-8):
    """Labels of the elements mapping a sample cloud into itself: g
    qualifies when every transformed sample gx lands within
    tol * (1 + |gx|) of some sample. This is the setwise-stabilizer
    evidence ``verify_commutation`` asks for.

    Each element's images are matched by ``groups._window_matches`` with
    radius tol * (1 + |gx|): near-linear in N unless most samples tie on
    its sort key, in O((N + _BLOCK) * dim) memory.

    Raises InputError for an empty cloud (it would vacuously pass every
    element), a non-finite sample, or a dimension other than ``group.dim``.
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

    def lands_in_cloud(mapped):
        radius = tol * (1.0 + np.linalg.norm(mapped, axis=1))
        hits = _window_matches(states, mapped, radius, lambda diff, rows:
                               np.linalg.norm(diff, axis=1) <= radius[rows])
        return np.all(hits >= 0)

    return tuple(g.label for g in group.elements
                 if lands_in_cloud(states @ g.matrix.T))


def check_registry(registry, group):
    """Reject a registry that would assemble one invariant set twice.

    Every non-base label must name an element of ``group`` other than the
    identity, and no two labels may share one. When the registry carries
    samples of the base set M, orbit-stabilizer sharpens this: g_a M = g_b M
    whenever g_a^-1 g_b lies in the data stabilizer of those samples, so
    two labels whose elements share a coset of it are rejected too (the
    base label counts as the identity). Raises InputError naming the first
    offending pair in registry order.
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
            if i == j:
                raise InputError(
                    f"registry maps {other!r} and {label!r} through the same "
                    f"element {group.elements[i].label!r}"
                )
            raise InputError(
                f"registry labels {other!r} and {label!r} name the same set: "
                f"their elements differ by {group.elements[h].label!r}, which "
                "stabilizes the base samples"
            )


def verify_commutation(op, rep, stabilizer_labels):
    """Commutator norm of K with R, allowed only for elements stabilizing
    the fitted set (its isotropy, g . M = M); for anything else
    finite-dimensional commutation is not implied and the check refuses.

    ``stabilizer_labels`` is the caller's evidence, e.g. from
    ``data_stabilizer_labels`` on the fitted samples or from a pointwise
    isotropy report.
    """
    if rep.label not in stabilizer_labels:
        raise IsotropyRequiredError(
            f"element {rep.label!r} is not in the isotropy of the fitted set; "
            "commutation with the local operator is only guaranteed for "
            "elements mapping the set to itself (use conjugation transport "
            "across sets instead)"
        )
    return commutator_norm(op, rep)


@dataclass(frozen=True)
class InvariantImageReport:
    """Fraction of transformed samples whose forward orbit stays in the
    claimed image set."""

    fraction: float
    n_samples: int
    horizon: int
    failed_indices: tuple

    def to_dict(self):
        return {
            "fraction": self.fraction,
            "n_samples": self.n_samples,
            "horizon": self.horizon,
            "failed_indices": list(self.failed_indices),
        }


def verify_invariant_set_image(system, g, samples, dt, horizon, membership):
    """``verify_invariant_set_images`` for the single image (g, membership)."""
    return verify_invariant_set_images(system, [(g, membership)], samples, dt, horizon)[0]


def verify_invariant_set_images(system, images, samples, dt, horizon):
    """Push samples of M_i (rows) through each element g of ``images``, a
    sequence of (g, membership) pairs, and integrate for ``horizon`` steps;
    report per image the fraction whose entire forward orbit satisfies that
    image's membership predicate.

    All images are stepped as one block of columns, image by image in
    sample order. After step 0 the block is stepped a window of steps at a
    time (at most _IMAGE_WINDOW_FLOATS coordinates, at least one step),
    and each predicate is called once per window on its image's columns of
    every step of the window. A column is dropped at the end of the window
    in which it leaves its set, so it is stepped at most to that window's
    end, and an orbit that leaves and later diverges raises nothing: a
    divergence counts only at or before the step the column leaves. The
    drops keep the order, so each image's columns stay one contiguous
    slice.

    ``membership`` takes states as columns, a (dim, N) block, and returns a
    boolean mask of shape (N,). The block may hold several steps of each
    column, and states after a column has left or gone non-finite, so the
    predicate must judge each column on its own. A divergence names the
    first step, at that step the first sample in image order, and the
    image's element.
    """
    samples = np.atleast_2d(_check_state(system, samples))
    _check_dt(system, dt)
    if not isinstance(horizon, numbers.Integral) or horizon < 0:
        raise InputError(f"horizon must be a nonnegative integer, got {horizon!r}")
    if len(images) == 0:
        raise InputError("need at least one (element, membership) image")
    n = len(samples)
    if n == 0:
        raise InputError("need at least one sample")
    edges = n * np.arange(len(images) + 1)
    y = np.concatenate([g.matrix @ samples.T for g, _ in images], axis=1)
    active = np.arange(edges[-1])  # column c holds sample c % n of image c // n
    keep = _memberships(images, y[None], edges)[0]
    k = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            if not keep.all():
                active, y = active[keep], y[:, keep]
            if k == horizon or not active.size:
                break
            bounds = np.searchsorted(active, edges)
            w = min(horizon - k, max(1, _IMAGE_WINDOW_FLOATS // y.size))
            states = _advance_chunk(system, y.T, dt, w)
            y = states[-1]
            # per column, the window step it first goes non-finite and the
            # one it first leaves at; w where it does neither
            bad = np.logical_and.accumulate(np.isfinite(states).all(axis=1)).sum(axis=0)
            out = np.logical_and.accumulate(_memberships(images, states, bounds)).sum(axis=0)
            raises_at = np.where(bad <= out, bad, w)
            column = int(np.argmin(raises_at))
            if raises_at[column] < w:
                step_index = k + 1 + int(raises_at[column])
                image, start = divmod(int(active[column]), n)
                raise NumericalDivergenceError(
                    f"non-finite state from {system.name!r} at step {step_index} "
                    f"of {horizon} from start {start} under element "
                    f"{images[image][0].label!r}",
                    step_index=step_index, start_index=start,
                )
            keep = out == w
            k += w
    reports = []
    for a, b in zip(edges, edges[1:]):
        failed = np.setdiff1d(np.arange(a, b), active) - a
        reports.append(InvariantImageReport(
            fraction=(n - len(failed)) / n,
            n_samples=n,
            horizon=horizon,
            failed_indices=tuple(failed.tolist()),
        ))
    return reports


def _memberships(images, states, bounds):
    """Each image's predicate on its columns bounds[i]:bounds[i + 1] of the
    window ``states`` (w, dim, cols), called once on all w steps as one
    (dim, w * c) block; the flags as a (w, cols) mask."""
    w, dim, cols = states.shape
    inside = np.empty((w, cols), dtype=bool)
    for (_, membership), a, b in zip(images, bounds, bounds[1:]):
        if a == b:
            continue
        block = states[:, :, a:b].transpose(1, 0, 2).reshape(dim, w * (b - a))
        flags = np.asarray(membership(block), dtype=bool)
        if flags.shape != (w * (b - a),):
            raise InputError("membership must return one boolean per state (column)")
        inside[:, a:b] = flags.reshape(w, b - a)
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
    samples = data.get("samples")
    if samples is not None:
        samples = {
            label: json_matrix(states, f"samples {label!r}")
            for label, states in samples.items()
        }
    labels, mapping = data["labels"], data["mapping"]
    if not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
        raise TypeError(f"labels must be a list of strings, got {labels!r}")
    base = data.get("base", labels[0] if labels else "")
    if not isinstance(base, str):
        raise TypeError(f"base must be a string, got {base!r}")
    if not (isinstance(mapping, dict)
            and all(isinstance(v, str) for v in (*mapping, *mapping.values()))):
        raise TypeError(f"mapping must map strings to strings, got {mapping!r}")
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


def global_from_dict(data):
    from .koopman import operator_from_dict

    blocks = tuple(
        (entry["label"], operator_from_dict(entry)) for entry in data["blocks"]
    )
    return GlobalKoopman(blocks=blocks)


def save_global(gk, path):
    write_json(path, global_to_dict(gk))


def load_global(path):
    return read_json(path, global_from_dict)
