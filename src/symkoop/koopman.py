"""Least-squares Koopman approximation on lifted snapshot data.

The finite-dimensional operator is the minimum-Frobenius-norm solution of
min_K ||K Yp - Yf||_F, K = Yf pinv(Yp) with small singular values of Yp
truncated. It is computed from the R factor of a blocked (TSQR-style) QR of
the stacked data [Yp; Yf]^T, one chunk of snapshot columns at a time. Only
the K x 2K block [R_p, R_f] of R, the part the fit reads, is carried from
chunk to chunk, so the memory the fit needs beyond its inputs does not grow
with the number of snapshots; the truncation uses the singular values of
R_p, which are those of Yp. The residual comes from the same factors, so
the data is read once. fit_trajectory takes one trajectory or a sequence of
them and lifts each chunk of their snapshot pairs once, as the fit reaches
it, so it never holds the K x M lifted data.

The matrix advances feature vectors, Psi(x_{k+1}) ~ K Psi(x_k), so
observables (and therefore eigenfunctions) evolve through row vectors:
eigenfunctions are built from left eigenvectors, phi(x) = w^T Psi(x).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dictionaries import Dictionary, dictionary_from_spec
from .dynamics import TIME_GRID_TOL, Trajectory
from .errors import DegenerateDataError, InputError, json_matrix, json_value, read_json

DEFAULT_RANK_TOL = 1e-12
_FIT_CHUNK = 1024  # snapshot columns per QR update; small blocks stay in cache


@dataclass(frozen=True)
class KoopmanApprox:
    """A K x K operator approximation on one invariant set or trajectory."""

    matrix: np.ndarray
    dictionary: Dictionary
    set_label: str
    fit_residual: float
    rank_used: int
    provenance: Optional[dict] = None  # None: fitted from data

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def is_transported(self):
        return self.provenance is not None and self.provenance.get("transported", False)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending modulus) with unit-norm left eigenvectors."""

    eigenvalues: np.ndarray          # (K,) complex
    coefficients: np.ndarray         # (K, K) complex, row i satisfies w^T K = lam w^T

    @property
    def size(self):
        return len(self.eigenvalues)


def fit_edmd(Yp, Yf, rank_tol=DEFAULT_RANK_TOL, *, dictionary, set_label="fit"):
    """Fit K = Yf pinv(Yp) from the R factor of the stacked data, with the
    singular values of Yp below rank_tol * sigma_max truncated.

    The snapshot columns are taken _FIT_CHUNK at a time; each chunk of
    [Yp; Yf]^T is stacked under the top K rows [R_p, R_f] of the current
    factor (K x 2K) and reduced again. The rows below them hold [0, R_22]:
    zero in the Yp columns, so they never reach R_p or R_f, and [R_p, R_f]
    is the top of the R of a QR of all of [Yp; Yf]^T. With
    Yp^T = Q R_p and Yf^T = Q R_f, the least-squares solution is
    K^T = pinv(R_p) R_f, and R_p has the singular values of Yp. Returns the
    operator with its relative Frobenius residual ||K Yp - Yf||_F / ||Yf||_F
    and the retained rank. Q is orthogonal, so the residual is
    ||R_p K^T - R_f||_F / ||R_f||_F over every row of the factors: the last
    one, kept whole, and the [0, R_22] rows each chunk drops. Memory
    beyond the inputs is O(K^2 + _FIT_CHUNK * K), whatever the number of
    snapshots.
    """
    Yp = np.asarray(Yp, dtype=float)
    Yf = np.asarray(Yf, dtype=float)
    if Yp.ndim != 2 or Yp.shape != Yf.shape:
        raise InputError(
            f"Yp and Yf must be equal-shape 2-D matrices, got {Yp.shape} and {Yf.shape}"
        )
    return _fit_chunks(
        lambda a, b: (Yp[:, a:b], Yf[:, a:b]), Yp.shape[0], Yp.shape[1],
        rank_tol, dictionary, set_label,
    )


def fit_trajectory(trajs, dictionary, rank_tol=DEFAULT_RANK_TOL, set_label="fit"):
    """``fit_edmd`` of the lifted snapshot pairs of one trajectory or of a
    sequence of them (one dim, sample intervals equal within TIME_GRID_TOL
    relative), without building the pair or lifted matrices. The pairs are
    indexed as one column-stacked run; none joins the last state of one
    trajectory to the first of the next. A chunk inside one trajectory lifts
    states[a : b + 1] once and takes Yp_c and Yf_c as its two shifted views;
    only a chunk across a boundary concatenates its pieces. Each piece is
    lifted once. So K, rank_used and fit_residual are bit for bit those of
    fit_edmd on the stacked lifts."""
    trajs = [trajs] if isinstance(trajs, Trajectory) else list(trajs)
    if not trajs:
        raise InputError("need at least one trajectory to fit")
    if min(t.n_states for t in trajs) < 2:
        raise InputError("need at least 2 states to form snapshot pairs")
    dims = {t.dim for t in trajs}
    if len(dims) != 1:
        raise InputError(f"trajectories of mixed dimensions: {sorted(dims)}")
    if dims.pop() != dictionary.dim:
        raise InputError("snapshot dimension does not match dictionary")
    dts = [t.dt for t in trajs]
    if max(dts) - min(dts) > TIME_GRID_TOL * abs(dts[0]):
        raise InputError(f"trajectories of different sample intervals: {min(dts)!r} "
                         f"to {max(dts)!r}")
    # pairs ends[k]:ends[k + 1] of the stacked run are those of trajs[k]
    ends = np.cumsum([0] + [t.n_states - 1 for t in trajs])

    def chunk(a, b):
        lifts = []
        k = int(np.searchsorted(ends, a, side="right")) - 1
        while ends[k] < b:
            s = ends[k]
            lifts.append(dictionary.evaluate_matrix(
                trajs[k].states[max(a, s) - s:min(b, ends[k + 1]) - s + 1].T))
            k += 1
        if len(lifts) == 1:
            return lifts[0][:, :-1], lifts[0][:, 1:]
        return (np.concatenate([Y[:, :-1] for Y in lifts], axis=1),
                np.concatenate([Y[:, 1:] for Y in lifts], axis=1))

    return _fit_chunks(chunk, dictionary.size, int(ends[-1]), rank_tol,
                       dictionary, set_label)


def _norm_sq(X, e):
    """||X||_F^2 / 4**e, taken on X scaled by 2**-e. For 2**e near the
    largest entry the square neither overflows nor underflows, and the
    scaling is exact, so a ratio of such sums is that of the unscaled sums
    to the bit wherever those stay in the normal range."""
    return np.linalg.norm(np.ldexp(X, -e)) ** 2


def _fit_chunks(chunk, n, m, rank_tol, dictionary, set_label):
    """The fit of ``fit_edmd`` on data given as chunks: chunk(a, b) returns
    the columns a:b of Yp and Yf (n x (b - a) each), for b - a at most
    _FIT_CHUNK. It is called once per chunk, and each input check runs on
    every chunk.

    Each chunk's QR factors a (K + C) x 2K matrix, for C = b - a: the K
    carried rows [R_p, R_f] over the chunk's C rows [Yp_c; Yf_c]^T. The
    last factor is kept whole for the SVD, so a one-chunk fit is the SVD of
    the R of one QR of all the data; Yp is all zero exactly when s[0], its
    largest singular value, is 0. The residual's sums of squares are taken in
    units of 4**e, for 2**e just above the largest datum so far (_norm_sq),
    so they neither overflow nor underflow anywhere in the double range."""
    if m < 1:
        raise InputError("need at least one snapshot pair")
    if not 0 < rank_tol <= 1:  # also rejects NaN
        raise InputError(f"rank_tol must be in (0, 1], got {rank_tol}")
    bounds = [(a, min(a + _FIT_CHUNK, m)) for a in range(0, m, _FIT_CHUNK)]
    # overflow in the lift shows up as Inf, rejected per chunk, and overflow
    # in the fit as a non-finite K or residual, rejected below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            R = np.empty((0, 2 * n))
            peak, e = 0.0, 0  # the largest |datum| so far, and its power of two
            dropped = 0.0  # ||R_22||_F^2 / 4**e of the rows below K that factors so far dropped
            for a, b in bounds:
                Yp_c, Yf_c = chunk(a, b)
                # [R[:K]; [Yp_c; Yf_c]^T] built as its transpose, so it is
                # already column-major for LAPACK
                top = R[:n]
                r = len(top)
                stack = np.empty((2 * n, r + b - a))
                stack[:, :r] = top.T
                stack[:n, r:] = Yp_c
                stack[n:, r:] = Yf_c
                data = stack[:, r:]
                # min and max carry any NaN or Inf, without a mask
                lo, hi = data.min(), data.max()
                if not np.isfinite([lo, hi]).all():
                    raise InputError("lifted snapshot data contains NaN or Inf")
                # e grows with the data; it falls only from an all-zero
                # start, where dropped is 0
                peak = max(peak, -lo, hi)
                e, e_old = math.frexp(peak)[1], e
                dropped = math.ldexp(dropped, 2 * (e_old - e)) + _norm_sq(R[n:, n:], e)
                # R_f comes out of the same Householder sweep as R_p on
                # purpose: the reflectors reach the nearly equal Yp and Yf
                # columns one at a time, so both take the same rounding
                # errors, and those cancel in K. R_f = Q^T Yf^T formed
                # apart (compact-WY GEMMs or an explicit Q) saves up to 43%
                # of the QR but loses that cancellation: a Hamiltonian
                # degree-2 exact-tier refit went from 1.3e-11 to 7.8e-10,
                # over the 1e-10 tier.
                R = np.linalg.qr(stack.T, mode="r")
            U, s, Vt = np.linalg.svd(R[:, :n], full_matrices=False)
        except np.linalg.LinAlgError as err:
            raise DegenerateDataError(f"factoring the lifted data failed: {err}") from err
        if s[0] == 0:
            raise DegenerateDataError("Yp is all zero; no operator is identifiable")
        # the cut is taken on s scaled to s[0] in [0.5, 1): the same cut, and
        # rank_tol * s[0] cannot underflow and keep a zero singular value
        t = np.ldexp(s, -math.frexp(s[0])[1])
        rank = int(np.sum(t >= rank_tol * t[0]))
        K = ((R[:, n:].T @ U[:, :rank]) / s[:rank]) @ Vt[:rank]
        res_sq = _norm_sq(R[:, :n] @ K.T - R[:, n:], e) + dropped
        Yf_sq = _norm_sq(R[:, n:], e) + dropped
        residual = float(np.sqrt(res_sq / Yf_sq)) if Yf_sq > 0 else 0.0
    if not (np.all(np.isfinite(K)) and np.isfinite(residual)):
        raise DegenerateDataError(
            "fit produced a non-finite operator or residual; the lifted data "
            "is too large in magnitude to fit in double precision"
        )
    return KoopmanApprox(
        matrix=K,
        dictionary=dictionary,
        set_label=set_label,
        fit_residual=residual,
        rank_used=rank,
    )


def predict(op, x0, steps):
    """Feature-space forecast: rows Psi(x0), K Psi(x0), ..., K^steps Psi(x0)."""
    if steps < 0:
        raise InputError("steps must be nonnegative")
    v = op.dictionary.evaluate(x0)
    out = np.empty((steps + 1, op.size))
    out[0] = v
    for k in range(steps):
        v = op.matrix @ v
        out[k + 1] = v
    return out


def spectrum(op):
    """Dense eigendecomposition with deterministic ordering.

    Eigenvalues sorted by descending modulus, ties broken by descending real
    part then ascending imaginary part (conjugate pairs end up adjacent).
    Left eigenvectors are unit 2-norm with the first nonzero entry's real
    part nonnegative. Eigensolver failures propagate as LinAlgError.
    """
    lam, W = np.linalg.eig(op.matrix.T)  # columns: K^T w = lam w, i.e. w^T K = lam w^T
    order = np.lexsort((lam.imag, -lam.real, -np.abs(lam)))
    lam = lam[order].astype(complex, copy=False)  # complex even when all are real
    W = W.T[order]  # row i: the i-th left eigenvector; real when every lam is
    coeffs = (W / np.linalg.norm(W, axis=1, keepdims=True)).astype(complex, copy=False)
    mag = np.abs(coeffs)
    first = np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)
    lead = coeffs[np.arange(op.size), first]
    flip = (lead.real < 0) | ((lead.real == 0) & (lead.imag < 0))
    coeffs[flip] = -coeffs[flip]
    defect = np.linalg.norm(coeffs @ op.matrix - lam[:, None] * coeffs, axis=1)
    bad = np.flatnonzero(defect > 1e-8 * np.linalg.norm(op.matrix))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"left eigenpair {bad[0]} defect {defect[bad[0]]:.3e} exceeds 1e-8 * ||K||"
        )
    return Spectrum(eigenvalues=lam, coefficients=coeffs)


def eigenfunction_eval(spec, index, dictionary, x):
    """Evaluate the index-th approximate eigenfunction, w^T Psi(x)."""
    if not 0 <= index < spec.size:
        raise InputError(f"eigenfunction index {index} out of range [0, {spec.size})")
    return complex(spec.coefficients[index] @ dictionary.evaluate(x))


def eigenvalue_hausdorff(a, b):
    """Hausdorff distance between two finite eigenvalue multisets."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# JSON export

def operator_to_dict(op):
    out = {
        "set_label": op.set_label,
        "K": op.matrix.tolist(),
        "dictionary": op.dictionary.to_spec(),
        "fit_residual": op.fit_residual,
        "rank_used": op.rank_used,
    }
    if op.provenance is not None:
        out["provenance"] = op.provenance
    return out


def operator_from_dict(data):
    dictionary = dictionary_from_spec(data["dictionary"])
    matrix = json_matrix(data["K"], "K")
    if matrix.shape != (dictionary.size, dictionary.size):
        raise InputError(
            f"operator matrix shape {matrix.shape} does not match dictionary "
            f"size {dictionary.size}"
        )
    if not np.all(np.isfinite(matrix)):
        raise InputError("operator matrix contains NaN or Inf")
    fit_residual = json_value(data["fit_residual"], "fit_residual", "a finite number")
    set_label = json_value(data["set_label"], "set_label", "a string")
    rank_used = json_value(data["rank_used"], "rank_used", "an integer")
    provenance = data.get("provenance")
    if provenance is not None:  # null, as no provenance, is an operator fitted from data
        json_value(provenance, "provenance", "a JSON object")
        json_value(provenance.get("transported", False), "provenance transported",
                   "true or false")
    return KoopmanApprox(
        matrix=matrix,
        dictionary=dictionary,
        set_label=set_label,
        fit_residual=fit_residual,
        rank_used=rank_used,
        provenance=provenance,
    )


def load_operator(path):
    return read_json(path, operator_from_dict)


def spectrum_to_list(spec):
    return [
        {
            "re": float(lam.real),
            "im": float(lam.imag),
            "w_re": spec.coefficients[i].real.tolist(),
            "w_im": spec.coefficients[i].imag.tolist(),
        }
        for i, lam in enumerate(spec.eigenvalues)
    ]
