import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkoop import (
    CustomDictionary,
    DegenerateDataError,
    IdentityDictionary,
    InputError,
    MonomialDictionary,
    Trajectory,
    builtin_group,
    eigenfunction_eval,
    eigenvalue_hausdorff,
    fit_edmd,
    fit_trajectory,
    load_operator,
    make_system,
    predict,
    simulate,
    spectrum,
    transform_trajectory,
    transport_case1,
    transport_case2,
    verify_conjugation,
)
from symkoop.errors import ConfigurationError, write_json
from symkoop.koopman import (
    _FIT_CHUNK,
    DEFAULT_RANK_TOL,
    KoopmanApprox,
    operator_from_dict,
    operator_to_dict,
    spectrum_to_list,
)
from symkoop.scenarios import (
    EXACT_TIER_TOL,
    SPECTRUM_TOL,
    base_dictionaries,
    draw_base_state,
    exact_tier_trajectory,
)


def lifted_pairs(dictionary, traj):
    """(Yp, Yf): the trajectory's states lifted once, without its last and
    without its first state."""
    Y = dictionary.evaluate_matrix(traj.states.T)
    return Y[:, :-1], Y[:, 1:]


def svd_pinv_fit(Yp, Yf, rank_tol=DEFAULT_RANK_TOL):
    """Reference fit: K = Yf pinv(Yp) through a truncated SVD of the whole
    of Yp, with the M x K pseudo-inverse built in full. Returns K and the
    retained rank."""
    U, s, Vt = np.linalg.svd(Yp, full_matrices=False)
    rank = int(np.sum(s >= rank_tol * s[0]))
    return Yf @ ((Vt[:rank].T / s[:rank]) @ U[:, :rank].T), rank


def full_r_fit(Yp, Yf, rank_tol=DEFAULT_RANK_TOL):
    """Reference: the chunked fit carrying the whole 2K x 2K factor
    R = [[R_p, R_f], [0, R_22]] from chunk to chunk. Returns K, the retained
    rank and the relative residual ||R_p K^T - R_f||_F / ||R_f||_F, which is
    ||K Yp - Yf||_F / ||Yf||_F as Q is orthogonal; exact here, as the whole
    factor drops no rows."""
    n, m = Yp.shape
    bounds = [(a, min(a + _FIT_CHUNK, m)) for a in range(0, m, _FIT_CHUNK)]
    R = np.empty((0, 2 * n))
    for a, b in bounds:
        block = np.concatenate([Yp[:, a:b], Yf[:, a:b]])
        R = np.linalg.qr(np.concatenate([R.T, block], axis=1).T, mode="r")
    U, s, Vt = np.linalg.svd(R[:, :n], full_matrices=False)
    rank = int(np.sum(s >= rank_tol * s[0]))
    K = ((R[:, n:].T @ U[:, :rank]) / s[:rank]) @ Vt[:rank]
    res_sq = np.linalg.norm(R[:, :n] @ K.T - R[:, n:]) ** 2
    Yf_sq = np.linalg.norm(R[:, n:]) ** 2
    return K, rank, float(np.sqrt(res_sq / Yf_sq)) if Yf_sq > 0 else 0.0


def op_from_matrix(K):
    K = np.asarray(K, dtype=float)
    return KoopmanApprox(
        matrix=K, dictionary=IdentityDictionary(K.shape[0]),
        set_label="test", fit_residual=0.0, rank_used=K.shape[0],
    )


def test_fit_scalar_data():
    op = fit_edmd([[2.0]], [[6.0]], dictionary=IdentityDictionary(1))
    assert op.matrix[0, 0] == pytest.approx(3.0)
    assert op.fit_residual == pytest.approx(0.0, abs=1e-15)
    assert op.rank_used == 1


def test_fit_recovers_linear_system_exactly():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    Yp = rng.normal(size=(4, 25))
    Yf = A @ Yp
    op = fit_edmd(Yp, Yf, dictionary=IdentityDictionary(4))
    assert np.max(np.abs(op.matrix - A)) <= 1e-10
    assert op.rank_used == 4


def test_fit_rank_deficient_projector():
    # hand-computed SVD pseudo-inverse: Yp = 5 u v^T with u = v = (1,2)/sqrt 5,
    # so K = Yp pinv(Yp) is the rank-1 projector (1/5) [[1,2],[2,4]]
    Y = np.array([[1.0, 2.0], [2.0, 4.0]])
    op = fit_edmd(Y, Y, dictionary=IdentityDictionary(2))
    np.testing.assert_allclose(op.matrix, Y / 5.0, atol=1e-14)
    assert op.rank_used == 1
    assert op.fit_residual <= 1e-14


def test_fit_toggle_region_is_stable():
    traj = simulate(make_system("toggle_switch"), [2.5, 0.5], 0.05, 120)
    op = fit_trajectory(traj, IdentityDictionary(2), set_label="right")
    radius = np.max(np.abs(np.linalg.eigvals(op.matrix)))
    assert radius <= 1.0 + 1e-6


def test_fit_rejects_bad_data():
    with pytest.raises(DegenerateDataError):
        fit_edmd(np.zeros((2, 5)), np.ones((2, 5)), dictionary=IdentityDictionary(2))
    with pytest.raises(InputError):
        fit_edmd(np.ones((2, 5)), np.ones((2, 4)), dictionary=IdentityDictionary(2))


def test_least_squares_optimality_under_perturbation():
    rng = np.random.default_rng(1)
    Yp = rng.normal(size=(3, 40))
    Yf = rng.normal(size=(3, 40))  # inconsistent data: nonzero residual
    op = fit_edmd(Yp, Yf, dictionary=IdentityDictionary(3))
    base = np.linalg.norm(op.matrix @ Yp - Yf)
    for _ in range(20):
        delta = rng.normal(size=(3, 3))
        delta *= 1e-3 / np.linalg.norm(delta)
        assert np.linalg.norm((op.matrix + delta) @ Yp - Yf) >= base - 1e-12


@st.composite
def lifted_data(draw):
    """(Yp, Yf) with K <= 12 features, M snapshots around the chunk edges,
    condition number <= 1e3 on the distinct rows, scale 1e-3 to 1e3, and
    rows repeated to make Yp rank-deficient."""
    k = draw(st.integers(1, 12))
    m = draw(st.sampled_from([1, max(k - 1, 1), _FIT_CHUNK - 1, _FIT_CHUNK,
                              _FIT_CHUNK + 1, 3 * _FIT_CHUNK + 5, None]))
    if m is None:
        m = draw(st.integers(1, 4 * _FIT_CHUNK))
    distinct = draw(st.integers(1, k))
    cond = 10.0 ** draw(st.floats(0.0, 3.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    noise = draw(st.sampled_from([0.0, 1e-3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = min(distinct, m)
    U = np.linalg.qr(rng.normal(size=(distinct, r)))[0]
    V = np.linalg.qr(rng.normal(size=(m, r)))[0]
    base = (U * np.logspace(0.0, -np.log10(cond), r)) @ V.T
    rows = np.concatenate([np.arange(distinct), rng.integers(0, distinct, k - distinct)])
    Yp = scale * base[rng.permutation(rows)]
    Yf = rng.normal(size=(k, k)) @ Yp + noise * scale * rng.normal(size=(k, m))
    return Yp, Yf


@settings(max_examples=60, deadline=None)
@given(lifted_data())
def test_fit_matches_svd_pseudo_inverse_reference(data):
    Yp, Yf = data
    op = fit_edmd(Yp, Yf, dictionary=IdentityDictionary(Yp.shape[0]))
    K_ref, rank = svd_pinv_fit(Yp, Yf)
    assert op.rank_used == rank
    assert np.linalg.norm(op.matrix - K_ref) <= 1e-10 * np.linalg.norm(K_ref)
    direct = np.linalg.norm(op.matrix @ Yp - Yf) / np.linalg.norm(Yf)
    if direct > 1e-12:
        assert op.fit_residual == pytest.approx(direct, rel=1e-12)
    # carrying only R's top K rows between chunks moves K by rounding only,
    # and a one-chunk fit not at all
    K_full, rank_full, residual_full = full_r_fit(Yp, Yf)
    assert op.rank_used == rank_full
    if Yp.shape[1] <= _FIT_CHUNK:
        assert np.array_equal(op.matrix, K_full)
        assert op.fit_residual == residual_full
    else:
        assert np.linalg.norm(op.matrix - K_full) <= 1e-10 * np.linalg.norm(K_full)
        if direct > 1e-12:
            # the dropped rows' ||R_22||^2, summed, stand in for the whole factor's
            assert op.fit_residual == pytest.approx(residual_full, rel=1e-12)


@pytest.mark.parametrize("m", [300, 1000, _FIT_CHUNK])
@pytest.mark.parametrize("dictionary", [IdentityDictionary(3), MonomialDictionary(3, 2),
                                        MonomialDictionary(3, 4), MonomialDictionary(3, 6)],
                         ids=["identity", "monomial2", "monomial4", "monomial6"])
def test_one_chunk_fits_equal_the_full_factor_fit_bitwise(m, dictionary):
    Yp, Yf = lifted_pairs(dictionary,
                          simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, m))
    K, rank, residual = full_r_fit(Yp, Yf)
    op = fit_edmd(Yp, Yf, dictionary=dictionary)
    assert np.array_equal(op.matrix, K)
    assert (op.rank_used, op.fit_residual) == (rank, residual)


@pytest.mark.parametrize("k, m", [(38, 65), (84, 130)])
def test_one_chunk_fit_of_fewer_than_2k_snapshots_equals_the_full_factor_fit(k, m):
    # R has m rows, more than K: the SVD must see them all (the rows below
    # K are zero in the Yp columns but round differently if dropped)
    rng = np.random.default_rng(0)
    Yp, Yf = rng.normal(size=(k, m)), rng.normal(size=(k, m))
    K, rank, residual = full_r_fit(Yp, Yf)
    op = fit_edmd(Yp, Yf, dictionary=IdentityDictionary(k))
    assert np.array_equal(op.matrix, K)
    assert (op.rank_used, op.fit_residual) == (rank, residual)


def test_fits_on_exactly_transformed_data_are_conjugate():
    # 20 Hamiltonian IS-1 trajectories, one chunk each, and 3077 Lorenz
    # pairs, four chunks with Yp's condition number about 1e12: the fit on
    # g-transformed data is R(g) K R(g)^-1 within the exact tier
    system, g = make_system("hamiltonian"), builtin_group("hamiltonian").element("swap")
    dictionary = MonomialDictionary(2, 2)
    rng = np.random.default_rng(11)
    x0 = np.array([draw_base_state("hamiltonian", rng) for _ in range(20)])
    worst = 0.0
    for traj in simulate(system, x0, 0.001, 400):
        mirrored = fit_trajectory(transform_trajectory(traj, g), dictionary)
        report = verify_conjugation(fit_trajectory(traj, dictionary), mirrored, g)
        worst = max(worst, report.frobenius_error)
    assert worst <= EXACT_TIER_TOL

    g = builtin_group("lorenz").element("rot_pi_z")
    dictionary = MonomialDictionary(3, 6)
    traj = simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, 3077)
    assert traj.n_states - 1 > 3 * _FIT_CHUNK
    mirrored = fit_trajectory(transform_trajectory(traj, g), dictionary)
    report = verify_conjugation(fit_trajectory(traj, dictionary), mirrored, g)
    assert report.frobenius_error <= EXACT_TIER_TOL


def fit_peak_bytes(m, k=20):
    """Peak traced allocation of one fit on k x m data, and Yp.nbytes."""
    rng = np.random.default_rng(7)
    Yp = rng.normal(size=(k, m))
    Yf = rng.normal(size=(k, m))
    tracemalloc.start()
    try:
        fit_edmd(Yp, Yf, dictionary=IdentityDictionary(k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, Yp.nbytes


def test_fit_memory_does_not_grow_with_snapshots():
    peak, nbytes = fit_peak_bytes(100_000)
    # a full-size V^T, pseudo-inverse or K @ Yp would each take Yp.nbytes
    assert peak < nbytes / 4
    # and no M-sized scratch at all (a K x M finiteness mask is nbytes / 8)
    assert peak < 1.5 * fit_peak_bytes(25_000)[0]


@pytest.mark.parametrize("m", [_FIT_CHUNK - 1, _FIT_CHUNK, _FIT_CHUNK + 1,
                               3 * _FIT_CHUNK + 5])
@pytest.mark.parametrize("dictionary", [IdentityDictionary(3), MonomialDictionary(3, 4)],
                         ids=["identity", "monomial"])
def test_streamed_fits_equal_the_matrix_fit_bitwise(m, dictionary):
    traj = simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, m)
    ref = fit_edmd(*lifted_pairs(dictionary, traj), dictionary=dictionary)
    op = fit_trajectory(traj, dictionary)
    assert np.array_equal(op.matrix, ref.matrix)
    assert op.fit_residual == ref.fit_residual
    assert op.rank_used == ref.rank_used


def stacked_fit(trajs, dictionary):
    """Reference: fit_edmd on the column-stacked lifts of each trajectory's
    own snapshot pairs."""
    lifts = [lifted_pairs(dictionary, t) for t in trajs]
    return fit_edmd(np.hstack([Yp for Yp, _ in lifts]), np.hstack([Yf for _, Yf in lifts]),
                    dictionary=dictionary)


def assert_same_fit(op, ref):
    assert np.array_equal(op.matrix, ref.matrix)
    assert op.fit_residual == ref.fit_residual
    assert op.rank_used == ref.rank_used


@st.composite
def trajectory_sequences(draw):
    """1-4 trajectories of 2-2100 uniform random states, often with pair
    counts that put a trajectory boundary inside or at the edge of a chunk,
    and an identity or monomial (degree 2-4) dictionary."""
    dim = draw(st.integers(1, 3))
    lengths = draw(st.lists(
        st.one_of(st.sampled_from([2, 3, _FIT_CHUNK - 1, _FIT_CHUNK, _FIT_CHUNK + 1,
                                   _FIT_CHUNK + 2, 2 * _FIT_CHUNK + 1]),
                  st.integers(2, 2100)),
        min_size=1, max_size=4))
    degree = draw(st.sampled_from([None, 2, 3, 4]))
    dictionary = (IdentityDictionary(dim) if degree is None
                  else MonomialDictionary(dim, degree))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trajs = [Trajectory(dim=dim, dt=0.1, states=rng.uniform(-1.0, 1.0, size=(n, dim)))
             for n in lengths]
    return trajs, dictionary


@settings(max_examples=40, deadline=None)
@given(trajectory_sequences())
def test_sequence_fit_equals_the_stacked_matrix_fit_bitwise(data):
    trajs, dictionary = data
    assert_same_fit(fit_trajectory(trajs, dictionary), stacked_fit(trajs, dictionary))


@pytest.mark.parametrize("lengths", [(10,), (1023, 5), (1024, 1026, 3), (700, 700, 700),
                                     (2, 2050)])
@pytest.mark.parametrize("dictionary", [IdentityDictionary(3), MonomialDictionary(3, 4)],
                         ids=["identity", "monomial"])
def test_sequence_fit_of_lorenz_pieces_equals_the_stacked_matrix_fit(lengths, dictionary):
    trajs = [simulate(make_system("lorenz"), [1.0 + k, 1.0, 1.05], 0.01, n - 1)
             for k, n in enumerate(lengths)]
    assert [t.n_states for t in trajs] == list(lengths)
    assert_same_fit(fit_trajectory(trajs, dictionary), stacked_fit(trajs, dictionary))
    if len(trajs) == 1:
        assert_same_fit(fit_trajectory(trajs[0], dictionary), stacked_fit(trajs, dictionary))


def test_sequence_fit_pairs_no_states_across_trajectories():
    # two orbits of x -> A x from distant starts: every pair within an
    # orbit obeys A exactly, a pair joining the two orbits would not
    A = 0.99 * np.array([[np.cos(0.2), -np.sin(0.2)], [np.sin(0.2), np.cos(0.2)]])

    def orbit(x0, n):
        states = [np.asarray(x0, dtype=float)]
        for _ in range(n - 1):
            states.append(A @ states[-1])
        return Trajectory(dim=2, dt=1.0, states=np.array(states))

    trajs = [orbit([1.0, 0.0], 300), orbit([-40.0, 25.0], 900)]
    op = fit_trajectory(trajs, IdentityDictionary(2))
    assert np.max(np.abs(op.matrix - A)) <= 1e-12
    assert op.fit_residual <= 1e-12


@pytest.mark.parametrize("trajs, message", [
    ([], "at least one trajectory"),
    ([Trajectory(dim=2, dt=0.1, states=np.ones((5, 2))),
      Trajectory(dim=2, dt=0.1, states=np.ones((1, 2)))], "at least 2 states"),
    ([Trajectory(dim=2, dt=0.1, states=np.ones((5, 2))),
      Trajectory(dim=3, dt=0.1, states=np.ones((5, 3)))], "mixed dimensions"),
    ([Trajectory(dim=3, dt=0.1, states=np.ones((5, 3)))] * 2, "does not match dictionary"),
    ([Trajectory(dim=2, dt=0.1, states=np.ones((5, 2))),
      Trajectory(dim=2, dt=0.1 * (1 + 1e-8), states=np.ones((5, 2)))],
     "different sample intervals"),
], ids=["empty", "one-state", "mixed-dim", "dictionary-dim", "sample-interval"])
def test_sequence_fit_rejects_unfittable_input(trajs, message):
    with pytest.raises(InputError, match=message) as info:
        fit_trajectory(trajs, MonomialDictionary(2, 2))
    assert "\n" not in str(info.value)


def test_sequence_fit_accepts_sample_intervals_within_the_time_grid_tolerance():
    states = simulate(make_system("toggle_switch"), [2.5, 0.5], 0.05, 40).states
    trajs = [Trajectory(dim=2, dt=0.05, states=states[:20]),
             Trajectory(dim=2, dt=0.05 * (1 + 1e-10), states=states[20:])]
    assert_same_fit(fit_trajectory(trajs, IdentityDictionary(2)),
                    stacked_fit(trajs, IdentityDictionary(2)))


def trajectory_fit_peak_bytes(n_states):
    """Peak traced allocation of fit_trajectory with degree-4 monomials in
    dim 2 (K = 15), and the bytes of one K x M lifted matrix."""
    states = np.random.default_rng(8).uniform(-1.0, 1.0, size=(n_states, 2))
    traj = Trajectory(dim=2, dt=0.1, states=states)
    dictionary = MonomialDictionary(2, 4)
    tracemalloc.start()
    try:
        fit_trajectory(traj, dictionary)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, dictionary.size * (n_states - 1) * 8


def test_trajectory_fit_memory_does_not_grow_with_snapshots():
    peak, nbytes = trajectory_fit_peak_bytes(100_000)
    # lifting Yp or Yf whole, or the pair matrices Xp and Xf, would show here
    assert peak < nbytes / 4
    assert peak < 1.5 * trajectory_fit_peak_bytes(25_000)[0]


def third_chunk_overflow_trajectory():
    """A 4000-state trajectory whose degree-6 lift is finite except for one
    state, near 1e60, in the third chunk of columns."""
    states = np.random.default_rng(9).uniform(-1.0, 1.0, size=(4000, 2))
    states[2 * _FIT_CHUNK + 10, 0] = 1e60
    return Trajectory(dim=2, dt=0.1, states=states)


def split_at_1500(traj):
    """The trajectory as two, cut at state 1500: the second chunk of pairs
    crosses the boundary."""
    return [Trajectory(dim=traj.dim, dt=traj.dt, states=traj.states[:1500]),
            Trajectory(dim=traj.dim, dt=traj.dt, states=traj.states[1500:])]


# the streamed fit given the states as one trajectory or as two
STREAMED_FITS = pytest.mark.parametrize("fit", [
    lambda traj, d: fit_trajectory(split_at_1500(traj), d),
    fit_trajectory,
], ids=["two-trajectories", "trajectory"])


@STREAMED_FITS
def test_lift_overflow_in_a_later_chunk_is_rejected(fit):
    with pytest.raises(InputError, match="lifted snapshot data contains NaN or Inf"):
        fit(third_chunk_overflow_trajectory(), MonomialDictionary(2, 6))


@pytest.mark.parametrize("trajs, pieces", [
    (lambda states: Trajectory(dim=2, dt=0.1, states=states), 4),
    (lambda states: split_at_1500(Trajectory(dim=2, dt=0.1, states=states)), 5),
], ids=["trajectory", "two-trajectories"])
def test_trajectory_fit_lifts_each_chunk_once(trajs, pieces):
    # 3 * _FIT_CHUNK + 5 pairs: four chunks; cut at state 1500, the second
    # chunk lifts one piece on each side of the boundary
    calls = []

    def first(x):
        calls.append(x.shape[1])
        return x[0]

    states = np.random.default_rng(11).normal(size=(3 * _FIT_CHUNK + 6, 2))
    fit_trajectory(trajs(states), CustomDictionary(2, [first, lambda x: x[1]]))
    assert len(calls) == pieces


@pytest.mark.parametrize("scale, refused", [(1e150, False), (1e152, False), (1e153, True),
                                            (1e200, True), (1e300, True)])
@pytest.mark.parametrize("fit", [
    lambda X: fit_edmd(X[:, :-1], X[:, 1:], dictionary=IdentityDictionary(3)),
    lambda X: fit_trajectory(Trajectory(dim=3, dt=0.1, states=X.T), IdentityDictionary(3)),
], ids=["fit_edmd", "fit_trajectory"])
def test_finite_data_too_large_to_square_is_degenerate(fit, scale, refused):
    X = np.random.default_rng(12).normal(size=(3, 3001)) * scale
    if refused:
        with pytest.raises(DegenerateDataError, match="too large in magnitude"):
            fit(X)
    else:
        assert np.isfinite(fit(X).fit_residual)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fit", [
    lambda X: fit_edmd(X[:, :-1], X[:, 1:], dictionary=IdentityDictionary(2)),
    lambda X: fit_trajectory(Trajectory(dim=2, dt=0.01, states=X.T), IdentityDictionary(2)),
], ids=["fit_edmd", "fit_trajectory"])
def test_subnormal_data_is_refused_without_a_warning(fit):
    # rank_tol * s[0] underflows to 0, so the zero singular value of the
    # all-zero x2 row passes the rank cut and K divides by it
    k = np.arange(50)
    X = np.vstack([(k % 7 + 1) * 1e-315, np.zeros(50)])
    with pytest.raises(DegenerateDataError, match="too large in magnitude"):
        fit(X)


@STREAMED_FITS
def test_zero_first_chunk_fits_and_all_zero_data_is_degenerate(fit):
    states = np.zeros((3 * _FIT_CHUNK, 2))
    rng = np.random.default_rng(10)
    states[_FIT_CHUNK + 1:] = rng.normal(size=(2 * _FIT_CHUNK - 1, 2))
    op = fit(Trajectory(dim=2, dt=0.1, states=states), IdentityDictionary(2))
    assert op.rank_used == 2
    zeros = Trajectory(dim=2, dt=0.1, states=np.zeros_like(states))
    with pytest.raises(DegenerateDataError, match="all zero"):
        fit(zeros, IdentityDictionary(2))


@pytest.mark.parametrize("fit", [
    lambda d: fit_trajectory(Trajectory(dim=2, dt=0.1, states=np.ones((10, 3))), d),
], ids=["trajectory-of-wrong-dim"])
def test_streamed_fits_reject_misshapen_data(fit):
    with pytest.raises(InputError):
        fit(MonomialDictionary(2, 3))


@pytest.mark.parametrize("rank_tol", [np.nan, np.inf, 2.0, 0.0, -1.0])
def test_fit_rejects_unusable_rank_tol(rank_tol):
    with pytest.raises(InputError, match="rank_tol"):
        fit_edmd(np.eye(2), np.eye(2), rank_tol, dictionary=IdentityDictionary(2))


def test_fit_rank_tol_one_keeps_the_top_singular_value():
    op = fit_edmd(np.diag([2.0, 1.0]), np.eye(2), 1.0, dictionary=IdentityDictionary(2))
    assert op.rank_used == 1
    np.testing.assert_allclose(op.matrix, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_pseudo_inverse_consistency():
    rng = np.random.default_rng(2)
    Yp = rng.normal(size=(3, 8))
    Yf = rng.normal(size=(3, 8))
    op = fit_edmd(Yp, Yf, dictionary=IdentityDictionary(3))
    pinv = np.linalg.pinv(Yp)
    assert np.max(np.abs(op.matrix @ Yp @ pinv - Yf @ pinv)) <= 1e-10


def test_dmd_equals_degree_one_monomials_bitwise():
    traj = simulate(make_system("toggle_switch"), [2.5, 0.5], 0.05, 60)
    op_id = fit_trajectory(traj, IdentityDictionary(2))
    op_mono = fit_trajectory(traj, MonomialDictionary(2, 1, include_constant=False))
    assert np.array_equal(op_id.matrix, op_mono.matrix)


def test_predict_zero_steps_is_lifted_state():
    op = op_from_matrix([[0.5, 0.0], [0.0, 0.2]])
    out = predict(op, [1.0, 2.0], 0)
    assert out.shape == (1, 2)
    assert np.array_equal(out[0], [1.0, 2.0])


def test_predict_matches_linear_truth():
    rng = np.random.default_rng(3)
    A = 0.9 * np.linalg.qr(rng.normal(size=(3, 3)))[0]  # contraction, no blowup
    Yp = rng.normal(size=(3, 30))
    op = fit_edmd(Yp, A @ Yp, dictionary=IdentityDictionary(3))
    x0 = rng.normal(size=3)
    out = predict(op, x0, 50)
    truth = x0.copy()
    for k in range(1, 51):
        truth = A @ truth
        assert np.linalg.norm(out[k] - truth) <= 1e-8


def test_training_one_step_error_equals_fit_residual():
    traj = simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, 300, discard=200)
    op = fit_trajectory(traj, IdentityDictionary(3))
    Yp, Yf = lifted_pairs(op.dictionary, traj)
    assert np.linalg.norm(op.matrix @ Yp - Yf) / np.linalg.norm(Yf) == pytest.approx(
        op.fit_residual, rel=1e-12
    )


def test_spectrum_ordering_and_rotation_eigenvalues():
    spec = spectrum(op_from_matrix(np.diag([0.5, 0.9])))
    np.testing.assert_allclose(spec.eigenvalues, [0.9, 0.5])

    phi = 0.3
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    spec = spectrum(op_from_matrix(rot))
    assert np.allclose(np.abs(spec.eigenvalues), 1.0)
    assert sorted(spec.eigenvalues.imag) == pytest.approx(
        [-np.sin(phi), np.sin(phi)], abs=1e-12
    )
    # conjugate pair adjacent, ascending imaginary part
    assert spec.eigenvalues[0].imag < spec.eigenvalues[1].imag


def test_spectrum_is_deterministic_and_normalized():
    rng = np.random.default_rng(4)
    K = rng.normal(size=(5, 5))
    a, b = spectrum(op_from_matrix(K)), spectrum(op_from_matrix(K))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.coefficients, b.coefficients)
    for i in range(5):
        w = a.coefficients[i]
        assert np.linalg.norm(w) == pytest.approx(1.0)
        nz = np.nonzero(np.abs(w) > 1e-12 * np.max(np.abs(w)))[0][0]
        assert w[nz].real >= 0
        defect = np.linalg.norm(w @ K - a.eigenvalues[i] * w)
        assert defect <= 1e-8 * np.linalg.norm(K)


def loop_spectrum(K):
    """Reference: spectrum's normalisation and sign rule one eigenvector at
    a time. Returns the eigenvalues and the rows w."""
    lam, W = np.linalg.eig(K.T)
    order = np.lexsort((lam.imag, -lam.real, -np.abs(lam)))
    W = W[:, order]
    coeffs = np.empty(K.shape, dtype=complex)
    for i in range(len(K)):
        w = W[:, i] / np.linalg.norm(W[:, i])
        nz = np.nonzero(np.abs(w) > 1e-12 * np.max(np.abs(w)))[0][0]
        if w[nz].real < 0 or (w[nz].real == 0 and w[nz].imag < 0):
            w = -w
        coeffs[i] = w
    return lam[order], coeffs


def test_spectrum_matches_the_per_eigenvector_loop():
    rng = np.random.default_rng(4)
    traj = simulate(make_system("lorenz"), [1.0, 1.0, 1.05], 0.01, 1000)
    mats = [fit_trajectory(traj, MonomialDictionary(3, 6)).matrix,
            rng.normal(size=(30, 30)), rng.normal(size=(1, 1)),
            np.diag([-1.0, 2.0, -0.5]), np.zeros((3, 3)),
            np.array([[0.0, -1.0], [1.0, 0.0]])]
    for K in mats:
        spec = spectrum(op_from_matrix(K))
        lam, coeffs = loop_spectrum(K)
        assert np.array_equal(spec.eigenvalues, lam)
        # the norms are summed in another order: a few ulps on unit vectors
        np.testing.assert_allclose(spec.coefficients, coeffs, rtol=0, atol=1e-15)


def test_spectrum_defect_error_names_the_first_failing_pair(monkeypatch):
    # eig of diag(1, 2, 3) with the vectors of 2 and 1 (sorted pairs 1 and
    # 2) spoiled: the error names pair 1
    eig = np.linalg.eig

    def spoiled(a):
        lam, W = eig(a)
        W[:, lam < 2.5] += 0.5
        return lam, W

    monkeypatch.setattr(np.linalg, "eig", spoiled)
    with pytest.raises(np.linalg.LinAlgError, match=r"^left eigenpair 1 defect "):
        spectrum(op_from_matrix(np.diag([1.0, 2.0, 3.0])))


def test_spectrum_similarity_invariance_for_builtin_fits():
    for name in ("lorenz", "toggle_switch", "hamiltonian"):
        system = make_system(name)
        group = builtin_group(name)
        traj = simulate(system, np.full(system.dim, 0.8), 0.01, 120)
        op = fit_trajectory(traj, IdentityDictionary(system.dim))
        for g in group.elements:
            R, R_inv = (op.dictionary.representation(m) for m in (g.matrix, g.matrix.T))
            conj = R @ op.matrix @ R_inv
            dist = eigenvalue_hausdorff(
                np.linalg.eigvals(op.matrix), np.linalg.eigvals(conj)
            )
            assert dist <= 1e-8


def test_eigenfunctions_of_diagonal_operator_are_coordinates():
    d = IdentityDictionary(2)
    spec = spectrum(op_from_matrix(np.diag([0.7, 0.4])))
    # eigenvalue 0.7 pairs with the first coordinate, 0.4 with the second
    assert spec.eigenvalues[0] == pytest.approx(0.7)
    for x in ([1.0, 0.0], [0.0, 1.0], [2.0, -3.0]):
        phi0 = eigenfunction_eval(spec, 0, d, x)
        phi1 = eigenfunction_eval(spec, 1, d, x)
        assert phi0 == pytest.approx(x[0])
        assert phi1 == pytest.approx(x[1])
    with pytest.raises(InputError):
        eigenfunction_eval(spec, 5, d, [0.0, 0.0])


@pytest.mark.parametrize("name", ["lorenz", "toggle_switch", "hamiltonian"])
def test_transported_eigenfunctions_are_transformed_dictionary_evaluations(name):
    """On the image set g M, the eigenfunctions of R K R^-1 under the base
    dictionary are those of K under the transformed dictionary psi(g^-1 x),
    each up to one complex scale, at the same eigenvalues."""
    traj = exact_tier_trajectory(name)
    rng = np.random.default_rng(21)
    x = np.array([draw_base_state(name, rng) for _ in range(50)])
    for dictionary in base_dictionaries(name).values():
        op = fit_trajectory(traj, dictionary, set_label="base")
        for g in builtin_group(name).elements:
            conjugated = transport_case1(op, g)
            moved = transport_case2(op, g)
            spec_c, spec_m = spectrum(conjugated), spectrum(moved)
            gx = x @ g.matrix.T
            for i, lam in enumerate(spec_c.eigenvalues):
                j = int(np.argmin(np.abs(spec_m.eigenvalues - lam)))
                assert abs(spec_m.eigenvalues[j] - lam) <= SPECTRUM_TOL
                a = np.array([eigenfunction_eval(spec_c, i, dictionary, y) for y in gx])
                b = np.array([eigenfunction_eval(spec_m, j, moved.dictionary, y)
                              for y in gx])
                scale = np.vdot(a, b) / np.vdot(a, a)
                assert np.linalg.norm(b - scale * a) <= 1e-10 * np.linalg.norm(b)


def test_group_action_preserves_eigenfunctions_when_commuting():
    # with K R = R K, w^T R^-1 is again a left eigenvector at the same lambda
    group = builtin_group("toggle_switch")
    swap = group.element("swap")
    d = IdentityDictionary(2)
    R, R_inv = d.representation(swap.matrix), d.representation(swap.matrix.T)
    K = np.array([[0.8, 0.1], [0.1, 0.8]])  # commutes with swap
    assert np.max(np.abs(K @ R - R @ K)) == 0.0
    spec = spectrum(op_from_matrix(K))
    for i, lam in enumerate(spec.eigenvalues):
        w = spec.coefficients[i] @ R_inv
        assert np.linalg.norm(w @ K - lam * w) <= 1e-10


def test_eigenvalue_hausdorff():
    assert eigenvalue_hausdorff([1.0, 2.0], [2.0, 1.0]) == 0.0
    assert eigenvalue_hausdorff([1.0], [1.0 + 0.5j]) == pytest.approx(0.5)


def test_operator_json_roundtrip(tmp_path):
    traj = simulate(make_system("toggle_switch"), [2.5, 0.5], 0.05, 40)
    op = fit_trajectory(traj, MonomialDictionary(2, 2), set_label="right")
    path = tmp_path / "op.json"
    write_json(path, operator_to_dict(op))
    loaded = load_operator(path)
    assert np.array_equal(loaded.matrix, op.matrix)
    assert loaded.set_label == op.set_label
    assert loaded.fit_residual == op.fit_residual
    assert loaded.rank_used == op.rank_used
    assert loaded.dictionary.to_spec() == op.dictionary.to_spec()
    # a second save/load round trip is value-identical as a dict
    assert operator_to_dict(operator_from_dict(operator_to_dict(op))) == operator_to_dict(op)


@pytest.mark.parametrize("transported", ["no", "false", 0, 1, None, [True], {}],
                         ids=["no", "string-false", "zero", "one", "null", "list", "object"])
def test_operator_from_dict_refuses_a_transported_flag_that_is_no_json_boolean(transported):
    data = operator_to_dict(op_from_matrix(np.eye(2)))
    data["provenance"] = {"transported": transported, "method": "conjugation"}
    with pytest.raises(ConfigurationError,
                       match="provenance transported must be true or false"):
        operator_from_dict(data)
    for flag in (True, False):
        data["provenance"]["transported"] = flag
        assert operator_from_dict(data).is_transported is flag
    # a provenance without the key, or none at all, is an operator fitted from data
    for provenance in ({"method": "fit"}, None):
        data["provenance"] = provenance
        assert not operator_from_dict(data).is_transported


def test_saved_json_is_indented_and_refuses_nan(tmp_path):
    import json

    from symkoop import SymkoopError

    op = op_from_matrix(np.diag([0.5, 0.9]))
    path = tmp_path / "op.json"
    write_json(path, operator_to_dict(op))
    assert path.read_text() == json.dumps(operator_to_dict(op), indent=2)
    nan_op = op_from_matrix(np.diag([0.5, np.nan]))
    with pytest.raises(SymkoopError, match="cannot write JSON") as info:
        write_json(tmp_path / "nan.json", operator_to_dict(nan_op))
    assert "\n" not in str(info.value)
    assert not (tmp_path / "nan.json").exists()


def test_spectrum_export_roundtrip():
    spec = spectrum(op_from_matrix(np.diag([0.5, 0.9])))
    out = spectrum_to_list(spec)
    assert len(out) == 2
    assert set(out[0]) == {"re", "im", "w_re", "w_im"}
    assert out[0]["re"] == pytest.approx(0.9)
    # every eigenvalue is real here, and the spectrum is still complex
    assert spec.eigenvalues.dtype == spec.coefficients.dtype == np.complex128
    for entry, lam, w in zip(out, spec.eigenvalues, spec.coefficients):
        assert (entry["re"], entry["im"]) == (lam.real, lam.imag)
        assert entry["w_re"] == w.real.tolist() and entry["w_im"] == w.imag.tolist()
