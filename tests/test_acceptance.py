"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Fitted operator entries depend on sampling choices (interval, trajectory
length, initial conditions), so there are no fixed golden matrices; every
criterion checks an algebraic identity or a property the theory guarantees
for self-generated, seeded data.
"""

import math

import numpy as np
import pytest

from symkoop import (
    CustomDictionary,
    DictionaryNotClosedError,
    GroupElement,
    IdentityDictionary,
    MonomialDictionary,
    assemble_global,
    builtin_group,
    check_axioms,
    conjugate_isotropy,
    fit_edmd,
    fit_trajectory,
    generate_group,
    global_predict,
    hamiltonian_energy,
    induced_representation,
    isotropy_set,
    make_system,
    predict,
    simulate,
    transform_trajectory,
    transport_case1,
)
from symkoop import scenarios

SYSTEMS = ("lorenz", "toggle_switch", "hamiltonian")


def _criterion(number, description, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} [criterion {number:>2}] {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_equivariance():
    worst = 0.0
    ok = True
    for name in SYSTEMS:
        result = scenarios.check_equivariance(name, n_samples=1000, tol=1e-12)
        ok &= result.passed
        worst = max(worst, result.metrics["worst_defect"])
    _criterion(
        1,
        "one-step equivariance defect <= 1e-12 over 1000 seeded states",
        ok,
        f"worst defect {worst:.3e}",
    )


def test_criterion_02_exact_conjugation_tier():
    worst = 0.0
    ok = True
    for name in SYSTEMS:
        result = scenarios.check_conjugation_exact(name, tol=1e-10)
        ok &= result.passed
        worst = max(worst, result.metrics["worst_frobenius_error"])
    _criterion(
        2,
        "operator refit on exactly transformed data equals R K R^-1 "
        "to 1e-10 (identity and monomial-2 dictionaries)",
        ok,
        f"worst relative Frobenius error {worst:.3e}",
    )


def test_criterion_03_statistical_conjugation_tier():
    ok = True
    details = []
    for name in ("toggle_switch", "hamiltonian"):
        frozen = scenarios.experiment(name).spread
        live = scenarios.seed_spread(name)
        # the frozen spread must still describe this experiment
        ok &= abs(live - frozen) <= 0.15 * frozen
        result = scenarios.check_conjugation_statistical(name)
        distance = result.metrics["hausdorff_distance"]
        ok &= distance <= 3.0 * frozen
        details.append(f"{name}: distance {distance:.4f} <= {3 * frozen:.4f}")
    _criterion(
        3,
        "independent mirrored-set fit within 3x frozen seed-to-seed spread",
        ok,
        "; ".join(details),
    )


def test_criterion_04_structural_reproduction():
    # toggle switch: conjugating by the swap permutes entries exactly
    d2 = IdentityDictionary(2)
    k_right = fit_trajectory(scenarios.exact_tier_trajectory("toggle_switch"), d2,
                             set_label="right")
    swap = builtin_group("toggle_switch").element("swap")
    k_left = transport_case1(
        k_right, induced_representation(d2, swap), target_label="left"
    )
    R, L = k_right.matrix, k_left.matrix
    ok = (
        L[0, 0] == R[1, 1]
        and L[1, 1] == R[0, 0]
        and L[0, 1] == R[1, 0]
        and L[1, 0] == R[0, 1]
    )

    # Lorenz: conjugating by the half-turn negates exactly the entries
    # coupling (x, y) with z, indices (1,3),(2,3),(3,1),(3,2) one-based
    d3 = IdentityDictionary(3)
    k_blue = fit_trajectory(scenarios.exact_tier_trajectory("lorenz"), d3,
                            set_label="blue")
    half_turn = builtin_group("lorenz").elements[1]
    k_magenta = transport_case1(
        k_blue, induced_representation(d3, half_turn), target_label="magenta"
    )
    B, M = k_blue.matrix, k_magenta.matrix
    for i in range(3):
        for j in range(3):
            expected = -B[i, j] if (i == 2) != (j == 2) else B[i, j]
            ok &= M[i, j] == expected
    _criterion(
        4,
        "transported operators show the expected permutation/sign "
        "structure exactly",
        ok,
    )


def _assembled_global(name):
    group = builtin_group(name)
    registry = scenarios.builtin_registry(name)
    d = IdentityDictionary(group.dim)
    base = fit_trajectory(scenarios.exact_tier_trajectory(name), d,
                          set_label=registry.base_label)
    reps = {
        label: induced_representation(d, group.element(element))
        for label, element in registry.mapping.items()
    }
    return assemble_global(registry, base, reps)


def test_criterion_05_global_operator():
    ok = True
    rng = np.random.default_rng(17)
    for name in ("toggle_switch", "hamiltonian"):
        gk = _assembled_global(name)
        for label in gk.labels:
            op = gk.block(label)
            sl = gk.block_slice(label)
            for _ in range(10):
                x0 = rng.uniform(-3.0, 3.0, size=op.dictionary.dim)
                local = predict(op, x0, 50)
                ok &= np.array_equal(global_predict(gk, label, x0, 50), local)
                full = global_predict(gk, label, x0, 50, full=True)
                ok &= np.array_equal(full[:, sl], local)
                off = np.delete(full, np.s_[sl], axis=1)
                ok &= bool(np.all(off == 0.0))
    _criterion(
        5,
        "global block prediction is bit-identical to local prediction with "
        "exactly zero off-block components",
        ok,
    )


def test_criterion_06_spectrum_invariance():
    worst = 0.0
    ok = True
    for name in SYSTEMS:
        result = scenarios.check_spectrum_invariance(name, tol=1e-8)
        ok &= result.passed
        worst = max(worst, result.metrics["worst_hausdorff"])
    _criterion(
        6,
        "eigenvalue multisets invariant under conjugation to 1e-8",
        ok,
        f"worst displacement {worst:.3e}",
    )


def test_criterion_07_commutation_on_symmetric_data():
    result = scenarios.check_commutation_symmetric(tol=1e-8)
    _criterion(
        7,
        "operator fitted on trajectory united with its mirror commutes "
        "with the swap to 1e-8",
        result.passed,
        f"commutator norm {result.metrics['commutator_norm']:.3e}",
    )


def test_criterion_08_group_theory_suite():
    swap = GroupElement("g1", np.array([[0.0, 1.0], [1.0, 0.0]]))
    negate = GroupElement("g2", np.array([[-1.0, 0.0], [0.0, -1.0]]))
    klein = generate_group([swap, negate])
    i1, i2 = klein.index_of("g1"), klein.index_of("g2")
    i3 = klein.multiply(i1, i2)
    ok = klein.order == 4
    ok &= np.array_equal(klein.elements[i3].matrix, swap.matrix @ negate.matrix)
    ok &= klein.multiply(i1, i1) == 0
    ok &= klein.multiply(i2, i2) == 0
    ok &= klein.multiply(i3, i3) == 0

    for name in SYSTEMS:
        ok &= check_axioms(builtin_group(name))["ok"]

    # conjugated isotropy must equal the isotropy of the
    # transformed trajectory, for 20 seeded trajectories per system
    for name in SYSTEMS:
        system = make_system(name)
        group = builtin_group(name)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x0 = scenarios.draw_base_state(name, rng)
            traj = simulate(system, x0, 0.01, 40)
            report = isotropy_set(group, traj)
            ok &= report.is_subgroup
            for g in group.elements:
                direct = isotropy_set(group, transform_trajectory(traj, g))
                conjugated = conjugate_isotropy(group, report, g)
                ok &= direct.member_indices == conjugated.member_indices
    _criterion(
        8,
        "Klein group relations, Cayley-table axioms, and isotropy "
        "conjugation consistency",
        ok,
    )


def test_criterion_09_edmd_exactness_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        A = rng.normal(size=(dim, dim))
        Yp = rng.normal(size=(dim, 2 * dim + 5))
        op = fit_edmd(Yp, A @ Yp, dictionary=IdentityDictionary(dim))
        worst = max(worst, float(np.max(np.abs(op.matrix - A))))
    _criterion(
        9,
        "DMD recovers 20 random linear systems (dims 2-6) to 1e-10",
        worst <= 1e-10,
        f"worst entry error {worst:.3e}",
    )


def test_criterion_10_hamiltonian_energy_drift():
    system = make_system("hamiltonian")
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for _ in range(10):
        x0 = scenarios.draw_base_state("hamiltonian", rng)
        traj = simulate(system, x0, 1e-3, 10_000)
        h0 = hamiltonian_energy(*traj.states[0])
        drift = abs(hamiltonian_energy(*traj.states[-1]) - h0)
        bound = 1e-6 * (1.0 + abs(h0))
        ok &= drift <= bound
        worst = max(worst, drift / bound)
    _criterion(
        10,
        "energy drift over 1e4 RK4 steps at dt=1e-3 within 1e-6 relative",
        ok,
        f"worst drift at {worst:.2e} of the bound",
    )


def test_criterion_11_induced_representation_suite():
    ok = True
    worst_hom = 0.0
    # homomorphism defect over all element pairs, exact and numerical paths
    groups_to_try = [builtin_group(name) for name in SYSTEMS]
    phi = math.pi / 4.0
    c8 = generate_group(
        [GroupElement("r8", np.array([[math.cos(phi), -math.sin(phi)],
                                      [math.sin(phi), math.cos(phi)]]))],
        max_order=16,
    )
    groups_to_try.append(c8)
    for group in groups_to_try:
        d = MonomialDictionary(group.dim, 2)
        reps = [induced_representation(d, g, seed=3) for g in group.elements]
        for i in range(group.order):
            for j in range(group.order):
                k = group.multiply(i, j)
                defect = float(np.max(np.abs(
                    reps[k].matrix - reps[i].matrix @ reps[j].matrix
                )))
                worst_hom = max(worst_hom, defect)
    ok &= worst_hom <= 1e-8

    # out-of-sample defining identity: construction succeeds with residual
    # within tolerance for every built-in group at degrees 1-4
    worst_res = 0.0
    for name in SYSTEMS:
        group = builtin_group(name)
        for degree in range(1, 5):
            d = MonomialDictionary(group.dim, degree)
            for g in group.elements:
                rep = induced_representation(d, g, tol=1e-8)
                worst_res = max(worst_res, rep.residual)
    ok &= worst_res <= 1e-8

    # a lone quadratic monomial under a generic rotation is not closed
    lonely = CustomDictionary(
        2, [lambda x: x[0], lambda x: x[1], lambda x: x[0] ** 2]
    )
    generic = GroupElement("rot", np.array([
        [math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]
    ]))
    try:
        induced_representation(lonely, generic)
        ok = False
    except DictionaryNotClosedError:
        pass
    _criterion(
        11,
        "representation homomorphism and defining identity within 1e-8; "
        "non-closed dictionary correctly rejected",
        ok,
        f"worst homomorphism defect {worst_hom:.3e}, worst residual {worst_res:.3e}",
    )
