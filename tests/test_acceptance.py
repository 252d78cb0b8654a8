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
    GroupElement,
    IdentityDictionary,
    InputError,
    MonomialDictionary,
    assemble_global,
    builtin_group,
    check_axioms,
    data_stabilizer_labels,
    fit_edmd,
    fit_trajectory,
    generate_group,
    global_predict,
    hamiltonian_energy,
    make_system,
    predict,
    simulate,
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
        result = scenarios.check_equivariance(name)
        ok &= result.metrics["tol"] == 1e-12 and result.metrics["n_samples"] == 1000
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
        result = scenarios.check_conjugation_exact(name)
        ok &= result.metrics["tol"] == 1e-10
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
    k_left = transport_case1(k_right, swap, target_label="left")
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
    k_magenta = transport_case1(k_blue, half_turn, target_label="magenta")
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


def _assembled_global(name, d):
    group = builtin_group(name)
    registry = scenarios.builtin_registry(name)
    base = fit_trajectory(scenarios.exact_tier_trajectory(name), d,
                          set_label=registry.base_label)
    elements = {label: group.element(e) for label, e in registry.mapping.items()}
    return assemble_global(registry, base, elements)


def test_criterion_05_global_operator():
    ok = True
    worst = 0.0
    rng = np.random.default_rng(17)
    for name in ("toggle_switch", "hamiltonian"):
        for d in (IdentityDictionary(2), MonomialDictionary(2, 3)):
            gk = _assembled_global(name, d)
            dense = gk.as_matrix()
            for label in gk.labels:
                op = gk.block(label)
                sl = gk.block_slice(label)
                for _ in range(10):
                    x0 = rng.uniform(-3.0, 3.0, size=op.dictionary.dim)
                    local = predict(op, x0, 50)
                    ok &= np.array_equal(global_predict(gk, label, x0, 50), local)
                    # Psi_label(x0) embedded with zeros elsewhere, evolved by
                    # the dense block-diagonal matrix
                    stacked = np.zeros((51, gk.total_size))
                    stacked[0, sl] = op.dictionary.evaluate(x0)
                    for k in range(50):
                        stacked[k + 1] = dense @ stacked[k]
                    off = np.delete(stacked, np.s_[sl], axis=1)
                    ok &= bool(np.all(off == 0.0))
                    error = np.linalg.norm(stacked[:, sl] - local) / np.linalg.norm(local)
                    worst = max(worst, error)
    ok &= worst <= 1e-12
    _criterion(
        5,
        "global block prediction is bit-identical to local prediction, and the "
        "dense block-diagonal evolution keeps exactly zero off-block components",
        ok,
        f"dense block vs local {worst:.3e}",
    )


def test_criterion_06_spectrum_invariance():
    worst = 0.0
    ok = True
    for name in SYSTEMS:
        result = scenarios.check_spectrum_invariance(name)
        ok &= result.metrics["tol"] == 1e-8
        ok &= result.passed
        worst = max(worst, result.metrics["worst_hausdorff"])
    _criterion(
        6,
        "eigenvalue multisets invariant under conjugation to 1e-8",
        ok,
        f"worst displacement {worst:.3e}",
    )


def test_criterion_07_commutation_on_symmetric_data():
    result = scenarios.check_commutation_symmetric("toggle_switch")
    _criterion(
        7,
        "operator fitted on trajectory united with its mirror commutes "
        "with the swap to 1e-8",
        result.metrics["tol"] == 1e-8 and result.passed,
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

    # the data stabilizer of a trajectory moved by g must be the conjugate
    # g H g^-1 of the trajectory's own stabilizer H, for 20 seeded
    # trajectories per system
    for name in SYSTEMS:
        system = make_system(name)
        group = builtin_group(name)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x0 = scenarios.draw_base_state(name, rng)
            states = simulate(system, x0, 0.01, 40).states
            H = [group.index_of(lbl) for lbl in data_stabilizer_labels(group, states)]
            ok &= all(group.multiply(i, j) in H for i in H for j in H)
            for g, element in enumerate(group.elements):
                g_inv = group.inverse_index(g)
                conjugate = sorted(group.multiply(group.multiply(g, h), g_inv) for h in H)
                moved = data_stabilizer_labels(group, states @ element.matrix.T)
                ok &= moved == tuple(group.elements[k].label for k in conjugate)
    _criterion(
        8,
        "Klein group relations, Cayley-table axioms, and stabilizer "
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


def rbf_dictionary():
    """x, y and 8 Gaussian RBFs centred in the toggle switch's base box, as
    EDMD dictionaries are written (Williams, Kevrekidis & Rowley 2015); its
    span is not closed under the swap."""
    centres = np.random.default_rng(3).uniform([2.2, 0.1], [3.6, 1.2], size=(8, 2))
    return CustomDictionary(2, [lambda x: x[0], lambda x: x[1]] + [
        lambda x, c=c: np.exp(-((x[0] - c[0]) ** 2 + (x[1] - c[1]) ** 2) / 0.5)
        for c in centres
    ])


def test_criterion_11_induced_representation_suite():
    ok = True
    worst_hom = 0.0
    # homomorphism defect over all element pairs of the exact R, for
    # degree-2 monomials under the built-in groups and the C8 rotations
    cases = [(builtin_group(name), MonomialDictionary(builtin_group(name).dim, 2))
             for name in SYSTEMS]
    phi = math.pi / 4.0
    c8 = generate_group(
        [GroupElement("r8", np.array([[math.cos(phi), -math.sin(phi)],
                                      [math.sin(phi), math.cos(phi)]]))],
        max_order=16,
    )
    cases.append((c8, MonomialDictionary(2, 2)))
    for group, d in cases:
        reps = [d.representation(g.matrix) for g in group.elements]
        for i in range(group.order):
            for j in range(group.order):
                k = group.multiply(i, j)
                defect = float(np.max(np.abs(reps[k] - reps[i] @ reps[j])))
                worst_hom = max(worst_hom, defect)
    ok &= worst_hom <= 1e-8

    # out-of-sample defining identity Psi(g x) = R Psi(x) for every
    # built-in group at degrees 1-4, relative to the feature scale
    worst_def = 0.0
    rng = np.random.default_rng(11)
    for name in SYSTEMS:
        group = builtin_group(name)
        X = scenarios.sample_box(name, 50, rng).T
        for degree in range(1, 5):
            d = MonomialDictionary(group.dim, degree)
            F = d.evaluate_matrix(X)
            for g in group.elements:
                R = d.representation(g.matrix)
                defect = np.max(np.abs(d.evaluate_matrix(g.matrix @ X) - R @ F))
                worst_def = max(worst_def, float(defect / np.max(np.abs(F))))
    ok &= worst_def <= 1e-8

    # an RBF dictionary has no closed-form R: conjugation refuses it, and it
    # is assembled by dictionary transport, which forecasts the mirrored start
    # bit for bit
    d = rbf_dictionary()
    swap = builtin_group("toggle_switch").element("swap")
    system = make_system("toggle_switch")
    rng = np.random.default_rng(5)
    base = fit_trajectory(
        [simulate(system, scenarios.draw_base_state("toggle_switch", rng), 0.05, 100)
         for _ in range(6)], d, set_label="right")
    try:
        transport_case1(base, swap)
        ok = False
    except InputError:
        pass
    gk = assemble_global(scenarios.builtin_registry("toggle_switch"), base, {"left": swap})
    left = gk.block("left")
    ok &= left.provenance["method"] == "dictionary"
    x0 = scenarios.draw_base_state("toggle_switch", rng)
    ok &= np.array_equal(predict(left, swap.matrix @ x0, 50), predict(base, x0, 50))
    _criterion(
        11,
        "representation homomorphism and defining identity within 1e-8; "
        "an RBF dictionary refused R and transported by its dictionary",
        ok,
        f"worst homomorphism defect {worst_hom:.3e}, worst defect {worst_def:.3e}",
    )
