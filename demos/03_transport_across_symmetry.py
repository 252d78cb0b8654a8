"""The core trick: infer the operator of a mirrored invariant set without
ever sampling it.

The toggle switch is equivariant under the coordinate swap, which maps the
x1 > x2 invariant region onto x2 > x1. Fit K_right from data of the right
region only, conjugate it with the induced feature representation of the
swap, and you hold K_left. An independent fit on actual left-region data
agrees: exactly when that data is the mirrored copy, and up to sampling
variation when it is a fresh trajectory. A dictionary with no closed-form
representation, such as Gaussian RBFs, is carried across by the second
route instead: the same matrix, observables composed with the inverse swap.
"""

import numpy as np

from symkoop import (
    CustomDictionary,
    IdentityDictionary,
    InputError,
    assemble_global,
    builtin_group,
    fit_trajectory,
    induced_representation,
    make_system,
    predict,
    simulate,
    transform_trajectory,
    transport_case1,
    transport_case2,
    verify_conjugation,
)
from symkoop.scenarios import EXACT_TIER_TOL, builtin_registry, draw_base_state

system = make_system("toggle_switch")
group = builtin_group("toggle_switch")
swap = group.element("swap")
dictionary = IdentityDictionary(2)

traj_right = simulate(system, [3.5, 1.2], dt=0.05, n_steps=100)
k_right = fit_trajectory(traj_right, dictionary, set_label="right")
print("K_right (fitted from right-region data):")
print(np.round(k_right.matrix, 4))

rep = induced_representation(dictionary, swap)
k_left = transport_case1(k_right, rep, target_label="left")
print("\nK_left = R K_right R^-1 (no left-region data used):")
print(np.round(k_left.matrix, 4))

# exact tier: refit on the mirrored copy of the same trajectory
k_left_mirror = fit_trajectory(
    transform_trajectory(traj_right, swap), dictionary, set_label="left"
)
exact = verify_conjugation(k_right, k_left_mirror, rep)
print(f"\nrefit on exactly mirrored data: relative Frobenius error "
      f"{exact.frobenius_error:.2e} (passed: {exact.frobenius_error <= EXACT_TIER_TOL})")

# statistical tier: an independent trajectory of the left region
traj_left = simulate(system, [0.8, 3.1], dt=0.05, n_steps=100)
k_left_indep = fit_trajectory(traj_left, dictionary, set_label="left")
stat = verify_conjugation(k_right, k_left_indep, rep)
print(f"independent left-region fit: eigenvalue Hausdorff distance "
      f"{stat.hausdorff_distance:.4f} (passed: {stat.hausdorff_distance <= 0.14})")

# route two: keep the matrix, transform the dictionary instead
transformed = transport_case2(k_right, swap, target_label="left").dictionary
x_left = np.array([0.7, 2.9])
print("\ndictionary transport: same matrix, observables composed with the "
      "inverse swap;")
print(f"  Psi'(x_left) = {transformed.evaluate(x_left)} observes the mirrored "
      f"state {swap.matrix @ x_left}")

# an RBF dictionary: x, y and 8 Gaussians centred in the right region's box;
# its span is not closed under the swap, so no R exists to conjugate with
centres = np.random.default_rng(3).uniform([2.2, 0.1], [3.6, 1.2], size=(8, 2))
rbf = CustomDictionary(2, [lambda x: x[0], lambda x: x[1]] + [
    lambda x, c=c: np.exp(-((x[0] - c[0]) ** 2 + (x[1] - c[1]) ** 2) / 0.5)
    for c in centres
])
try:
    induced_representation(rbf, swap)
except InputError as err:
    print(f"\nRBF dictionary: {err}")
rng = np.random.default_rng(5)
k_rbf = fit_trajectory([simulate(system, draw_base_state("toggle_switch", rng), 0.05, 100)
                        for _ in range(6)], rbf, set_label="right")
global_rbf = assemble_global(builtin_registry("toggle_switch"), k_rbf, {"left": swap})
left = global_rbf.block("left")
print(f"assembled 'left' by {left.provenance['method']} transport; "
      f"fit residual {k_rbf.fit_residual:.3e}")
x0 = draw_base_state("toggle_switch", rng)
same = np.array_equal(predict(left, swap.matrix @ x0, 20), predict(k_rbf, x0, 20))
truth = simulate(system, swap.matrix @ x0, 0.05, 20).states[-1]
forecast = swap.matrix @ predict(k_rbf, x0, 20)[-1, :2]
print(f"  forecast from swap x0 equals the base forecast from x0 bit for bit: {same}")
print(f"  its state after 20 steps is off the simulated truth by "
      f"{np.linalg.norm(forecast - truth):.2e}")
