"""Assemble a global Koopman operator for the whole phase space from one
local fit.

The Hamiltonian system has four invariant families of periodic orbits,
mapped onto each other by the Klein four-group (swap, negation, and their
product). One operator is fitted on IS-1 around (3, 0); conjugation
transport fills in the other three blocks, and the global operator is their
block diagonal, acting on the disjoint union of the local feature spaces.
"""

import numpy as np

from symkoop import (
    IdentityDictionary,
    assemble_global,
    builtin_group,
    fit_trajectory,
    global_predict,
    induced_representation,
    make_system,
    predict,
    simulate,
)
from symkoop.scenarios import builtin_registry

system = make_system("hamiltonian")
group = builtin_group("hamiltonian")
registry = builtin_registry("hamiltonian")
dictionary = IdentityDictionary(2)

base = fit_trajectory(
    simulate(system, [3.2, 0.3], dt=1e-3, n_steps=400),
    dictionary, set_label="IS-1",
)
reps = {
    label: induced_representation(dictionary, group.element(element))
    for label, element in registry.mapping.items()
}
gk = assemble_global(registry, base, reps)

print(f"global operator: {gk.total_size}x{gk.total_size}, blocks {gk.labels}")
for label, op in gk.blocks:
    origin = "transported" if op.is_transported else "fitted"
    print(f"\nK_{label} ({origin}):")
    print(np.round(op.matrix, 4))

# predictions on any set go through its block; the rest of the stacked
# feature vector stays exactly zero
x0_is3 = np.array([-3.1, -0.2])  # a state of IS-3 = negate . IS-1
steps = 25
stacked = global_predict(gk, "IS-3", x0_is3, steps, full=True)
local = predict(gk.block("IS-3"), x0_is3, steps)
print("\nglobal vs block-local prediction identical:",
      np.array_equal(stacked[:, gk.block_slice('IS-3')], local))
off_block = np.delete(stacked, np.s_[gk.block_slice("IS-3")], axis=1)
print("off-block components all exactly zero:", bool(np.all(off_block == 0.0)))

dense = gk.as_matrix()
print(f"\ndense export nonzero pattern (8x8, 2x2 blocks): "
      f"{int(np.count_nonzero(dense))} nonzeros")
