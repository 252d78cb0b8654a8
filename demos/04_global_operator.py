"""Assemble a global Koopman operator for the whole phase space from one
local fit.

The Hamiltonian system has four invariant families of periodic orbits,
mapped onto each other by the Klein four-group (swap, negation, and their
product). One operator is fitted on IS-1 around (3, 0); conjugation
transport fills in the other three blocks, and the global operator is their
block diagonal, acting on the disjoint union of the local feature spaces.
Evolving a start embedded in one block by the dense block-diagonal matrix
leaves every other block exactly zero, and its own block is the block-local
prediction up to rounding: so predictions go through one block.
"""

import numpy as np

from symkoop import (
    IdentityDictionary,
    assemble_global,
    builtin_group,
    fit_trajectory,
    global_predict,
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
elements = {label: group.element(e) for label, e in registry.mapping.items()}
gk = assemble_global(registry, base, elements)

print(f"global operator: {gk.total_size}x{gk.total_size}, blocks {gk.labels}")
for label, op in gk.blocks:
    origin = "transported" if op.is_transported else "fitted"
    print(f"\nK_{label} ({origin}):")
    print(np.round(op.matrix, 4))

# predictions on any set go through its block: global_predict is predict on
# that block, bit for bit
x0_is3 = np.array([-3.1, -0.2])  # a state of IS-3 = negate . IS-1
steps = 25
local = predict(gk.block("IS-3"), x0_is3, steps)
print("\nglobal vs block-local prediction identical:",
      np.array_equal(global_predict(gk, "IS-3", x0_is3, steps), local))

# why that is the global evolution: the start Psi_IS-3(x0), embedded with
# zeros in the other blocks, evolved by the dense block-diagonal matrix
dense = gk.as_matrix()
print(f"dense export nonzero pattern (8x8, 2x2 blocks): "
      f"{int(np.count_nonzero(dense))} nonzeros")
sl = gk.block_slice("IS-3")
stacked = np.zeros((steps + 1, gk.total_size))
stacked[0, sl] = gk.block("IS-3").dictionary.evaluate(x0_is3)
for k in range(steps):
    stacked[k + 1] = dense @ stacked[k]
off_block = np.delete(stacked, np.s_[sl], axis=1)
print("dense evolution keeps off-block components exactly zero:",
      bool(np.all(off_block == 0.0)))
error = np.linalg.norm(stacked[:, sl] - local) / np.linalg.norm(local)
print("dense evolution's IS-3 block matches the block-local prediction "
      "within 1e-12 relative:", bool(error <= 1e-12))
