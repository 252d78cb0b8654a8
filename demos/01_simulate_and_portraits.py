"""Simulate the three built-in systems and dump plot-ready phase portraits.

The Lorenz flow is chaotic with a half-turn symmetry about the z axis, the
toggle switch relaxes into one of two mirror-image equilibria separated by
the diagonal, and the Hamiltonian flow fills four families of periodic
orbits around the centers (+-3, 0) and (0, +-3). Everything here is plain
CSV output; point your favourite plotting tool at demos/out/.
"""

import pathlib

import numpy as np

from symkoop import hamiltonian_energy, make_system, save_trajectory, simulate
from symkoop.cli import _emit_phase_portrait
from symkoop.dynamics import DEFAULT_DT

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# Lorenz: land on the attractor (discard a transient), then record a while.
lorenz = make_system("lorenz")
traj = simulate(lorenz, [1.0, 1.0, 1.05], dt=0.01, n_steps=4000, discard=1000)
save_trajectory(traj, OUT / "lorenz_attractor.csv")
print(f"lorenz: {traj.n_states} on-attractor samples, "
      f"state range z in [{traj.states[:, 2].min():.1f}, {traj.states[:, 2].max():.1f}]")

# Toggle switch: two starts related by the swap land on mirrored equilibria.
toggle = make_system("toggle_switch")
for tag, x0 in (("right", [2.5, 0.5]), ("left", [0.5, 2.5])):
    traj = simulate(toggle, x0, dt=0.01, n_steps=3000)
    save_trajectory(traj, OUT / f"toggle_{tag}.csv")
    print(f"toggle {tag}: {x0} -> {np.round(traj.states[-1], 6)}")

# Hamiltonian: energy is conserved along every orbit.
ham = make_system("hamiltonian")
traj = simulate(ham, [3.4, 0.2], dt=1e-3, n_steps=5000)
h = [hamiltonian_energy(q, p) for q, p in traj.states[:: 500]]
print(f"hamiltonian: H along the orbit = {np.round(h, 9)}")
save_trajectory(traj, OUT / "hamiltonian_is1_orbit.csv")

# Full portraits (many trajectories, one CSV each with a traj_id column).
for name in ("lorenz", "toggle_switch", "hamiltonian"):
    _emit_phase_portrait(make_system(name), DEFAULT_DT[name],
                         OUT / f"{name}_portrait.csv")
