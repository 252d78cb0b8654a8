"""Run every built-in verification scenario and print the report.

The same checks back the CLI (``symkoop verify``): group axioms, one-step
equivariance of the integrator, both conjugation tiers, spectrum invariance
under conjugation, commutation on symmetric data, and invariance of
transformed sets. A final negative control shows what failure looks like:
declaring a sign flip of x alone as a Lorenz symmetry breaks equivariance.
"""

import numpy as np

from symkoop import GroupElement, check_equivariance, generate_group, make_system
from symkoop.scenarios import run_verification, sample_box

results = run_verification()
width = max(len(r.name) for r in results)
for r in results:
    print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
print(f"\n{sum(r.passed for r in results)}/{len(results)} checks passed")

# negative control: a wrong symmetry is caught immediately
wrong = generate_group([GroupElement("flip_x", np.diag([-1.0, 1.0, 1.0]))])
report = check_equivariance(
    make_system("lorenz"), wrong, 0.01,
    sample_box("lorenz", 200, np.random.default_rng(0)),
)
label, defect, passed = report.entries[0]
print(f"\nnegative control: declaring {label!r} a Lorenz symmetry gives a "
      f"one-step defect of {defect:.3f} (passed: {passed})")

# a failed check fails the script, so it can serve as a smoke test
raise SystemExit(0 if all(r.passed for r in results) else 1)
