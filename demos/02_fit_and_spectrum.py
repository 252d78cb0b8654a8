"""Fit finite Koopman approximations by least squares and inspect them.

The consecutive states of a trajectory form snapshot pairs. They are lifted
through a dictionary of observables, and the operator K = Yf pinv(Yp)
minimizing ||K Yp - Yf||_F is fitted. With the identity dictionary this is
plain DMD; richer monomial dictionaries capture more of the nonlinearity at
the price of a larger K.
"""

import numpy as np

from symkoop import (
    IdentityDictionary,
    MonomialDictionary,
    eigenfunction_eval,
    fit_trajectory,
    make_system,
    predict,
    simulate,
    spectrum,
)

system = make_system("toggle_switch")
traj = simulate(system, [3.5, 1.2], dt=0.05, n_steps=100)

for dictionary in (IdentityDictionary(2), MonomialDictionary(2, 2)):
    op = fit_trajectory(traj, dictionary, set_label="right")
    print(f"\n{dictionary.kind} dictionary, K is {op.size}x{op.size}: "
          f"residual {op.fit_residual:.3e}, rank {op.rank_used}")
    spec = spectrum(op)
    print("eigenvalues:", np.round(spec.eigenvalues, 6))

    # the fitted operator advances features: compare a 10-step forecast of
    # the lifted state against the lifted truth
    x0 = np.array([3.0, 0.8])
    forecast = predict(op, x0, 10)
    truth = simulate(system, x0, 0.05, 10)
    lifted_truth = dictionary.evaluate_matrix(truth.states.T).T
    coords = [dictionary.labels.index(lbl) for lbl in ("x1", "x2")]
    err = np.max(np.abs(forecast[:, coords] - lifted_truth[:, coords]))
    print(f"10-step state forecast error: {err:.3e}")

    # eigenfunctions evaluate through left eigenvectors
    phi0 = eigenfunction_eval(spec, 0, dictionary, x0)
    print(f"dominant eigenfunction at {x0}: {phi0:.6f}")
