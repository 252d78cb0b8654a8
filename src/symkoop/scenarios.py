"""Named end-to-end verification scenarios for the built-in systems.

Each check re-derives what the theory guarantees from freshly simulated,
seeded data: group axioms, one-step equivariance, exact-tier conjugation
(operator fitted on exactly transformed data), statistical-tier conjugation
(operator fitted on an independent trajectory of the mirrored set),
similarity invariance of spectra, commutation on symmetric data, and
invariance of transformed sets. The CLI ``verify`` command runs these; the
acceptance test suite asserts them with pinned tolerances.

Each built-in group and each exact-tier trajectory is built once per
process, like the other built-in constants, and is read-only: every check
and every run shares the same arrays.
"""

import functools
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import dictionaries, dynamics, equivariant, groups, koopman
from .errors import ConfigurationError

EQUIVARIANCE_SAMPLES = 1000  # seeded box states of the equivariance check
EQUIVARIANCE_SEED = 0
EXACT_TIER_TOL = 1e-10  # relative Frobenius error of the exact conjugation tier
STAT_BASE_SEED = 2024  # base-set start of the statistical tier and seed_spread
STAT_INDEP_SEED = 999  # start of the statistical tier's independent mirrored fit
SPREAD_RESEEDS = 10  # same-set refits seed_spread compares with the base fit
SPECTRUM_TOL = 1e-8
COMMUTATION_TOL = 1e-8
IMAGE_SAMPLES = 20  # seeded base-set samples of the invariant-set image check
IMAGE_SEED = 5


@dataclass(frozen=True)
class Experiment:
    """What the checks of a built-in system run on. ``sets`` maps each
    invariant-set label, base first, to the element mapping the base set
    onto it and the set's membership predicate, which takes states as
    columns (dim, N) and returns a boolean mask (N,)."""

    box: tuple  # (lo, hi) per coordinate: equivariance probes, random starts
    draw: Callable  # rng -> a random initial condition in the base set
    sets: dict  # label -> (element label, predicate, or None if there is none)
    exact_run: tuple  # (x0, dt, n_steps), chosen for well-conditioned lifted data
    portrait: tuple  # (rng -> starts, n_steps, discard) of the phase portrait
    stat_run: Optional[tuple] = None  # (dt, n_steps, mirror element label)
    spread: Optional[float] = None  # frozen seed_spread(); the stat tier passes at 3x
    horizon: Optional[int] = None  # steps of the invariant-set image check
    commutation: bool = False  # whether commutation_symmetric runs


def _inside_separatrix(x):  # of the Hamiltonian flow: q^2 + p^2 < 18
    return x[0] * x[0] + x[1] * x[1] < 18.0


# The Lorenz sets are trajectory segments (the two wings of the attractor
# are exchanged, not preserved, by the flow; the per-trajectory conjugation
# result is what applies), the others are true invariant sets.
_EXPERIMENTS = {
    "lorenz": Experiment(
        box=((-20.0, 20.0), (-25.0, 25.0), (0.0, 45.0)),
        draw=lambda rng: np.array([1.0, 1.0, 1.05]) + rng.uniform(-0.5, 0.5, size=3),
        sets={"blue": ("e", None), "magenta": ("rot_pi_z", None)},
        exact_run=(dynamics._read_only(np.array([1.0, 1.0, 1.05])), 0.01, 500),
        portrait=(lambda rng: np.array([[1.0, 1.0, 1.05], [-1.0, -1.0, 1.05]]),
                  5000, 500),
    ),
    "toggle_switch": Experiment(
        box=((0.0, 4.0), (0.0, 4.0)),
        # right region x1 > x2, inside the basin of (2 + sqrt 3, 2 - sqrt 3)
        draw=lambda rng: np.array([rng.uniform(2.2, 3.6), rng.uniform(0.1, 1.2)]),
        sets={"right": ("e", lambda x: x[0] > x[1]),
              "left": ("swap", lambda x: x[1] > x[0])},
        exact_run=(dynamics._read_only(np.array([3.5, 1.2])), 0.05, 100),
        # box samples, then two starts on the separatrix x1 = x2
        portrait=(lambda rng: np.vstack([sample_box("toggle_switch", 14, rng),
                                         [[0.5, 0.5], [2.5, 2.5]]]), 400, 0),
        stat_run=(0.05, 100, "swap"),
        spread=0.045454100652963514,
        horizon=200,
        commutation=True,
    ),
    "hamiltonian": Experiment(
        box=((-4.0, 4.0), (-4.0, 4.0)),
        # around the center (3, 0): sector q > |p| inside q^2 + p^2 < 18
        draw=lambda rng: np.array([rng.uniform(2.4, 3.6), rng.uniform(-0.5, 0.5)]),
        sets={
            "IS-1": ("e", lambda x: (x[0] > np.abs(x[1])) & _inside_separatrix(x)),
            "IS-2": ("swap", lambda x: (x[1] > np.abs(x[0])) & _inside_separatrix(x)),
            "IS-3": ("negate", lambda x: (-x[0] > np.abs(x[1])) & _inside_separatrix(x)),
            "IS-4": ("swap*negate",
                     lambda x: (-x[1] > np.abs(x[0])) & _inside_separatrix(x)),
        },
        exact_run=(dynamics._read_only(np.array([3.4, 0.2])), 0.001, 400),
        # orbits around (3, 0) and their images under every group element
        portrait=(lambda rng: np.array([
            g.matrix @ np.array(x0)
            for x0 in ([2.0, 0.0], [2.6, 0.0], [3.3, 0.0], [3.9, 0.0])
            for g in groups.builtin_group("hamiltonian").elements
        ]), 1200, 0),
        stat_run=(0.001, 400, "swap"),
        spread=0.0037321276457658037,
        horizon=1000,
    ),
}


def experiment(name, needs=()):
    """The experiment of a built-in system, which must set the fields ``needs``."""
    record = _EXPERIMENTS.get(name)
    if record is None:
        raise ConfigurationError(f"no experiment for system {name!r}")
    for field in needs:
        if getattr(record, field) is None:
            raise ConfigurationError(f"system {name!r} has no {field}")
    return record


def sample_box(name, n, rng):
    lo, hi = np.array(experiment(name).box).T
    return rng.uniform(lo, hi, size=(n, len(lo)))


def draw_base_state(name, rng):
    """A random initial condition inside the base invariant set."""
    return experiment(name).draw(rng)


def membership_predicates(name):
    """Invariant-set membership tests keyed by registry label."""
    predicates = {label: p for label, (_, p) in experiment(name).sets.items()}
    if None in predicates.values():
        raise ConfigurationError(f"no membership predicates for {name!r}")
    return predicates


def builtin_registry(name):
    """Invariant-set registry for a built-in system."""
    sets = experiment(name).sets
    base, *images = sets
    return equivariant.InvariantSetRegistry(
        labels=tuple(sets), base_label=base,
        mapping={label: sets[label][0] for label in images},
    )


@functools.cache
def exact_tier_trajectory(name):
    """The exact-tier trajectory of a built-in system, built once per
    process; its states are read-only."""
    x0, dt, n = experiment(name).exact_run
    traj = dynamics.simulate(dynamics.make_system(name), x0, dt, n)
    dynamics._read_only(traj.states)
    return traj


def base_dictionaries(name):
    dim = dynamics.make_system(name).dim
    return {
        "identity": dictionaries.IdentityDictionary(dim),
        "monomial2": dictionaries.MonomialDictionary(dim, 2),
    }


# ---------------------------------------------------------------------------
# checks

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metrics: dict
    detail: str = ""

    def to_dict(self):
        return asdict(self)


def check_group_axioms(name):
    group = groups.builtin_group(name)
    report = groups.check_axioms(group)
    return CheckResult(
        name=f"group_axioms:{name}",
        passed=report["ok"],
        metrics=report,
        detail=f"order {group.order} table verified exhaustively",
    )


def check_equivariance(name):
    system = dynamics.make_system(name)
    group = groups.builtin_group(name)
    samples = sample_box(name, EQUIVARIANCE_SAMPLES,
                         np.random.default_rng(EQUIVARIANCE_SEED))
    report = groups.check_equivariance(system, group, system.dt, samples)
    worst = max((d for _, d, _ in report.entries), default=0.0)
    return CheckResult(
        name=f"equivariance:{name}",
        passed=report.all_passed,
        metrics={"worst_defect": worst, "tol": groups.EQUIVARIANCE_TOL,
                 "n_samples": EQUIVARIANCE_SAMPLES},
        detail=f"max relative defect {worst:.3e} over {EQUIVARIANCE_SAMPLES} states",
    )


def check_conjugation_exact(name):
    """Fit on a trajectory, refit on its exactly transformed copy, and
    compare against conjugation by the induced representation."""
    group = groups.builtin_group(name)
    traj = exact_tier_trajectory(name)
    worst = 0.0
    for dictionary in base_dictionaries(name).values():
        base = koopman.fit_trajectory(traj, dictionary, set_label="base")
        for g in group.elements[1:]:
            mirrored = koopman.fit_trajectory(
                groups.transform_trajectory(traj, g), dictionary,
                set_label=f"image:{g.label}",
            )
            report = equivariant.verify_conjugation(base, mirrored, g)
            worst = max(worst, report.frobenius_error)
    return CheckResult(
        name=f"conjugation_exact:{name}",
        passed=worst <= EXACT_TIER_TOL,
        metrics={"worst_frobenius_error": worst, "tol": EXACT_TIER_TOL},
        detail=f"worst relative Frobenius error {worst:.3e} "
               "(identity and monomial-2 dictionaries, all elements)",
    )


def stat_tier_fits(name, rngs, mirror=None):
    """Fit identity-dictionary operators on fresh seeded trajectories of the
    base set (or of its mirror image under ``mirror``), one start drawn from
    each generator in ``rngs``; all starts are integrated as one block."""
    system = dynamics.make_system(name)
    dt, n_steps, _ = experiment(name, needs=("stat_run",)).stat_run
    x0 = np.array([draw_base_state(name, rng) for rng in rngs])
    if mirror is not None:
        x0 = x0 @ mirror.matrix.T
    return [
        koopman.fit_trajectory(
            traj, dictionaries.IdentityDictionary(system.dim),
            set_label="stat-tier",
        )
        for traj in dynamics.simulate(system, x0, dt, n_steps)
    ]


def seed_spread(name):
    """Seed-to-seed eigenvalue Hausdorff spread of reseeded same-set fits.

    This is the oracle behind the frozen ``Experiment.spread``: the maximum
    distance between the base fit's eigenvalues and those of SPREAD_RESEEDS
    refits from fresh initial conditions in the same invariant set.
    """
    seeds = [STAT_BASE_SEED, *range(100, 100 + SPREAD_RESEEDS)]
    rngs = [np.random.default_rng(s) for s in seeds]
    base, *others = stat_tier_fits(name, rngs)
    ev = np.linalg.eigvals(base.matrix)
    return max(
        (koopman.eigenvalue_hausdorff(np.linalg.eigvals(o.matrix), ev) for o in others),
        default=0.0,
    )


def check_conjugation_statistical(name):
    """Transported operator vs an operator fitted on independent data from
    the mirrored set, judged against 3x the frozen seed-to-seed spread."""
    record = experiment(name, needs=("stat_run", "spread"))
    mirror = groups.builtin_group(name).element(record.stat_run[2])
    (base,) = stat_tier_fits(name, [np.random.default_rng(STAT_BASE_SEED)])
    (indep,) = stat_tier_fits(name, [np.random.default_rng(STAT_INDEP_SEED)],
                              mirror=mirror)
    tol = 3.0 * record.spread
    report = equivariant.verify_conjugation(base, indep, mirror)
    passed = report.hausdorff_distance <= tol
    return CheckResult(
        name=f"conjugation_statistical:{name}",
        passed=passed,
        # no Frobenius bound: independent data need not give the same matrix
        metrics={"frobenius_error": report.frobenius_error,
                 "hausdorff_distance": report.hausdorff_distance,
                 "frobenius_tol": None, "hausdorff_tol": tol, "passed": passed},
        detail=f"eigenvalue Hausdorff {report.hausdorff_distance:.4f} "
               f"vs 3x frozen spread {tol:.4f}",
    )


def check_spectrum_invariance(name):
    group = groups.builtin_group(name)
    traj = exact_tier_trajectory(name)
    worst = 0.0
    for dictionary in base_dictionaries(name).values():
        op = koopman.fit_trajectory(traj, dictionary, set_label="base")
        ev = np.linalg.eigvals(op.matrix)
        for g in group.elements[1:]:
            transported = equivariant.transport_case1(op, g)
            worst = max(
                worst,
                koopman.eigenvalue_hausdorff(
                    ev, np.linalg.eigvals(transported.matrix)
                ),
            )
    return CheckResult(
        name=f"spectrum_invariance:{name}",
        passed=worst <= SPECTRUM_TOL,
        metrics={"worst_hausdorff": worst, "tol": SPECTRUM_TOL},
        detail=f"worst eigenvalue displacement under conjugation {worst:.3e}",
    )


def check_commutation_symmetric(name):
    """Fit on a trajectory united with its mirror image; the mirror element
    stabilizes that data set, so K must commute with its representation."""
    group = groups.builtin_group(name)
    mirror_label = experiment(name, needs=("stat_run",)).stat_run[2]
    mirror = group.element(mirror_label)
    traj = exact_tier_trajectory(name)
    union = [traj, groups.transform_trajectory(traj, mirror)]
    dictionary = dictionaries.IdentityDictionary(group.dim)
    op = koopman.fit_trajectory(union, dictionary, set_label="union")
    stabilizers = equivariant.data_stabilizer_labels(
        group, np.vstack([t.states[:-1] for t in union]))
    norm = equivariant.verify_commutation(op, mirror, stabilizers)
    return CheckResult(
        name=f"commutation_symmetric:{name}",
        passed=norm <= COMMUTATION_TOL,
        metrics={"commutator_norm": norm, "tol": COMMUTATION_TOL,
                 "stabilizers": list(stabilizers)},
        detail=f"relative commutator norm {norm:.3e} on {mirror_label}-invariant data",
    )


def check_invariant_set_image(name):
    """Invariance-of-image check: g maps invariant sets to invariant sets.
    Seeded samples of the base set are transformed by each registry element
    and integrated; every forward orbit must stay in the image set."""
    record = experiment(name, needs=("stat_run", "horizon"))
    system = dynamics.make_system(name)
    group = groups.builtin_group(name)
    registry = builtin_registry(name)
    predicates = membership_predicates(name)
    rng = np.random.default_rng(IMAGE_SEED)
    samples = np.array([draw_base_state(name, rng) for _ in range(IMAGE_SAMPLES)])
    reports = equivariant.verify_invariant_set_images(
        system,
        [(group.element(element), predicates[label])
         for label, element in registry.mapping.items()],
        samples, record.stat_run[0], record.horizon,
    )
    fractions = {label: r.fraction for label, r in zip(registry.mapping, reports)}
    passed = all(f == 1.0 for f in fractions.values())
    return CheckResult(
        name=f"invariant_set_image:{name}",
        passed=passed,
        metrics={"fractions": fractions, "horizon": record.horizon},
        detail="forward orbits of transformed samples stayed in the image sets"
               if passed else f"orbit escapes: {fractions}",
    )


# (check kind, the experiment field a system must set for the check to run
# on it), in the order ``verify`` reports them; systems run in table order
_CHECK_TABLE = (
    ("group_axioms", None),
    ("equivariance", None),
    ("conjugation_exact", None),
    ("conjugation_statistical", "stat_run"),
    ("spectrum_invariance", None),
    ("commutation_symmetric", "commutation"),
    ("invariant_set_image", "horizon"),
)


def _run_check(kind, name):
    # looked up at call time, so a rebound check_<kind> (tracing, tests) runs
    return globals()[f"check_{kind}"](name)


ALL_CHECKS = [
    (f"{kind}:{name}", functools.partial(_run_check, kind, name))
    for kind, needs in _CHECK_TABLE
    for name, record in _EXPERIMENTS.items()
    if needs is None or getattr(record, needs)
]


def check_names():
    return [name for name, _ in ALL_CHECKS]


def run_verification(names=None):
    """Run the selected checks (all by default) and collect the results."""
    selected = ALL_CHECKS if names is None else [
        (n, fn) for n, fn in ALL_CHECKS if n in set(names)
    ]
    return [fn() for _, fn in selected]
