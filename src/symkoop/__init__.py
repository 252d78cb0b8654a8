"""symkoop: Koopman operator approximation for symmetric dynamical systems.

Fit a finite-dimensional Koopman operator on one invariant set from
trajectory data, then transport it to every symmetry-related set, and
assemble the verified global block-diagonal operator. Transport takes the
group element g: it conjugates with the induced feature-space
representation, R(g) K R(g)^-1 with R(g)^-1 formed as R(g^T) (g is
orthogonal), or transforms the dictionary where R has no closed form.
"""

from .dictionaries import (
    CustomDictionary,
    FeatureRepresentation,
    IdentityDictionary,
    MonomialDictionary,
    TransformedDictionary,
    dictionary_from_spec,
    induced_representation,
    lift,
)
from .dynamics import (
    SnapshotPairs,
    SystemDef,
    Trajectory,
    hamiltonian_energy,
    load_trajectory,
    make_system,
    save_trajectory,
    simulate,
    snapshots,
    step,
)
from .equivariant import (
    GlobalKoopman,
    InvariantSetRegistry,
    assemble_global,
    check_registry,
    data_stabilizer_labels,
    global_predict,
    load_registry,
    save_registry,
    transport_case1,
    transport_case2,
    verify_commutation,
    verify_conjugation,
    verify_invariant_set_image,
    verify_invariant_set_images,
)
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    InputError,
    IsotropyRequiredError,
    NonFiniteGroupError,
    NumericalDivergenceError,
    SymkoopError,
)
from .groups import (
    FiniteMatrixGroup,
    GroupElement,
    builtin_group,
    check_axioms,
    check_equivariance,
    generate_group,
    load_group,
    save_group,
    transform_snapshots,
    transform_trajectory,
)
from .koopman import (
    KoopmanApprox,
    Spectrum,
    eigenfunction_eval,
    eigenvalue_hausdorff,
    fit_edmd,
    fit_trajectory,
    load_operator,
    predict,
    spectrum,
)

__version__ = "0.1.0"
