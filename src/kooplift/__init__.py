"""Exact lifted (Koopman) models of nonlinear systems with inputs.

The package constructs finite-dimensional lifted representations of
controlled nonlinear systems in continuous and discrete time, which are
linear parameter-varying models as built, fits constant-matrix approximations
from data, and certifies the state-response error between the two.
"""

from .bounds import (
    BetaScan,
    BoundReport,
    beta_grid,
    beta_trajectory,
    bounds_curve,
    build_bound_report,
    error_trajectory,
    stability_scalars,
)
from .dictionaries import (
    ObservableDictionary,
    monomial_dictionary,
    parse_dictionary,
    parse_monomial,
)
from .edmd import (
    AlphaSearchResult,
    SnapshotData,
    alpha_grid_search,
    build_snapshots,
    default_alpha_grid,
    edmd_full,
    edmd_tikhonov,
    edmdc_input_fit,
)
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    InvariantSubspaceViolation,
    KoopliftError,
    NumericEvaluationError,
)
from .examples import SystemBundle, builtin_system, ct_example, dt_example
from .lifting import (
    LiftedModel,
    build_lifted_model,
    compute_A_ct,
    compute_A_dt,
)
from .lpv import LTIKoopmanModel, make_lti, output_matrix
from .polynomials import Monomial, PolynomialMap
from .sim import (
    ErrorReport,
    SignalSpec,
    Trajectory,
    build_inputs,
    dt_simulate,
    error_metrics,
    multisine,
    rk4_integrate,
    signal_samples,
    simulate_ct,
    simulate_lpv,
    simulate_lti,
    simulate_nonlinear,
    white_noise,
)
from .systems import (
    CONTINUOUS,
    DISCRETE,
    Decomposition,
    DomainBox,
    control_affine_decomposition,
)

__version__ = "0.1.0"
