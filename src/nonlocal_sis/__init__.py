"""Numerical laboratory for an SIS epidemic with nonlocal dispersal and a
hostile exterior.

The package discretizes the model on a midpoint quadrature grid, computes
its threshold quantities (principal eigenvalues, spectral bounds, the basic
reproduction number), solves for the disease-free equilibrium directly and
for the endemic one by monotone iteration from below and monotone Newton
from above, and time-integrates the
dynamics to check extinction and persistence against those predictions.
Report files are written by ``write_report`` alone.
"""

__version__ = "0.1.0"

from .domain import (
    CoefficientField,
    DomainSpec,
    FieldSpec,
    Grid,
    KernelSpec,
    ModelParams,
    ValidationReport,
    build_field,
    build_grid,
    kernel_value,
    load_coefficient_table,
    sample_field_values,
    validate_instance,
)
from .dynamics import (
    FieldTrajectory,
    IntegratorConfig,
    RateEstimate,
    State,
    Trajectory,
    check_convergence,
    estimate_rate,
    integrate,
    integrate_linear_infection,
    integrate_logistic,
    integrate_total_population,
    rhs,
)
from .equilibrium import (
    EndemicPair,
    EquilibriumResult,
    solve_disease_free,
    solve_endemic,
    solve_logistic_stationary,
)
from .errors import (
    ConfigError,
    IntegrationFailure,
    InvalidArgumentError,
    InvalidBracketError,
    InvalidCoefficientError,
    InvalidConfigError,
    InvalidStateError,
    InvalidWindowError,
    NoEndemicState,
    NonlocalSISError,
    NoPositiveState,
    PreconditionError,
    SolverFailure,
    SolverInconsistency,
    UniquenessViolation,
)
from .experiments import (
    ExperimentConfig,
    Instance,
    RunReport,
    load_config,
    parse_config,
    random_instance,
    run_scenario,
    run_verify_suite,
    write_report,
)
from .operators import (
    DispersalMatrix,
    apply_dispersal,
    assemble_dispersal,
)
from .spectral import (
    Eigenpair,
    SpectralReport,
    ThresholdResult,
    basic_reproduction_number,
    compute_spectral_report,
    critical_dispersal_rate,
    dispersal_principal_eigenpair,
    extreme_eigenpair,
    infection_growth_rate,
    recovery_spectral_bound,
)
