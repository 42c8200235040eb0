"""Stochastic differential game laboratory.

Finite-difference solvers for sup-inf (Isaacs-type) elliptic equations,
curvature-penalized approximations, exit-time Monte Carlo under
policy-dependent changes of time, measure and driving noise, and the
experiment harness that checks the value is invariant under those
changes.
"""

from .coefficients import (
    MatrixField,
    ScalarField,
    VectorField,
    parse_matrix,
    parse_scalar,
    parse_vector,
)
from .config import ConfigError, load_experiment
from .grids import DomainGrid, ValueField
from .harness import (
    VARIANTS,
    ExperimentConfig,
    InvarianceReport,
    ValueEstimate,
    VariantParams,
    VkConvergenceReport,
    build_variant_spec,
    estimate_value,
    run_invariance_suite,
    run_vk_convergence,
)
from .model import (
    ActionSets,
    DomainSpec,
    GameProblem,
    ValidationReport,
    validate_problem,
)
from .pde import (
    IsaacsSolver,
    PucciParams,
    RateReport,
    SolveConfig,
    convergence_study,
    evaluate_H,
    extend_problem,
    h_mono,
)
from .policies import (
    ConstantPolicy,
    ConstantResponder,
    FeedbackAlphaPolicy,
    FeedbackBetaPolicy,
    MarkovSelector,
    OccupancyPolicy,
    build_alpha_selector,
    build_beta_selector,
    submartingale_test,
    supermartingale_test,
)
from .simulate import (
    ControlAdaptedSpec,
    MartingaleReport,
    SimConfig,
    TrajectoryBatch,
    girsanov_martingale_check,
    increment_bound_study,
    pathwise_comparison,
    simulate_lanes,
    simulate_to_exit,
)

__version__ = "0.1.0"
