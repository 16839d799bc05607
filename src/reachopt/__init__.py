"""reachopt: constrained first-order ascent under reachability pricing.

Three layers: spectral geometry of PSD constraint operators (decomposition,
pseudoinversion, image projections), rank-k rule-kernel compression of the
ascent map with per-mode residual accounting, and compatibility analysis of
coupled circular-cone families (feasibility, thresholds, spherical measure).
An ascent runner ties the direction solver to budget constraints with full
trajectory logging.
"""

from .ascent import (
    BudgetConstraint,
    Objective,
    TrajectoryRecord,
    TrajectoryStep,
    quadratic_objective,
    rosenbrock_objective,
    run_ascent,
    spherical_budget,
    write_trace_csv,
)
from .cones import (
    CircularCone,
    CouplingFamily,
    FeasibilityResult,
    ThresholdResult,
    find_gamma_star,
    is_feasible,
    phi,
    phi_curve,
)
from .directions import (
    DirectionKind,
    DirectionResult,
    optimal_direction,
    sample_unit_effort,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleAtMaxError,
    InfeasibleStartError,
    JacobiConvergenceError,
    NotPositiveSemidefiniteError,
    ReachoptError,
)
from .io import budget_from_config, objective_from_config, operator_field_from_config
from .kernels import ResidualReport, RuleKernel, smallest_k_for_error, truncate
from .operators import (
    ConstraintOperator,
    OperatorField,
    constant_field,
    diag_decay_field,
    mask_field,
)
from .spectral import SpectralDecomposition, SymmetricMatrix, decompose

__version__ = "0.1.0"

__all__ = [
    "BudgetConstraint",
    "CircularCone",
    "ConstraintOperator",
    "CouplingFamily",
    "DimensionMismatchError",
    "DirectionKind",
    "DirectionResult",
    "FeasibilityResult",
    "InfeasibleAtMaxError",
    "InfeasibleStartError",
    "JacobiConvergenceError",
    "NotPositiveSemidefiniteError",
    "Objective",
    "OperatorField",
    "ReachoptError",
    "ResidualReport",
    "RuleKernel",
    "SpectralDecomposition",
    "SymmetricMatrix",
    "ThresholdResult",
    "TrajectoryRecord",
    "TrajectoryStep",
    "budget_from_config",
    "constant_field",
    "decompose",
    "diag_decay_field",
    "find_gamma_star",
    "is_feasible",
    "mask_field",
    "objective_from_config",
    "operator_field_from_config",
    "optimal_direction",
    "phi",
    "phi_curve",
    "quadratic_objective",
    "rosenbrock_objective",
    "run_ascent",
    "sample_unit_effort",
    "smallest_k_for_error",
    "spherical_budget",
    "truncate",
    "write_trace_csv",
]
