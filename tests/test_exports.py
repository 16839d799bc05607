import reachopt

PUBLIC_NAMES = [
    "BudgetConstraint",
    "CircularCone",
    "ConstraintOperator",
    "CouplingFamily",
    "DegenerateDirectionError",
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


def test_public_surface_is_pinned():
    # Growing the package's export list is a deliberate change: update this
    # list with it.
    assert sorted(reachopt.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(reachopt, name) is not None
