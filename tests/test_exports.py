import reachopt

PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    # Growing the package's export list is a deliberate change: update this
    # list with it.
    assert sorted(reachopt.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(reachopt, name) is not None


def _result_objects():
    import numpy as np

    from reachopt import (
        CircularCone,
        ConstraintOperator,
        CouplingFamily,
        constant_field,
        decompose,
        find_gamma_star,
        is_feasible,
        optimal_direction,
        quadratic_objective,
        run_ascent,
        truncate,
    )

    cones = (CircularCone([1.0, 0.0], 0.3), CircularCone([0.0, 1.0], 0.3))
    family = CouplingFamily(cones)
    spectrum = decompose(np.eye(2))
    record = run_ascent(quadratic_objective(np.eye(2), [1.0, 0.0]),
                        constant_field(np.eye(2)), None, np.zeros(2), 2, 0.1)
    return [
        spectrum,
        optimal_direction(ConstraintOperator(np.eye(2)), [1.0, 0.0]),
        is_feasible(family, 0.5),
        find_gamma_star(family, 1e-6),
        cones[0],
        family,
        truncate(spectrum, 1).apply_with_residual([1.0, 1.0])[1],
        record.steps[0],
        record,
    ]


def test_result_objects_compare_by_identity():
    # Array fields make a generated __eq__ raise; these compare by identity.
    first, second = _result_objects(), _result_objects()
    assert len({type(obj) for obj in first}) == 9
    for obj, twin in zip(first, second):
        assert (obj == obj) is True
        assert (obj == twin) is False
        assert (obj != twin) is True
        assert hash(obj) == hash(obj)
