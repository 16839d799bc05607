"""Every call the benchmark in ``perfbench/`` makes into the library, in its form.

The benchmark drives the public API with positional arguments, reads named
result fields and patches module attributes that ``from .x import y``
re-binds. A change that breaks one of those forms fails here, in the fast
suite, before the benchmark ever runs.
"""

import json

import numpy as np

import reachopt as ro
import reachopt.cli
import reachopt.io
import reachopt.operators


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_ascent_calls():
    quadratic = ro.quadratic_objective(np.diag([1.0, 2.0]), np.array([0.5, -0.3]))
    objective = ro.Objective(quadratic.evaluate, quadratic.gradient, quadratic.name)
    sphere = ro.spherical_budget(1.0)
    budget = ro.BudgetConstraint(sphere.cost, sphere.cost_gradient, 1.0)
    rosenbrock = ro.rosenbrock_objective()
    for field in (ro.constant_field(np.diag([2.0, 1.0])), ro.mask_field(np.array([1.0, 0.0])),
                  lambda p: ro.ConstraintOperator(np.diag([1.0 + p[0] ** 2, 1.0]))):
        for payoff, constraint in ((objective, budget), (rosenbrock, None)):
            record = ro.run_ascent(payoff, field, constraint, np.array([0.1, 0.2]), 3, 0.01)
            assert record.status in ("completed", "degenerate", "budget-stall")
            assert isinstance(record.final_point, np.ndarray)
            assert isinstance(record.final_objective, float)
            assert record.final_cost is None or isinstance(record.final_cost, float)
            assert record.steps
            for row in record.steps:
                assert isinstance(row.step, int) and row.point.shape == (2,)
                assert all(isinstance(value, float) for value in (
                    row.objective_value, row.first_order_gain, row.step_size))
                assert (row.cost_value is None) == (constraint is None)
                assert row.budget_active in (True, False)


def test_operator_and_kernel_calls():
    matrix = np.diag([4.0, 2.0, 1.0, 0.0])
    gradient = np.array([1.0, -1.0, 0.5, 0.2])
    operator = ro.ConstraintOperator(matrix)
    spectrum = operator.spectrum
    assert (spectrum.rank, spectrum.eigenvalues.shape, spectrum.eigenvectors.shape) == (3, (4,), (4, 4))
    assert np.array_equal(ro.decompose(matrix).eigenvalues, spectrum.eigenvalues)
    result = ro.optimal_direction(operator, gradient)
    assert (result.kind.value, result.direction.shape, type(result.first_order_gain)) == (
        "optimal", (4,), float)
    k = ro.smallest_k_for_error(spectrum, 0.6)
    kernel = ro.truncate(spectrum, k)
    assert (kernel.k, kernel.op_error) == (1, 0.5)
    compressed, report = kernel.apply_with_residual(gradient)
    assert compressed.shape == (4,)
    assert report.residual_norm_sq == sum(term for _, term in report.per_mode_contributions)
    # The truncation sweep of operator-scan and cli-files, in its exact form.
    sweep = []
    for k in range(spectrum.rank + 1):
        kernel = ro.truncate(spectrum, k)
        compressed, report = kernel.apply_with_residual(gradient)
        sweep.append((kernel.op_error, compressed, report.residual_norm_sq))
    assert [op_error for op_error, _, _ in sweep] == [1.0, 0.5, 0.25, 0.0]
    assert all(compressed.shape == (4,) for _, compressed, _ in sweep)
    assert [residual for _, _, residual in sweep] == [0.5625, 0.3125, 0.0625, 0.0]


def test_cone_calls():
    family = ro.CouplingFamily(tuple(
        ro.CircularCone(np.array(axis), half) for axis, half in (([1.0, 0.0], 0.2), ([0.0, 1.0], 0.3))
    ))
    threshold = ro.find_gamma_star(family, 1e-3, 64, seed=0)
    low, high = threshold.bracket
    assert (threshold.gamma_star, threshold.tolerance) == (high, high - low)
    assert threshold.witness.shape == (2,)
    verdict = ro.is_feasible(family, threshold.gamma_star)
    assert verdict.feasible and verdict.residual <= 1e-9 and verdict.witness.shape == (2,)
    assert ro.is_feasible(family, 0.0).witness is None
    curve = ro.phi_curve(family, np.linspace(0.0, 1.0, 3), 100, 7)
    assert len(curve) == 3


def test_io_and_cli_calls(tmp_path, capsys):
    operator_path = _write(tmp_path / "operator.json",
                           {"dim": 2, "entries": [[2.0, 0.0], [0.0, 1.0]]})
    gradient_path = _write(tmp_path / "gradient.json", [1.0, 0.5])
    cones_path = _write(tmp_path / "cones.json", [{"axis": [1.0, 0.0], "half_angle_deg": 10.0},
                                                  {"axis": [0.0, 1.0], "half_angle_deg": 20.0}])
    config = {
        "objective": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                      "linear": [0.3, -0.2]},
        "operator_field": {"kind": "constant", "matrix": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}},
        "budget": None,
        "theta0": [0.0, 0.0],
        "steps": 3,
        "eta": 1e-3,
        "out": str(tmp_path / "trace.csv"),
    }
    config_path = _write(tmp_path / "run.json", config)

    assert ro.io.load_matrix(operator_path).dim == 2
    assert ro.io.load_vector(gradient_path).shape == (2,)
    assert len(ro.io.load_cone_family(cones_path).base_cones) == 2
    record = ro.run_ascent(ro.objective_from_config(config["objective"]),
                           ro.operator_field_from_config(config["operator_field"]),
                           None, np.asarray(config["theta0"], dtype=float), config["steps"],
                           config["eta"])
    ro.write_trace_csv(record, tmp_path / "reference.csv")

    for argv in (
        ["direction", "--operator", operator_path, "--gradient", gradient_path],
        ["compress", "--operator", operator_path, "--gradient", gradient_path, "--eps", "0.75",
         "--sweep", str(tmp_path / "sweep.csv")],
        ["threshold", "--cones", cones_path, "--tol", "0.001"],
        ["phi-curve", "--cones", cones_path, "--gamma-max", "1.0", "--steps", "3",
         "--samples", "100", "--seed", "5"],
        ["optimize", "--config", config_path],
    ):
        assert ro.cli.main(argv) == 0, argv
    capsys.readouterr()
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_module_attributes_the_tracer_patches():
    # The tracer replaces these re-bound names to nest its spans.
    assert reachopt.operators.decompose is reachopt.spectral.decompose
    assert reachopt.cli.optimal_direction is reachopt.directions.optimal_direction
