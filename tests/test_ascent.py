import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachopt import (
    BudgetConstraint,
    ConstraintOperator,
    DirectionKind,
    InfeasibleStartError,
    Objective,
    budget_from_config,
    constant_field,
    feasible_direction,
    mask_field,
    objective_from_config,
    optimal_direction,
    quadratic_objective,
    rosenbrock_objective,
    run_ascent,
    sample_unit_effort,
    spherical_budget,
    validate_gradient,
    write_trace_csv,
)
from conftest import random_psd


class TestObjectives:
    def test_quadratic_values(self):
        objective = quadratic_objective(np.diag([2.0, 4.0]), [1.0, -1.0])
        point = np.array([1.0, 2.0])
        assert objective.evaluate(point) == pytest.approx(-0.5 * (2 + 16) + (1 - 2))
        assert np.allclose(objective.gradient(point), [-2.0 + 1.0, -8.0 - 1.0])

    def test_quadratic_dimension_check(self):
        with pytest.raises(ValueError):
            quadratic_objective(np.eye(2), [1.0, 2.0, 3.0])

    def test_builtin_gradients_pass_finite_differences(self, rng):
        quadratic = quadratic_objective(np.diag([1.0, 3.0]), [0.5, -0.25])
        probes = rng.uniform(-1.5, 1.5, size=(10, 2))
        assert validate_gradient(quadratic, probes) <= 1e-5
        rosen = rosenbrock_objective()
        assert validate_gradient(rosen, probes) <= 1e-5

    def test_validate_gradient_catches_mismatch(self):
        broken = quadratic_objective(np.eye(2), [0.0, 0.0])
        lying = type(broken)(
            evaluate=broken.evaluate,
            gradient=lambda x: broken.gradient(x) + np.array([0.5, 0.0]),
            name="broken",
        )
        with pytest.raises(ValueError):
            validate_gradient(lying, [np.array([0.3, 0.4])])

    def test_config_dispatch(self):
        objective = objective_from_config(
            {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]], "linear": [0.0, 0.0]}
        )
        assert objective.name == "quadratic"
        assert objective_from_config({"kind": "rosenbrock"}).name == "rosenbrock"
        with pytest.raises(ValueError):
            objective_from_config({"kind": "cubic"})


class TestBudget:
    def test_spherical_cost(self):
        budget = spherical_budget(1.0)
        assert budget.cost(np.array([0.6, 0.8])) == pytest.approx(1.0)
        assert np.allclose(budget.cost_gradient(np.array([0.5, 0.0])), [1.0, 0.0])

    def test_centered_cost(self):
        budget = spherical_budget(2.0, center=[1.0, 0.0])
        assert budget.cost(np.array([1.0, 0.0])) == 0.0

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            BudgetConstraint(lambda x: 0.0, lambda x: x, 0.0)

    def test_config(self):
        budget = budget_from_config({"kind": "sphere", "kappa": 2.0})
        assert budget.kappa == 2.0
        assert budget_from_config(None) is None
        with pytest.raises(ValueError):
            budget_from_config({"kind": "cube", "kappa": 1.0})


class TestFeasibleDirection:
    def test_interior_matches_unconstrained(self):
        operator = ConstraintOperator(np.eye(2))
        budget = spherical_budget(1.0)
        gradient = np.array([1.0, 2.0])
        point = np.array([0.1, 0.1])
        constrained = feasible_direction(operator, gradient, budget, point)
        unconstrained = optimal_direction(operator, gradient)
        assert np.array_equal(constrained.direction, unconstrained.direction)
        assert constrained.first_order_gain == unconstrained.first_order_gain

    def test_outward_gradient_becomes_degenerate(self):
        operator = ConstraintOperator(np.eye(2))
        budget = spherical_budget(1.0)
        point = np.array([1.0, 0.0])
        result = feasible_direction(operator, budget.cost_gradient(point), budget, point)
        assert result.kind is DirectionKind.DEGENERATE

    def test_halfspace_projection(self):
        operator = ConstraintOperator(np.eye(2))
        budget = spherical_budget(1.0)
        point = np.array([1.0, 0.0])
        result = feasible_direction(operator, np.array([1.0, 1.0]), budget, point)
        assert np.allclose(result.direction, [0.0, 1.0], atol=1e-12)
        assert result.first_order_gain == pytest.approx(1.0, abs=1e-12)

    def test_projected_direction_stays_reachable(self, rng):
        operator = ConstraintOperator(np.diag([1.0, 1.0, 0.0]))
        budget = spherical_budget(1.0)
        point = np.array([1.0, 0.0, 0.0])
        result = feasible_direction(operator, np.array([1.0, 0.5, 3.0]), budget, point)
        assert result.kind is DirectionKind.OPTIMAL
        off_image = result.direction - operator.project_onto_image(result.direction)
        assert np.linalg.norm(off_image) <= 1e-10
        normal = budget.cost_gradient(point)
        assert float(normal @ result.direction) <= 1e-12

    def test_active_step_maximizes_in_the_effort_metric(self):
        # A is not a multiple of the identity on its image, so projecting the
        # free direction in the Euclidean metric gives [0, -1] with gain -0.2.
        operator = ConstraintOperator([[1.0, 0.9], [0.9, 1.0]])
        budget = spherical_budget(1.0)
        point = np.array([1.0, 0.0])
        result = feasible_direction(operator, np.array([1.0, 0.2]), budget, point)
        assert result.kind is DirectionKind.OPTIMAL
        assert np.allclose(result.direction, [0.0, 1.0], rtol=0.0, atol=1e-12)
        assert result.first_order_gain == pytest.approx(0.2, abs=1e-12)
        # g = A+ n / 2: the point is a KKT point of the boundary.
        kkt = feasible_direction(operator, np.array([1.0, 0.0]), budget, point)
        assert kkt.kind is DirectionKind.DEGENERATE

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_active_step_beats_every_sampled_feasible_direction(self, seed):
        generator = np.random.default_rng(seed)
        dim = int(generator.integers(2, 7))
        rank = int(generator.integers(1, dim + 1))
        operator = ConstraintOperator(
            random_psd(generator, dim, rank, low=np.exp(-2.0), high=np.exp(2.0))
        )
        budget = spherical_budget(1.0)
        point = generator.standard_normal(dim)
        point /= np.linalg.norm(point)
        gradient = generator.standard_normal(dim)
        normal = budget.cost_gradient(point)
        free = optimal_direction(operator, gradient)
        assume(free.kind is DirectionKind.OPTIMAL and normal @ free.direction > 0.0)
        result = feasible_direction(operator, gradient, budget, point)
        gain = result.first_order_gain
        assert gain >= 0.0
        if result.kind is DirectionKind.OPTIMAL:
            assert gain == pytest.approx(result.weighted_gradient_norm, rel=1e-9)
            assert normal @ result.direction <= 1e-12 * np.linalg.norm(normal)
        samples = sample_unit_effort(operator, 4000, rng=generator)
        feasible = samples[samples @ normal <= 0.0]
        assert np.all(feasible @ gradient <= gain + 1e-9 * free.first_order_gain)

    def test_infeasible_point_raises(self):
        operator = ConstraintOperator(np.eye(2))
        budget = spherical_budget(1.0)
        with pytest.raises(InfeasibleStartError):
            feasible_direction(operator, np.ones(2), budget, np.array([2.0, 0.0]))


class TestRunAscent:
    def test_unconstrained_quadratic_reaches_stationarity(self):
        objective = quadratic_objective(np.eye(2), [0.3, -0.2])
        record = run_ascent(
            objective, constant_field(np.eye(2)), None, np.zeros(2), 10_000, 5e-5
        )
        assert record.status == "completed"
        grads = [np.linalg.norm(objective.gradient(s.point)) for s in record.steps]
        assert min(grads) < 1e-4

    def test_objective_nondecreasing_at_safe_step(self):
        objective = quadratic_objective(np.diag([1.0, 2.0]), [0.4, 0.3])
        record = run_ascent(
            objective, constant_field(np.eye(2)), None, np.zeros(2), 200, 1e-3
        )
        values = [s.objective_value for s in record.steps] + [record.final_objective]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_first_order_consistency_under_step_halving(self):
        objective = quadratic_objective(np.diag([1.0, 2.0]), [0.4, 0.3])
        field = constant_field(np.eye(2))
        start = np.array([0.05, -0.1])
        base_value = objective.evaluate(start)
        increments = []
        for eta in (1e-3, 5e-4):
            record = run_ascent(objective, field, None, start, 1, eta)
            increments.append(record.final_objective - base_value)
        ratio = increments[1] / increments[0]
        assert abs(ratio - 0.5) <= 0.05

    def test_rank_deficient_confinement(self):
        objective = quadratic_objective(np.eye(3), [0.5, 0.7, -0.3])
        field = mask_field([1, 0, 1])
        theta0 = np.array([0.2, 0.4, -0.1])
        record = run_ascent(objective, field, None, theta0, 500, 1e-3)
        operator = field(theta0)
        for step in list(record.steps) + [None]:
            point = record.final_point if step is None else step.point
            drift = point - theta0
            off_image = drift - operator.project_onto_image(drift)
            assert np.linalg.norm(off_image) <= 1e-8

    def test_budget_never_exceeded_and_terminates_at_kkt(self):
        # Isotropic quadratic; the constrained maximizer sits where the
        # scaled ray from the origin meets the budget sphere.
        objective = quadratic_objective(2.0 * np.eye(2), [2.4, 1.8])
        budget = spherical_budget(1.0)
        record = run_ascent(
            objective, constant_field(np.eye(2)), budget, np.zeros(2), 5000, 1e-3
        )
        assert record.status in ("degenerate", "budget-stall")
        costs = [s.cost_value for s in record.steps] + [record.final_cost]
        assert max(costs) <= 1.0 + 1e-8
        assert np.allclose(record.final_point, [0.8, 0.6], atol=1e-4)
        gradient = objective.gradient(record.final_point)
        normal = budget.cost_gradient(record.final_point)
        tangential = gradient - (gradient @ normal) / (normal @ normal) * normal
        assert np.linalg.norm(tangential) < 1e-3

    def test_anisotropic_budget_run_stays_safe(self):
        objective = quadratic_objective(np.diag([0.5, 2.0]), [2.0, 2.0])
        budget = spherical_budget(1.0)
        record = run_ascent(
            objective, constant_field(np.eye(2)), budget, np.zeros(2), 3000, 1e-3
        )
        costs = [s.cost_value for s in record.steps] + [record.final_cost]
        assert max(costs) <= 1.0 + 1e-8
        assert record.status in ("completed", "degenerate", "budget-stall")

    def test_degenerate_halts_early(self):
        objective = quadratic_objective(np.eye(2), [0.0, 1.0])
        field = mask_field([1, 0])  # payoff gradient lives in the kernel
        record = run_ascent(objective, field, None, np.zeros(2), 50, 1e-2)
        assert record.status == "degenerate"
        assert len(record.steps) == 1
        assert record.steps[0].kind is DirectionKind.DEGENERATE

    def test_infeasible_start_raises(self):
        objective = quadratic_objective(np.eye(2), [0.0, 0.0])
        with pytest.raises(InfeasibleStartError):
            run_ascent(
                objective,
                constant_field(np.eye(2)),
                spherical_budget(1.0),
                np.array([2.0, 0.0]),
                10,
                1e-2,
            )

    def test_non_finite_start_raises(self):
        objective = quadratic_objective(np.eye(2), [0.0, 0.0])
        field = constant_field(np.eye(2))
        with pytest.raises(ValueError):
            run_ascent(objective, field, None, [np.nan, 0.0], 10, 1e-2)
        nan_payoff = Objective(lambda point: math.nan, objective.gradient)
        with pytest.raises(ValueError):
            run_ascent(nan_payoff, field, None, np.zeros(2), 10, 1e-2)
        base = spherical_budget(1.0)
        nan_cost = BudgetConstraint(lambda point: math.nan, base.cost_gradient, base.kappa)
        with pytest.raises(ValueError):
            run_ascent(objective, field, nan_cost, np.zeros(2), 10, 1e-2)

    @pytest.mark.parametrize("broken", ["objective", "cost"])
    def test_non_finite_candidate_stops_the_run(self, broken):
        # The broken callback turns NaN past x = 0.015: one step of 0.01 is
        # taken, and the run stops at the second iterate, logged with step
        # size 0, instead of reporting NaN or backtracking.
        def spoiled(value):
            return lambda point: math.nan if point[0] > 0.015 else value(point)

        base = spherical_budget(1.0)
        payoff = lambda point: float(point[0])  # noqa: E731
        objective = Objective(
            spoiled(payoff) if broken == "objective" else payoff,
            lambda point: np.array([1.0, 0.0]),
        )
        cost = spoiled(base.cost) if broken == "cost" else base.cost
        budget = BudgetConstraint(cost, base.cost_gradient, base.kappa)
        record = run_ascent(
            objective, constant_field(np.eye(2)), budget, np.zeros(2), 10, 1e-2
        )
        assert record.status == "non-finite"
        assert [row.step_size for row in record.steps] == [1e-2, 0.0]
        assert np.array_equal(record.final_point, [0.01, 0.0])
        assert record.final_objective == 0.01
        assert record.final_cost == base.cost(np.array([0.01, 0.0]))
        for row in record.steps:
            assert math.isfinite(row.objective_value) and math.isfinite(row.cost_value)

    @pytest.mark.parametrize("budget", [None, spherical_budget(1.0)])
    def test_non_finite_gradient_stops_the_run(self, budget):
        # The gradient turns NaN past x = 0.015: two steps of 0.01 are taken,
        # and the run stops at the third iterate without leaving it.
        def gradient(point):
            return np.array([np.nan if point[0] > 0.015 else 1.0, 0.0])

        objective = Objective(lambda point: float(point[0]), gradient)
        record = run_ascent(
            objective, constant_field(np.eye(2)), budget, np.zeros(2), 10, 1e-2
        )
        assert record.status == "non-finite"
        assert len(record.steps) == 2
        assert np.array_equal(record.final_point, [0.02, 0.0])
        assert record.final_objective == 0.02

    def test_non_finite_cost_gradient_at_an_active_budget_stops_the_run(self):
        base = spherical_budget(1.0)
        budget = BudgetConstraint(base.cost, lambda point: np.full(2, np.nan), base.kappa)
        objective = quadratic_objective(np.eye(2), [2.0, 1.0])
        record = run_ascent(
            objective, constant_field(np.eye(2)), budget, [1.0, 0.0], 10, 1e-2
        )
        assert record.status == "non-finite"
        assert record.steps == []
        assert np.array_equal(record.final_point, [1.0, 0.0])

    def test_cost_evaluated_once_per_step(self):
        base = spherical_budget(1.0)
        calls = []

        def cost(point):
            calls.append(1)
            return base.cost(point)

        budget = BudgetConstraint(cost, base.cost_gradient, base.kappa)
        objective = quadratic_objective(np.eye(2), [0.3, -0.2])
        record = run_ascent(
            objective, constant_field(np.eye(2)), budget, np.zeros(2), 50, 1e-3
        )
        assert record.status == "completed"
        assert all(s.step_size == 1e-3 for s in record.steps)
        assert len(calls) == 51
        for step in record.steps:
            assert step.cost_value == base.cost(step.point)
        assert record.final_cost == base.cost(record.final_point)

    def test_parameter_validation(self):
        objective = quadratic_objective(np.eye(2), [0.0, 0.0])
        field = constant_field(np.eye(2))
        with pytest.raises(ValueError):
            run_ascent(objective, field, None, np.zeros(2), -1, 1e-2)
        with pytest.raises(ValueError):
            run_ascent(objective, field, None, np.zeros(2), 10, 0.0)

    def test_metadata_passthrough(self):
        objective = quadratic_objective(np.eye(2), [0.1, 0.1])
        record = run_ascent(
            objective,
            constant_field(np.eye(2)),
            None,
            np.zeros(2),
            3,
            1e-3,
            metadata={"label": "demo"},
        )
        assert record.metadata == {"label": "demo"}

    def test_trace_csv_roundtrip(self, tmp_path):
        objective = quadratic_objective(np.eye(2), [0.3, -0.2])
        budget = spherical_budget(1.0)
        record = run_ascent(
            objective, constant_field(np.eye(2)), budget, np.zeros(2), 5, 1e-3
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(record, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "theta_0", "theta_1", "J", "C", "gain", "kind", "eta_eff"]
        assert len(rows) == 1 + len(record.steps)
        first = rows[1]
        assert first[0] == "0"
        assert float(first[3]) == pytest.approx(record.steps[0].objective_value)
        assert first[6] == "optimal"
