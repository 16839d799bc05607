import csv
import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachopt import (
    BudgetConstraint,
    ConstraintOperator,
    DimensionMismatchError,
    DirectionKind,
    InfeasibleStartError,
    Objective,
    TrajectoryRecord,
    TrajectoryStep,
    budget_from_config,
    constant_field,
    decompose,
    mask_field,
    objective_from_config,
    optimal_direction,
    quadratic_objective,
    rosenbrock_objective,
    run_ascent,
    sample_unit_effort,
    spherical_budget,
    write_trace_csv,
)
from conftest import drifting_objective, random_psd, rotating_field
from oracles import trace_csv_reference


class TestObjectives:
    def test_quadratic_values(self):
        objective = quadratic_objective(np.diag([2.0, 4.0]), [1.0, -1.0])
        point = np.array([1.0, 2.0])
        assert objective.evaluate(point) == pytest.approx(-0.5 * (2 + 16) + (1 - 2))
        assert np.allclose(objective.gradient(point), [-2.0 + 1.0, -8.0 - 1.0])

    def test_quadratic_dimension_check(self):
        with pytest.raises(ValueError):
            quadratic_objective(np.eye(2), [1.0, 2.0, 3.0])

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

    @pytest.mark.parametrize("center", [[1.0], [1.0, 0.0, 0.0]])
    def test_center_rejects_point_of_another_shape(self, center):
        # A length-1 center would otherwise broadcast against the point.
        budget = spherical_budget(2.0, center=center)
        for call in (budget.cost, budget.cost_gradient):
            with pytest.raises(DimensionMismatchError):
                call(np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "center", [[np.nan, 0.0], [0.0, -np.inf], [[0.0, 0.0]], 0.0],
        ids=["nan", "inf", "two-d", "scalar"],
    )
    def test_center_must_be_finite_and_one_dimensional(self, center):
        with pytest.raises(ValueError, match="center"):
            spherical_budget(1.0, center=center)

    def test_kappa_validation(self):
        for kappa in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                BudgetConstraint(lambda x: 0.0, lambda x: x, kappa)
            with pytest.raises(ValueError):
                spherical_budget(kappa)

    def test_config(self):
        budget = budget_from_config({"kind": "sphere", "kappa": 2.0})
        assert budget.kappa == 2.0
        assert budget_from_config(None) is None
        with pytest.raises(ValueError):
            budget_from_config({"kind": "cube", "kappa": 1.0})


class TestFeasibleDirection:
    """``optimal_direction`` with the cost gradient of an active budget as normal."""

    def test_interior_matches_unconstrained(self):
        # A normal with n . d_free <= 0 does not bind: the free direction stays.
        operator = ConstraintOperator([[2.0, 0.5], [0.5, 1.0]])
        gradient = np.array([1.0, 2.0])
        free = optimal_direction(operator, gradient)
        for point in ([0.1, -0.1], [-0.6, -0.8], [1.0, -0.5]):
            normal = spherical_budget(1.0).cost_gradient(np.array(point))
            assert normal @ free.direction <= 0.0
            constrained = optimal_direction(operator, gradient, normal)
            assert constrained.direction.tobytes() == free.direction.tobytes()
            assert constrained.first_order_gain == free.first_order_gain
            assert constrained.weighted_gradient_norm == free.weighted_gradient_norm

    def test_outward_gradient_becomes_degenerate(self):
        operator = ConstraintOperator(np.eye(2))
        budget = spherical_budget(1.0)
        normal = budget.cost_gradient(np.array([1.0, 0.0]))
        result = optimal_direction(operator, normal, normal)
        assert result.kind is DirectionKind.DEGENERATE

    def test_halfspace_projection(self):
        operator = ConstraintOperator(np.eye(2))
        budget = spherical_budget(1.0)
        normal = budget.cost_gradient(np.array([1.0, 0.0]))
        result = optimal_direction(operator, np.array([1.0, 1.0]), normal)
        assert np.allclose(result.direction, [0.0, 1.0], atol=1e-12)
        assert result.first_order_gain == pytest.approx(1.0, abs=1e-12)

    def test_projected_direction_stays_reachable(self, rng):
        operator = ConstraintOperator(np.diag([1.0, 1.0, 0.0]))
        budget = spherical_budget(1.0)
        point = np.array([1.0, 0.0, 0.0])
        normal = budget.cost_gradient(point)
        result = optimal_direction(operator, np.array([1.0, 0.5, 3.0]), normal)
        assert result.kind is DirectionKind.OPTIMAL
        off_image = result.direction - operator.project_onto_image(result.direction)
        assert np.linalg.norm(off_image) <= 1e-10
        assert float(normal @ result.direction) <= 1e-12

    def test_active_step_maximizes_in_the_effort_metric(self):
        # A is not a multiple of the identity on its image, so projecting the
        # free direction in the Euclidean metric gives [0, -1] with gain -0.2.
        operator = ConstraintOperator([[1.0, 0.9], [0.9, 1.0]])
        budget = spherical_budget(1.0)
        normal = budget.cost_gradient(np.array([1.0, 0.0]))
        result = optimal_direction(operator, np.array([1.0, 0.2]), normal)
        assert result.kind is DirectionKind.OPTIMAL
        assert np.allclose(result.direction, [0.0, 1.0], rtol=0.0, atol=1e-12)
        assert result.first_order_gain == pytest.approx(0.2, abs=1e-12)
        # g = A+ n / 2: the point is a KKT point of the boundary.
        kkt = optimal_direction(operator, np.array([1.0, 0.0]), normal)
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
        result = optimal_direction(operator, gradient, normal)
        gain = result.first_order_gain
        assert gain >= 0.0
        if result.kind is DirectionKind.OPTIMAL:
            assert gain == pytest.approx(result.weighted_gradient_norm, rel=1e-9)
            assert normal @ result.direction <= 1e-12 * np.linalg.norm(normal)
        samples = sample_unit_effort(operator, 4000, rng=generator)
        feasible = samples[samples @ normal <= 0.0]
        assert np.all(feasible @ gradient <= gain + 1e-9 * free.first_order_gain)

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

    @pytest.mark.parametrize(
        "gradient",
        [lambda x: 1.0, lambda x: x[None, :], lambda x: np.append(x, 0.0),
         lambda x: np.full(3, np.nan)],
        ids=["scalar", "row", "longer", "longer-nan"],
    )
    def test_gradient_of_another_shape_raises(self, gradient):
        # The shape is checked before finiteness, so a wrong shape is never "non-finite".
        objective = Objective(lambda point: float(point[0]), gradient)
        with pytest.raises(DimensionMismatchError):
            run_ascent(objective, constant_field(np.eye(2)), None, np.zeros(2), 3, 1e-2)

    def test_cost_gradient_of_another_length_at_an_active_budget_raises(self):
        base = spherical_budget(1.0)
        budget = BudgetConstraint(base.cost, lambda point: np.ones(3), base.kappa)
        objective = quadratic_objective(np.eye(2), [2.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            run_ascent(objective, constant_field(np.eye(2)), budget, [1.0, 0.0], 3, 1e-2)

    def test_field_of_another_dimension_raises(self):
        objective = quadratic_objective(np.eye(2), [2.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            run_ascent(objective, constant_field(np.eye(3)), None, np.zeros(2), 3, 1e-2)

    def test_field_and_gradient_of_another_dimension_than_the_point_raise(self):
        # A gradient that matches the field but not a one-entry point would broadcast it.
        objective = Objective(lambda point: float(point[0]), lambda point: np.ones(2))
        with pytest.raises(DimensionMismatchError, match="point"):
            run_ascent(objective, constant_field(np.eye(2)), None, np.zeros(1), 3, 1e-2)

    def test_field_is_called_at_the_non_finite_iterate(self):
        # The solve is the one check of the gradient, so the field runs before the stop.
        points = []

        def field(point):
            points.append(point.copy())
            return operator

        operator = constant_field(np.eye(2))(None)
        objective = Objective(lambda point: 0.0, lambda point: np.array([np.inf, 0.0]))
        record = run_ascent(objective, field, None, np.zeros(2), 5, 1e-2)
        assert record.status == "non-finite" and record.steps == []
        assert len(points) == 1 and np.array_equal(points[0], [0.0, 0.0])

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
        for eta in (0.0, -1e-2, math.nan, math.inf):
            with pytest.raises(ValueError):
                run_ascent(objective, field, None, np.zeros(2), 10, eta)

    def test_bool_eta_is_a_type_error_like_a_bool_steps(self):
        objective = quadratic_objective(np.eye(2), [3.0, -2.0])
        field = constant_field(np.eye(2))
        for eta in (True, np.True_):
            with pytest.raises(TypeError, match="eta"):
                run_ascent(objective, field, None, np.zeros(2), 2, eta)
        with pytest.raises(TypeError, match="steps"):
            run_ascent(objective, field, None, np.zeros(2), True, 0.1)
        for eta in (1, 0.1, np.float32(0.1), np.float64(0.1)):
            record = run_ascent(objective, field, None, np.zeros(2), 2, eta)
            assert record.steps[0].step_size == float(eta)
            assert type(record.steps[0].step_size) is float

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

    @pytest.mark.parametrize("kappa", [None, 0.05], ids=["free", "budget"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_eta_is_logged_as_a_float(self, dtype, kappa, tmp_path):
        objective = quadratic_objective(np.eye(2), [3.0, -2.0])
        field = constant_field(np.diag([1.0, 0.5]))
        budget = None if kappa is None else spherical_budget(kappa)
        eta = dtype(0.1)
        record = run_ascent(objective, field, budget, np.zeros(2), 30, eta)
        reference = run_ascent(objective, field, budget, np.zeros(2), 30, float(eta))
        assert all(type(row.step_size) is float for row in record.steps)
        assert _trajectory(record) == _trajectory(reference)
        write_trace_csv(record, tmp_path / "numpy.csv")
        write_trace_csv(reference, tmp_path / "float.csv")
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


def _trajectory(record):
    """Every logged number of a run, for bit-for-bit comparison."""
    points = np.array([row.point for row in record.steps] + [record.final_point])
    numbers = [(row.objective_value, row.cost_value or 0.0, row.first_order_gain,
                row.step_size) for row in record.steps]
    return record.status, points.tobytes(), np.array(numbers).tobytes()


class TestLoggedStepsMatchThePublicDirection:
    @settings(max_examples=30)
    @given(
        st.integers(2, 6), st.sampled_from(["constant", "mask", "budget"]),
        st.integers(0, 2**32 - 1),
    )
    def test_each_row_reproduces_optimal_direction_bit_for_bit(self, dim, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "mask":
            field = mask_field((rng.random(dim) < 0.7).astype(float))
        else:
            field = constant_field(random_psd(rng, dim, int(rng.integers(1, dim + 1))))
        center = 0.1 * rng.standard_normal(dim)
        budget = spherical_budget(0.5, center=center) if kind == "budget" else None
        objective = quadratic_objective(
            random_psd(rng, dim, dim, 0.5, 2.0), 3.0 * rng.standard_normal(dim)
        )
        record = run_ascent(objective, field, budget, center, 50, 0.05)
        following = [row.point for row in record.steps[1:]] + [record.final_point]
        for row, after in zip(record.steps, following):
            normal = budget.cost_gradient(row.point) if row.budget_active else None
            result = optimal_direction(field(row.point), objective.gradient(row.point), normal)
            assert result.kind is row.kind
            gain = np.float64(result.first_order_gain).tobytes()
            assert gain == np.float64(row.first_order_gain).tobytes()
            if row.step_size:
                after_step = row.point + row.step_size * result.direction
                assert after_step.tobytes() == after.tobytes()
            else:
                assert row.point.tobytes() == after.tobytes()


def _trace_bytes(write, record, path) -> bytes:
    write(record, path)
    return path.read_bytes()


class TestTraceBytes:
    """The joined-text trace writer reproduces the csv.writer bytes."""

    @settings(max_examples=60)
    @given(
        st.integers(1, 8), st.booleans(), st.integers(0, 40),
        st.sampled_from(["constant", "mask", "point-dependent"]), st.integers(0, 2**32 - 1),
    )
    def test_runs_match_the_csv_writer(
        self, tmp_path_factory, dim, budgeted, steps, kind, seed
    ):
        rng = np.random.default_rng(seed)
        if kind == "constant":
            field = constant_field(random_psd(rng, dim, int(rng.integers(1, dim + 1))))
        elif kind == "mask":
            field = mask_field((rng.random(dim) < 0.7).astype(float))
        else:
            field = rotating_field(dim)
        budget = spherical_budget(0.5) if budgeted else None
        objective = quadratic_objective(
            random_psd(rng, dim, dim, 0.5, 2.0), 3.0 * rng.standard_normal(dim)
        )
        record = run_ascent(objective, field, budget, np.zeros(dim), steps, 0.05)
        directory = tmp_path_factory.mktemp("trace")
        assert _trace_bytes(write_trace_csv, record, directory / "joined.csv") == _trace_bytes(
            trace_csv_reference, record, directory / "reference.csv")

    @pytest.mark.parametrize("cost", [None, 5e-324], ids=["free", "budget"])
    def test_extreme_values_match_the_csv_writer(self, cost, tmp_path):
        point = np.array([-0.0, 5e-324, 1.7976931348623157e308])
        first = TrajectoryStep(0, point, -0.0, cost, DirectionKind.OPTIMAL, 5e-324,
                               1.7976931348623157e308, False)
        # A run stops with a zero step on a degenerate direction or a non-finite candidate.
        for status, kind in (("degenerate", DirectionKind.DEGENERATE),
                             ("non-finite", DirectionKind.OPTIMAL)):
            last = TrajectoryStep(1, -point, 1.7976931348623157e308, cost, kind, 0.0, 0.0,
                                  cost is not None)
            record = TrajectoryRecord([first, last], status, -point, 1.7976931348623157e308, cost)
            joined = _trace_bytes(write_trace_csv, record, tmp_path / "joined.csv")
            assert joined == _trace_bytes(trace_csv_reference, record, tmp_path / "reference.csv")
            assert joined.count(b"\r\n") == 3
            assert b"-0.0,5e-324,1.7976931348623157e+308," in joined
            assert joined.endswith(f",{kind.value},0.0\r\n".encode())


class TestWarmStartedAscent:
    def test_long_point_dependent_run_matches_cold(self):
        dim = 8
        field = rotating_field(dim)
        operators = []

        def recorded(point):
            operators.append(field(point))
            return operators[-1]

        record = run_ascent(drifting_objective(dim), recorded, None, np.zeros(dim), 600, 0.01)
        assert record.status == "completed"
        last = operators[-1].spectrum
        assert np.max(np.abs(last.eigenvectors.T @ last.eigenvectors - np.eye(dim))) <= 1e-14
        warm_sweeps, cold_sweeps = [], []
        for operator in operators[1::50] + [operators[-1]]:
            warm, cold = operator.spectrum, decompose(operator.matrix)
            top = cold.eigenvalues[0]
            assert np.max(np.abs(warm.eigenvalues - cold.eigenvalues)) <= 1e-10 * top
            assert warm.rank == cold.rank
            vectors = warm.eigenvectors
            residual = operator.matrix.entries @ vectors - vectors * warm.eigenvalues
            assert np.max(np.abs(residual)) <= 1e-12 * top
            warm_sweeps.append(warm.sweeps)
            cold_sweeps.append(cold.sweeps)
        assert sum(warm_sweeps) < sum(cold_sweeps)
        # Outside the run, operators are built cold again.
        after = ConstraintOperator(operators[-1].matrix).spectrum
        assert after.eigenvectors.tobytes() == decompose(operators[-1].matrix).eigenvectors.tobytes()

    def test_a_start_of_another_dimension_is_dropped(self):
        # Step 0 builds a 2 x 2 operator and step 1 a 3 x 3 one, which Jacobi starts cold.
        rng = np.random.default_rng(48)
        small, large = random_psd(rng, 2, 2), random_psd(rng, 3, 3)
        built = []

        def growing(point):
            built.append(ConstraintOperator(large if built else small))
            return built[-1]

        objective = quadratic_objective(np.eye(2), [0.5, 0.3])
        with pytest.raises(DimensionMismatchError, match="operator of dimension 3"):
            run_ascent(objective, growing, None, np.zeros(2), 5, 0.01)
        assert len(built) == 2
        cold = decompose(large)
        assert built[1].spectrum.eigenvectors.tobytes() == cold.eigenvectors.tobytes()
        assert built[1].spectrum.eigenvalues.tobytes() == cold.eigenvalues.tobytes()

    def test_other_threads_build_cold(self):
        dim = 8
        field = rotating_field(dim)
        built = []

        def threaded(point):
            operator = field(point)
            worker = threading.Thread(target=lambda: built.append(field(point)))
            worker.start()
            worker.join()
            return operator

        run_ascent(drifting_objective(dim), threaded, None, np.zeros(dim), 5, 0.01)
        for operator in built:
            cold = decompose(operator.matrix)
            assert operator.spectrum.eigenvectors.tobytes() == cold.eigenvectors.tobytes()

    def test_warm_start_ends_when_the_field_raises(self):
        dim = 8
        field = rotating_field(dim)
        built = []

        def failing(point):
            built.append(field(point))
            if len(built) == 3:
                raise RuntimeError("field failed")
            return built[-1]

        with pytest.raises(RuntimeError, match="field failed"):
            run_ascent(drifting_objective(dim), failing, None, np.zeros(dim), 10, 0.01)
        assert built[1].spectrum.sweeps < decompose(built[1].matrix).sweeps
        after = ConstraintOperator(built[-1].matrix).spectrum
        assert after.eigenvectors.tobytes() == decompose(built[-1].matrix).eigenvectors.tobytes()

    def test_a_nested_run_leaves_the_outer_starts_alone(self):
        dim = 6
        field = rotating_field(dim)
        plain, nested = [], []

        def recorded(point):
            plain.append(field(point))
            return plain[-1]

        def nesting(point):
            # A short run of the same dimension, from elsewhere, before the outer operator.
            run_ascent(drifting_objective(dim), field, None, point + 1.0, 3, 0.01)
            nested.append(field(point))
            return nested[-1]

        reference = run_ascent(drifting_objective(dim), recorded, None, np.zeros(dim), 20, 0.01)
        record = run_ascent(drifting_objective(dim), nesting, None, np.zeros(dim), 20, 0.01)
        assert _trajectory(record) == _trajectory(reference)  # the final point too
        assert len(nested) == len(plain) == 20
        for a, b in zip(nested, plain):
            assert a.spectrum.eigenvectors.tobytes() == b.spectrum.eigenvectors.tobytes()
        cold = decompose(nested[0].matrix)
        assert nested[0].spectrum.eigenvectors.tobytes() == cold.eigenvectors.tobytes()
        assert nested[1].spectrum.sweeps < cold.sweeps

    @pytest.mark.parametrize(
        "matrix, make_field",
        [
            (np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]]), constant_field),
            (np.array([1.0, 0.0, 1.0]), mask_field),
        ],
        ids=["constant", "mask"],
    )
    def test_built_in_fields_keep_the_cold_bits(self, matrix, make_field):
        cold_operator = ConstraintOperator(np.diag(matrix) if matrix.ndim == 1 else matrix)
        objective = quadratic_objective(np.eye(3), [0.5, 0.7, -0.3])
        budget = spherical_budget(0.5)
        start = np.array([0.1, 0.2, -0.1])
        for limit in (None, budget):
            field = make_field(matrix)
            spectrum = field(start).spectrum
            assert spectrum.eigenvectors.tobytes() == cold_operator.spectrum.eigenvectors.tobytes()
            built = run_ascent(objective, field, limit, start, 150, 1e-2)
            reference = run_ascent(objective, lambda _p: cold_operator, limit, start, 150, 1e-2)
            assert _trajectory(built) == _trajectory(reference)
            assert field(start).spectrum is spectrum
