"""Iterated constrained ascent with budget handling and trajectory logging.

Each step asks the operator field for the local geometry, computes the
unit-effort ascent direction, and moves by a fixed step size. When a budget
constraint is active at the current point and the direction would increase
the cost, the step maximizes the gain over reachable unit-effort directions
that do not raise the cost, d ~ A+(g - mu n) with n the cost gradient: the
gradient projection in the pseudoinverse metric. Steps that would break the
budget are retried with halved step sizes; a run halts early on a degenerate
direction, when backtracking is exhausted, or on a non-finite callback value.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .directions import DirectionKind, DirectionResult, _modal_direction, optimal_direction
from .errors import InfeasibleStartError
from .operators import ConstraintOperator, OperatorField
from .spectral import SymmetricMatrix

#: The budget counts as active when kappa - C(point) drops below this.
ACTIVATION_TOLERANCE = 1e-8

#: Accepted iterates may exceed kappa by at most this.
BUDGET_SLACK = 1e-8

BACKTRACK_LIMIT = 20

#: ``validate_gradient`` rejects a relative finite-difference mismatch above this.
GRADIENT_CHECK_TOLERANCE = 1e-5

#: Central finite-difference step of ``validate_gradient``.
FINITE_DIFFERENCE_STEP = 1e-6


@dataclass(frozen=True)
class Objective:
    """Payoff callbacks: scalar value and its gradient."""

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"


def quadratic_objective(matrix, linear) -> Objective:
    """Concave quadratic payoff ``-0.5 x'Qx + b'x`` with gradient ``-Qx + b``."""
    quad = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
    offset = np.asarray(linear, dtype=float)
    if offset.shape != (quad.dim,):
        raise ValueError("linear term does not match the quadratic dimension")

    def evaluate(point: np.ndarray) -> float:
        x = np.asarray(point, dtype=float)
        return float(-0.5 * (x @ quad.entries @ x) + offset @ x)

    def gradient(point: np.ndarray) -> np.ndarray:
        x = np.asarray(point, dtype=float)
        return -(quad.entries @ x) + offset

    return Objective(evaluate, gradient, name="quadratic")


def rosenbrock_objective(scale: float = 100.0) -> Objective:
    """Negated 2-d Rosenbrock valley, so that ascent targets the maximum at (1, 1)."""

    def evaluate(point: np.ndarray) -> float:
        x, y = float(point[0]), float(point[1])
        return -((1.0 - x) ** 2 + scale * (y - x * x) ** 2)

    def gradient(point: np.ndarray) -> np.ndarray:
        x, y = float(point[0]), float(point[1])
        return np.array(
            [
                2.0 * (1.0 - x) + 4.0 * scale * x * (y - x * x),
                -2.0 * scale * (y - x * x),
            ]
        )

    return Objective(evaluate, gradient, name="rosenbrock")


def objective_from_config(config: dict) -> Objective:
    kind = config.get("kind")
    if kind == "quadratic":
        return quadratic_objective(config["matrix"], config["linear"])
    if kind == "rosenbrock":
        return rosenbrock_objective(float(config.get("scale", 100.0)))
    raise ValueError(f"unknown objective kind: {kind!r}")


def validate_gradient(objective: Objective, points) -> float:
    """Check the gradient callback against central finite differences.

    Returns the worst relative mismatch over the probe points and raises
    ``ValueError`` if it exceeds ``GRADIENT_CHECK_TOLERANCE``.
    """
    worst = 0.0
    for point in points:
        x = np.asarray(point, dtype=float)
        grad = np.asarray(objective.gradient(x), dtype=float)
        numeric = np.zeros_like(x)
        for i in range(x.size):
            bump = np.zeros_like(x)
            bump[i] = FINITE_DIFFERENCE_STEP
            numeric[i] = (
                objective.evaluate(x + bump) - objective.evaluate(x - bump)
            ) / (2.0 * FINITE_DIFFERENCE_STEP)
        scale = max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, float(np.linalg.norm(grad - numeric)) / scale)
    if worst > GRADIENT_CHECK_TOLERANCE:
        raise ValueError(
            f"gradient mismatch {worst:.3e} exceeds tolerance {GRADIENT_CHECK_TOLERANCE:.1e}"
        )
    return worst


@dataclass(frozen=True)
class BudgetConstraint:
    """Cost functional with its gradient and the budget cap ``kappa``."""

    cost: Callable[[np.ndarray], float]
    cost_gradient: Callable[[np.ndarray], np.ndarray]
    kappa: float

    def __post_init__(self) -> None:
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")


def spherical_budget(kappa: float, center=None) -> BudgetConstraint:
    """Squared-distance cost ``|x - center|^2`` under the cap ``kappa``."""
    center_arr = None if center is None else np.asarray(center, dtype=float)

    def cost(point: np.ndarray) -> float:
        x = np.asarray(point, dtype=float)
        shifted = x if center_arr is None else x - center_arr
        return float(shifted @ shifted)

    def cost_gradient(point: np.ndarray) -> np.ndarray:
        x = np.asarray(point, dtype=float)
        shifted = x if center_arr is None else x - center_arr
        return 2.0 * shifted

    return BudgetConstraint(cost, cost_gradient, float(kappa))


def budget_from_config(config: dict | None) -> BudgetConstraint | None:
    if config is None:
        return None
    kind = config.get("kind")
    if kind == "sphere":
        return spherical_budget(float(config["kappa"]), config.get("center"))
    raise ValueError(f"unknown budget kind: {kind!r}")


@dataclass(frozen=True)
class TrajectoryStep:
    step: int
    point: np.ndarray
    objective_value: float
    cost_value: float | None
    kind: DirectionKind
    first_order_gain: float
    step_size: float
    budget_active: bool


@dataclass
class TrajectoryRecord:
    """Per-iteration log of an ascent run plus the terminal state."""

    steps: list[TrajectoryStep]
    status: str
    final_point: np.ndarray
    final_objective: float
    final_cost: float | None
    metadata: dict | None = None


def _is_active(budget: BudgetConstraint, cost_value: float) -> bool:
    return (budget.kappa - cost_value) < ACTIVATION_TOLERANCE * max(1.0, budget.kappa)


def feasible_direction(
    operator: ConstraintOperator,
    gradient,
    budget: BudgetConstraint,
    point,
) -> DirectionResult:
    """Ascent direction respecting both reachability and an active budget.

    Away from the budget boundary this is exactly the unconstrained optimal
    direction. At an active boundary where that direction would increase the
    cost, it is the maximizer of the gain among reachable unit-effort
    directions with n . d <= 0, n being the cost gradient: d ~ A+(g - mu n)
    with mu = (c_n . c_g / lambda) / (c_n . c_n / lambda) in the coefficients
    c = U_r'v on the retained modes. The result is degenerate, a KKT point of
    the boundary, when g - mu n fails the degeneracy test of
    :func:`optimal_direction`.
    """
    position = np.asarray(point, dtype=float)
    cost_value = float(budget.cost(position))
    if cost_value > budget.kappa + BUDGET_SLACK:
        raise InfeasibleStartError(
            f"cost {cost_value!r} exceeds the budget cap {budget.kappa!r}"
        )
    if not _is_active(budget, cost_value):
        return optimal_direction(operator, gradient)
    return _modal_direction(operator, gradient, budget.cost_gradient(position))


def run_ascent(
    objective: Objective,
    operator_field: OperatorField,
    budget: BudgetConstraint | None,
    theta0,
    steps: int,
    eta: float,
    metadata: dict | None = None,
) -> TrajectoryRecord:
    """Run fixed-step ascent from ``theta0`` and log every iteration.

    Status is ``"completed"`` after the full step budget, ``"degenerate"``
    when no ascent direction remains, ``"budget-stall"`` when even
    ``BACKTRACK_LIMIT`` halvings of the step cannot keep the cost under the
    cap, and ``"non-finite"`` when a callback returns a non-finite value. A
    non-finite gradient, or a non-finite cost gradient where the budget is
    active, stops the run at that iterate without logging or leaving it; a
    non-finite cost or objective at a candidate stops it at the current
    iterate, logged with step size 0, so no logged row or final field holds
    a non-finite value. A non-finite ``theta0``, or a non-finite
    objective or cost there, raises ``ValueError``, and a start outside the
    budget raises ``InfeasibleStartError``. The objective and the cost are
    evaluated once per point: an accepted candidate's values are logged at
    the next step.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    theta = np.array(theta0, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 entries must be finite")
    value = float(objective.evaluate(theta))
    if not math.isfinite(value):
        raise ValueError(f"objective at theta0 is not finite: {value!r}")
    cost_value = None
    if budget is not None:
        cost_value = float(budget.cost(theta))
        if not math.isfinite(cost_value):
            raise ValueError(f"cost at theta0 is not finite: {cost_value!r}")
        if cost_value > budget.kappa + BUDGET_SLACK:
            raise InfeasibleStartError(
                f"starting cost {cost_value!r} exceeds the budget cap {budget.kappa!r}"
            )

    rows: list[TrajectoryStep] = []
    status = "completed"
    for index in range(steps):
        grad = np.asarray(objective.gradient(theta), dtype=float)
        active = budget is not None and _is_active(budget, cost_value)
        normal = np.asarray(budget.cost_gradient(theta), dtype=float) if active else None
        if not np.all(np.isfinite(grad)) or (active and not np.all(np.isfinite(normal))):
            status = "non-finite"
            break
        operator = operator_field(theta)
        if active:
            result = _modal_direction(operator, grad, normal)
        else:
            result = optimal_direction(operator, grad)

        step_size, next_theta, next_cost = 0.0, None, None
        if result.kind is DirectionKind.DEGENERATE:
            status = "degenerate"
        elif budget is None:
            step_size, next_theta = eta, theta + eta * result.direction
        else:
            trial = eta
            for _ in range(BACKTRACK_LIMIT + 1):
                candidate = theta + trial * result.direction
                candidate_cost = float(budget.cost(candidate))
                if not math.isfinite(candidate_cost):
                    status = "non-finite"
                    break
                if candidate_cost <= budget.kappa + BUDGET_SLACK:
                    step_size, next_theta, next_cost = trial, candidate, candidate_cost
                    break
                trial *= 0.5
            else:
                status = "budget-stall"
        if next_theta is not None:
            next_value = float(objective.evaluate(next_theta))
            if not math.isfinite(next_value):
                status, step_size, next_theta = "non-finite", 0.0, None

        rows.append(
            TrajectoryStep(
                index, theta.copy(), value,
                cost_value, result.kind, result.first_order_gain, step_size, active,
            )
        )
        if next_theta is None:
            break
        theta, value, cost_value = next_theta, next_value, next_cost

    return TrajectoryRecord(
        steps=rows,
        status=status,
        final_point=theta,
        final_objective=value,
        final_cost=cost_value,
        metadata=metadata,
    )


def write_trace_csv(record: TrajectoryRecord, path) -> None:
    """Write the per-step log as CSV: step, theta..., J, C, gain, kind, eta_eff."""
    dim = record.final_point.shape[0]
    header = ["step", *(f"theta_{i}" for i in range(dim)), "J", "C", "gain", "kind",
              "eta_eff"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in record.steps:
            cost = "" if row.cost_value is None else repr(row.cost_value)
            writer.writerow(
                [
                    row.step,
                    *(repr(float(x)) for x in row.point),
                    repr(row.objective_value),
                    cost,
                    repr(row.first_order_gain),
                    row.kind.value,
                    repr(row.step_size),
                ]
            )
