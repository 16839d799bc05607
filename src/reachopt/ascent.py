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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .directions import DirectionKind, optimal_direction
from .errors import DimensionMismatchError, InfeasibleStartError
from .operators import OperatorField, _local
from .spectral import SymmetricMatrix, _as_count, _as_real, _as_vector

#: The budget counts as active when kappa - C(point) drops below this.
ACTIVATION_TOLERANCE = 1e-8

#: Accepted iterates may exceed kappa by at most this.
BUDGET_SLACK = 1e-8

BACKTRACK_LIMIT = 20

@dataclass(frozen=True)
class Objective:
    """Payoff callbacks: scalar value and its gradient."""

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"


def quadratic_objective(matrix, linear) -> Objective:
    """Concave quadratic payoff ``-0.5 x'Qx + b'x`` with gradient ``-Qx + b``."""
    quad = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
    offset = _as_vector(linear, quad.dim, "linear")

    entries = quad.entries  # products stay `@`: at n = 1, `.dot` can give -0.0 for 0.0

    def evaluate(point: np.ndarray) -> float:
        x = np.asarray(point, dtype=float)
        return -0.5 * float(x @ entries @ x) + float(offset @ x)

    def gradient(point: np.ndarray) -> np.ndarray:
        x = np.asarray(point, dtype=float)
        return offset - entries @ x

    return Objective(evaluate, gradient, name="quadratic")


def rosenbrock_objective(scale: float = 100.0) -> Objective:
    """Negated 2-d Rosenbrock valley, so that ascent targets the maximum at (1, 1)."""
    scale = float(_as_real(scale, "scale"))
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")

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


@dataclass(frozen=True)
class BudgetConstraint:
    """Cost functional with its gradient and the budget cap ``kappa``, stored as a float."""

    cost: Callable[[np.ndarray], float]
    cost_gradient: Callable[[np.ndarray], np.ndarray]
    kappa: float

    def __post_init__(self) -> None:
        if not 0.0 < _as_real(self.kappa, "kappa") < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa!r}")
        object.__setattr__(self, "kappa", float(self.kappa))


def spherical_budget(kappa: float, center=None) -> BudgetConstraint:
    """Squared-distance cost ``|x - center|^2`` under the cap ``kappa``.

    A ``center`` that is not a finite nonempty 1-d sequence raises ``ValueError``,
    and a point of another shape than ``center`` ``DimensionMismatchError``.
    """
    center_arr = None if center is None else _as_vector(center, None, "center")

    def shift(point: np.ndarray) -> np.ndarray:
        x = np.asarray(point, dtype=float)
        if center_arr is not None and x.shape != center_arr.shape:
            raise DimensionMismatchError(f"point shape {x.shape} != center {center_arr.shape}")
        return x if center_arr is None else x - center_arr

    def cost(point: np.ndarray) -> float:
        shifted = shift(point)
        return float(shifted.dot(shifted))

    def cost_gradient(point: np.ndarray) -> np.ndarray:
        return 2.0 * shift(point)

    return BudgetConstraint(cost, cost_gradient, float(_as_real(kappa, "kappa")))


@dataclass(frozen=True, eq=False)
class TrajectoryStep:
    step: int
    point: np.ndarray
    objective_value: float
    cost_value: float | None
    kind: DirectionKind
    first_order_gain: float
    step_size: float
    budget_active: bool


@dataclass(eq=False)
class TrajectoryRecord:
    """Per-iteration log of an ascent run plus the terminal state."""

    steps: list[TrajectoryStep]
    status: str
    final_point: np.ndarray
    final_objective: float
    final_cost: float | None


def _is_active(budget: BudgetConstraint, cost_value: float) -> bool:
    return (budget.kappa - cost_value) < ACTIVATION_TOLERANCE * max(1.0, budget.kappa)


def run_ascent(
    objective: Objective,
    operator_field: OperatorField,
    budget: BudgetConstraint | None,
    theta0,
    steps: int,
    eta: float,
) -> TrajectoryRecord:
    """Run fixed-step ascent from ``theta0`` and log every iteration.

    Status is ``"completed"`` after the full step budget, ``"degenerate"`` when
    no ascent direction remains, ``"budget-stall"`` when even
    ``BACKTRACK_LIMIT`` halvings of the step cannot keep the cost under the
    cap, and ``"non-finite"`` when a callback returns a non-finite value. A
    gradient, or a cost gradient where the budget is active, of another shape
    than the point raises ``DimensionMismatchError``, as does an operator of
    another dimension; a non-finite one stops the run at that iterate without
    logging or leaving it, after the field has been called there; a non-finite
    cost or objective at a candidate stops it at the current iterate, logged
    with step size 0, so no logged row or final field holds a non-finite value.
    A negative ``steps`` (``TypeError`` if not an integer), an ``eta`` that is
    not positive and finite (``TypeError`` if a bool), a ``theta0`` that is not
    a finite nonempty 1-d vector, or a non-finite objective or cost there
    raises ``ValueError``, and a start outside the budget
    ``InfeasibleStartError``. The objective and the cost are evaluated once per
    point: an accepted candidate's values are logged at the next step. ``eta``
    is stored as a Python float, so every logged step size is one.

    An operator built during the run, with the previous step's dimension,
    is decomposed with Jacobi started from the previous step's
    eigenvectors, which need fewer sweeps when the basis turns little per
    step. Its bits then depend on the trajectory so far; repeat runs still
    match. Operators built beforehand, like those of the built-in fields,
    keep their cold bits; a field that caches operators it builds during a
    run carries that run's bits into later runs.
    """
    steps = _as_count(steps, "steps", 0)
    if not 0.0 < _as_real(eta, "eta") < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    eta = float(eta)
    theta = _as_vector(theta0, None, "theta0").copy()  # final_point must not alias theta0
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
    previous = getattr(_local, "start", None)
    _local.start = None
    try:
        for index in range(steps):
            grad = objective.gradient(theta)
            active = budget is not None and _is_active(budget, cost_value)
            normal = budget.cost_gradient(theta) if active else None
            operator = operator_field(theta)
            if theta.shape != (operator.dim,):
                raise DimensionMismatchError(
                    f"operator of dimension {operator.dim} does not match point {theta.shape}")
            _local.start = operator.spectrum.eigenvectors
            try:  # the solve checks each vector once, for its shape, then finiteness
                result = optimal_direction(operator, grad, normal)
            except DimensionMismatchError:
                raise
            except ValueError:
                status = "non-finite"
                break

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

            rows.append(TrajectoryStep(index, theta.copy(), value, cost_value, result.kind,
                                       result.first_order_gain, step_size, active))
            if next_theta is None:
                break
            theta, value, cost_value = next_theta, next_value, next_cost
    finally:
        _local.start = previous

    return TrajectoryRecord(rows, status, theta, value, cost_value)


def write_trace_csv(record: TrajectoryRecord, path) -> None:
    """Write the per-step log as CSV: step, theta..., J, C, gain, kind, eta_eff.

    Numbers after ``step`` are float ``repr``s, ``C`` is empty without a budget, lines end in CRLF.
    """
    dim = record.final_point.shape[0]
    lines = [",".join(["step", *(f"theta_{i}" for i in range(dim)), "J,C,gain,kind,eta_eff"])]
    for row in record.steps:
        cost = "" if row.cost_value is None else repr(row.cost_value)
        lines.append(",".join([str(row.step), *map(repr, row.point.tolist()),
                               repr(row.objective_value), cost, repr(row.first_order_gain),
                               row.kind.value, repr(row.step_size)]))
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join(lines) + "\r\n")
