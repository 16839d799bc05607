"""ascent-trajectory: one op is one fixed-length ``run_ascent``.

A block is a round of 20 runs:

- 12 constant-field runs: concave quadratics (n = 2-6) and the negated 2-d
  Rosenbrock valley, 500 steps, with and without ``spherical_budget``.
  Per-step Python overhead in ascent / directions / operators dominates them.
- 5 ``mask_field`` rank-deficient runs, one of which starts with no reachable
  payoff and ends ``degenerate`` at step 0.
- 3 runs of 30 steps on a point-dependent dense field at n = 8 that builds a
  ``ConstraintOperator`` from a rotated, point-dependent spectrum at every
  step, so many small Jacobi ``decompose`` calls dominate them.

Every logged step is checked: the objective and cost values, the budget
cap, the unit effort and reachability of the step direction, its gain, and
(away from an active budget) its agreement with the pseudoinverse oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracles import KnownSpectrum, close, expect, random_orthogonal
from workload import Op, Workload, pack

#: (kind, dimension) of each run in a round. Dimensions and spectra are fixed
#: per slot, so the cost of a round barely depends on the seed; the seed draws
#: eigenbases, payoffs and starting points.
ROUND = (
    ("quadratic", 2), ("quadratic-budget", 3), ("rosenbrock", 2), ("mask", 4),
    ("point-dependent", 8), ("quadratic", 3), ("rosenbrock-budget", 2), ("mask", 5),
    ("quadratic", 4), ("quadratic-budget", 5), ("rosenbrock", 2), ("mask-degenerate", 4),
    ("point-dependent", 8), ("quadratic", 6), ("rosenbrock-budget", 2), ("mask", 6),
    ("quadratic-budget", 4), ("rosenbrock", 2), ("mask", 3), ("point-dependent", 8),
)
STEPS, SMOKE_STEPS = 500, 50
DENSE_STEPS, SMOKE_DENSE_STEPS = 30, 5
WARM_UP_SEED = 0
BACKTRACK_LIMIT = 20
BUDGET_SLACK = 1e-8
ACTIVATION_TOLERANCE = 1e-8


class Quadratic:
    """Payoff ``-0.5 x'Qx + b'x``, evaluated row-wise."""

    def __init__(self, matrix, linear) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        self.linear = np.asarray(linear, dtype=float)

    def value(self, points):
        return -0.5 * np.einsum("ij,jk,ik->i", points, self.matrix, points) + points @ self.linear

    def gradient(self, points):
        return -(points @ self.matrix) + self.linear


class Rosenbrock:
    """Negated 2-d Rosenbrock valley with scale 100, evaluated row-wise."""

    def value(self, points):
        x, y = points[:, 0], points[:, 1]
        return -((1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2)

    def gradient(self, points):
        x, y = points[:, 0], points[:, 1]
        return np.stack([2.0 * (1.0 - x) + 400.0 * x * (y - x * x), -200.0 * (y - x * x)], axis=1)


class RotatingField:
    """Dense operator field whose eigenbasis and spectrum move with the point."""

    def __init__(self, rng, dim: int) -> None:
        self.basis = random_orthogonal(rng, dim)
        self.values = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=dim))
        self.turn = rng.standard_normal((dim, dim - 1))
        self.scale = rng.standard_normal((dim, dim))

    def spectrum(self, point) -> KnownSpectrum:
        basis = self.basis.copy()
        for i, angle in enumerate(0.5 * np.sin(point @ self.turn)):
            c, s = math.cos(angle), math.sin(angle)
            basis[:, [i, i + 1]] = basis[:, [i, i + 1]] @ np.array([[c, s], [-s, c]])
        return KnownSpectrum(basis, self.values * np.exp(0.3 * np.tanh(point @ self.scale)))


def fixed_spectrum(rng, dim: int, low: float, high: float) -> KnownSpectrum:
    """Eigenvalues spaced evenly in log scale over [low, high], random eigenbasis."""
    return KnownSpectrum(random_orthogonal(rng, dim), np.geomspace(low, high, dim))


@dataclass
class Case:
    """Inputs of one run and what the checker expects of it."""

    kind: str
    objective: object  # the library's Objective
    payoff: object  # the benchmark's own Quadratic or Rosenbrock
    spectrum_at: Callable[[np.ndarray], KnownSpectrum]
    field: object  # the library's operator field
    theta0: np.ndarray
    steps: int
    eta: float
    kappa: float | None = None
    mask: np.ndarray | None = None
    statuses: tuple = ("completed",)


class AscentTrajectory(Workload):
    name = "ascent-trajectory"

    def __init__(self, ro, seed: int, workdir, smoke: bool) -> None:
        super().__init__(ro, seed, workdir, smoke)
        self.steps = SMOKE_STEPS if smoke else STEPS
        self.dense_steps = SMOKE_DENSE_STEPS if smoke else DENSE_STEPS
        self.status_counts = {"completed": 0, "degenerate": 0, "budget-stall": 0}
        self.rows = 0
        self.budget_rows = 0
        self.budget_active_rows = 0
        self.backtracks = 0.0
        self.step_seconds = {"constant": [], "point_dependent": []}

    def warm_up(self) -> None:
        rng = np.random.default_rng(WARM_UP_SEED)
        for slot in (1, 3, 4):
            self._make_op(rng, *ROUND[slot], steps=5).run()

    def block(self, index: int) -> list[Op]:
        rng = self.rng("block", index)
        return [self._make_op(rng, kind, dim) for kind, dim in ROUND]

    def _callback(self, fn, key: str):
        if not self.counting:
            return fn
        counters = self.counters
        counters.setdefault(key, 0)

        def counted(point):
            counters[key] += 1
            return fn(point)

        return counted

    def _case(self, rng, kind: str, dim: int, steps: int | None) -> Case:
        ro = self.ro
        payoff = Quadratic(fixed_spectrum(rng, dim, 0.5, 2.0).matrix, rng.standard_normal(dim))
        if kind == "point-dependent":
            field = RotatingField(rng, dim)
            return Case(kind, ro.quadratic_objective(payoff.matrix, payoff.linear), payoff,
                        field.spectrum, lambda p: ro.ConstraintOperator(field.spectrum(p).matrix),
                        0.3 * rng.standard_normal(dim), steps or self.dense_steps, 0.05)
        steps = steps or self.steps
        if kind.startswith("mask"):
            mask = np.ones(dim)
            mask[rng.choice(dim, size=dim // 2, replace=False)] = 0.0
            spectrum = KnownSpectrum(np.eye(dim), mask.copy())
            start = rng.standard_normal(dim)
            statuses = ("completed",)
            if kind == "mask-degenerate":
                # Diagonal payoff with no linear term on the reachable coordinates:
                # the reachable gradient at a start that is zero there vanishes exactly.
                payoff = Quadratic(np.diag(np.geomspace(0.5, 2.0, dim)), payoff.linear * (1.0 - mask))
                start *= 1.0 - mask
                statuses = ("degenerate",)
            return Case(kind, ro.quadratic_objective(payoff.matrix, payoff.linear), payoff,
                        lambda p: spectrum, ro.mask_field(mask), start, steps, 0.01,
                        mask=mask, statuses=statuses)
        budget = kind.endswith("budget")
        if kind.startswith("rosenbrock"):
            spectrum = fixed_spectrum(rng, dim, 0.5, 2.0)
            payoff, objective, eta = Rosenbrock(), ro.rosenbrock_objective(), 1e-3
            start = np.array([-0.5, 0.5] if budget else [-1.2, 1.0]) + 0.05 * rng.standard_normal(2)
        else:
            spectrum, eta = fixed_spectrum(rng, dim, 0.1, 10.0), 0.01
            start = rng.standard_normal(dim)
            if budget:
                # The unconstrained maximum lies outside the unit ball, the start inside.
                peak = rng.standard_normal(dim)
                payoff.linear = payoff.matrix @ (2.5 * peak / np.linalg.norm(peak))
                start *= 0.3 / np.linalg.norm(start)
            objective = ro.quadratic_objective(payoff.matrix, payoff.linear)
        return Case(kind, objective, payoff, lambda p: spectrum, ro.constant_field(spectrum.matrix),
                    start, steps, eta, kappa=1.0 if budget else None,
                    statuses=("completed", "budget-stall") if budget else ("completed",))

    def _make_op(self, rng, kind: str, dim: int, steps: int | None = None) -> Op:
        ro = self.ro
        case = self._case(rng, kind, dim, steps)
        objective = ro.Objective(
            self._callback(case.objective.evaluate, "objective"),
            self._callback(case.objective.gradient, "gradient"),
            case.objective.name,
        )
        budget = None
        if case.kappa is not None:
            library_budget = ro.spherical_budget(case.kappa)
            budget = ro.BudgetConstraint(
                self._callback(library_budget.cost, "cost"),
                self._callback(library_budget.cost_gradient, "cost_gradient"),
                case.kappa,
            )

        def run():
            return ro.run_ascent(objective, case.field, budget, case.theta0, case.steps, case.eta)

        def check(record):
            check_trajectory(record, case)

        def encode(record):
            points = np.array([row.point for row in record.steps])
            return pack([record.status, len(record.steps), points, record.final_point,
                         record.final_objective, record.final_cost,
                         [row.step_size for row in record.steps],
                         [row.first_order_gain for row in record.steps]])

        return Op(kind, run, check, encode, {"case": case})

    def observe(self, op: Op, output, seconds: float) -> None:
        case = op.info["case"]
        rows = output.steps
        self.status_counts[output.status] = self.status_counts.get(output.status, 0) + 1
        self.rows += len(rows)
        if case.kappa is not None:
            self.budget_rows += len(rows)
            self.budget_active_rows += sum(row.budget_active for row in rows)
        self.backtracks += sum(
            math.log2(case.eta / row.step_size) for row in rows if row.step_size > 0.0
        )
        if rows:
            group = "point_dependent" if case.kind == "point-dependent" else "constant"
            self.step_seconds[group].append(seconds / len(rows))

    def layer_metrics(self) -> dict[str, float]:
        def per_step(key, base):
            return self.counters.get(key, 0) / base if base else 0.0

        def median_us(values):
            return float(np.median(values)) * 1e6 if values else 0.0

        return {
            "ascent.steps": float(self.rows),
            "ascent.step_us.constant": median_us(self.step_seconds["constant"]),
            "ascent.step_us.point_dependent": median_us(self.step_seconds["point_dependent"]),
            "ascent.cost_calls_per_step": per_step("cost", self.budget_rows),
            "ascent.gradient_calls_per_step": per_step("gradient", self.rows),
            "ascent.objective_calls_per_step": per_step("objective", self.rows),
            "ascent.backtracks": self.backtracks,
            "ascent.budget_active_share": (
                self.budget_active_rows / self.budget_rows if self.budget_rows else 0.0
            ),
            **{f"ascent.status.{k}": float(v) for k, v in self.status_counts.items()},
        }


def check_trajectory(record, case: Case) -> None:
    """Every logged step of a run against the benchmark's own arithmetic."""
    rows = record.steps
    expect(record.status in case.statuses, f"status {record.status!r} not in {case.statuses}")
    if record.status == "completed":
        expect(len(rows) == case.steps, f"{len(rows)} steps logged, {case.steps} run")
    else:
        expect(rows and rows[-1].step_size == 0.0, "a halted run must end on a zero step")
    if not rows:
        expect(np.array_equal(record.final_point, case.theta0), "final point moved")
        return
    points = np.array([row.point for row in rows])
    expect(np.array_equal(points[0], case.theta0), "the first logged point is not theta0")
    following = np.vstack([points[1:], record.final_point[None, :]])
    objective = np.array([row.objective_value for row in rows])
    expect(close(objective, case.payoff.value(points), 1e-12, 1e-12),
           "logged objective values differ from the payoff")
    expect(close(record.final_objective, case.payoff.value(record.final_point[None, :])[0],
                 1e-12, 1e-12), "final objective differs from the payoff")
    expect([row.step for row in rows] == list(range(len(rows))), "step indices are not 0..n-1")
    if case.kappa is None:
        expect(all(row.cost_value is None and not row.budget_active for row in rows),
               "an unbudgeted run logged a cost")
    else:
        cost = np.array([row.cost_value for row in rows])
        expect(np.all(cost <= case.kappa + BUDGET_SLACK), "a logged cost exceeds the cap")
        expect(close(cost, np.sum(points * points, axis=1), 1e-12, 1e-15),
               "logged costs differ from |x|^2")
        active = (case.kappa - cost) < ACTIVATION_TOLERANCE * max(1.0, case.kappa)
        expect(np.array_equal(active, [row.budget_active for row in rows]),
               "budget_active flags differ from the cost")
        expect(record.final_cost <= case.kappa + BUDGET_SLACK, "the final cost exceeds the cap")
    if case.mask is not None:
        fixed = case.mask == 0.0
        expect(np.all(points[:, fixed] == case.theta0[fixed]), "a masked coordinate moved")
    sizes = np.array([row.step_size for row in rows])
    moving = sizes > 0.0
    expect(np.all(moving[:-1]), "a zero step before the end of the run")
    if not moving[-1]:
        expect(np.array_equal(record.final_point, points[-1]), "final point moved after a halt")
        if record.status == "degenerate":
            expect(rows[-1].kind.value == "degenerate", "degenerate status on an optimal step")
            spectrum = case.spectrum_at(points[-1])
            gradient = case.payoff.gradient(points[-1:])[0]
            expect(spectrum.optimal_direction(gradient) is None
                   or np.linalg.norm(spectrum.matrix @ gradient) <= 1e-10 * np.linalg.norm(gradient),
                   "degenerate verdict where the oracle has a direction")
    halvings = np.log2(case.eta / sizes[moving])
    expect(np.all((halvings == np.round(halvings)) & (halvings >= 0)
                  & (halvings <= BACKTRACK_LIMIT)), "step sizes are not halvings of eta")
    gradients = case.payoff.gradient(points[moving])
    directions = (following[moving] - points[moving]) / sizes[moving][:, None]
    gains = np.array([row.first_order_gain for row in rows])[moving]
    active = np.array([row.budget_active for row in rows])[moving]
    # Differencing logged points loses about eps * |x| / step of precision.
    slack = 1e-7 + 1e-15 * (1.0 + np.max(np.abs(points))) / sizes[moving]
    args = (points[moving], directions, gradients, gains, active, slack)
    if case.kind == "point-dependent":
        for i in range(directions.shape[0]):
            _check_steps(case.spectrum_at(points[moving][i]), *(a[i:i + 1] for a in args))
    else:
        _check_steps(case.spectrum_at(points[0]), *args)


def _check_steps(spectrum, points, directions, gradients, gains, active, slack) -> None:
    """Steps taken under one operator, row-wise."""
    effort = np.einsum("ij,jk,ik->i", directions, spectrum.matrix, directions)
    expect(np.all(np.abs(effort - 1.0) <= 1e-6 + 2.0 * slack), "a step direction has effort != 1")
    reach = spectrum.basis[:, :spectrum.rank]
    off_image = directions - (directions @ reach) @ reach.T
    expect(np.all(np.linalg.norm(off_image, axis=1) <= slack), "a step direction leaves the image")
    own_gain = np.sum(gradients * directions, axis=1)
    expect(np.all(np.abs(gains - own_gain)
                  <= 1e-6 * np.maximum(1.0, np.abs(gains)) + slack * np.linalg.norm(gradients, axis=1)),
           "a logged gain differs from gradient . direction")
    normals = 2.0 * points[active]
    expect(np.all(np.sum(normals * directions[active], axis=1)
                  <= slack[active] * np.linalg.norm(normals, axis=1)),
           "a step direction raises the active cost")
    free = ~active
    weighted = ((gradients[free] @ reach) / spectrum.values[:spectrum.rank]) @ reach.T
    norms = np.sqrt(np.sum(gradients[free] * weighted, axis=1))
    expect(np.all(norms > 0.0), "an optimal step where the oracle is degenerate")
    error = np.max(np.abs(directions[free] - weighted / norms[:, None]), axis=1, initial=0.0)
    expect(np.all(error <= 1e-6 * np.max(np.abs(weighted / norms[:, None]), axis=1, initial=1.0)
                  + slack[free]), "a step direction differs from the oracle")
