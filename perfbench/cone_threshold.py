"""cone-threshold: thresholds, feasibility verdicts and measure curves of cone families.

A block is one coupling family and eight ops on it: one ``find_gamma_star``
(tol 1e-4), six ``is_feasible`` calls at four levels below and two above
the known answer, and one ``phi_curve`` (7 levels x 2e4 samples). Feasible
calls return in about a millisecond and infeasible ones near the answer run
to the iteration cap, so with four levels below, p50 falls among the single
infeasible solves rather than at the edge of the phi class, whose vectorized
sampling the reference loop of ``calibration`` does not track.

Every family has a threshold known without the library:

- ``two-cone``: dims 2-5, answer (angle - h1 - h2) / 2, kept away from the
  clamp as in acceptance criterion 4;
- ``clamped``: two cones whose answer lies where the wider one has opened to
  a half-space (max h + answer > pi/2), answer from the clamped closed form;
- ``multi-cone``: 3-5 cones in dims 3-8 built around a centre whose tangent
  directions to the axes contain 0 in their convex hull, so the centre is the
  minimax point and the answer is the common violation there;
- ``criterion-7``: the three-cone family of acceptance criterion 7, answer
  from the benchmark's own shrinking-grid minimax on the 2-sphere;
- ``feasible-at-zero``: cones that already share a direction.

The type schedule repeats every 16 families and puts the single
``feasible-at-zero`` family last, so any prefix of a run keeps the bisecting
``find_gamma_star`` share near 1/8 of the ops.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import (
    HALF_PI,
    axis_at_angle,
    check_phi_curve,
    check_witness,
    enlarged,
    expect,
    sphere_minimax,
    unit,
)
from workload import Op, Workload, pack

#: One entry per family of a 16-family round: (kind, dim, cone count, answer).
#: Dimensions, counts and thresholds are fixed per slot, so the cost of a
#: round barely depends on the seed; the seed draws the geometry that realises
#: each slot. The thresholds are spread over their ranges and each one makes
#: bisection on [0, pi/2] to 1e-4 run five infeasible solves within 0.02 below
#: the answer, the solves that reach the iteration cap, so every bisecting
#: call costs about the same (the criterion-7 family makes seven).
SCHEDULE = (
    ("two-cone", 2, 2, 0.07), ("multi-cone", 3, 3, 0.078), ("two-cone", 3, 2, 0.114),
    ("clamped", 3, 2, 0.45), ("two-cone", 4, 2, 0.157), ("multi-cone", 5, 4, 0.146),
    ("criterion-7", 3, 3, None), ("two-cone", 5, 2, 0.202), ("two-cone", 2, 2, 0.244),
    ("multi-cone", 8, 5, 0.219), ("clamped", 5, 2, 0.6), ("two-cone", 3, 2, 0.292),
    ("multi-cone", 6, 3, 0.281), ("two-cone", 4, 2, 0.335), ("two-cone", 5, 2, 0.378),
    ("feasible-at-zero", 4, 3, 0.0),
)
CRITERION_7_AXES = ((1.0, 0.1, 0.0), (0.2, 1.0, 0.3), (0.0, 0.4, 1.0))
CRITERION_7_HALVES_DEG = (15.0, 25.0, 35.0)
OFFSETS = (-0.02, -0.01, -0.005, -0.002, 0.002, 0.03)
ZERO_LEVELS = (0.0, 0.002, 0.01, 0.03, 0.1, 0.3)
#: Acceptance bound of criterion 4 on |gamma_star - answer| for two cones.
ANSWER_TOL = 2e-4
WARM_UP_SEED = 0


class Family:
    """A cone family as the benchmark knows it: unit axes, half-angles, threshold."""

    def __init__(self, kind: str, axes, halves, answer: float) -> None:
        self.kind = kind
        self.axes = np.array([unit(a) for a in axes])
        self.halves = np.asarray(halves, dtype=float)
        self.answer = float(answer)

    def lower_bound(self, gamma: float) -> float:
        """The true minimum of the worst violation at ``gamma``, or -pi where unknown."""
        if self.axes.shape[0] == 2:
            spread = math.acos(float(np.clip(self.axes[0] @ self.axes[1], -1.0, 1.0)))
            e1, e2 = enlarged(self.halves, gamma)
            if abs(e1 - e2) > spread:  # one enlarged cone contains the other
                return -min(e1, e2)
            return (spread - e1 - e2) / 2.0
        if self.kind == "feasible-at-zero":
            return -math.pi
        return self.answer - gamma


class ConeThreshold(Workload):
    name = "cone-threshold"

    def __init__(self, ro, seed: int, workdir, smoke: bool) -> None:
        super().__init__(ro, seed, workdir, smoke)
        self.tol = 1e-2 if smoke else 1e-4
        self.samples = 2000 if smoke else 20000
        halves = np.radians(CRITERION_7_HALVES_DEG)
        value, _ = sphere_minimax(np.array([unit(a) for a in CRITERION_7_AXES]), halves)
        self.criterion_7 = Family("criterion-7", CRITERION_7_AXES, halves, value)
        self.max_abs_err = 0.0
        self.bracket_width_max = 0.0

    def warm_up(self) -> None:
        family = self._family(np.random.default_rng(WARM_UP_SEED), *SCHEDULE[0])
        cf = self._library_family(family)
        self.ro.is_feasible(cf, family.answer + 0.01)
        self.ro.phi_curve(cf, np.linspace(0.0, 1.0, 7), 500, 0)

    def block(self, index: int) -> list[Op]:
        rng = self.rng("block", index)
        family = self._family(rng, *SCHEDULE[index % len(SCHEDULE)])
        levels = (
            ZERO_LEVELS if family.answer == 0.0
            else tuple(family.answer + offset for offset in OFFSETS)
        )
        top = min(HALF_PI, family.answer + 0.6)
        gammas = np.linspace(0.0, top, 7)
        phi_seed = int(rng.integers(0, 2**31))
        check_rng = self.rng("phi-check", index)
        return (
            [self._threshold_op(family)]
            + [self._feasible_op(family, level) for level in levels]
            + [self._phi_op(family, gammas, phi_seed, check_rng)]
        )

    def _library_family(self, family: Family):
        ro = self.ro
        return ro.CouplingFamily(
            tuple(ro.CircularCone(a, h) for a, h in zip(family.axes, family.halves))
        )

    def _family(self, rng, kind: str, dim: int, count: int, answer) -> Family:
        if kind == "criterion-7":
            return self.criterion_7
        if kind == "two-cone":
            h = rng.uniform(0.05, 0.6, size=2)
            first = unit(rng.standard_normal(dim))
            second = axis_at_angle(rng, first, h[0] + h[1] + 2.0 * answer)
            return Family(kind, [first, second], h, answer)
        if kind == "clamped":
            # The wide cone opens to a half-space before the narrow one reaches
            # the far axis: wide > pi/2 - answer.
            wide = rng.uniform(HALF_PI - answer + 0.05, 1.45)
            narrow = rng.uniform(0.05, 0.3)
            first = unit(rng.standard_normal(dim))
            second = axis_at_angle(rng, first, answer + HALF_PI + narrow)
            return Family(kind, [first, second], [wide, narrow], answer)
        center = unit(rng.standard_normal(dim))
        if kind == "multi-cone":
            tangents = rng.standard_normal((count, dim))
            tangents -= np.outer(tangents @ center, center)
            weights = rng.uniform(0.5, 1.5, size=count)
            tangents[-1] = -(weights[:-1] @ tangents[:-1]) / weights[-1]
            angles = rng.uniform(0.5, 1.1, size=count)
            axes = [axis_at_angle(rng, center, b, t) for b, t in zip(angles, tangents)]
            return Family(kind, axes, angles - answer, answer)
        if kind == "feasible-at-zero":
            angles = rng.uniform(0.2, 0.9, size=count)
            axes = [axis_at_angle(rng, center, b) for b in angles]
            return Family(kind, axes, angles + rng.uniform(0.05, 0.2, size=count), 0.0)
        raise ValueError(kind)

    def _threshold_op(self, family: Family) -> Op:
        ro, tol = self.ro, self.tol
        cf = self._library_family(family)

        def run():
            return ro.find_gamma_star(cf, tol)

        def check(result):
            low, high = result.bracket
            expect(result.gamma_star == high, "gamma_star is not the bracket's upper end")
            expect(result.tolerance == high - low, "tolerance is not the bracket width")
            if family.answer == 0.0:
                expect(result.bracket == (0.0, 0.0), f"bracket {result.bracket} for a family feasible at 0")
            else:
                expect(0.0 < high - low <= tol, f"bracket width {high - low!r} exceeds {tol}")
                expect(high >= family.answer - 1e-9, "upper end lies below the true threshold")
            if family.axes.shape[0] == 2:
                # Two-cone questions are decided essentially exactly from the
                # closed-form balance point, so the threshold is held to the
                # criterion-4 bound. With more cones the infeasible verdicts are
                # heuristic; their error is the max_abs_err diagnostic.
                error = abs(result.gamma_star - family.answer)
                expect(error <= max(ANSWER_TOL, tol), f"|gamma_star - answer| = {error:.3e}")
            check_witness(result.witness, family.axes, family.halves, high)

        def encode(result):
            return pack([result.gamma_star, *result.bracket, result.witness, result.tolerance])

        return Op("find_gamma_star", run, check, encode, {"family": family})

    def _feasible_op(self, family: Family, gamma: float) -> Op:
        ro = self.ro
        cf = self._library_family(family)
        expected = gamma >= family.answer

        def run():
            return ro.is_feasible(cf, gamma)

        def check(result):
            expect(result.feasible == expected,
                   f"feasible={result.feasible} at gamma={gamma!r}, answer {family.answer!r}")
            if expected:
                expect(result.residual <= 1e-9, "feasible verdict with a positive residual")
                check_witness(result.witness, family.axes, family.halves, gamma)
            else:
                expect(result.witness is None, "infeasible verdict with a witness")
            floor = family.lower_bound(gamma)
            expect(result.residual >= floor - 1e-9,
                   f"residual {result.residual!r} below the true minimum {floor!r}")

        def encode(result):
            return pack([result.feasible, result.residual, result.witness])

        return Op("is_feasible", run, check, encode, {"family": family})

    def _phi_op(self, family: Family, gammas, seed: int, check_rng) -> Op:
        ro, samples = self.ro, self.samples
        cf = self._library_family(family)

        def run():
            return ro.phi_curve(cf, gammas, samples, seed)

        def check(curve):
            check_phi_curve(curve, family.axes, family.halves, gammas, samples,
                            family.answer, check_rng)

        def encode(curve):
            return pack([value for point in curve for value in point])

        return Op("phi_curve", run, check, encode, {"family": family})

    def observe(self, op: Op, output, seconds: float) -> None:
        if op.kind == "find_gamma_star":
            family = op.info["family"]
            self.max_abs_err = max(self.max_abs_err, abs(output.gamma_star - family.answer))
            low, high = output.bracket
            self.bracket_width_max = max(self.bracket_width_max, high - low)

    def layer_metrics(self) -> dict[str, float]:
        return {
            "cones.threshold.max_abs_err": self.max_abs_err,
            "cones.threshold.bracket_width_max": self.bracket_width_max,
        }
