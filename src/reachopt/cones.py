"""Coupled circular-cone families: feasibility, thresholds, spherical measure.

A circular cone is the set of vectors within a fixed angle of an axis. A
coupling family enlarges every cone's half-angle additively with a coupling
level ``gamma``, clamped at a right angle, so that level 0 is the identity
and the enlarged cones nest as the level grows. Feasibility of the coupled
intersection is decided on the unit sphere by minimizing the worst angular
violation. Every violation falls one-for-one with the level until its cone
clamps, so the infimum level at which the intersection becomes nonempty is
the level-0 minimax residual; only a clamp on the way calls for bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAtMaxError

HALF_PI = math.pi / 2.0

#: A point counts as inside every cone when its worst violation is below this.
FEASIBILITY_TOLERANCE = 1e-9

DEFAULT_RESTARTS = 64
DEFAULT_ITERATIONS = 500

_EARLY_EXIT = 1e-12
_STAGNATION_WINDOW = 120
_STAGNATION_MARGIN = 0.02
_POLISH_ITERATIONS = 250
_POLISH_STEP = 0.02
_POLISH_DECAY = 0.93
_ANGLE_EPS = 1e-9


def _unit(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return vector / norm


def _angles(points: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Angles between unit points (rows) and unit axes (rows), in radians."""
    return np.arccos(np.clip(points @ axes.T, -1.0, 1.0))


@dataclass(frozen=True)
class CircularCone:
    """All vectors within ``half_angle`` radians of the (unit) axis."""

    axis: np.ndarray
    half_angle: float

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        if axis.ndim != 1 or axis.size < 2:
            raise ValueError("axis must be a 1-d vector of dimension at least 2")
        if not np.all(np.isfinite(axis)):
            raise ValueError("axis entries must be finite")
        axis = _unit(axis)
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        angle = float(self.half_angle)
        if not 0.0 <= angle <= HALF_PI + 1e-12:
            raise ValueError(
                f"half_angle must lie in [0, pi/2], got {angle}"
            )
        object.__setattr__(self, "half_angle", min(angle, HALF_PI))

    @property
    def dim(self) -> int:
        return self.axis.shape[0]

    def angle_to(self, vector) -> float:
        """Angle between a nonzero vector and the axis, in radians."""
        return float(_angles(_unit(np.asarray(vector, dtype=float)), self.axis))

    def contains(self, vector, tol: float = FEASIBILITY_TOLERANCE) -> bool:
        return self.angle_to(vector) <= self.half_angle + tol


@dataclass(frozen=True)
class CouplingFamily:
    """Nonempty collection of circular cones enlarged jointly by one level.

    The enlargement rule is additive in the half-angle and clamped at a right
    angle. Level 0 leaves every cone unchanged, larger levels produce nested
    supersets, and every enlarged cone is again a closed convex circular cone.
    """

    base_cones: tuple[CircularCone, ...]

    def __post_init__(self) -> None:
        cones = tuple(self.base_cones)
        if not cones:
            raise ValueError("a coupling family needs at least one cone")
        dims = {cone.dim for cone in cones}
        if len(dims) != 1:
            raise ValueError(f"cones live in different dimensions: {sorted(dims)}")
        object.__setattr__(self, "base_cones", cones)

    @property
    def dim(self) -> int:
        return self.base_cones[0].dim

    @property
    def size(self) -> int:
        return len(self.base_cones)

    def axes_matrix(self) -> np.ndarray:
        return np.stack([cone.axis for cone in self.base_cones])

    def enlarged_half_angles(self, gamma: float) -> np.ndarray:
        if gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        base = np.array([cone.half_angle for cone in self.base_cones])
        return np.minimum(base + gamma, HALF_PI)

    def max_violation(self, vector, gamma: float) -> float:
        """Worst angular violation of a nonzero vector across enlarged cones."""
        angles = _angles(_unit(np.asarray(vector, dtype=float)), self.axes_matrix())
        return float(np.max(angles - self.enlarged_half_angles(gamma)))


@dataclass(frozen=True)
class FeasibilityResult:
    """Feasibility verdict with the best residual found.

    ``residual`` is the smallest worst-violation the solver reached; a value
    above the feasibility tolerance means no common direction was found, and
    near-zero positive values signal a boundary worth refining.
    """

    feasible: bool
    witness: np.ndarray | None
    residual: float


@dataclass(frozen=True)
class ThresholdResult:
    """Bracket on the compatibility threshold.

    ``gamma_star`` is the certified-feasible upper end of the bracket; no level
    below the lower end is feasible, by the one-for-one fall of the violations
    with the level or, after bisection, by the solver. A family feasible at level
    0 gets ``(0, 0)``. The witness is inside every cone enlarged at the upper end.
    """

    gamma_star: float
    bracket: tuple[float, float]
    witness: np.ndarray
    tolerance: float


def _orthogonal_unit(axis: np.ndarray) -> np.ndarray:
    pivot = int(np.argmin(np.abs(axis)))
    candidate = np.zeros_like(axis)
    candidate[pivot] = 1.0
    candidate -= (candidate @ axis) * axis
    return _unit(candidate)


def _pair_balance_points(
    axes: np.ndarray, half_angles: np.ndarray
) -> list[np.ndarray]:
    """Geodesic points balancing the violations of each cone pair.

    For two cones the worst violation is minimized on the arc between the
    axes at the angle where both violations agree; that point is computed in
    closed form, so two-cone feasibility questions are decided essentially
    exactly. Antipodal axes have no unique arc and get a deterministic
    orthogonal representative.
    """
    points: list[np.ndarray] = []
    count = axes.shape[0]
    for i in range(count):
        for j in range(i + 1, count):
            ci, cj = axes[i], axes[j]
            spread = float(_angles(ci, cj))
            if spread < _ANGLE_EPS:
                points.append(ci.copy())
                continue
            target = (spread + half_angles[i] - half_angles[j]) / 2.0
            target = min(max(target, 0.0), spread)
            if spread > math.pi - _ANGLE_EPS:
                ortho = _orthogonal_unit(ci)
                points.append(math.cos(target) * ci + math.sin(target) * ortho)
            else:
                blend = (
                    math.sin(spread - target) * ci + math.sin(target) * cj
                ) / math.sin(spread)
                points.append(_unit(blend))
    return points


def _violations(x: np.ndarray, axes: np.ndarray, half_angles: np.ndarray) -> np.ndarray:
    return _angles(x, axes) - half_angles[None, :]


def _subgradient_step(
    x: np.ndarray, viol: np.ndarray, axes: np.ndarray, step: float
) -> np.ndarray:
    active = np.argmax(viol, axis=1)
    axis_active = axes[active]
    dots = np.sum(x * axis_active, axis=1)
    sines = np.sqrt(np.maximum(1.0 - dots * dots, 0.0))
    safe = sines > 1e-12
    grad = np.zeros_like(x)
    grad[safe] = -axis_active[safe] / sines[safe, None]
    # Tangential component; the geodesic-distance gradient has unit length.
    grad -= np.sum(grad * x, axis=1)[:, None] * x
    norms = np.linalg.norm(grad, axis=1)
    scale = np.where(norms > 1e-12, 1.0 / np.maximum(norms, 1e-300), 0.0)
    moved = x - step * grad * scale[:, None]
    moved /= np.linalg.norm(moved, axis=1)[:, None]
    return moved


def _minimize_max_violation(
    family: CouplingFamily,
    gamma: float,
    restarts: int,
    iterations: int,
    seed: int,
) -> tuple[float, np.ndarray]:
    axes = family.axes_matrix()
    half_angles = family.enlarged_half_angles(gamma)
    rng = np.random.default_rng(seed)

    starts = [axis.copy() for axis in axes]
    mean = axes.sum(axis=0)
    if float(np.linalg.norm(mean)) > 1e-12:
        starts.append(_unit(mean))
    starts.extend(_pair_balance_points(axes, half_angles))
    random_starts = rng.standard_normal((restarts, family.dim))
    random_starts /= np.linalg.norm(random_starts, axis=1)[:, None]
    x = np.vstack([np.stack(starts), random_starts])
    x /= np.linalg.norm(x, axis=1)[:, None]

    viol = _violations(x, axes, half_angles)
    phi_values = viol.max(axis=1)
    best_idx = int(np.argmin(phi_values))
    best_value = float(phi_values[best_idx])
    best_point = x[best_idx].copy()

    since_improvement = 0
    for t in range(1, iterations + 1):
        if best_value <= _EARLY_EXIT:
            break
        if since_improvement >= _STAGNATION_WINDOW and best_value > _STAGNATION_MARGIN:
            break
        x = _subgradient_step(x, viol, axes, 0.1 / math.sqrt(t))
        viol = _violations(x, axes, half_angles)
        phi_values = viol.max(axis=1)
        idx = int(np.argmin(phi_values))
        if float(phi_values[idx]) < best_value - 1e-12:
            best_value = float(phi_values[idx])
            best_point = x[idx].copy()
            since_improvement = 0
        else:
            since_improvement += 1

    # Polish around the incumbent with geometrically shrinking steps; the
    # sqrt-decay schedule above cannot resolve violations much below its
    # final step size.
    if best_value > _EARLY_EXIT:
        point = best_point[None, :].copy()
        step = _POLISH_STEP
        for _ in range(_POLISH_ITERATIONS):
            viol_p = _violations(point, axes, half_angles)
            value = float(viol_p.max())
            if value < best_value:
                best_value = value
                best_point = point[0].copy()
                if best_value <= _EARLY_EXIT:
                    break
            point = _subgradient_step(point, viol_p, axes, step)
            step *= _POLISH_DECAY
    return best_value, best_point


def is_feasible(
    family: CouplingFamily,
    gamma: float,
    restarts: int = DEFAULT_RESTARTS,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> FeasibilityResult:
    """Decide whether the enlarged cones share a common unit direction.

    The worst angular violation is minimized over the unit sphere by
    projected subgradient descent from deterministic warm starts (axes, mean
    axis, pairwise balance points) plus ``restarts`` seeded random starts.
    Feasible means a point with violation at most ``FEASIBILITY_TOLERANCE``
    was found; the result always reports the best residual reached.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    best_value, best_point = _minimize_max_violation(
        family, gamma, restarts, iterations, seed
    )
    feasible = best_value <= FEASIBILITY_TOLERANCE
    witness = best_point if feasible else None
    return FeasibilityResult(feasible=feasible, witness=witness, residual=best_value)


def find_gamma_star(
    family: CouplingFamily,
    tol: float,
    restarts: int = DEFAULT_RESTARTS,
    *,
    seed: int = 0,
) -> ThresholdResult:
    """Smallest coupling level with a nonempty intersection, from one minimax solve.

    No level below the level-0 minimax residual ``r`` is feasible: violations
    fall one-for-one with the level. If the level-0 minimizer is feasible at
    ``r`` (so whenever ``r + max h_i <= pi/2``), the bracket is
    ``(max(0, r - tol/2), r)``; else a cone clamps and ``[r, pi/2]`` is bisected.

    Raises
    ------
    InfeasibleAtMaxError
        If the cones share no direction even at maximal coupling, where all
        of them have opened into half-space cones.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    residual, witness = _minimize_max_violation(
        family, 0.0, restarts, DEFAULT_ITERATIONS, seed
    )
    if residual <= FEASIBILITY_TOLERANCE:
        return ThresholdResult(0.0, (0.0, 0.0), witness, 0.0)
    low, high = max(0.0, residual - tol / 2.0), residual
    if family.max_violation(witness, residual) > FEASIBILITY_TOLERANCE:
        at_max = is_feasible(family, HALF_PI, restarts, seed=seed)
        if not at_max.feasible:
            raise InfeasibleAtMaxError(at_max.residual)
        low, high, witness = residual, HALF_PI, at_max.witness
    while high - low > tol:
        mid = 0.5 * (low + high)
        result = is_feasible(family, mid, restarts, seed=seed)
        if result.feasible:
            high = mid
            witness = result.witness
        else:
            low = mid
    return ThresholdResult(
        gamma_star=high,
        bracket=(low, high),
        witness=witness,
        tolerance=high - low,
    )


def sample_sphere(dim: int, count: int, rng) -> np.ndarray:
    """Uniform unit-sphere samples, shape ``(count, dim)``."""
    generator = np.random.default_rng(rng)
    points = generator.standard_normal((count, dim))
    norms = np.linalg.norm(points, axis=1)
    norms = np.maximum(norms, np.finfo(float).tiny)
    return points / norms[:, None]


def phi(
    family: CouplingFamily, gamma: float, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the intersection's normalized spherical measure.

    Returns the fraction of uniform unit-sphere samples lying inside every
    enlarged cone, together with its binomial standard error: one point of
    :func:`phi_curve`. Deterministic for a fixed seed.
    """
    return phi_curve(family, [gamma], samples, seed)[0][1:]


def phi_curve(
    family: CouplingFamily, gammas, samples: int, seed: int
) -> list[tuple[float, float, float]]:
    """Measure estimates along an ascending grid with common random numbers.

    One sample set is shared across all grid points, so the estimated curve
    is exactly monotone nondecreasing: each sample's membership indicator can
    only switch on as the cones enlarge.
    """
    grid = [float(g) for g in gammas]
    if not grid:
        raise ValueError("gamma grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("gamma grid must be strictly ascending")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    points = sample_sphere(family.dim, samples, seed)
    angles = _angles(points, family.axes_matrix())
    curve = []
    for gamma in grid:
        inside = np.all(angles <= family.enlarged_half_angles(gamma)[None, :], axis=1)
        estimate = float(np.mean(inside))
        std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
        curve.append((gamma, estimate, std_error))
    return curve
