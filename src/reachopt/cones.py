"""Coupled circular-cone families: feasibility, thresholds, spherical measure.

A circular cone is the set of vectors within a fixed angle of an axis. A
coupling family enlarges every cone's half-angle additively with a coupling
level ``gamma``, clamped at a right angle, so that level 0 is the identity
and the enlarged cones nest as the level grows. Feasibility of the coupled
intersection is decided on the unit sphere by an exact active-set minimax
of the worst angular violation over closed-form balance points; a family of
at most ``dim`` cones is first tried whole, and a balance point whose
multipliers certify it ends the solve at once. Every violation falls
one-for-one with the level until its cone clamps, so the infimum level at
which the intersection becomes nonempty is the level-0 minimax residual;
only a clamp on the way calls for bisection.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import InfeasibleAtMaxError
from .spectral import _as_count, _as_real, _as_vector

HALF_PI = math.pi / 2.0

#: A point counts as inside every cone when its worst violation is below this.
FEASIBILITY_TOLERANCE = 1e-9

#: Cap on active-set pivots; a family in dimension d typically needs about d.
DEFAULT_ITERATIONS = 500

#: Violations within this of the basis level tie with it, so rounding causes no pivot.
_LEVEL_SLACK = 1e-13

#: Relative singular-value cut for the rank of a cone subset's axes.
_RANK_TOLERANCE = 1e-9


def _unit(vector: np.ndarray) -> np.ndarray:
    top = float(np.max(np.abs(vector)))
    if top == 0.0:
        raise ValueError("cannot normalize the zero vector")
    # Dividing by the power of two of the largest entry first is exact, and keeps
    # the norm from overflowing or underflowing.
    vector = np.ldexp(vector, -math.frexp(top)[1])
    return vector / float(np.linalg.norm(vector))


def _violations(points: np.ndarray, axes: np.ndarray, half_angles: np.ndarray) -> np.ndarray:
    """Angular violations of unit points (rows) against every cone, shape (points, cones).

    Each angle is the arctangent of the rejection's norm over the cosine, which
    keeps full accuracy near 0 and pi, where arccos loses half the digits.
    """
    cosines = points @ axes.T
    rejections = points[:, None, :] - cosines[:, :, None] * axes[None, :, :]
    return np.arctan2(np.linalg.norm(rejections, axis=2), cosines) - half_angles


@dataclass(frozen=True, eq=False)
class CircularCone:
    """All vectors within ``half_angle`` radians of the (unit) axis."""

    axis: np.ndarray
    half_angle: float

    def __post_init__(self) -> None:
        axis = _unit(_as_vector(self.axis, None, "axis"))
        if axis.size < 2:
            raise ValueError("axis must have dimension at least 2")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        angle = float(_as_real(self.half_angle, "half_angle"))
        if not 0.0 <= angle <= HALF_PI + 1e-12:
            raise ValueError(
                f"half_angle must lie in [0, pi/2], got {angle}"
            )
        object.__setattr__(self, "half_angle", min(angle, HALF_PI))

    @property
    def dim(self) -> int:
        return self.axis.shape[0]


@dataclass(frozen=True, eq=False)
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

    def axes_matrix(self) -> np.ndarray:
        return np.stack([cone.axis for cone in self.base_cones])

    def enlarged_half_angles(self, gamma: float) -> np.ndarray:
        """Half-angles at coupling level ``gamma``; a negative or NaN level raises
        ``ValueError``, a ``bool`` ``TypeError``."""
        if not _as_real(gamma, "gamma") >= 0.0:
            raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
        base = np.array([cone.half_angle for cone in self.base_cones])
        return np.minimum(base + gamma, HALF_PI)

    def max_violation(self, vector, gamma: float) -> float:
        """Worst angular violation of a finite nonzero ``(dim,)`` vector across enlarged cones."""
        point = _unit(_as_vector(vector, self.dim, "vector"))
        limits = self.enlarged_half_angles(gamma)
        return float(np.max(_violations(point[None, :], self.axes_matrix(), limits)))


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Feasibility verdict with the minimax residual.

    ``residual`` is the worst violation attained at the solver's point. It is
    the exact minimax wherever every h_i + residual <= pi/2, which holds for
    every feasible family; elsewhere it is a value attained at a point. The
    verdict is exact at every level. ``pivots`` counts active-set pivots: 1
    when the whole family's balance point certifies itself as the minimax.
    """

    feasible: bool
    witness: np.ndarray | None
    residual: float
    pivots: int


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """Bracket on the compatibility threshold.

    ``gamma_star`` is the certified-feasible upper end of the bracket; no level
    below the lower end is feasible, by the one-for-one fall of the violations
    with the level or, after bisection, by the solver's exact verdicts. A
    family feasible at level 0 gets ``(0, 0)``. The witness is inside every
    cone enlarged at the upper end. ``solves`` counts the minimax solves made:
    1 below the clamp, 1 + 1 + the bisection steps past it.
    """

    gamma_star: float
    bracket: tuple[float, float]
    witness: np.ndarray
    tolerance: float
    solves: int


def _balance_points(axes: np.ndarray, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit points (rows) with the same violation t on every given cone.

    With G = A Aᵀ, p = cos h, q = sin h, u = tan t, the point x = Aᵀy with
    A x = cos t (p - u q) is unit iff (qᵀG⁻¹q - 1)u² - 2(pᵀG⁻¹q)u + pᵀG⁻¹p - 1
    = 0, solved homogeneously in (cos t, -sin t); each root gives x and -x.
    A one-dimensional null space ν pins u = νᵀp / νᵀq, and the rest of the
    unit norm goes orthogonal to the span. Also returns, per point, whether
    its multipliers (y, or ν) share one sign: a KKT certificate where the
    violations balance. Callers score each point by what it attains. Takes
    at most ``dim`` rows, as every subset the solver builds has: ``dim + 1``
    rows of rank ``dim`` leave no direction orthogonal to their span.
    """
    count = axes.shape[0]
    left, sigma, right = np.linalg.svd(axes)
    rank = int(np.count_nonzero(sigma > _RANK_TOLERANCE * sigma[0]))
    targets = np.stack([np.cos(halves), np.sin(halves)], axis=1)
    # x = right[:rank]ᵀ coeff w solves A x = [p q] w on the span of the axes.
    coeff = (left[:, :rank].T @ targets) / sigma[:rank, None]
    if rank == count:
        form = coeff.T @ coeff
        mean = 0.5 * (form[0, 0] + form[1, 1]) - 1.0
        half_gap = 0.5 * (form[0, 0] - form[1, 1])
        radius = math.hypot(half_gap, form[0, 1])
        spread = math.acos(min(max(-mean / radius, -1.0), 1.0)) if radius > 0.0 else 0.0
        roots = 0.5 * (math.atan2(form[0, 1], half_gap) + np.array([spread, -spread]))
        w = np.stack([np.cos(roots), np.sin(roots)])
        points = (right[:rank].T @ coeff @ w).T
        y = left @ (coeff / sigma[:, None]) @ w
        certified = np.concatenate([np.all(y >= 0.0, axis=0), np.all(y <= 0.0, axis=0)])
    elif rank == count - 1:
        null = left[:, rank]
        t = math.atan2(null @ targets[:, 0], null @ targets[:, 1])
        inside = right[:rank].T @ (coeff @ np.array([math.cos(t), -math.sin(t)]))
        outside = math.sqrt(max(1.0 - float(inside @ inside), 0.0)) * right[rank]
        points = np.stack([inside + outside, inside - outside])
        certified = np.full(4, np.all(null >= 0.0) or np.all(null <= 0.0))
    else:
        return np.empty((0, axes.shape[1])), np.empty(0, dtype=bool)
    points /= np.linalg.norm(points, axis=1)[:, None]
    return np.concatenate([points, -points]), certified


def _balance_scores(
    axes: np.ndarray, half_angles: np.ndarray, subset: list[int], pool: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balance points of ``subset``, their violations on every cone, and which stop.

    A point stops the search when its multipliers are certified, no ``pool``
    cone exceeds its level and it lies in the convex regime (level plus every
    subset half-angle within pi/2): it is then the pool's exact minimax.
    """
    points, certified = _balance_points(axes[subset], half_angles[subset])
    violations = _violations(points, axes, half_angles)
    level = violations[:, subset].min(axis=1)
    done = certified & (level >= violations[:, pool].max(axis=1) - _LEVEL_SLACK)
    done &= level + half_angles[subset].max() <= HALF_PI
    return points, violations, done


def _pivot(
    axes: np.ndarray, half_angles: np.ndarray, basis: frozenset[int], entering: int
) -> tuple[float, frozenset[int], np.ndarray, np.ndarray]:
    """Minimax of the pool (basis plus entering cone) over subsets holding that cone.

    Subsets go largest first; a point that ``_balance_scores`` lets stop is
    the pool's minimax and ends the search. Else the least worst violation
    over the pool wins, which is exact in the convex regime too: the optimal
    multipliers live on at most ``dim`` cones, the entering one among them
    unless another point tied the old level.
    Returns the level, the new basis, its point and its violations.
    """
    pool = sorted(basis) + [entering]
    sizes = range(min(len(basis), axes.shape[1] - 1), -1, -1)
    owners, blocks = [], []
    for rest in chain.from_iterable(combinations(pool[:-1], size) for size in sizes):
        subset = [*rest, entering]
        points, violations, done = _balance_scores(axes, half_angles, subset, pool)
        owners.extend([frozenset(subset)] * points.shape[0])
        blocks.append((points, violations))
        if done.any():
            break
    points, violations = map(np.concatenate, zip(*blocks))
    scores = violations[:, pool].max(axis=1)
    # Ties, as at the two points of a circuit's balance line, go to the point
    # that the rest of the family violates least.
    tied = scores <= scores.min() + _LEVEL_SLACK
    best = int(np.argmin(np.where(tied, violations.max(axis=1), np.inf)))
    return float(scores[best]), owners[best], points[best], violations[best]


def _minimize_max_violation(
    family: CouplingFamily, gamma: float
) -> tuple[float, np.ndarray, int]:
    """Active-set minimax of the worst angular violation over the unit sphere.

    A family of 2 to ``dim`` cones first tries itself whole, as the basis a
    search mostly ends on: if one of its balance points passes the stop test
    of ``_balance_scores``, that point is the exact minimax after one pivot.
    Else the search starts from the best axis as a one-cone basis and pivots in
    the most-violated cone until none exceeds the basis level. In the convex
    regime (every h_i + level <= pi/2) each level is its subfamily's exact
    minimax, so levels rise and the stop is a certificate: the basis point's
    nonnegative multipliers prove no point does better. Past it levels need
    not rise, so a repeated basis or ``DEFAULT_ITERATIONS`` pivots also stop it.
    Returns the least worst violation attained, its point and the pivots.
    """
    axes = family.axes_matrix()
    half_angles = family.enlarged_half_angles(gamma)
    if 2 <= axes.shape[0] <= axes.shape[1]:
        whole = list(range(axes.shape[0]))
        points, violations, done = _balance_scores(axes, half_angles, whole, whole)
        if done.any():
            scores = violations.max(axis=1)
            best = int(np.argmin(scores))
            return float(scores[best]), points[best], 1
    at_axes = _violations(axes, axes, half_angles)
    start = int(np.argmin(at_axes.max(axis=1)))
    basis, point, violations = frozenset([start]), axes[start], at_axes[start]
    level = float(violations[start])
    best_value, best_point = math.inf, point
    pivots, visited = 0, set()
    while True:
        worst = float(violations.max())
        if worst < best_value:
            best_value, best_point = worst, point
        if worst <= level + _LEVEL_SLACK or pivots >= DEFAULT_ITERATIONS or basis in visited:
            return best_value, best_point, pivots
        visited.add(basis)
        level, basis, point, violations = _pivot(
            axes, half_angles, basis, int(np.argmax(violations))
        )
        pivots += 1


def is_feasible(family: CouplingFamily, gamma: float) -> FeasibilityResult:
    """Decide whether the enlarged cones share a common unit direction.

    Feasible means the exact active-set minimax of the worst angular violation
    (at most ``DEFAULT_ITERATIONS`` pivots) is at most
    ``FEASIBILITY_TOLERANCE``. The verdict is exact at every level, clamped or
    not: a feasible family's minimizer has every h_i + residual <= pi/2, the
    convex regime where the solver is exact and an infeasible verdict stops on
    a nonnegative-multiplier certificate. A negative or NaN ``gamma`` raises
    ``ValueError``, a ``bool`` ``TypeError``.
    """
    residual, point, pivots = _minimize_max_violation(family, gamma)
    feasible = residual <= FEASIBILITY_TOLERANCE
    return FeasibilityResult(feasible, point if feasible else None, residual, pivots)


def find_gamma_star(
    family: CouplingFamily,
    tol: float,
    restarts: int = 64,
    *,
    seed: int = 0,
) -> ThresholdResult:
    """Smallest coupling level with a nonempty intersection, from one minimax solve.

    No level below the level-0 minimax residual ``r`` is feasible: violations
    fall one-for-one with the level. With ``r`` capped at pi/2 (it can round
    above): if the level-0 minimizer is feasible at ``r`` (so whenever
    ``r + max h_i <= pi/2``), the bracket is ``(max(0, r - tol/2), r)``; else a
    cone clamps and ``[r, pi/2]`` is bisected with exact verdicts, so
    ``low <= high <= pi/2`` always. A ``tol`` that is not positive raises
    ``ValueError``, a ``bool`` ``TypeError``. ``restarts`` (a positive
    integer) and ``seed`` (a nonnegative one) are validated for call
    compatibility and do not change the result.

    Raises
    ------
    InfeasibleAtMaxError
        If the cones share no direction even at maximal coupling, where all
        of them have opened into half-space cones.
    """
    if not _as_real(tol, "tol") > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _as_count(restarts, "restarts", 1)
    _as_count(seed, "seed", 0)
    residual, witness, _ = _minimize_max_violation(family, 0.0)
    solves = 1
    if residual <= FEASIBILITY_TOLERANCE:
        return ThresholdResult(0.0, (0.0, 0.0), witness, 0.0, solves)
    high = min(residual, HALF_PI)
    low = max(0.0, high - tol / 2.0)
    if family.max_violation(witness, high) > FEASIBILITY_TOLERANCE:
        at_max = is_feasible(family, HALF_PI)
        solves += 1
        if not at_max.feasible:
            raise InfeasibleAtMaxError(at_max.residual)
        low, high, witness = high, HALF_PI, at_max.witness
    while high - low > tol:
        mid = 0.5 * (low + high)
        result = is_feasible(family, mid)
        solves += 1
        if result.feasible:
            high = mid
            witness = result.witness
        else:
            low = mid
    return ThresholdResult(high, (low, high), witness, high - low, solves)


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

    One sample set is shared across all grid points: the normalized rows of
    ``np.random.default_rng(seed).standard_normal((samples, dim))``, so a seed
    gives the same estimates across versions. Each sample is counted from the
    one level at which it enters every enlarged cone, so the estimated curve is
    exactly monotone nondecreasing. A negative or NaN level raises
    ``ValueError``, a ``bool`` ``TypeError``; ``samples`` and ``seed`` are
    checked as counts.
    """
    grid = [float(_as_real(g, "gamma")) for g in gammas]
    if not (grid and grid[0] >= 0.0 and all(b > a for a, b in zip(grid, grid[1:]))):
        raise ValueError(
            f"gamma grid must be nonempty, nonnegative and strictly ascending, "
            f"got {reprlib.repr(grid)}"
        )
    samples, seed = _as_count(samples, "samples", 1), _as_count(seed, "seed", 0)
    # Normalized Gaussian samples are uniform on the unit sphere. The angles are
    # laid out cones by samples, so every reduction runs along the long axis.
    points = np.random.default_rng(seed).standard_normal((samples, family.dim))
    angles = family.axes_matrix() @ points.T
    angles /= np.maximum(np.sqrt(np.einsum("ij,ij->i", points, points)), np.finfo(float).tiny)
    np.arccos(np.clip(angles, -1.0, 1.0, out=angles), out=angles)
    # A sample lies inside every enlarged cone from the level max_i(angle_i - h_i)
    # on, unless some angle exceeds the right angle at which the cones clamp.
    entry = np.max(angles - family.enlarged_half_angles(0.0)[:, None], axis=0)
    entry[np.max(angles, axis=0) > HALF_PI] = np.inf
    curve = []
    for gamma in grid:
        estimate = float(np.count_nonzero(entry <= gamma)) / samples
        std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
        curve.append((gamma, estimate, std_error))
    return curve
