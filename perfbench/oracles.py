"""Input generators and independent reference answers for the benchmark checks.

Nothing here calls reachopt: spectra come from the way the inputs were built,
thresholds from closed-form or constructed cone geometry, and membership from
the benchmark's own angle arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

HALF_PI = math.pi / 2.0

#: Feasibility tolerance of the library plus rounding slack for re-evaluating it here.
WITNESS_TOL = 1e-9 + 1e-12


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle or invariant."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected, rel: float, abs_tol: float = 0.0) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    return float(np.max(np.abs(actual - expected), initial=0.0)) <= rel * scale + abs_tol


# --- spectra ---------------------------------------------------------------


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


class KnownSpectrum:
    """PSD matrix ``Q diag(lam) Q^T`` built from a known eigensystem.

    ``lam`` is sorted descending with exact zeros past ``rank``.
    """

    def __init__(self, basis: np.ndarray, values: np.ndarray) -> None:
        order = np.argsort(-values, kind="stable")
        self.basis = basis[:, order]
        self.values = values[order]
        self.rank = int(np.sum(self.values > 0.0))
        self.matrix = (self.basis * self.values) @ self.basis.T

    @classmethod
    def random(cls, rng, dim: int, rank: int, low: float = 0.1, high: float = 10.0):
        values = np.zeros(dim)
        values[:rank] = np.exp(rng.uniform(math.log(low), math.log(high), size=rank))
        return cls(random_orthogonal(rng, dim), values)

    def kernel_vector(self, rng) -> np.ndarray:
        return self.basis[:, self.rank:] @ rng.standard_normal(self.values.size - self.rank)

    def pinv_apply(self, vector, start: int = 0) -> np.ndarray:
        """Pseudoinverse action restricted to the modes ``[start, rank)``."""
        basis = self.basis[:, start:self.rank]
        return basis @ ((basis.T @ vector) / self.values[start:self.rank])

    def optimal_direction(self, gradient) -> np.ndarray | None:
        """Unit-effort maximizer of the first-order gain; None when degenerate."""
        weighted = self.pinv_apply(gradient)
        effort = float(gradient @ weighted)
        if effort <= 1e-20 * max(float(gradient @ gradient), 1e-300):
            return None
        return weighted / math.sqrt(effort)

    def op_error(self, k: int) -> float:
        return 0.0 if k == self.rank else 1.0 / float(self.values[self.rank - k - 1])

    def residual_norm_sq(self, gradient, k: int) -> float:
        omitted = slice(0, self.rank - k)
        comps = self.basis[:, omitted].T @ gradient
        return float(np.sum((comps / self.values[omitted]) ** 2))

    def smallest_k_for_error(self, eps: float) -> int:
        for k in range(self.rank):
            if self.op_error(k) <= eps:
                return k
        return self.rank


def check_direction(result, spectrum: KnownSpectrum, gradient, rel: float = 1e-7) -> None:
    """A ``DirectionResult`` against the pseudoinverse-weighted oracle."""
    expected = spectrum.optimal_direction(gradient)
    if expected is None:
        expect(result.kind.value == "degenerate", f"expected degenerate, got {result.kind.value}")
        return
    expect(result.kind.value == "optimal", f"expected optimal, got {result.kind.value}")
    direction = np.asarray(result.direction, dtype=float)
    expect(close(direction, expected, rel), "direction differs from the oracle")
    effort = float(direction @ spectrum.matrix @ direction)
    expect(abs(effort - 1.0) <= 1e-8, f"direction effort {effort!r} is not 1")
    expect(
        close(result.first_order_gain, float(gradient @ expected), rel),
        "gain differs from the oracle",
    )


# --- cones -----------------------------------------------------------------


def unit(vector) -> np.ndarray:
    vector = np.asarray(vector, dtype=float)
    return vector / np.linalg.norm(vector)


def enlarged(halves, gamma: float) -> np.ndarray:
    return np.minimum(np.asarray(halves, dtype=float) + gamma, HALF_PI)


def max_violation(axes, halves, gamma: float, point) -> float:
    """Worst angle by which ``point`` lies outside the cones enlarged by ``gamma``."""
    x = unit(point)
    angles = np.arccos(np.clip(np.asarray(axes) @ x, -1.0, 1.0))
    return float(np.max(angles - enlarged(halves, gamma)))


def axis_at_angle(rng, center: np.ndarray, angle: float, tangent=None) -> np.ndarray:
    """Unit vector at ``angle`` from ``center``, towards ``tangent`` (random if None)."""
    if tangent is None:
        tangent = rng.standard_normal(center.size)
    tangent = tangent - (tangent @ center) * center
    tangent = unit(tangent)
    return math.cos(angle) * center + math.sin(angle) * tangent


def sphere_minimax(axes, halves, rounds: int = 48, grid: int = 41) -> tuple[float, np.ndarray]:
    """``min_x max_i (angle(x, a_i) - h_i)`` on the 2-sphere by shrinking grids.

    A coarse longitude/latitude grid locates the basin, then square grids in
    the tangent plane of the incumbent shrink by half each round.
    """
    axes = np.asarray(axes, dtype=float)
    halves = np.asarray(halves, dtype=float)

    def worst(points):
        angles = np.arccos(np.clip(points @ axes.T, -1.0, 1.0))
        return np.max(angles - halves[None, :], axis=1)

    lon, lat = np.meshgrid(np.linspace(-math.pi, math.pi, 721), np.linspace(-HALF_PI, HALF_PI, 361))
    points = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=-1)
    points = points.reshape(-1, 3)
    values = worst(points)
    best = points[int(np.argmin(values))]
    best_value = float(np.min(values))
    radius = 2.0 * math.pi / 720
    offsets = np.linspace(-1.0, 1.0, grid)
    for _ in range(rounds):
        e1 = unit(np.cross(best, [1.0, 0.0, 0.0] if abs(best[0]) < 0.9 else [0.0, 1.0, 0.0]))
        e2 = np.cross(best, e1)
        u, v = np.meshgrid(offsets * radius, offsets * radius)
        cand = best[None, :] + u.reshape(-1, 1) * e1 + v.reshape(-1, 1) * e2
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        values = worst(cand)
        i = int(np.argmin(values))
        if values[i] <= best_value:
            best, best_value = cand[i], float(values[i])
        radius *= 0.5
    return best_value, best


def check_witness(witness, axes, halves, gamma: float) -> None:
    expect(witness is not None, "missing witness")
    w = np.asarray(witness, dtype=float)
    expect(np.all(np.isfinite(w)), "witness is not finite")
    expect(abs(float(np.linalg.norm(w)) - 1.0) <= 1e-9, "witness is not a unit vector")
    violation = max_violation(axes, halves, gamma, w)
    expect(violation <= WITNESS_TOL, f"witness violates a cone by {violation:.3e}")


def sphere_points(rng, dim: int, count: int) -> np.ndarray:
    points = rng.standard_normal((count, dim))
    return points / np.linalg.norm(points, axis=1)[:, None]


def check_phi_curve(curve, axes, halves, gammas, samples: int, answer: float, rng) -> None:
    """Shape, exact zeros below the threshold, monotonicity, binomial error and
    agreement with an independent Monte-Carlo estimate (6 sigma)."""
    expect(len(curve) == len(gammas), "curve length differs from the grid")
    reference = sphere_points(rng, np.asarray(axes).shape[1], samples)
    angles = np.arccos(np.clip(reference @ np.asarray(axes).T, -1.0, 1.0))
    previous = 0.0
    for (gamma, estimate, std_error), expected_gamma in zip(curve, gammas):
        expect(gamma == float(expected_gamma), "curve grid differs from the request")
        expect(0.0 <= estimate <= 1.0, f"phi {estimate!r} outside [0, 1]")
        expect(estimate >= previous, "phi curve is not monotone")
        previous = estimate
        binomial = math.sqrt(estimate * (1.0 - estimate) / samples)
        expect(abs(std_error - binomial) <= 1e-15, "stderr is not the binomial error")
        if gamma < answer - 1e-6:
            expect(estimate == 0.0, f"phi {estimate!r} > 0 below the threshold")
        own = float(np.mean(np.all(angles <= enlarged(halves, gamma)[None, :], axis=1)))
        spread = math.sqrt((estimate * (1 - estimate) + own * (1 - own)) / samples)
        expect(abs(estimate - own) <= 6.0 * spread + 2.0 / samples,
               f"phi {estimate!r} disagrees with the independent estimate {own!r}")
