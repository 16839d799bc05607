"""Independent reference implementations used to cross-check the library.

Nothing here touches the library's own spectral code paths: eigenvalues come
from characteristic-polynomial roots, operator norms from power iteration,
cone thresholds from the closed-form two-cone geometry, cone minimax values
from enumerating every small cone subset, and constrained optima from
brute-force grids. ``jacobi_reference`` keeps the library's earlier
moving-layout Jacobi solver, whose bits the in-place solver must reproduce,
and ``trace_csv_reference`` the earlier ``csv.writer`` trace writer, whose
bytes the joined-text writer must reproduce.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np


def charpoly_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients (descending powers).

    Faddeev-LeVerrier trace recursion; no eigensolver involved.
    """
    n = matrix.shape[0]
    coeffs = [1.0]
    aux = np.zeros_like(matrix)
    identity = np.eye(n)
    for k in range(1, n + 1):
        aux = matrix @ aux + coeffs[-1] * identity
        coeffs.append(float(-np.trace(matrix @ aux) / k))
    return np.array(coeffs)


def eigenvalues_by_charpoly(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues as companion-matrix roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coefficients(matrix))
    return np.sort(roots.real)[::-1]


def power_iteration_norm(matrix: np.ndarray, iterations: int = 2000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    The iteration runs on a repeatedly squared and rescaled copy so that
    clustered spectra still separate; the Rayleigh quotient is evaluated on
    the original matrix. Deterministic start vector.
    """
    n = matrix.shape[0]
    powered = matrix / max(float(np.linalg.norm(matrix, "fro")), 1e-300)
    for _ in range(8):
        powered = powered @ powered
        powered /= max(float(np.linalg.norm(powered, "fro")), 1e-300)
    vector = np.full(n, 1.0 / math.sqrt(n))
    vector[0] += 1e-3  # break symmetry against unlucky orthogonal starts
    vector /= np.linalg.norm(vector)
    for _ in range(iterations):
        moved = powered @ vector
        norm = float(np.linalg.norm(moved))
        if norm == 0.0:
            return 0.0
        vector = moved / norm
    return float(vector @ matrix @ vector)


def moore_penrose_residuals(matrix: np.ndarray, pinv: np.ndarray) -> list[float]:
    """Frobenius-relative residuals of the four pseudoinverse identities."""

    def relative(err: float, scale: float) -> float:
        return err / max(1.0, scale)

    a_pinv = matrix @ pinv
    pinv_a = pinv @ matrix
    return [
        relative(np.linalg.norm(a_pinv @ matrix - matrix), np.linalg.norm(matrix)),
        relative(np.linalg.norm(pinv_a @ pinv - pinv), np.linalg.norm(pinv)),
        relative(np.linalg.norm(a_pinv.T - a_pinv), np.linalg.norm(a_pinv)),
        relative(np.linalg.norm(pinv_a.T - pinv_a), np.linalg.norm(pinv_a)),
    ]


def angle_between(a: np.ndarray, b: np.ndarray) -> float:
    cosine = float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


def two_cone_feasible(axis_angle: float, half1: float, half2: float) -> bool:
    """Two circular cones share a ray iff their half-angles cover the axis angle."""
    return axis_angle <= half1 + half2


def two_cone_gamma_star(axis_angle: float, half1: float, half2: float) -> float:
    """Closed-form threshold for additive enlargement, valid below the clamp."""
    return max(0.0, (axis_angle - half1 - half2) / 2.0)


def spherical_cap_fraction_3d(alpha: float) -> float:
    """Fraction of the 2-sphere within angle alpha of a fixed axis."""
    return (1.0 - math.cos(alpha)) / 2.0


def circle_grid_argmax(evaluate, radius: float, points: int = 200001) -> np.ndarray:
    """Brute-force maximizer of a scalar function over a circle in the plane."""
    angles = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    best_value = -math.inf
    best_point = None
    for angle in angles:
        candidate = radius * np.array([math.cos(angle), math.sin(angle)])
        value = evaluate(candidate)
        if value > best_value:
            best_value = value
            best_point = candidate
    return best_point


def sphere_angles(points: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Angles between unit rows of ``points`` and of ``axes``, shape (points, axes).

    Taken as atan2(|rejection|, cosine), accurate near 0 and pi.
    """
    cosines = points @ axes.T
    sines = np.array(
        [
            [np.linalg.norm(x - c * a) for c, a in zip(row, axes)]
            for x, row in zip(points, cosines)
        ]
    )
    return np.arctan2(sines, cosines)


def phi_curve_by_level(
    axes: np.ndarray, half_angles: np.ndarray, grid, samples: int, seed: int
) -> list[float]:
    """Measure estimates with one membership test per grid level.

    Draws the same normalized Gaussian samples as ``phi_curve`` and counts,
    at each level, the samples within every half-angle enlarged by it and
    clamped at a right angle.
    """
    points = np.random.default_rng(seed).standard_normal((samples, axes.shape[1]))
    points /= np.maximum(np.linalg.norm(points, axis=1), np.finfo(float).tiny)[:, None]
    angles = np.arccos(np.clip(points @ axes.T, -1.0, 1.0))
    return [
        float(np.mean(np.all(angles <= np.minimum(half_angles + gamma, math.pi / 2), axis=1)))
        for gamma in grid
    ]


def _subset_balance_points(axes: np.ndarray, half_angles: np.ndarray) -> list[np.ndarray]:
    """Points at equal violation t on every cone of the subset, from u = tan t.

    In the span, A x = cos t (p - u q) with G = A Aᵀ, p = cos h, q = sin h,
    and |x| = 1 gives (qᵀG⁻¹q - 1) u² - 2 pᵀG⁻¹q u + pᵀG⁻¹p - 1 = 0; t = ±pi/2
    is added on its own. A one-dimensional null space ν fixes u = νᵀp / νᵀq,
    and the rest of the unit norm goes to one direction orthogonal to the span.
    """
    count, dim = axes.shape
    gram = axes @ axes.T
    p, q = np.cos(half_angles), np.sin(half_angles)
    rank = np.linalg.matrix_rank(axes)
    points = []
    if rank == count:
        gp, gq = np.linalg.solve(gram, p), np.linalg.solve(gram, q)
        # A double root may come out as a complex pair split by rounding, so
        # every root's real part is tried; the scoring discards strays.
        for u in np.roots([q @ gq - 1.0, -2.0 * (p @ gq), p @ gp - 1.0]).real:
            cosine = 1.0 / math.sqrt(1.0 + u**2)
            points.extend(sign * cosine * (axes.T @ (gp - u * gq)) for sign in (1, -1))
        points.extend(sign * (axes.T @ gq) for sign in (1, -1))
    elif rank == count - 1:
        null = np.linalg.eigh(gram)[1][:, 0]
        complement = np.linalg.svd(axes)[2][rank]
        tangent = math.atan2(null @ p, null @ q)
        for t in (tangent, tangent - math.pi):
            rhs = math.cos(t) * p - math.sin(t) * q
            inside = axes.T @ np.linalg.lstsq(gram, rhs, rcond=None)[0]
            height = math.sqrt(max(1.0 - inside @ inside, 0.0))
            points.extend(inside + sign * height * complement for sign in (1, -1))
    return [x / np.linalg.norm(x) for x in points if np.linalg.norm(x) > 0.0]


def enumerated_minimax(axes: np.ndarray, half_angles: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimax of the worst angular violation over the unit sphere, by enumeration.

    Every subset of at most min(m, d) cones gives its closed-form balance
    points; each is scored by the worst violation it attains over the whole
    family, and the best one is returned with its value. Exact in the convex
    regime, where the optimal multipliers live on at most d linearly
    independent axes or on one circuit.
    """
    count, dim = axes.shape
    best_value, best_point = math.inf, None
    for size in range(1, min(count, dim) + 1):
        for subset in itertools.combinations(range(count), size):
            chosen = list(subset)
            for x in _subset_balance_points(axes[chosen], half_angles[chosen]):
                value = float(np.max(sphere_angles(x[None, :], axes)[0] - half_angles))
                if value < best_value:
                    best_value, best_point = value, x
    return best_value, best_point


def _moving_destinations(m: int) -> np.ndarray:
    cycle = np.concatenate((np.arange(2, m, 2), np.arange(m - 1, 0, -2)))
    destination = np.zeros(m, dtype=np.intp)
    destination[cycle] = np.roll(cycle, -1)
    return destination.reshape(-1, 2).T


def _moving_off_diagonal_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.sum(off * off)))


def jacobi_reference(
    matrix: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Round-robin Jacobi with the circle-method permutation applied to the data.

    The moving-layout solver ``spectral`` used before its rounds kept rows in
    place, kept verbatim: pair i sits in rows (2i, 2i+1) and every round moves
    the rows (and, through the transposed column pass, the columns) to their
    next slots. ``matrix`` is symmetric and ``start``, if given, orthonormal.
    Returns unsorted eigenvalues, eigenvector columns, sweeps and the final
    off-diagonal norm, which the in-place solver must reproduce bit for bit.
    """
    n = matrix.shape[0]
    m = n + n % 2
    width = m + n
    state = np.zeros((m, width))
    if start is None:
        state[:n, :n] = matrix
        state[:, m:] = np.eye(m, n)
    else:
        rotated = np.einsum("ki,kj->ij", start, np.einsum("ik,kj->ij", matrix, start))
        state[:n, :n] = (rotated + rotated.T) / 2.0
        state[:n, m:] = start.T
    scale = float(np.sqrt(np.sum(matrix * matrix)))
    target = 1e-14 * scale
    skip = target / max(n, 1)
    first = np.arange(0, m, 2)
    to_first, to_second = moved = _moving_destinations(m)
    pair_entries = first * width + np.stack((first, first + width + 1, first + 1))
    rotated_entries = moved * width + moved[::-1]

    def rotate_rows(rows: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        p, q = rows[0::2], rows[1::2]
        out = np.empty(rows.shape)
        out[to_first] = c * p - s * q
        out[to_second] = s * p + c * q
        return out

    off = _moving_off_diagonal_norm(state[:, :m])
    sweeps = 0
    with np.errstate(invalid="ignore"):
        while off > target:
            if sweeps >= 100:
                raise RuntimeError("no convergence in 100 sweeps")
            for _ in range(m - 1):
                app, aqq, apq = state.ravel()[pair_entries]
                rotate = np.abs(apq) > skip
                diff, twice = aqq - app, 2.0 * apq
                t = np.copysign(1.0, diff) * twice / (np.abs(diff) + np.hypot(twice, diff))
                t = np.where(rotate, t, 0.0)[:, None]
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                state = rotate_rows(state, c, s)
                state[:, :m] = rotate_rows(state[:, :m].T, c, s)
                state.ravel()[rotated_entries[:, rotate]] = 0.0
            sweeps += 1
            off = _moving_off_diagonal_norm(state[:, :m])
    return state.diagonal()[:n].copy(), state[:n, m:].T.copy(), sweeps, off


def trace_csv_reference(record, path) -> None:
    """The trace writer as it was built on ``csv.writer``, kept verbatim."""
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
