"""Dense symmetric eigendecomposition, pseudoinversion, and spectral projections.

Everything in this module is deterministic: the eigensolver performs
round-robin Jacobi sweeps in a fixed order (a cached per-dimension plan pairs
rows that stay in place) using elementwise arithmetic only, eigenvalues are
ordered descending with a stable sort, and each eigenvector's first nonzero
component is flipped to be positive. Decompositions of the same matrix from the
same ``start`` are therefore bit-identical across runs and BLAS thread counts.
No ``start`` means the identity, for which the basis change is exact.
``run_ascent`` starts the operators built during the run from the previous
step's eigenvectors, so along a point-dependent field the bits also depend on
the trajectory so far; repeat runs still match.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    JacobiConvergenceError,
    NotPositiveSemidefiniteError,
)

#: Eigenvalues below this times the largest are rejected as genuinely negative;
#: values from there up to 0 are treated as rounding noise and clamped to 0.
PSD_EIGENVALUE_FLOOR = -1e-10

#: The rank cut: eigenvalues strictly above this times the largest count.
RELATIVE_RANK_TOLERANCE = 1e-10

#: Jacobi sweeps allowed before ``decompose`` raises ``JacobiConvergenceError``.
DEFAULT_MAX_SWEEPS = 100

_SIGN_TOLERANCE = 1e-12
_CONVERGENCE_FACTOR = 1e-14
_START_ORTHONORMALITY = 1e-8


def _as_square_array(entries) -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def _as_vector(values, dim: int | None, name: str) -> np.ndarray:
    """``values`` as a finite float vector of shape ``(dim,)``, or of any nonempty
    length when ``dim`` is None; ``name`` labels the error."""
    return _vector_entries(values, dim, name)[0]


def _vector_entries(values, dim: int | None, name: str) -> tuple[np.ndarray, list]:
    """``_as_vector`` and its entries as a list of Python floats, read once."""
    vec = np.asarray(values, dtype=float)
    if vec.shape != (dim,) and (dim is not None or vec.ndim != 1 or not vec.size):
        expected = "a nonempty 1-d vector" if dim is None else f"dimension {dim}"
        raise DimensionMismatchError(f"{name} of shape {vec.shape} does not match {expected}")
    entries = vec.tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError(f"{name} entries must be finite")
    return vec, entries


def _as_count(value, name: str, low: int) -> int:
    """``value`` as an ``int`` of at least ``low`` (0 or 1); ``name`` labels the error.
    A ``bool`` or a non-integer raises ``TypeError``, a smaller value ``ValueError``."""
    integer = hasattr(value, "__index__") and not isinstance(value, bool)
    if not (integer and operator.index(value) >= low):
        message = f"{name} must be a {'positive' if low else 'nonnegative'} integer, got {value!r}"
        raise (ValueError if integer else TypeError)(message)
    return operator.index(value)


def _as_real(value, name: str):
    """``value`` as given, unless it is a ``bool`` (or ``np.bool_``), which raises
    ``TypeError``; ``name`` labels the error. Callers check the range."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, not a bool, got {value!r}")
    return value


class SymmetricMatrix:
    """Real symmetric matrix.

    Input is symmetrized to ``(A + A.T) / 2`` at construction, which makes the
    symmetry invariant exact rather than approximate (a sum that overflows
    raises ``ValueError``). Entries are stored in a read-only array, so
    instances are safe to share across threads.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        arr = _as_square_array(entries)
        with np.errstate(over="ignore"):
            sym = (arr + arr.T) / 2.0
        if not np.isfinite(sym).all():
            raise ValueError("matrix entries are too large to symmetrize")
        sym.setflags(write=False)
        self._entries = sym

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a PSD symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        All ``dim`` eigenvalues, sorted descending. Negative rounding noise
        has been clamped to zero.
    eigenvectors : ndarray
        Orthonormal eigenvector columns in the same order.
    rank : int
        Number of eigenvalues strictly above ``RELATIVE_RANK_TOLERANCE``
        times the largest one.
    sweeps : int
        Jacobi sweeps run; 0 for a diagonal input.
    off_diagonal_norm : float
        Frobenius norm of the off-diagonal part left after the last sweep.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    sweeps: int
    off_diagonal_norm: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @functools.cached_property
    def _modes(self) -> tuple:
        """(lambda_r / 4^h, U_r, lambda_max / 4^h, h, lambda_r / 4^h as a list, U_r') on first
        read; 4^h is lambda_max's even power of two, so division and sqrt stay exact."""
        values, half = self.eigenvalues, math.frexp(self.eigenvalues[0])[1] // 2
        scaled, basis = np.ldexp(values[: self.rank], -2 * half), self.eigenvectors[:, : self.rank]
        return scaled, basis, math.ldexp(values[0], -2 * half), half, scaled.tolist(), basis.T

    def pseudoinverse(self) -> SymmetricMatrix:
        """Moore-Penrose pseudoinverse built on the positive spectrum.

        Each retained mode adds its reciprocal eigenvalue, the kernel nothing (so rank 0 gives
        the zero matrix); an entry past the floating-point range raises ``ValueError``.
        """
        return SymmetricMatrix(_reciprocal_outer_sum(self, 0, self.rank))

    def project_onto_image(self, vector) -> np.ndarray:
        """Orthogonal projection onto the span of the retained eigenvectors."""
        vec = _as_vector(vector, self.dim, "vector")
        basis = self.eigenvectors[:, : self.rank]
        return basis @ (basis.T @ vec)


def _reciprocal_outer_sum(spectrum: SpectralDecomposition, start: int, stop: int) -> np.ndarray:
    """Sum of ``(1/eigenvalue) * u u^T`` over retained modes ``[start, stop)``: ``[0, rank)`` is
    the pseudoinverse, ``[rank - k, rank)`` its rank-k truncation, bit for bit at k = rank."""
    values, basis, _, half, _, _ = spectrum._modes
    basis = basis[:, start:stop]
    return _scaled_back((basis / values[start:stop]) @ basis.T, -2 * half, "pseudoinverse entry")


def _scaled_back(unit, exponent: int, name: str):
    """``unit * 2**exponent`` (an array or a float), exact unless it underflows: the one range
    rule for results formed at unit scale. Past the float range, ValueError names the quantity."""
    scalar = isinstance(unit, float)
    largest = abs(unit) if scalar else float(abs(unit).max())
    if largest and math.frexp(largest)[1] + exponent > 1024:
        raise ValueError(f"{name} overflows the floating-point range")
    return math.ldexp(unit, exponent) if scalar else np.ldexp(unit, exponent)


def _off_diagonal_norm(a: np.ndarray) -> float:
    # Summing the off-diagonal entries directly avoids the cancellation that
    # a total-minus-diagonal formulation hits near convergence.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.sum(off * off)))


@functools.lru_cache(maxsize=8)
def _round_plan(n: int) -> tuple:
    """The m - 1 rounds of a sweep at dimension ``n``, m = n rounded up to even.

    Rows stay in place; only the pairing moves. Pair i is the rows in slots
    (2i, 2i+1). Slot 0 stays; the others step along 2 -> 4 -> ... -> m-2 -> m-1
    -> m-3 -> ... -> 1 -> 2 (Brent and Luk's circle method), so in m - 1 rounds
    every two rows share a pair once. Per round and row r, in a pair (p, q):
    r's partner, the flat positions of (p, p), (q, q) and (p, q), the sign of
    ``s`` in r's rotated row (-1 on p, +1 on q) and the flat position of (r, partner).
    """
    m = n + n % 2
    width = m + n
    cycle = np.concatenate((np.arange(2, m, 2), np.arange(m - 1, 0, -2)))
    destination, rows = np.arange(m), np.arange(m)
    destination[cycle] = np.roll(cycle, -1)
    slot, plan = rows, []
    for _ in range(m - 1):
        occupant = np.argsort(slot)
        partner, p, q = occupant[slot ^ 1], occupant[slot & -2], occupant[slot | 1]
        entries = np.stack((p * (width + 1), q * (width + 1), p * width + q))
        plan.append((partner, entries, (2.0 * (slot & 1) - 1.0)[:, None], rows * width + partner))
        slot = destination[slot]
    return tuple(plan)


def _orthonormal_start(start, dim: int) -> np.ndarray:
    """``start`` checked as a ``dim`` x ``dim`` orthogonal matrix and refined.

    One Newton-Schulz step, ``V (3I - V^T V) / 2``, takes an orthonormality
    error ``e`` to about ``e**2``; einsum without optimize= calls no BLAS.
    """
    vectors = _as_square_array(start)
    if vectors.shape[0] != dim:
        raise DimensionMismatchError(
            f"start of shape {vectors.shape} does not match dimension {dim}"
        )
    error = np.einsum("ki,kj->ij", vectors, vectors) - np.eye(dim)
    if not np.max(np.abs(error)) <= _START_ORTHONORMALITY:
        raise ValueError(f"start columns must be orthonormal within {_START_ORTHONORMALITY}")
    return vectors - 0.5 * np.einsum("ik,kj->ij", vectors, error)


def _jacobi_eigensystem(
    matrix: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int, float]:
    n = matrix.shape[0]
    m = n + n % 2
    # An exact power-of-two scaling keeps the norms below in range; results are scaled back.
    exponent = math.frexp(float(np.max(np.abs(matrix))))[1]
    matrix = np.ldexp(matrix, -exponent)
    start = np.eye(n) if start is None else start
    # Each row holds a row of V0^T A V0, symmetrized as the rotations below
    # assume (an odd n gets a zero pad row and column, which never rotate),
    # followed by one eigenvector row of V0^T. einsum without optimize= calls
    # no BLAS, so the bits do not depend on threads.
    state = np.zeros((m, m + n))
    rotated = np.einsum("ki,kj->ij", start, np.einsum("ik,kj->ij", matrix, start))
    state[:n, :n] = (rotated + rotated.T) / 2.0
    state[:n, m:] = start.T
    scale = float(np.sqrt(np.sum(matrix * matrix)))
    target = _CONVERGENCE_FACTOR * scale
    # n(n - 1) off-diagonal entries of at most target / n have a norm below target,
    # so a sweep that starts above target has an entry above skip to rotate.
    skip = target / max(n, 1)
    flat, block = state.ravel(), state[:, :m]
    off = _off_diagonal_norm(block)
    sweeps = 0
    with np.errstate(invalid="ignore"):
        while off > target:
            if sweeps >= DEFAULT_MAX_SWEEPS:
                raise JacobiConvergenceError(math.ldexp(off, exponent), sweeps)
            for partner, entries, sign, zero_at in _round_plan(n):
                app, aqq, apq = flat[entries]
                rotate = np.abs(apq) > skip
                # t = tan of the angle (<= pi/4) zeroing apq; any 0/0 is in a skipped pair.
                diff, twice = aqq - app, 2.0 * apq
                t = np.copysign(1.0, diff) * twice / (np.abs(diff) + np.hypot(twice, diff))
                t = np.where(rotate, t, 0.0)[:, None]
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                s *= sign
                # Elementwise only, so no BLAS call: c*p + (-s)*q is c*p - s*q bit for bit.
                buf = state.take(partner, 0)
                buf *= s
                state *= c
                state += buf
                # The matrix is symmetric, so G^T A G = G^T (G^T A)^T.
                buf = block.T.take(partner, 0)
                buf *= s
                np.add(block.T * c, buf, out=block)
                flat[zero_at[rotate]] = 0.0
            sweeps += 1
            off = _off_diagonal_norm(block)
    values, off = np.ldexp(state.diagonal()[:n], exponent), math.ldexp(off, exponent)
    return values, state[:n, m:].T.copy(), sweeps, off


def _canonicalize_signs(vectors: np.ndarray) -> None:
    """Negate each column whose first entry above ``_SIGN_TOLERANCE`` is negative."""
    significant = np.abs(vectors) > _SIGN_TOLERANCE
    lead = vectors[significant.argmax(axis=0), np.arange(vectors.shape[1])]
    flip = significant.any(axis=0) & (lead < 0.0)
    vectors[:, flip] = -vectors[:, flip]


def decompose(matrix, *, start=None) -> SpectralDecomposition:
    """Eigendecompose a symmetric PSD matrix with round-robin Jacobi rotations.

    Each sweep runs m - 1 rounds, m being the dimension rounded up to even;
    a round applies m/2 disjoint rotations at once to rows that stay in
    place, paired by Brent and Luk's circle method, until the off-diagonal
    Frobenius norm is at most ``1e-14 * |A|_F``. A pair whose entry is at
    most that over n cannot keep the norm above it and is left alone
    (Rutishauser's threshold Jacobi); rotating such noise within a cluster
    or the kernel would undo couplings already removed, so on clustered and
    rank-deficient spectra this saves sweeps (9-10 instead of 12-13 at n = 64,
    rank 51). Jacobi runs on the matrix divided by the power of two of its
    largest entry, which is exact, so every tolerance is relative and a
    Frobenius norm beyond the floating-point range does no harm: scaling by
    a power of two scales only the eigenvalues.

    Parameters
    ----------
    matrix : SymmetricMatrix or array_like
        Square symmetric input; raw arrays are symmetrized first.
    start : array_like, optional
        Orthogonal matrix whose columns approximate the eigenvectors, such as
        those of a nearby matrix. Jacobi starts from ``start.T @ A @ start``;
        when that is nearly diagonal, quadratic convergence needs fewer
        sweeps, at the cost of about ``|A| * eps`` absolute error from the
        basis change. Columns that are not orthonormal to within ``1e-8``
        raise ``ValueError``; the rest are refined to orthonormal first, so
        chaining starts along a path does not build up error. None, the
        default, means the identity, for which the basis change is exact.

    Raises
    ------
    NotPositiveSemidefiniteError
        If an eigenvalue falls below ``-1e-10`` times the largest. Negative
        values above that are clamped to zero as rounding noise.
    JacobiConvergenceError
        If the off-diagonal norm has not reached the convergence target
        within ``DEFAULT_MAX_SWEEPS`` full sweeps.
    """
    sym = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
    if start is not None:
        start = _orthonormal_start(start, sym.dim)

    values, vectors, sweeps, off = _jacobi_eigensystem(sym.entries, start)

    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]

    top, smallest = float(values[0]), float(values[-1])
    if smallest < PSD_EIGENVALUE_FLOOR * top:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {smallest:.6e} is below {PSD_EIGENVALUE_FLOOR} * largest {top:.6e}"
        )
    values[values < 0.0] = 0.0
    _canonicalize_signs(vectors)

    rank = int(np.sum(values > RELATIVE_RANK_TOLERANCE * top))

    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(values, vectors, rank, sweeps, off)
