"""Rank-k compressions of the pseudoinverse with exact residual accounting.

A rule kernel keeps the k most heavily weighted modes of the pseudoinverse,
i.e. the modes belonging to the smallest positive eigenvalues, and drops the
rest. This is the best rank-k approximation of the pseudoinverse in the
operator norm, and the attached error certificate is exact: the reciprocal of
the smallest omitted eigenvalue equals the largest singular value of the
difference from the full pseudoinverse.

Applying a kernel instead of the full pseudoinverse leaves a residual whose
squared norm decomposes exactly over the omitted modes; the per-mode terms
are retained for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralDecomposition,
    SymmetricMatrix,
    _as_vector,
    reciprocal_outer_sum,
)


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Exact accounting of what a truncation discarded for one gradient.

    ``per_mode_contributions`` holds ``(mode_index, contribution)`` pairs for
    each omitted mode, where the contribution is the squared gradient
    component divided by the squared eigenvalue. Their sum is
    ``residual_norm_sq``. Mode indices refer to the decomposition's
    descending eigenvalue order.
    """

    residual_vector: np.ndarray
    residual_norm_sq: float
    per_mode_contributions: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class RuleKernel:
    """Rank-k truncation of the pseudoinverse.

    ``op_error`` is the operator-norm distance to the full pseudoinverse:
    the reciprocal of the smallest omitted eigenvalue, or zero when nothing
    is omitted.
    """

    k: int
    kernel_matrix: SymmetricMatrix
    op_error: float
    source_spectrum: SpectralDecomposition

    def apply_with_residual(self, gradient) -> tuple[np.ndarray, ResidualReport]:
        """Apply the kernel and report exactly what the truncation dropped.

        Everything comes from the scaled coefficients c / lambda of the
        gradient in the retained eigenbasis: the kept modes give the kernel
        action, the omitted ones the residual vector (the full pseudoinverse
        action minus the kernel action) and the per-mode terms (c / lambda)^2,
        whose sum is the squared residual norm.
        """
        spectrum = self.source_spectrum
        grad = _as_vector(gradient, spectrum.dim, "gradient")
        rank = spectrum.rank
        basis = spectrum.eigenvectors[:, :rank]
        scaled = (basis.T @ grad) / spectrum.eigenvalues[:rank]
        split = rank - self.k
        compressed = basis[:, split:] @ scaled[split:]
        residual = basis[:, :split] @ scaled[:split]
        terms = scaled[:split] * scaled[:split]
        contributions = tuple(zip(range(split), terms.tolist()))
        return compressed, ResidualReport(residual, float(terms.sum()), contributions)


def truncate(decomposition: SpectralDecomposition, k: int) -> RuleKernel:
    """Build the rank-k rule kernel of a decomposition.

    ``k`` may range from 0 (zero kernel) to the rank (full pseudoinverse,
    reproduced exactly). The kept modes are those with the largest
    pseudoinverse weights.
    """
    rank = decomposition.rank
    if not 0 <= k <= rank:
        raise ValueError(f"truncation rank must lie in [0, rank={rank}], got {k}")
    kernel_matrix = SymmetricMatrix(reciprocal_outer_sum(decomposition, rank - k, rank))
    if k == rank:
        op_error = 0.0
    else:
        # The smallest omitted eigenvalue carries the largest omitted weight.
        op_error = 1.0 / float(decomposition.eigenvalues[rank - k - 1])
    return RuleKernel(
        k=k,
        kernel_matrix=kernel_matrix,
        op_error=op_error,
        source_spectrum=decomposition,
    )


def smallest_k_for_error(decomposition: SpectralDecomposition, eps: float) -> int:
    """Smallest truncation rank whose operator-norm error is at most ``eps``.

    Monotone nonincreasing in ``eps``; returns the full rank when no proper
    truncation meets the bound.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    rank = decomposition.rank
    for k in range(rank):
        if 1.0 / float(decomposition.eigenvalues[rank - k - 1]) <= eps:
            return k
    return rank
