"""Rank-k compressions of the pseudoinverse with exact residual accounting.

A rule kernel keeps the k most heavily weighted modes of the pseudoinverse,
i.e. the modes belonging to the smallest positive eigenvalues, and drops the
rest. This is the best rank-k approximation of the pseudoinverse in the
operator norm, and the attached error certificate is exact: the reciprocal of
the smallest omitted eigenvalue equals the largest singular value of the
difference from the full pseudoinverse. A kernel is a view of k and the
spectrum: truncating builds no matrix, and the dense one is built when read.

Applying a kernel instead of the full pseudoinverse leaves a residual whose
squared norm decomposes exactly over the omitted modes; the per-mode terms
are retained for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (SpectralDecomposition, SymmetricMatrix, _as_count, _as_real,
                       _reciprocal_outer_sum, _scaled_back, _vector_entries)


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
    """Rank-k truncation of the pseudoinverse, held as a view of its spectrum.

    ``k`` must be an integer in [0, rank]; it is checked, and stored as a
    Python ``int``, when the kernel is made. Nothing else is stored: the
    error certificate and the dense matrix are computed when read.
    """

    k: int
    source_spectrum: SpectralDecomposition

    def __post_init__(self) -> None:
        k, rank = _as_count(self.k, "k", 0), self.source_spectrum.rank
        if k > rank:
            raise ValueError(f"truncation rank must lie in [0, rank={rank}], got {k}")
        object.__setattr__(self, "k", k)

    @property
    def op_error(self) -> float:
        """Operator-norm distance to the full pseudoinverse; zero when nothing is omitted."""
        # The smallest omitted eigenvalue carries the largest omitted weight.
        split = self.source_spectrum.rank - self.k
        return 1.0 / float(self.source_spectrum.eigenvalues[split - 1]) if split else 0.0

    @property
    def kernel_matrix(self) -> SymmetricMatrix:
        """Dense kernel, ``(1/lambda) u u^T`` summed over the kept modes; built on each read."""
        rank = self.source_spectrum.rank
        return SymmetricMatrix(_reciprocal_outer_sum(self.source_spectrum, rank - self.k, rank))

    def apply_with_residual(self, gradient) -> tuple[np.ndarray, ResidualReport]:
        """Apply the kernel and report exactly what the truncation dropped.

        Everything comes from the scaled coefficients c / lambda of the gradient in the
        retained eigenbasis: the kept modes give the kernel action, the omitted ones the
        residual vector (the full pseudoinverse action minus the kernel action) and the
        per-mode terms (c / lambda)^2, whose sum is the squared residual norm. All are formed at
        unit scale and scaled back exactly; one past the float range raises ``ValueError``.
        """
        values, basis, _, half, _, basis_t = self.source_spectrum._modes
        grad, entries = _vector_entries(gradient, basis.shape[0], "gradient")
        exponent = math.frexp(max(map(abs, entries)))[1]
        scaled = (basis_t @ np.ldexp(grad, -exponent)) / values
        shift, split = exponent - 2 * half, values.size - self.k
        compressed = _scaled_back(basis[:, split:] @ scaled[split:], shift, "kernel action")
        residual = _scaled_back(basis[:, :split] @ scaled[:split], shift, "residual")
        terms = scaled[:split] * scaled[:split]
        total = _scaled_back(float(terms.sum()), 2 * shift, "squared residual norm")
        per_mode = np.ldexp(terms, 2 * shift).tolist()  # no term exceeds their sum
        return compressed, ResidualReport(residual, total, tuple(zip(range(split), per_mode)))


def truncate(decomposition: SpectralDecomposition, k: int) -> RuleKernel:
    """The rank-k rule kernel of a decomposition.

    ``k`` may range from 0 (zero kernel) to the rank (full pseudoinverse,
    reproduced exactly). The kept modes are those with the largest
    pseudoinverse weights. A ``k`` out of range raises ``ValueError``, a ``bool``
    or one that is not an integer ``TypeError``.
    """
    return RuleKernel(k, decomposition)


def smallest_k_for_error(decomposition: SpectralDecomposition, eps: float) -> int:
    """Smallest truncation rank whose operator-norm error is at most ``eps``.

    Monotone nonincreasing in ``eps``; returns the full rank when no proper
    truncation meets the bound.
    """
    if not _as_real(eps, "eps") > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    # A cut meets eps when 1/lambda of its smallest omitted eigenvalue does, the
    # division op_error makes (inf for a subnormal lambda, as there, without a warning);
    # 1/lambda ascends along the modes, so those cuts are a prefix.
    rank = decomposition.rank
    with np.errstate(over="ignore"):
        return rank - int(np.count_nonzero(1.0 / decomposition.eigenvalues[:rank] <= eps))
