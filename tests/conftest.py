"""Shared generators for randomized tests. All randomness is seeded."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from reachopt import ConstraintOperator, Objective

# Property tests draw a fixed example sequence, so the suite stays deterministic.
settings.register_profile("reachopt", derandomize=True, deadline=None)
settings.load_profile("reachopt")


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    gaussian = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gaussian)
    return q * np.sign(np.diag(r))


def random_psd(
    rng: np.random.Generator,
    dim: int,
    rank: int,
    low: float = 0.1,
    high: float = 10.0,
) -> np.ndarray:
    """PSD matrix with known rank; positive eigenvalues log-uniform in [low, high]."""
    basis = random_orthogonal(rng, dim)
    values = np.zeros(dim)
    values[:rank] = np.exp(rng.uniform(np.log(low), np.log(high), size=rank))
    return (basis * values) @ basis.T


@st.composite
def rank_deficient_psd(draw) -> tuple[np.ndarray, int]:
    """PSD matrix with a kernel, and its rank; the positive eigenvalues are
    clustered or graded.

    The retained modes sit at up to ``rank`` levels spread over as many as
    eight decades below the largest eigenvalue; modes at one level differ
    by a relative spread of 0 to 1e-4. Every mode stays at least 100 times
    above the rank cut.
    """
    dim = draw(st.integers(2, 8))
    rank = draw(st.integers(1, dim - 1))
    top = 10.0 ** draw(st.floats(-3.0, 3.0))
    levels = np.logspace(0.0, -draw(st.floats(0.0, 8.0)), draw(st.integers(1, rank)))
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(dim)
    chosen = levels[rng.integers(0, levels.size, rank)]
    values[:rank] = top * chosen * (1.0 + spread * rng.uniform(size=rank))
    basis = random_orthogonal(rng, dim)
    return (basis * values) @ basis.T, rank


def random_gram_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    factor = rng.standard_normal((rank, dim))
    return factor.T @ factor


def random_mild_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """PSD matrix with eigenvalues in [0.8, 1.25]; keeps angular geometry gentle."""
    basis = random_orthogonal(rng, dim)
    values = np.zeros(dim)
    values[:rank] = rng.uniform(0.8, 1.25, size=rank)
    return (basis * values) @ basis.T


def rotating_field(dim: int):
    """Point-dependent operator field whose eigenbasis and spectrum move with the point.

    Built without BLAS or LAPACK (a cosine basis, Givens turns and a plain
    einsum), so its matrices have the same bits at every BLAS thread count.
    Each call returns a new, not yet decomposed operator.
    """
    rows, cols = np.arange(dim)[:, None], np.arange(dim)[None, :]
    base = np.cos(math.pi * (2 * rows + 1) * cols / (2 * dim)) * math.sqrt(2.0 / dim)
    base[:, 0] /= math.sqrt(2.0)
    values = np.geomspace(10.0, 0.1, dim)

    def field(point: np.ndarray):
        basis = base.copy()
        for i, angle in enumerate(0.5 * np.sin(3.0 * point[:-1] + np.arange(dim - 1))):
            c, s = math.cos(angle), math.sin(angle)
            left, right = basis[:, i].copy(), basis[:, i + 1].copy()
            basis[:, i], basis[:, i + 1] = c * left - s * right, s * left + c * right
        scaled = values * np.exp(0.3 * np.tanh(point))
        return ConstraintOperator(np.einsum("ik,k,jk->ij", basis, scaled, basis))

    return field


def drifting_objective(dim: int):
    """Concave payoff peaked far from the origin, with an elementwise (BLAS-free) gradient."""
    peak = 3.0 * np.linspace(-1.0, 1.0, dim)
    return Objective(
        lambda x: -0.5 * float(np.sum((x - peak) ** 2)), lambda x: peak - x, "drifting"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)
