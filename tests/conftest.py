"""Shared generators for randomized tests. All randomness is seeded."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

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


def random_gram_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    factor = rng.standard_normal((rank, dim))
    return factor.T @ factor


def random_mild_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """PSD matrix with eigenvalues in [0.8, 1.25]; keeps angular geometry gentle."""
    basis = random_orthogonal(rng, dim)
    values = np.zeros(dim)
    values[:rank] = rng.uniform(0.8, 1.25, size=rank)
    return (basis * values) @ basis.T


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)
