"""Constraint operators: reachable-subspace geometry and the quadratic effort form.

A :class:`ConstraintOperator` wraps a PSD symmetric matrix together with its
cached spectral decomposition. Its image is the subspace of directions that
are reachable at all, and the quadratic form prices how costly each reachable
direction is. Operator fields map points to operators; the built-in fields
are constant in the point, but any pure callable works.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

from .spectral import (SpectralDecomposition, SymmetricMatrix, _as_count, _as_real, _as_vector,
                       decompose)

OperatorField = Callable[[np.ndarray], "ConstraintOperator"]

#: ``start``: while ``run_ascent`` runs, the eigenvectors that new operators
#: start Jacobi from (unset or ``None`` for a cold start). Not a context
#: variable: while one is set, numpy looks up its error state more slowly,
#: which cost about 1 us per constant-field ascent step.
_local = threading.local()


class ConstraintOperator:
    """PSD operator whose image is the reachable subspace.

    Immutable after construction; the spectral decomposition is computed once,
    when the operator is built, and shared by every downstream consumer. A
    matrix that is not PSD raises ``NotPositiveSemidefiniteError`` here. An
    operator built while ``run_ascent`` runs, with the previous step's
    dimension, is decomposed with Jacobi started from that step's
    eigenvectors; any other is decomposed cold.
    """

    __slots__ = ("_matrix", "_spectrum")

    def __init__(self, matrix) -> None:
        sym = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
        start = getattr(_local, "start", None)
        if start is not None and start.shape[0] != sym.dim:
            start = None
        self._matrix = sym
        self._spectrum = decompose(sym, start=start)

    @property
    def matrix(self) -> SymmetricMatrix:
        return self._matrix

    @property
    def spectrum(self) -> SpectralDecomposition:
        return self._spectrum

    @property
    def dim(self) -> int:
        return self._matrix.dim

    @property
    def reachable_dim(self) -> int:
        return self._spectrum.rank

    def project_onto_image(self, vector) -> np.ndarray:
        return self._spectrum.project_onto_image(vector)

    def effort(self, direction) -> float:
        """Quadratic form of the operator: the squared cost of a variation.

        Zero exactly when the direction lies in the kernel (up to rounding);
        negative rounding noise is clamped to 0.
        """
        vec = _as_vector(direction, self.dim, "direction")
        return max(float(vec @ self._matrix.entries @ vec), 0.0)

    def __repr__(self) -> str:
        return (
            f"ConstraintOperator(dim={self.dim}, reachable_dim={self.reachable_dim})"
        )


def constant_field(matrix) -> OperatorField:
    """Operator field that returns the same operator at every point."""
    operator = ConstraintOperator(matrix)

    def field(_point: np.ndarray) -> ConstraintOperator:
        return operator

    return field


def diag_decay_field(dim: int, scale: float, ratio: float) -> OperatorField:
    """Constant diagonal field with geometrically decaying weights.

    The i-th diagonal entry is ``scale * ratio**i`` for ``i = 0..dim-1``.
    ``scale`` and ``ratio`` must be positive and finite, and so must every entry.
    """
    dim = _as_count(dim, "dim", 1)
    for key, value in (("scale", scale), ("ratio", ratio)):
        if not 0.0 < _as_real(value, key) < math.inf:
            raise ValueError(f"{key} must be positive and finite, got {value!r}")
    with np.errstate(over="ignore"):
        diagonal = scale * np.power(float(ratio), np.arange(dim, dtype=float))
    if not np.isfinite(diagonal).all():
        raise ValueError(f"scale * ratio**{dim - 1} overflows")
    return constant_field(np.diag(diagonal))


def mask_field(mask) -> OperatorField:
    """Constant coordinate-projection field: diagonal of 0/1 mask entries."""
    arr = _as_vector(mask, None, "mask")
    if not np.all(np.isin(arr, (0.0, 1.0))):
        raise ValueError("mask entries must be 0 or 1")
    return constant_field(np.diag(arr))
