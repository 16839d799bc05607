"""Constraint operators: reachable-subspace geometry and the quadratic effort form.

A :class:`ConstraintOperator` wraps a PSD symmetric matrix together with its
cached spectral decomposition. Its image is the subspace of directions that
are reachable at all, and the quadratic form prices how costly each reachable
direction is. Operator fields map points to operators; the built-in fields
are constant in the point, but any pure callable works.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .spectral import SpectralDecomposition, SymmetricMatrix, _as_vector, decompose

OperatorField = Callable[[np.ndarray], "ConstraintOperator"]


class ConstraintOperator:
    """PSD operator whose image is the reachable subspace.

    Immutable after construction; the spectral decomposition is computed once
    and shared by every downstream consumer.
    """

    __slots__ = ("_matrix", "_spectrum")

    def __init__(self, matrix, rank_tolerance: float | None = None) -> None:
        sym = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
        self._matrix = sym
        self._spectrum = decompose(sym, rank_tolerance)

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

    @property
    def operator_norm(self) -> float:
        """Largest eigenvalue (zero for the zero operator)."""
        return float(self._spectrum.eigenvalues[0])

    @property
    def pseudoinverse(self) -> SymmetricMatrix:
        return self._spectrum.pseudoinverse()

    def project_onto_image(self, vector) -> np.ndarray:
        return self._spectrum.project_onto_image(vector)

    def effort(self, direction) -> float:
        """Quadratic form of the operator: the squared cost of a variation.

        Zero exactly when the direction lies in the kernel (up to rounding);
        negative rounding noise is clamped to 0.
        """
        vec = _as_vector(direction, self.dim, "direction")
        return max(float(vec @ self._matrix.entries @ vec), 0.0)

    def is_admissible(self, direction, tol: float = 1e-8) -> bool:
        """True iff the direction is reachable and has unit effort, within tol."""
        vec = _as_vector(direction, self.dim, "direction")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("the zero vector is never admissible")
        off_image = float(np.linalg.norm(vec - self.project_onto_image(vec)))
        if off_image > tol * norm:
            return False
        return abs(self.effort(vec) - 1.0) <= tol

    def __repr__(self) -> str:
        return (
            f"ConstraintOperator(dim={self.dim}, reachable_dim={self.reachable_dim})"
        )


def constant_field(matrix, rank_tolerance: float | None = None) -> OperatorField:
    """Operator field that returns the same operator at every point."""
    operator = ConstraintOperator(matrix, rank_tolerance)

    def field(_point: np.ndarray) -> ConstraintOperator:
        return operator

    return field


def diag_decay_field(
    dim: int, scale: float, ratio: float, rank_tolerance: float | None = None
) -> OperatorField:
    """Constant diagonal field with geometrically decaying weights.

    The i-th diagonal entry is ``scale * ratio**i`` for ``i = 0..dim-1``.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if scale <= 0.0 or ratio <= 0.0:
        raise ValueError("scale and ratio must be positive")
    diagonal = scale * np.power(float(ratio), np.arange(dim, dtype=float))
    return constant_field(SymmetricMatrix.from_diagonal(diagonal), rank_tolerance)


def mask_field(mask) -> OperatorField:
    """Constant coordinate-projection field: diagonal of 0/1 mask entries."""
    arr = np.asarray(mask, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("mask must be a nonempty 1-d sequence")
    if not np.all(np.isin(arr, (0.0, 1.0))):
        raise ValueError("mask entries must be 0 or 1")
    return constant_field(SymmetricMatrix.from_diagonal(arr))


def operator_field_from_config(config: dict) -> OperatorField:
    """Build an operator field from its JSON configuration.

    Supported kinds::

        {"kind": "constant", "matrix": {"dim": n, "entries": [[...], ...]}}
        {"kind": "diag_decay", "dim": n, "scale": a, "ratio": r}
        {"kind": "mask", "mask": [1, 0, ...]}

    Every kind accepts an optional ``"rank_tolerance"``.
    """
    kind = config.get("kind")
    tol = config.get("rank_tolerance")
    if kind == "constant":
        return constant_field(SymmetricMatrix.from_dict(config["matrix"]), tol)
    if kind == "diag_decay":
        return diag_decay_field(
            int(config["dim"]), float(config["scale"]), float(config["ratio"]), tol
        )
    if kind == "mask":
        return mask_field(config["mask"])
    raise ValueError(f"unknown operator field kind: {kind!r}")
