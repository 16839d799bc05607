"""First-order ascent directions under reachability and unit-effort pricing.

The central fact: among all reachable unit-effort variations, the payoff
gradient is maximized along the pseudoinverse-weighted gradient, and the
maximal gain equals the effort-weighted norm of that vector. When the
operator annihilates the gradient, no reachable direction has positive
first-order payoff and the result is degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDirectionError, InadmissibleDirectionError
from .operators import ConstraintOperator
from .spectral import _as_vector

#: Degeneracy test: the operator-gradient product must exceed this relative level.
DEGENERACY_FACTOR = 1e-12

_GAIN_ADMISSIBILITY_TOL = 1e-6


class DirectionKind(str, Enum):
    OPTIMAL = "optimal"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class DirectionResult:
    """Outcome of a direction solve.

    ``direction`` is present only for optimal results and has unit effort.
    ``weighted_gradient_norm`` is the effort norm of the pseudoinverse-weighted
    gradient, which equals ``first_order_gain`` at an unconstrained optimum.
    """

    kind: DirectionKind
    direction: np.ndarray | None
    first_order_gain: float
    weighted_gradient_norm: float


def _unit_effort_result(
    operator: ConstraintOperator, grad: np.ndarray, vector, weighted_norm: float
) -> DirectionResult:
    """Normalize ``vector`` to unit effort; degenerate if its effort vanishes."""
    try:
        direction = operator.normalize_effort(vector)
    except DegenerateDirectionError:
        return DirectionResult(DirectionKind.DEGENERATE, None, 0.0, weighted_norm)
    direction.setflags(write=False)
    gain = float(grad @ direction)
    return DirectionResult(DirectionKind.OPTIMAL, direction, gain, weighted_norm)


def optimal_direction(operator: ConstraintOperator, gradient) -> DirectionResult:
    """Unit-effort direction maximizing first-order payoff among reachable ones.

    Returns an optimal result whenever the operator-gradient product is
    nonzero at the relative level ``DEGENERACY_FACTOR``; otherwise the
    gradient is (numerically) a kernel direction and the degenerate branch
    applies: every reachable direction has zero first-order payoff.
    """
    grad = _as_vector(gradient, operator.dim, "gradient")
    spectrum = operator.spectrum
    basis, values, rank = spectrum.eigenvectors, spectrum.eigenvalues, spectrum.rank
    # One projection c = U'g gives both the pseudoinverse action
    # U_r (c_r / lambda_r) and the norm of the operator action, |lambda * c|.
    coeffs = basis.T @ grad
    weighted = basis[:, :rank] @ (coeffs[:rank] / values[:rank])
    weighted_norm = math.sqrt(max(float(grad @ weighted), 0.0))

    mapped = float(np.linalg.norm(values * coeffs))
    threshold = DEGENERACY_FACTOR * operator.operator_norm * float(np.linalg.norm(grad))
    if mapped <= threshold:
        return DirectionResult(DirectionKind.DEGENERATE, None, 0.0, weighted_norm)
    return _unit_effort_result(operator, grad, weighted, weighted_norm)


def first_order_gain(operator: ConstraintOperator, gradient, direction) -> float:
    """Payoff slope along an admissible direction.

    Raises
    ------
    InadmissibleDirectionError
        If the direction is not reachable with unit effort within 1e-6.
    """
    grad = _as_vector(gradient, operator.dim, "gradient")
    if not operator.is_admissible(direction, tol=_GAIN_ADMISSIBILITY_TOL):
        raise InadmissibleDirectionError(
            "direction is not a reachable unit-effort variation"
        )
    return float(grad @ np.asarray(direction, dtype=float))


def sample_unit_effort(operator: ConstraintOperator, count: int, rng=None) -> np.ndarray:
    """Sample unit-effort directions uniformly-in-angle over the reachable set.

    Gaussian coefficients are drawn in the retained eigenbasis and each sample
    is rescaled to unit effort, which parameterizes the admissible set
    exactly. Returns an array of shape ``(count, dim)``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rank = operator.reachable_dim
    if rank == 0:
        raise DegenerateDirectionError(
            "the zero operator admits no unit-effort directions"
        )
    generator = np.random.default_rng(rng)
    values = operator.spectrum.eigenvalues[:rank]
    basis = operator.spectrum.eigenvectors[:, :rank]
    coeff = generator.standard_normal((count, rank))
    efforts = (coeff * coeff) @ values
    efforts = np.maximum(efforts, np.finfo(float).tiny)
    return (coeff / np.sqrt(efforts)[:, None]) @ basis.T
