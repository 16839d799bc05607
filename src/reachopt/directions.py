"""First-order ascent directions under reachability and unit-effort pricing.

The central fact: among all reachable unit-effort variations, the payoff
gradient is maximized along the pseudoinverse-weighted gradient, and the
maximal gain equals the effort-weighted norm of that vector. Both come from
the coefficients c = U_r'g of the gradient on the retained modes. One
relative test decides degeneracy: when the operator annihilates the gradient
on those modes, no reachable direction has positive first-order payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDirectionError, InadmissibleDirectionError
from .operators import ConstraintOperator
from .spectral import _as_vector

#: The one degeneracy rule: the operator-gradient product over the retained
#: modes must exceed this level relative to the largest eigenvalue times |g|.
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


def optimal_direction(operator: ConstraintOperator, gradient) -> DirectionResult:
    """Unit-effort direction maximizing first-order payoff among reachable ones.

    Returns an optimal result whenever the operator-gradient product is
    nonzero at the relative level ``DEGENERACY_FACTOR``; otherwise the
    gradient is (numerically) a kernel direction and the degenerate branch
    applies: every reachable direction has zero first-order payoff. A
    gradient whose squared effort norm leaves the floating-point range is
    degenerate too, so no finite gradient yields a non-finite direction.
    """
    grad = _as_vector(gradient, operator.dim, "gradient")
    spectrum, rank = operator.spectrum, operator.reachable_dim
    values, basis = spectrum.eigenvalues[:rank], spectrum.eigenvectors[:, :rank]
    # One projection c = U_r'g gives the operator action |lambda * c|, the
    # pseudoinverse action U_r (c / lambda) and its effort c . (c / lambda);
    # dividing by the root of the latter leaves unit effort by construction.
    coeffs = basis.T @ grad
    scaled = coeffs / values
    effort = float(coeffs @ scaled)
    weighted_norm = math.sqrt(effort)

    mapped = float(np.linalg.norm(values * coeffs))
    threshold = DEGENERACY_FACTOR * operator.operator_norm * float(np.linalg.norm(grad))
    if not (mapped > threshold and 0.0 < effort < math.inf):
        return DirectionResult(DirectionKind.DEGENERATE, None, 0.0, weighted_norm)
    direction = basis @ (scaled / weighted_norm)
    direction.setflags(write=False)
    gain = float(grad @ direction)
    return DirectionResult(DirectionKind.OPTIMAL, direction, gain, weighted_norm)


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
