"""First-order ascent directions under reachability and unit-effort pricing.

The central fact: among all reachable unit-effort variations, the payoff
gradient is maximized along the pseudoinverse-weighted gradient, and the
maximal gain equals the effort-weighted norm of that vector. Both come from
the coefficients c = U_r'g of the gradient on the retained modes; a cost
halfspace n.d <= 0 only shifts them to c - mu U_r'n. One relative test
decides degeneracy: when the operator annihilates the ascent vector on those
modes, no admissible direction has positive first-order payoff.
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
    ascent vector: the gradient g, or g - mu n on an active cost halfspace.
    It equals ``first_order_gain`` in every optimal result.
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
    applies: every reachable direction has zero first-order payoff. The
    gradient is first divided by the power of two of its largest entry, which
    is exact, so every finite gradient is solved at the scale of one; a
    result whose effort norm leaves the floating-point range is degenerate
    with an infinite ``weighted_gradient_norm``.
    """
    return _modal_direction(operator, gradient, None)


def _scaled_coefficients(basis: np.ndarray, top: float, vector: np.ndarray):
    """(c, e, level): c = U_r'v / 2^e, 2^e the power of two of max|v_i|, so the
    division is exact; level is the degeneracy bar of v / 2^e, for the largest
    eigenvalue ``top``."""
    # A Python max over the list costs less than numpy calls at ascent sizes.
    exponent = math.frexp(max(map(abs, vector.tolist())))[1]
    unit = np.ldexp(vector, -exponent)
    level = DEGENERACY_FACTOR * top * math.sqrt(float(unit @ unit))
    return basis.T @ unit, exponent, level


def _reaches(values: np.ndarray, coeffs: np.ndarray, level: float) -> bool:
    """The one degeneracy rule: the operator action |lambda * c| exceeds ``level``."""
    mapped = values * coeffs
    return math.sqrt(float(mapped @ mapped)) > level


def _modal_direction(operator: ConstraintOperator, gradient, normal) -> DirectionResult:
    """Maximizer of g . d over reachable unit-effort d, with n . d <= 0 if n is given.

    See :func:`reachopt.ascent.feasible_direction` for the halfspace case. A
    degenerate gradient stays degenerate, and a normal that fails the rule
    has no reachable component and leaves the free direction.
    """
    grad = _as_vector(gradient, operator.dim, "gradient")
    spectrum, rank, top = operator.spectrum, operator.reachable_dim, operator.operator_norm
    values, basis = spectrum.eigenvalues[:rank], spectrum.eigenvectors[:, :rank]
    coeffs, exponent, level = _scaled_coefficients(basis, top, grad)
    if normal is not None:
        normal = _as_vector(normal, operator.dim, "normal")
        normal_coeffs, _, normal_level = _scaled_coefficients(basis, top, normal)
        outward = float(normal_coeffs @ (coeffs / values))
        if (outward > 0.0 and _reaches(values, coeffs, level)
                and _reaches(values, normal_coeffs, normal_level)):
            mu = outward / float(normal_coeffs @ (normal_coeffs / values))
            coeffs = coeffs - mu * normal_coeffs
    # The operator action |lambda * c|, the pseudoinverse action U_r (c / lambda)
    # and its effort c . (c / lambda) all come from c; dividing by the root of
    # the effort leaves unit effort by construction.
    scaled = coeffs / values
    root = math.sqrt(float(coeffs @ scaled))
    in_range = math.frexp(root)[1] + exponent <= 1024
    weighted_norm = math.ldexp(root, exponent) if in_range else math.inf
    if not (_reaches(values, coeffs, level) and 0.0 < weighted_norm < math.inf):
        return DirectionResult(DirectionKind.DEGENERATE, None, 0.0, weighted_norm)
    direction = basis @ (scaled / root)
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
