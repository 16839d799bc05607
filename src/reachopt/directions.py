"""First-order ascent directions under reachability and unit-effort pricing.

The central fact: among all reachable unit-effort variations, the payoff
gradient is maximized along the pseudoinverse-weighted gradient, and the
maximal gain equals the effort-weighted norm of that vector. Both come from
the coefficients c = U_r'g of the gradient on the retained modes; a cost
halfspace n.d <= 0 only shifts them to c - mu U_r'n. One relative test
decides degeneracy: when the operator annihilates the ascent vector on those
modes, no admissible direction has positive first-order payoff.
The gain is reported on the ``DirectionResult``. A candidate d is admissible
when ``operator.project_onto_image(d)`` returns d and ``operator.effort(d)`` is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import mul

import numpy as np

from .operators import ConstraintOperator
from .spectral import _as_count, _as_vector

#: The one degeneracy rule: the operator-gradient product over the retained
#: modes must exceed this level relative to the largest eigenvalue times |g|.
DEGENERACY_FACTOR = 1e-12


class DirectionKind(str, Enum):
    OPTIMAL = "optimal"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, eq=False)
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


def _scaled_coefficients(basis: np.ndarray, top: float, vector: np.ndarray):
    """(c, e, level): c = U_r'v / 2^e, 2^e the power of two of max|v_i|, so the
    division is exact; level is the degeneracy bar of v / 2^e, for the scaled
    largest eigenvalue ``top``."""
    # A Python max over the list costs less than numpy calls at ascent sizes.
    exponent = math.frexp(max(map(abs, vector.tolist())))[1]
    unit = np.ldexp(vector, -exponent)
    level = DEGENERACY_FACTOR * top * math.sqrt(unit.dot(unit))
    return basis.T @ unit, exponent, level


def _reaches(values: np.ndarray, coeffs: np.ndarray, level: float) -> bool:
    """The one degeneracy rule: the operator action |lambda * c| exceeds ``level``."""
    return math.hypot(*map(mul, values.tolist(), coeffs.tolist())) > level


def optimal_direction(
    operator: ConstraintOperator, gradient, normal=None
) -> DirectionResult:
    """Unit-effort direction maximizing first-order payoff among reachable ones.

    Returns an optimal result whenever the operator-gradient product is
    nonzero at the relative level ``DEGENERACY_FACTOR``; otherwise the
    gradient is (numerically) a kernel direction and the degenerate branch
    applies: every reachable direction has zero first-order payoff. The
    gradient is divided by the power of two of its largest entry and the
    operator by the even power of two 4^h of its largest eigenvalue, which is
    exact, so every solve runs at the scale of one and the verdict depends on
    neither scale; a result whose effort norm leaves the floating-point range
    is degenerate with a ``weighted_gradient_norm`` of inf (0 on underflow).

    With a ``normal`` n (a cost gradient at an active budget), the direction
    is restricted to the halfspace n . d <= 0. Where the free direction
    points outward, it maximizes the gain over reachable unit-effort
    directions in that halfspace: d ~ A+(g - mu n) with
    mu = (c_n . c_g / lambda) / (c_n . c_n / lambda), the gradient projection
    in the pseudoinverse metric, degenerate at a KKT point of the boundary.
    A degenerate gradient stays degenerate, and a normal that fails the
    degeneracy rule has no reachable component and leaves the free direction.

    Each vector is checked once: a shape other than ``(operator.dim,)`` raises
    ``DimensionMismatchError``, a non-finite entry ``ValueError``.
    """
    grad = _as_vector(gradient, operator.dim, "gradient")
    if normal is not None:
        normal = _as_vector(normal, operator.dim, "normal")
    values, basis, top, half = operator._modes
    coeffs, exponent, level = _scaled_coefficients(basis, top, grad)
    if normal is not None:
        normal_coeffs, _, normal_level = _scaled_coefficients(basis, top, normal)
        outward = float(normal_coeffs.dot(coeffs / values))
        if (outward > 0.0 and _reaches(values, coeffs, level)
                and _reaches(values, normal_coeffs, normal_level)):
            mu = outward / float(normal_coeffs.dot(normal_coeffs / values))
            coeffs = coeffs - mu * normal_coeffs
    # The operator action |lambda * c|, the pseudoinverse action U_r (c / lambda) and its
    # effort c . (c / lambda) all come from c at the scale of one; dividing by root * 2^h
    # leaves unit effort under the unscaled operator, where g has norm root * 2^(e - h).
    scaled = coeffs / values
    root = math.sqrt(coeffs.dot(scaled))
    in_range = math.frexp(root)[1] + exponent - half <= 1024
    weighted_norm = math.ldexp(root, exponent - half) if in_range else math.inf
    if not (_reaches(values, coeffs, level) and 0.0 < weighted_norm < math.inf):
        return DirectionResult(DirectionKind.DEGENERATE, None, 0.0, weighted_norm)
    direction = basis.dot(scaled / math.ldexp(root, half))
    direction.setflags(write=False)
    gain = float(grad.dot(direction))
    return DirectionResult(DirectionKind.OPTIMAL, direction, gain, weighted_norm)


def sample_unit_effort(operator: ConstraintOperator, count: int, rng=None) -> np.ndarray:
    """Sample unit-effort directions uniformly-in-angle over the reachable set.

    Gaussian coefficients are drawn in the retained eigenbasis and each sample
    is rescaled to unit effort, which parameterizes the admissible set
    exactly. Returns an array of shape ``(count, dim)``; the zero operator raises
    ``ValueError``.
    """
    count = _as_count(count, "count", 1)
    values, basis, _, half = operator._modes
    if values.size == 0:
        raise ValueError("the zero operator admits no unit-effort directions")
    generator = np.random.default_rng(rng)
    coeff = generator.standard_normal((count, values.size))
    efforts = (coeff * coeff) @ values
    return np.ldexp((coeff / np.sqrt(efforts)[:, None]) @ basis.T, -half)
