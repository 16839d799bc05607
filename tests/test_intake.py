"""Every vector, count and real number a public entry point takes is checked the same way.

A vector must be a finite 1-d float array of the expected length (any nonempty
length where none is fixed); a count must be an ``int`` (not a ``bool``, not a
float, even an integral one) of at least 0 or 1; a real number must not be a
``bool``. The errors name the parameter.
"""

import json
import math
import warnings

import numpy as np
import pytest

from reachopt import (
    BudgetConstraint,
    CircularCone,
    CouplingFamily,
    DimensionMismatchError,
    ConstraintOperator,
    constant_field,
    decompose,
    diag_decay_field,
    find_gamma_star,
    is_feasible,
    mask_field,
    phi,
    phi_curve,
    rosenbrock_objective,
    run_ascent,
    sample_unit_effort,
    smallest_k_for_error,
    spherical_budget,
    truncate,
)
from reachopt.cli import main

FAMILY = CouplingFamily((CircularCone([1.0, 0.0], 0.1), CircularCone([0.0, 1.0], 0.1)))


def _ascent(theta0=(0.0, 0.0), steps=1, eta=0.01):
    return run_ascent(rosenbrock_objective(), constant_field(np.eye(2)), None, theta0, steps, eta)


VECTORS = {
    "axis": lambda v: CircularCone(v, 0.1),
    "vector": lambda v: FAMILY.max_violation(v, 0.0),
    "center": lambda v: spherical_budget(1.0, v),
    "theta0": lambda v: _ascent(theta0=v),
    "mask": mask_field,
}


@pytest.mark.parametrize("name", VECTORS)
@pytest.mark.parametrize(
    "value, error",
    [([math.nan, 1.0], ValueError), ([[1.0, 0.0]], DimensionMismatchError),
     ([], DimensionMismatchError)],
    ids=["nan", "two-d", "empty"],
)
def test_bad_vector_raises_naming_the_parameter(name, value, error):
    with pytest.raises(error, match=f"^{name} "):
        VECTORS[name](value)


@pytest.mark.parametrize("value", [[math.nan, 1.0], [[1.0, 0.0]], []],
                         ids=["nan", "two-d", "empty"])
def test_bad_gradient_file_fails_naming_the_file(value, tmp_path, capsys):
    operator, gradient = tmp_path / "op.json", tmp_path / "g.json"
    operator.write_text(json.dumps({"entries": [[1.0, 0.0], [0.0, 1.0]]}))
    gradient.write_text(json.dumps(value))
    assert main(["direction", "--operator", str(operator), "--gradient", str(gradient)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {gradient}: array ")


def test_axis_needs_two_entries():
    with pytest.raises(ValueError, match="axis must have dimension at least 2"):
        CircularCone([1.0], 0.1)


def test_max_violation_rejects_infinity_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="vector entries must be finite"):
            FAMILY.max_violation([math.inf, 1.0], 0.0)


def test_max_violation_rejects_a_vector_of_another_dimension():
    with pytest.raises(DimensionMismatchError, match="vector of shape"):
        FAMILY.max_violation([1.0, 1.0, 1.0], 0.0)


COUNTS = {
    "k": (lambda v: truncate(decompose(np.eye(3)), v), -1),
    "steps": (lambda v: _ascent(steps=v), -1),
    "samples": (lambda v: phi(FAMILY, 0.0, v, 0), 0),
    "count": (lambda v: sample_unit_effort(ConstraintOperator(np.eye(2)), v), 0),
    "dim": (lambda v: diag_decay_field(v, 1.0, 0.5), 0),
    "restarts": (lambda v: find_gamma_star(FAMILY, 1e-3, v), 0),
    "seed": (lambda v: find_gamma_star(FAMILY, 1e-3, seed=v), -1),
}


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("value", [True, 1.5, 2.0], ids=["bool", "fraction", "integral-float"])
def test_count_that_is_not_an_integer_raises_type_error(name, value):
    call, _ = COUNTS[name]
    with pytest.raises(TypeError, match=f"^{name} must be a (positive|nonnegative) integer"):
        call(value)


@pytest.mark.parametrize("name", COUNTS)
def test_count_below_range_raises_value_error(name):
    call, below = COUNTS[name]
    kind = "positive" if below == 0 else "nonnegative"
    with pytest.raises(ValueError, match=f"^{name} must be a {kind} integer, got {below}"):
        call(below)


@pytest.mark.parametrize("name", COUNTS)
def test_count_takes_a_numpy_integer(name):
    call, below = COUNTS[name]
    call(np.int64(below + 1))


# The table above is keyed by the count's name, and "seed" is find_gamma_star's.
@pytest.mark.parametrize(
    "value, error",
    [(True, TypeError), (1.5, TypeError), (2.0, TypeError), (-1, ValueError)],
    ids=["bool", "fraction", "integral-float", "negative"],
)
def test_phi_curve_seed_is_checked_as_a_count(value, error):
    with pytest.raises(error, match="^seed must be a nonnegative integer"):
        phi_curve(FAMILY, [0.5], 10, value)


def test_phi_curve_takes_a_numpy_integer_seed():
    assert phi_curve(FAMILY, [0.5], 10, np.int64(3)) == phi_curve(FAMILY, [0.5], 10, 3)


def _budget(kappa):
    return BudgetConstraint(lambda x: 0.0, lambda x: np.zeros_like(x), kappa)


# Keyed by entry point, each with the name of its real-valued parameter.
REALS = {
    "is_feasible": ("gamma", lambda v: is_feasible(FAMILY, v)),
    "max_violation": ("gamma", lambda v: FAMILY.max_violation([1.0, 0.0], v)),
    "phi": ("gamma", lambda v: phi(FAMILY, v, 10, 0)),
    "find_gamma_star": ("tol", lambda v: find_gamma_star(FAMILY, v)),
    "CircularCone": ("half_angle", lambda v: CircularCone([1.0, 0.0], v)),
    "BudgetConstraint": ("kappa", _budget),
    "spherical_budget": ("kappa", spherical_budget),
    "smallest_k_for_error": ("eps", lambda v: smallest_k_for_error(decompose(np.eye(3)), v)),
    "rosenbrock_objective": ("scale", rosenbrock_objective),
    "diag_decay_field-scale": ("scale", lambda v: diag_decay_field(2, v, 0.5)),
    "diag_decay_field-ratio": ("ratio", lambda v: diag_decay_field(2, 1.0, v)),
    "run_ascent": ("eta", lambda v: _ascent(eta=v)),
}


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
def test_real_that_is_a_bool_raises_type_error(entry, value):
    name, call = REALS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be a number, not a bool"):
        call(value)


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("value", [1, np.float64(0.5)], ids=["int", "numpy-float"])
def test_real_takes_an_int_and_a_numpy_float(entry, value):
    REALS[entry][1](value)


def test_budget_stores_kappa_as_a_float():
    assert type(_budget(2).kappa) is float
    assert type(_budget(np.float64(0.5)).kappa) is float
