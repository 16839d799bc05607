"""JSON readers: the one owner of the CLI file formats.

Each JSON object goes to one function as keyword arguments: a ``"kind"``
object to the builder its kind names, any other to a private reader. The
parameter names are the format, their defaults its defaults, and an unknown
or missing key raises ``ValueError`` naming the key. Apart from ``"kind"`` and
the trace path ``"out"``, every value holds numbers or objects: a string or
boolean raises too, although ``float`` would read ``"1"`` and ``true`` as 1, and
so does a ``null`` except as a whole value whose parameter defaults to ``None``.
"""

from __future__ import annotations

import inspect
import json
import math

import numpy as np

from .ascent import (
    BudgetConstraint,
    Objective,
    quadratic_objective,
    rosenbrock_objective,
    spherical_budget,
)
from .cones import CircularCone, CouplingFamily
from .operators import OperatorField, constant_field, diag_decay_field, mask_field
from .spectral import SymmetricMatrix, _as_count, _as_vector


def _load(path, read):
    """``read`` of the JSON in ``path``; a malformed file raises ``ValueError`` naming it."""
    try:
        with open(path) as handle:
            return read(json.load(handle))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _numbers(value, key: str) -> None:
    """Raise ``ValueError`` naming ``key`` if ``value`` holds a JSON string, boolean or null."""
    if value is None or type(value) in (str, bool):
        raise ValueError(f"{key}: expected a number, got {json.dumps(value)}")
    # A row of plain numbers, the common case, needs no call per entry.
    if type(value) is list and not {float, int}.issuperset(map(type, value)):
        for item in value:
            _numbers(item, key)


def _call(builder, arguments, what: str):
    """``builder(**arguments)``, raising an unknown or missing key, or a string,
    boolean or null where only numbers belong, as ``ValueError`` naming the key,
    and the builder's ``TypeError`` as ``ValueError`` naming ``what``."""
    if not isinstance(arguments, dict):
        raise ValueError(f"{what}: expected a JSON object")
    signature = inspect.signature(builder)
    try:
        signature.bind(**arguments)
        for key, value in arguments.items():
            # The trace path is the one text value; null means absent where the default is None.
            if key != "out" and not (value is None and signature.parameters[key].default is None):
                _numbers(value, key)
        return builder(**arguments)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _build(kinds: dict, config, what: str):
    """Call the builder that ``config["kind"]`` names with the other keys as arguments."""
    kind = config.get("kind")
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    arguments = {key: value for key, value in config.items() if key != "kind"}
    return _call(kinds[kind], arguments, f"{what} {kind!r}")


def _matrix(entries, dim=None) -> SymmetricMatrix:
    """The matrix object ``{"dim": n, "entries": [[...], ...]}``; ``dim`` is optional."""
    matrix = SymmetricMatrix(entries)
    if dim is not None and _as_count(dim, "dim", 1) != matrix.dim:
        raise ValueError(f"declared dim {dim!r} does not match entries of dim {matrix.dim}")
    return matrix


def _cone(axis, half_angle_deg) -> CircularCone:
    """One item of a cone family file."""
    return CircularCone(axis, math.radians(float(half_angle_deg)))


def _run(objective, operator_field, theta0, steps, eta, budget=None, out=None) -> dict:
    """The top level of an ``optimize`` configuration.

    The objective's and budget's gradients and the operator field's ``dim`` at
    ``theta0`` must match its length; a mismatch raises ``ValueError`` naming the key.
    """
    if not (out is None or isinstance(out, str)):
        raise ValueError(f"out: expected a path string, got {json.dumps(out)}")
    run = {
        "objective": objective_from_config(objective),
        "operator_field": operator_field_from_config(operator_field),
        "budget": budget_from_config(budget),
        "theta0": _as_vector(theta0, None, "theta0"),
        "steps": _as_count(steps, "steps", 0),
        "eta": float(eta),
        "out": out,
    }
    theta, budget = run["theta0"], run["budget"]
    for key, shape_at in (
        ("objective", lambda: np.shape(run["objective"].gradient(theta))),
        ("operator_field", lambda: (run["operator_field"](theta).dim,)),
        ("budget", lambda: np.shape(budget.cost_gradient(theta)) if budget else theta.shape),
    ):
        try:
            shape = shape_at()
        except (IndexError, ValueError) as exc:  # a built-in of another dimension
            raise ValueError(f"{key} at theta0: {exc}") from None
        if shape != theta.shape:
            raise ValueError(f"{key} at theta0 has shape {shape}, theta0 has {theta.shape}")
    return run


def objective_from_config(config: dict) -> Objective:
    """``{"kind": "quadratic", "matrix": ..., "linear": ...}`` or ``{"kind": "rosenbrock"}``."""
    kinds = {"quadratic": quadratic_objective, "rosenbrock": rosenbrock_objective}
    return _build(kinds, config, "objective")


def operator_field_from_config(config: dict) -> OperatorField:
    """Build an operator field from its JSON configuration.

    Supported kinds::

        {"kind": "constant", "matrix": {"dim": n, "entries": [[...], ...]}}
        {"kind": "diag_decay", "dim": n, "scale": a, "ratio": r}
        {"kind": "mask", "mask": [1, 0, ...]}
    """
    kinds = {
        "constant": lambda matrix: constant_field(_call(_matrix, matrix, "matrix")),
        "diag_decay": diag_decay_field,
        "mask": mask_field,
    }
    return _build(kinds, config, "operator field")


def budget_from_config(config: dict | None) -> BudgetConstraint | None:
    """``{"kind": "sphere", "kappa": k, "center": [...]}``; ``None`` means no budget."""
    if config is None:
        return None
    return _build({"sphere": spherical_budget}, config, "budget")


def load_matrix(path) -> SymmetricMatrix:
    """Read ``{"dim": n, "entries": [[...], ...]}``."""
    return _load(path, lambda payload: _call(_matrix, payload, "matrix"))


def load_vector(path) -> np.ndarray:
    """Read a plain JSON array of finite numbers."""

    def read(payload):
        _numbers(payload, "array")
        return _as_vector(payload, None, "array")

    return _load(path, read)


def load_cone_family(path) -> CouplingFamily:
    """Read a JSON list of ``{"axis": [...], "half_angle_deg": x}`` entries."""

    def read(payload):
        if not isinstance(payload, list):
            raise ValueError("expected a JSON list of cones")
        return CouplingFamily(tuple(_call(_cone, item, "cone") for item in payload))

    return _load(path, read)


def load_run_config(path) -> dict:
    """Read an ``optimize`` configuration and build what it describes.

    Returns the keyword arguments of :func:`reachopt.ascent.run_ascent`
    together with ``"out"``, the optional trace CSV path.
    """
    return _load(path, lambda payload: _call(_run, payload, "run config"))
