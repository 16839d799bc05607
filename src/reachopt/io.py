"""JSON readers for the CLI file formats."""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .ascent import budget_from_config, objective_from_config
from .cones import CircularCone, CouplingFamily
from .operators import operator_field_from_config
from .spectral import SymmetricMatrix


def _names_file(load):
    """Re-raise what a malformed file makes ``load`` raise as ``ValueError`` naming it."""

    @functools.wraps(load)
    def checked(path):
        try:
            return load(path)
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc

    return checked


@_names_file
def load_matrix(path) -> SymmetricMatrix:
    """Read ``{"dim": n, "entries": [[...], ...]}``."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError('expected a JSON object with "entries"')
    return SymmetricMatrix.from_dict(payload)


@_names_file
def load_vector(path) -> np.ndarray:
    """Read a plain JSON array of finite numbers."""
    with open(path) as handle:
        payload = json.load(handle)
    vec = np.asarray(payload, dtype=float)
    if vec.ndim != 1:
        raise ValueError("expected a flat JSON array")
    if not np.all(np.isfinite(vec)):
        raise ValueError("non-finite entries")
    return vec


@_names_file
def load_cone_family(path) -> CouplingFamily:
    """Read a JSON list of ``{"axis": [...], "half_angle_deg": x}`` entries."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise ValueError("expected a JSON list of cones")
    cones = [
        CircularCone(
            axis=np.asarray(item["axis"], dtype=float),
            half_angle=math.radians(float(item["half_angle_deg"])),
        )
        for item in payload
    ]
    return CouplingFamily(tuple(cones))


@_names_file
def load_run_config(path) -> dict:
    """Read an ``optimize`` configuration and build what it describes.

    Returns the keyword arguments of :func:`reachopt.ascent.run_ascent`
    together with ``"out"``, the optional trace CSV path.
    """
    with open(path) as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("expected a JSON object")
    return {
        "objective": objective_from_config(config["objective"]),
        "operator_field": operator_field_from_config(config["operator_field"]),
        "budget": budget_from_config(config.get("budget")),
        "theta0": np.asarray(config["theta0"], dtype=float),
        "steps": int(config["steps"]),
        "eta": float(config["eta"]),
        "out": config.get("out"),
    }
