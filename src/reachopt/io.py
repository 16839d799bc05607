"""JSON readers and writers for the CLI file formats."""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .cones import CircularCone, CouplingFamily
from .spectral import SymmetricMatrix


def _names_file(load):
    """Re-raise what a malformed file makes ``load`` raise as ``ValueError`` naming it."""

    @functools.wraps(load)
    def checked(path):
        try:
            return load(path)
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
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


def save_matrix(matrix: SymmetricMatrix, path) -> None:
    with open(path, "w") as handle:
        json.dump(matrix.to_dict(), handle)


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


def save_vector(vector, path) -> None:
    with open(path, "w") as handle:
        json.dump([float(x) for x in np.asarray(vector, dtype=float)], handle)


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


def save_cone_family(family: CouplingFamily, path) -> None:
    payload = [
        {
            "axis": cone.axis.tolist(),
            "half_angle_deg": math.degrees(cone.half_angle),
        }
        for cone in family.base_cones
    ]
    with open(path, "w") as handle:
        json.dump(payload, handle)
