import json

import numpy as np
import pytest

from reachopt import (
    budget_from_config,
    objective_from_config,
    operator_field_from_config,
    rosenbrock_objective,
    spherical_budget,
)
from reachopt.io import load_cone_family, load_matrix


class TestMatrixObject:
    def test_rejects_wrong_dim(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"dim": 3, "entries": [[1.0]]}))
        with pytest.raises(ValueError, match="declared dim 3"):
            load_matrix(path)

    @pytest.mark.parametrize("dim", [2.0, 0])
    def test_constant_field_dim_must_be_a_positive_integer(self, dim):
        config = {"kind": "constant", "matrix": {"dim": dim, "entries": [[1.0, 0.0], [0.0, 1.0]]}}
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            operator_field_from_config(config)

    def test_dim_is_optional(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"entries": [[2.0, 1.0], [1.0, 2.0]]}))
        assert np.array_equal(load_matrix(path).entries, [[2.0, 1.0], [1.0, 2.0]])


@pytest.mark.parametrize(
    "build, config, key",
    [
        (objective_from_config, {"kind": "rosenbrock", "scael": 10.0}, "scael"),
        (operator_field_from_config,
         {"kind": "diag_decay", "dim": 3, "scale": 1.0, "ratio": 1e-6, "rank_tolerance": 1e-3},
         "rank_tolerance"),
        (operator_field_from_config,
         {"kind": "constant", "matrix": {"entries": [[1.0]], "rank": 1}}, "rank"),
        (budget_from_config, {"kind": "sphere", "kappa": 1.0, "centre": [0.0]}, "centre"),
    ],
    ids=["objective", "operator-field", "constant-matrix", "budget"],
)
def test_unknown_key_raises_naming_it(build, config, key):
    with pytest.raises(ValueError, match=f"unexpected keyword argument '{key}'"):
        build(config)


@pytest.mark.parametrize(
    "build, config, key",
    [
        (objective_from_config, {"kind": "quadratic", "matrix": [[1.0]]}, "linear"),
        (operator_field_from_config, {"kind": "diag_decay", "dim": 3, "scale": 1.0}, "ratio"),
        (operator_field_from_config, {"kind": "constant", "matrix": {"dim": 1}}, "entries"),
        (budget_from_config, {"kind": "sphere"}, "kappa"),
    ],
    ids=["objective", "operator-field", "constant-matrix", "budget"],
)
def test_missing_key_raises_naming_it(build, config, key):
    with pytest.raises(ValueError, match=f"missing a required argument: '{key}'"):
        build(config)


def test_builder_defaults_are_the_format_defaults():
    point = np.array([0.5, 0.2])
    objective = objective_from_config({"kind": "rosenbrock"})
    assert objective.evaluate(point) == rosenbrock_objective(100.0).evaluate(point)
    budget = budget_from_config({"kind": "sphere", "kappa": 2})
    assert budget.kappa == 2.0
    assert budget.cost(point) == spherical_budget(2.0, [0.0, 0.0]).cost(point)


@pytest.mark.parametrize("dim", [2.5, float("inf"), float("nan"), 0, 2.0])
def test_diag_decay_dim_must_be_a_positive_integer(dim):
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        operator_field_from_config({"kind": "diag_decay", "dim": dim, "scale": 1.0, "ratio": 0.5})


def test_cone_family_must_be_a_list(tmp_path):
    path = tmp_path / "cones.json"
    path.write_text(json.dumps({"axis": [1.0, 0.0], "half_angle_deg": 10.0}))
    with pytest.raises(ValueError, match="expected a JSON list of cones"):
        load_cone_family(path)
