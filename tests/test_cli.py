import argparse
import gc
import json
import math
import os

import numpy as np
import pytest

from reachopt.cli import build_parser, main


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "operator.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[4.0, 0.0], [0.0, 1.0]]}))
    return str(path)


@pytest.fixture
def gradient_file(tmp_path):
    path = tmp_path / "gradient.json"
    path.write_text(json.dumps([1.0, 2.0]))
    return str(path)


@pytest.fixture
def cones_file(tmp_path):
    path = tmp_path / "cones.json"
    payload = [
        {"axis": [1.0, 0.0, 0.0], "half_angle_deg": 20.0},
        {"axis": [0.5, math.sqrt(3) / 2, 0.0], "half_angle_deg": 20.0},
    ]
    path.write_text(json.dumps(payload))
    return str(path)


class TestDirectionCommand:
    def test_optimal_output(self, matrix_file, gradient_file, capsys):
        assert main(["direction", "--operator", matrix_file, "--gradient", gradient_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "optimal"
        assert payload["gain"] > 0
        direction = np.asarray(payload["direction"])
        assert direction.shape == (2,)

    def test_degenerate_output(self, tmp_path, capsys):
        operator = tmp_path / "op.json"
        operator.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]}))
        gradient = tmp_path / "g.json"
        gradient.write_text(json.dumps([0.0, 3.0]))
        assert main(["direction", "--operator", str(operator), "--gradient", str(gradient)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"kind": "degenerate", "direction": None, "gain": 0.0}

    def test_entries_near_1e300_keep_the_kernel(self, tmp_path, capsys):
        # |A|_F overflows for this rank-1 operator; [1, -1] lies in its kernel.
        operator = tmp_path / "op.json"
        operator.write_text(json.dumps({"dim": 2, "entries": [[1e300, 1e300], [1e300, 1e300]]}))
        gradient = tmp_path / "g.json"
        for values, kind in (([1.0, -1.0], "degenerate"), ([1.0, 1.0], "optimal")):
            gradient.write_text(json.dumps(values))
            assert main(["direction", "--operator", str(operator), "--gradient", str(gradient)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["kind"] == kind
        direction = np.asarray(payload["direction"])
        assert abs(direction[0] / direction[1] - 1.0) <= 1e-15

    def test_missing_file_fails_cleanly(self, gradient_file, capsys):
        code = main(["direction", "--operator", "/nonexistent.json", "--gradient", gradient_file])
        assert code == 2
        assert "error:" in capsys.readouterr().err


    def test_non_finite_gradient_fails_cleanly(self, matrix_file, tmp_path, capsys):
        gradient = tmp_path / "g.json"
        gradient.write_text("[NaN, 1.0]")
        code = main(["direction", "--operator", matrix_file, "--gradient", str(gradient)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_bare_list_operator_fails_cleanly(self, gradient_file, tmp_path, capsys):
        operator = tmp_path / "op.json"
        operator.write_text("[[1, 0], [0, 1]]")
        code = main(["direction", "--operator", str(operator), "--gradient", gradient_file])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "op.json" in captured.err

    def test_object_gradient_fails_cleanly(self, matrix_file, tmp_path, capsys):
        gradient = tmp_path / "g.json"
        gradient.write_text(json.dumps({"x": 1.0}))
        code = main(["direction", "--operator", matrix_file, "--gradient", str(gradient)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "g.json" in captured.err

    @pytest.mark.parametrize(
        "name, payload, key",
        [
            ("g.json", ["1", "0.5"], "array"),
            ("g.json", [True, False], "array"),
            ("op.json", {"dim": 2, "entries": [["2", "0"], ["0", "1"]]}, "entries"),
        ],
        ids=["string-gradient", "boolean-gradient", "string-entries"],
    )
    def test_non_number_input_fails_naming_file_and_key(
        self, name, payload, key, matrix_file, gradient_file, tmp_path, capsys
    ):
        # Strings and booleans are not numbers, though float() would take "1" and true.
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        files = {"g.json": [matrix_file, str(path)], "op.json": [str(path), gradient_file]}[name]
        assert main(["direction", "--operator", files[0], "--gradient", files[1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {key}: expected a number")

    @pytest.mark.parametrize(
        "dim, message",
        [
            (2.0, "matrix: dim must be a positive integer, got 2.0"),
            (True, "dim: expected a number, got true"),
            (0, "dim must be a positive integer, got 0"),
        ],
        ids=["float", "boolean", "zero"],
    )
    def test_declared_dim_must_be_a_positive_integer(
        self, dim, message, gradient_file, tmp_path, capsys
    ):
        operator = tmp_path / "op.json"
        operator.write_text(json.dumps({"dim": dim, "entries": [[4.0, 0.0], [0.0, 1.0]]}))
        assert main(["direction", "--operator", str(operator), "--gradient", gradient_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {operator}: {message}\n"


class TestCompressCommand:
    def test_fixed_k(self, matrix_file, gradient_file, capsys):
        assert main(
            ["compress", "--operator", matrix_file, "--gradient", gradient_file, "--k", "1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 1
        assert payload["op_error"] == pytest.approx(0.25)
        assert payload["residual_norm_sq"] == pytest.approx((1.0 / 16.0))
        assert payload["per_mode"] == [[0, pytest.approx(1.0 / 16.0)]]

    def test_eps_selects_k(self, matrix_file, gradient_file, capsys):
        assert main(
            ["compress", "--operator", matrix_file, "--gradient", gradient_file, "--eps", "0.3"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 1
        assert payload["op_error"] <= 0.3

    def test_sweep_csv(self, matrix_file, gradient_file, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        assert main(
            [
                "compress", "--operator", matrix_file, "--gradient", gradient_file,
                "--k", "0", "--sweep", str(sweep),
            ]
        ) == 0
        capsys.readouterr()
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "k,op_error,residual_norm_sq"
        assert len(lines) == 4  # header + k in {0, 1, 2}
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] == 0.0

    def test_nan_eps_fails_cleanly(self, matrix_file, gradient_file, capsys):
        assert main(
            ["compress", "--operator", matrix_file, "--gradient", gradient_file, "--eps", "nan"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eps must be positive" in captured.err

    def test_subnormal_operator_fails_naming_the_overflow(self, tmp_path, capsys):
        # 1 / 1e-309 is past the float range: compress names what overflows, with no
        # numpy warning (the suite turns one into an error); direction still answers.
        operator = tmp_path / "op.json"
        operator.write_text(json.dumps({"dim": 2, "entries": [[1e-309, 0.0], [0.0, 2e-309]]}))
        gradient = tmp_path / "g.json"
        gradient.write_text(json.dumps([1.0, 1.0]))
        files = ["--operator", str(operator), "--gradient", str(gradient)]
        assert main(["compress", *files, "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kernel action overflows the floating-point range\n"
        assert main(["direction", *files]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "optimal"


class TestThresholdCommand:
    def test_two_cone_threshold(self, cones_file, capsys):
        assert main(["threshold", "--cones", cones_file, "--tol", "1e-4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma_star"] == pytest.approx(math.pi / 18, abs=2e-4)
        assert payload["bracket"][0] <= payload["gamma_star"]
        assert payload["tolerance"] <= 1e-4
        assert len(payload["witness"]) == 3

    def test_null_half_angle_fails_cleanly(self, tmp_path, capsys):
        cones = tmp_path / "cones.json"
        cones.write_text(json.dumps([
            {"axis": [1.0, 0.0, 0.0], "half_angle_deg": None},
            {"axis": [0.0, 1.0, 0.0], "half_angle_deg": 20.0},
        ]))
        assert main(["threshold", "--cones", str(cones), "--tol", "1e-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "cones.json" in captured.err

    @pytest.mark.parametrize(
        "cone",
        [
            {"axis": [1.0, 0.0, 0.0], "half_angle_deg": math.nan},
            {"axis": [math.inf, 0.0, 0.0], "half_angle_deg": 20.0},
            {"axis": ["1", "0", "0"], "half_angle_deg": 20.0},
            {"axis": [1.0, 0.0, 0.0], "half_angle_deg": "10"},
        ],
        ids=["nan-half-angle", "infinite-axis", "string-axis", "string-half-angle"],
    )
    def test_non_finite_cone_fails_cleanly(self, cone, tmp_path, capsys):
        cones = tmp_path / "cones.json"
        cones.write_text(json.dumps([cone, {"axis": [0.0, 1.0, 0.0], "half_angle_deg": 20.0}]))
        assert main(["threshold", "--cones", str(cones), "--tol", "1e-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cones}: ")


    def test_residual_rounded_above_half_pi_keeps_the_bracket_ordered(self, tmp_path, capsys):
        cones = tmp_path / "cones.json"
        for family in (
            [
                {"axis": [-1.0, 0.0, -1.0], "half_angle_deg": 0.0},
                {"axis": [-1.0, 0.0, 0.0], "half_angle_deg": 45.0},
                {"axis": [1.0, 0.0, 1.0], "half_angle_deg": 0.0},
            ],
            [
                {"axis": [0.0, -1.0], "half_angle_deg": 30.0},
                {"axis": [1.0, -1.0], "half_angle_deg": 0.0},
                {"axis": [-1.0, 1.0], "half_angle_deg": 0.0},
            ],
        ):
            cones.write_text(json.dumps(family))
            assert main(["threshold", "--cones", str(cones), "--tol", "1e-4"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["bracket"][0] <= payload["bracket"][1]
            assert payload["tolerance"] >= 0.0
            assert payload["gamma_star"] <= math.pi / 2


class TestPhiCurveCommand:
    def test_csv_output(self, cones_file, capsys):
        assert main(
            [
                "phi-curve", "--cones", cones_file, "--gamma-max", "0.8",
                "--steps", "5", "--samples", "20000", "--seed", "3",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,phi,stderr"
        assert len(lines) == 6
        estimates = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))

    @pytest.mark.parametrize("gamma_max", ["inf", "-inf"])
    def test_infinite_gamma_max_fails_cleanly(self, cones_file, gamma_max, capsys):
        # Rejected before the grid is built: np.linspace warns on an infinite end.
        assert main(
            [
                "phi-curve", "--cones", cones_file, f"--gamma-max={gamma_max}",
                "--steps", "3", "--samples", "100", "--seed", "1",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gamma-max must be finite" in captured.err

    def test_negative_seed_fails_naming_it(self, cones_file, capsys):
        assert main(
            [
                "phi-curve", "--cones", cones_file, "--gamma-max", "0.5",
                "--steps", "3", "--samples", "100", "--seed", "-1",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("steps", ["-1", "0"])
    def test_steps_below_one_fails_naming_it(self, cones_file, steps, capsys):
        assert main(
            [
                "phi-curve", "--cones", cones_file, "--gamma-max", "0.5",
                f"--steps={steps}", "--samples", "100", "--seed", "1",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --steps must be a positive integer, got {steps}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--tol", "nan"],
        ["phi-curve", "--gamma-max", "nan", "--steps", "3", "--samples", "100",
         "--seed", "1"],
    ],
    ids=["threshold-tol", "phi-curve-gamma-max"],
)
def test_nan_level_or_tolerance_fails_cleanly(argv, cones_file, capsys):
    assert main([argv[0], "--cones", cones_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "nan" in captured.err


class TestOptimizeCommand:
    def test_run_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        config = {
            "objective": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                          "linear": [0.3, -0.2]},
            "operator_field": {"kind": "constant",
                               "matrix": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}},
            "budget": None,
            "theta0": [0.0, 0.0],
            "steps": 50,
            "eta": 0.001,
            "out": str(trace),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["optimize", "--config", str(config_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "completed"
        assert payload["steps_logged"] == 50
        assert payload["final_cost"] is None
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("step,theta_0,theta_1,J,C,gain,kind,eta_eff")

    def test_budgeted_run(self, tmp_path, capsys):
        config = {
            "objective": {"kind": "quadratic", "matrix": [[2.0, 0.0], [0.0, 2.0]],
                          "linear": [2.4, 1.8]},
            "operator_field": {"kind": "constant",
                               "matrix": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}},
            "budget": {"kind": "sphere", "kappa": 1.0},
            "theta0": [0.0, 0.0],
            "steps": 4000,
            "eta": 0.001,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["optimize", "--config", str(config_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_cost"] <= 1.0 + 1e-8
        assert np.allclose(payload["final_theta"], [0.8, 0.6], atol=1e-3)

    def test_non_finite_result_fails_cleanly(self, tmp_path, capsys):
        # One huge step overflows the payoff; Infinity is not valid JSON.
        config = {
            "objective": {"kind": "quadratic", "matrix": [[0.0, 0.0], [0.0, 0.0]],
                          "linear": [1e150, 0.0]},
            "operator_field": {"kind": "constant",
                               "matrix": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}},
            "budget": None,
            "theta0": [0.0, 0.0],
            "steps": 1,
            "eta": 1e300,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        with np.errstate(over="ignore"):
            assert main(["optimize", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"objective": {"kind": "quadratic"}}))
        assert main(["optimize", "--config", str(config_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_config_fails_cleanly(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps([1, 2]))
        assert main(["optimize", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config_path}: ")

    @pytest.mark.parametrize("section", ["objective", "operator_field", "budget"])
    def test_non_object_section_fails_cleanly(self, section, tmp_path, capsys):
        config = {
            "objective": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                          "linear": [0.3, -0.2]},
            "operator_field": {"kind": "constant",
                               "matrix": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}},
            "budget": None,
            "theta0": [0.0, 0.0],
            "steps": 5,
            "eta": 0.001,
        }
        config[section] = [1]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["optimize", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config_path}: ")


def _run_config(**changes):
    config = {
        "objective": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                      "linear": [0.3, -0.2]},
        "operator_field": {"kind": "constant",
                           "matrix": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}},
        "budget": {"kind": "sphere", "kappa": 1.0},
        "theta0": [0.0, 0.0],
        "steps": 5,
        "eta": 0.001,
    }
    config.update(changes)
    return config


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("direction", {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]], "symmetric": True},
         "symmetric"),
        ("threshold", [{"axis": [1.0, 0.0], "half_angle_deg": 20.0, "half_angle": 0.3}],
         "half_angle"),
        ("optimize", _run_config(budgte=None), "budgte"),
        ("optimize", _run_config(objective={"kind": "rosenbrock", "scale": 1.0, "shift": 1.0}),
         "shift"),
        ("optimize", _run_config(operator_field={
            "kind": "diag_decay", "dim": 2, "scale": 1.0, "ratio": 1e-6, "rank_tolerance": 1e-3,
        }), "rank_tolerance"),
        ("optimize", _run_config(budget={"kind": "sphere", "kappa": 1.0, "radius": 1.0}),
         "radius"),
    ],
    ids=["matrix", "cone", "run-config", "objective", "operator-field", "budget"],
)
def test_unknown_key_fails_naming_file_and_key(command, payload, key, gradient_file, tmp_path,
                                               capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    option = {"direction": "--operator", "threshold": "--cones", "optimize": "--config"}[command]
    extra = {"direction": ["--gradient", gradient_file], "threshold": ["--tol", "1e-3"],
             "optimize": []}[command]
    assert main([command, option, str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and repr(key) in captured.err


@pytest.mark.parametrize(
    "changes",
    [
        {"budget": {"kind": "sphere", "kappa": math.nan}},
        {"budget": {"kind": "sphere", "kappa": math.inf}},
        {"steps": 2.5},
        {"objective": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                       "linear": [math.inf, 0.0]}},
        {"objective": {"kind": "rosenbrock", "scale": math.inf}},
        {"steps": "3"},
        {"steps": True},
        {"eta": "0.01"},
        {"theta0": ["0", "0"]},
        {"steps": 5.0},
    ],
    ids=["nan-kappa", "infinite-kappa", "fractional-steps", "infinite-linear",
         "infinite-scale", "string-steps", "boolean-steps", "string-eta", "string-theta0",
         "integral-float-steps"],
)
def test_bad_run_value_fails_naming_file(changes, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_run_config(**changes)))
    assert main(["optimize", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"steps": None}, "steps"),
        ({"eta": None}, "eta"),
        ({"objective": {"kind": "rosenbrock", "scale": None}}, "scale"),
        ({"operator_field": {"kind": "diag_decay", "dim": None, "scale": 1.0, "ratio": 0.5}},
         "dim"),
        ({"theta0": [0.0, None]}, "theta0"),
    ],
    ids=["steps", "eta", "rosenbrock-scale", "diag-decay-dim", "theta0-entry"],
)
def test_null_where_a_number_belongs_fails_naming_the_key(changes, key, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_run_config(**changes)))
    assert main(["optimize", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {key}: expected a number, got null")


def test_null_stands_for_an_absent_optional_value(tmp_path, capsys):
    # null is allowed as a whole value only where the parameter defaults to None.
    path = tmp_path / "config.json"
    for changes in (
        {"budget": None},
        {"budget": {"kind": "sphere", "kappa": 1.0, "center": None}},
        {"operator_field": {"kind": "constant",
                            "matrix": {"dim": None, "entries": [[1.0, 0.0], [0.0, 1.0]]}}},
        {"out": None},
    ):
        path.write_text(json.dumps(_run_config(**changes)))
        assert main(["optimize", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "completed"


@pytest.mark.parametrize("out", [1, True, []], ids=["integer", "boolean", "list"])
def test_out_that_is_not_a_path_fails_naming_file_and_key(out, tmp_path, capsys):
    # 1 and true would open file descriptor 1, stdout, and close it after the trace.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_run_config(out=out)))
    assert main(["optimize", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: out: expected a path string, got {json.dumps(out)}\n"
    os.fstat(1)
    path.write_text(json.dumps(_run_config()))
    assert main(["optimize", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "completed"


@pytest.mark.parametrize(
    "field, message",
    [
        ({"scale": math.nan, "ratio": 0.5}, "scale must be positive and finite"),
        ({"scale": 1.0, "ratio": math.inf}, "ratio must be positive and finite"),
        ({"scale": 1e308, "ratio": 10.0}, "scale * ratio**1 overflows"),
    ],
    ids=["nan-scale", "infinite-ratio", "overflowing-diagonal"],
)
def test_bad_diag_decay_fails_naming_the_key(field, message, tmp_path, capsys):
    # No RuntimeWarning may escape either: the suite turns one into an error.
    path = tmp_path / "config.json"
    config = _run_config(operator_field={"kind": "diag_decay", "dim": 2, **field})
    path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and message in captured.err


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"operator_field": {"kind": "mask", "mask": [1, 0, 1]},
          "objective": {"kind": "quadratic", "matrix": [[1, 0], [0, 1]], "linear": [0.1, 0.2]},
          "budget": None}, "operator_field"),
        ({"operator_field": {"kind": "mask", "mask": [1, 0, 1]}, "theta0": [0.0, 0.0, 0.0]},
         "objective"),
        ({"objective": {"kind": "rosenbrock"}, "operator_field": {"kind": "mask", "mask": [1]},
          "theta0": [0.5]}, "objective"),
        ({"objective": {"kind": "rosenbrock"}, "theta0": [[0.5, 0.5]]}, "theta0"),
        ({"budget": {"kind": "sphere", "kappa": 1.0, "center": [0.0]}}, "budget"),
        ({"budget": {"kind": "sphere", "kappa": 1.0, "center": [0.0, 0.0, 0.0]}}, "budget"),
    ],
    ids=["field", "quadratic", "rosenbrock", "nested-theta0", "short-center", "long-center"],
)
def test_dimension_mismatch_fails_naming_file_and_key(changes, key, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_run_config(**changes)))
    assert main(["optimize", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {key}")


@pytest.mark.parametrize(
    "command, option, text",
    [
        ("direction", "--operator", '{"dim": 2,'),
        ("direction", "--gradient", "[1.0, "),
        ("threshold", "--cones", '[{"axis": [1, 0]'),
        ("optimize", "--config", '{"objective": '),
    ],
    ids=["operator", "gradient", "cones", "config"],
)
def test_truncated_json_fails_naming_the_file(command, option, text, matrix_file, gradient_file,
                                              tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text(text)
    argv = {
        "direction": ["direction", "--operator", matrix_file, "--gradient", gradient_file],
        "threshold": ["threshold", "--cones", "", "--tol", "1e-3"],
        "optimize": ["optimize", "--config", ""],
    }[command]
    argv[argv.index(option) + 1] = str(path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")


def test_key_error_inside_a_command_propagates(matrix_file, gradient_file, monkeypatch):
    def broken(path):
        raise KeyError("bug")

    monkeypatch.setattr("reachopt.io.load_matrix", broken)
    with pytest.raises(KeyError):
        main(["direction", "--operator", matrix_file, "--gradient", gradient_file])


@pytest.fixture
def valid_calls(matrix_file, gradient_file, cones_file, tmp_path):
    """One valid argv for each subcommand, keyed by its name."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(out=str(tmp_path / "trace.csv"))))
    return {
        "direction": ["direction", "--operator", matrix_file, "--gradient", gradient_file],
        "compress": ["compress", "--operator", matrix_file, "--gradient", gradient_file,
                     "--k", "1"],
        "threshold": ["threshold", "--cones", cones_file, "--tol", "1e-4"],
        "phi-curve": ["phi-curve", "--cones", cones_file, "--gamma-max", "1.0", "--steps", "3",
                      "--samples", "500", "--seed", "1"],
        "optimize": ["optimize", "--config", str(config)],
    }


class TestOneParserPerProcess:
    def test_warm_calls_construct_no_parser(self, valid_calls, monkeypatch):
        assert main(valid_calls["direction"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for command, argv in valid_calls.items():
            assert main(argv) == 0, command
            assert built == [], command

    def test_a_warm_call_leaves_no_argparse_garbage(self, valid_calls):
        argv = valid_calls["phi-curve"]
        assert main(argv) == 0
        flags = gc.get_debug()
        gc.collect()
        before = len(gc.garbage)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
        finally:
            gc.set_debug(flags)
            saved = gc.garbage[before:]
            del gc.garbage[before:]
        assert [type(obj) for obj in saved if type(obj).__module__ == "argparse"] == []

    def test_an_argparse_error_leaves_later_calls_unchanged(self, valid_calls, cones_file,
                                                            matrix_file, gradient_file, capsys):
        alone = {}
        for command, argv in valid_calls.items():
            alone[command] = (main(argv), capsys.readouterr().out)
        bad = {
            "required: --tol": ["threshold", "--cones", cones_file],
            "--eps: not allowed with argument --k": [
                "compress", "--operator", matrix_file, "--gradient", gradient_file,
                "--k", "1", "--eps", "0.1"],
        }
        for message, argv in bad.items():
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err
        for command, argv in valid_calls.items():
            assert (main(argv), capsys.readouterr().out) == alone[command], command
        assert build_parser() is not build_parser()
