"""The benchmark's own tests: metric list, checkers, tracer and smoke runs.

Run with ``python -m pytest perfbench/tests``; the repository's default test
run collects only ``tests/`` and stays as fast as before.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from metrics import END_TO_END, PER_LAYER
from oracles import CheckFailed
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SEEDS = (1, 2)


def _workload(name, tmp_path, seed=1):
    ro = harness.import_library()
    return harness.WORKLOADS[name](ro, seed, tmp_path, smoke=True)


def _first(workload, kind, index=0):
    return next(op for op in workload.block(index) if op.kind == kind)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_normalised_times_divide_out_the_reference_speed():
    run = harness.Pass()
    run.calibration.times = [0.0, 10.0]
    run.calibration.reference = [0.5, 1.0]
    run.latencies = [0.01, 0.015, 0.02]
    run.midpoints = [0.0, 5.0, 10.0]
    assert np.allclose(run.normalised(), [0.02, 0.02, 0.02])


# --- each checker rejects a deliberately wrong result ------------------------


def test_operator_scan_rejects_a_direction_of_effort_1_01(tmp_path):
    op = _first(_workload("operator-scan", tmp_path), "n8")
    output = op.run()
    op.check(output)
    decomposition, directions, sweep, k_eps = output
    index = next(i for i, d in enumerate(directions) if d.direction is not None)
    wrong = list(directions)
    wrong[index] = dataclasses.replace(directions[index], direction=directions[index].direction * 1.01 ** 0.5)
    with pytest.raises(CheckFailed):
        op.check((decomposition, wrong, sweep, k_eps))


def test_cone_threshold_rejects_gamma_star_off_by_1e_3(tmp_path):
    workload = _workload("cone-threshold", tmp_path)
    workload.tol = 1e-4
    op = _first(workload, "find_gamma_star")
    result = op.run()
    op.check(result)
    low, high = result.bracket
    shifted = dataclasses.replace(result, gamma_star=high + 1e-3, bracket=(low + 1e-3, high + 1e-3))
    with pytest.raises(CheckFailed):
        op.check(shifted)


def test_cone_threshold_rejects_a_wrong_feasibility_verdict(tmp_path):
    op = _first(_workload("cone-threshold", tmp_path), "is_feasible")
    result = op.run()
    op.check(result)
    with pytest.raises(CheckFailed):
        op.check(dataclasses.replace(result, feasible=not result.feasible))


def test_ascent_rejects_a_logged_cost_above_the_cap(tmp_path):
    op = _first(_workload("ascent-trajectory", tmp_path), "quadratic-budget")
    record = op.run()
    op.check(record)
    kappa = op.info["case"].kappa
    steps = list(record.steps)
    steps[-1] = dataclasses.replace(steps[-1], cost_value=kappa + 1e-8 + 1e-9)
    with pytest.raises(CheckFailed):
        op.check(dataclasses.replace(record, steps=steps))


def test_cli_rejects_stdout_that_differs_from_the_library(tmp_path):
    op = _first(_workload("cli-files", tmp_path), "direction")
    code, stdout = op.run()
    op.check((code, stdout))
    payload = json.loads(stdout)
    payload["gain"] = float(np.nextafter(payload["gain"], np.inf))
    with pytest.raises(CheckFailed):
        op.check((code, json.dumps(payload)))


# --- tracing -----------------------------------------------------------------


def test_tracer_nests_rebound_names_and_restores_them():
    ro = harness.import_library()
    originals = (ro.operators.decompose, ro.spectral.decompose,
                 ro.ConstraintOperator.__init__, ro.cli.main, ro.cli.optimal_direction)
    tracer = Tracer()
    tracer.install(ro)
    try:
        assert ro.operators.decompose is not originals[0]
        assert ro.cli.optimal_direction is ro.directions.optimal_direction
        span = tracer.begin_op(0)
        ro.ConstraintOperator(np.eye(3))
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    assert (ro.operators.decompose, ro.spectral.decompose,
            ro.ConstraintOperator.__init__, ro.cli.main, ro.cli.optimal_direction) == originals
    summary = tracer.summary()
    decompose = np.flatnonzero(summary.mask("spectral.decompose"))
    assert decompose.size == 1
    parent = summary.parent[decompose[0]]
    assert summary.names[summary.name[parent]] == "operators.ConstraintOperator"
    assert summary.self_time[parent] <= summary.duration[parent]


# --- smoke runs of the real command --------------------------------------------


def _run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_smoke_run_is_correct_and_deterministic(workload, seed):
    results, digests = {}, {}
    for trace in ("0", "1"):
        done = _run(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", trace, "--smoke"])
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        results[trace] = json.loads(lines[-1])
        digests[trace] = next(line for line in lines if line.startswith("digest "))
    assert set(results["0"]["metrics"]) == {name for name, _, _ in END_TO_END}
    assert set(results["1"]["metrics"]) == {name for name, _, _ in PER_LAYER}
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert digests["0"] == digests["1"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = _run(["--workload", "operator-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
