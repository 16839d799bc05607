"""Drive one workload: set-up, the closed measurement loop, checks and metrics.

One caller in one thread issues each op only after the previous one has
returned (a closed loop with a single client). Only ``Op.run`` is timed;
input generation, checks, digests and the reference timings that normalise
the op times (``calibration``) happen between ops.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from ascent_trajectory import AscentTrajectory
from calibration import REFERENCE_MS, Calibration, reference_ms
from cli_files import CliFiles
from cone_threshold import ConeThreshold
from metrics import CLI_SUBCOMMANDS, END_TO_END, PER_LAYER, UNITS
from operator_scan import OperatorScan
from oracles import KnownSpectrum
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = {cls.name: cls for cls in (OperatorScan, ConeThreshold, AscentTrajectory, CliFiles)}
SETUP_REPEATS = 15
#: Enough ops that p90 has at least ten samples beyond it.
MIN_OPS = 100
#: Blocks hashed into the printed digest; every run completes at least these.
DIGEST_BLOCKS = 2
PROBE_SIZES = (8, 12, 32, 64)
EIGH_REPEATS = 20


def import_library():
    """Import reachopt afresh, so that set-up time includes the import."""
    for name in [n for n in sys.modules if n == "reachopt" or n.startswith("reachopt.")]:
        del sys.modules[name]
    package = importlib.import_module("reachopt")
    importlib.import_module("reachopt.cli")
    return package


def set_up(name: str, seed: int, workdir: Path, smoke: bool, repeats: int):
    """Import, generate inputs and warm up ``repeats`` times; keep the last.

    Returns the workload and the median set-up time in seconds, raw and
    normalised by the reference times taken before and after each set-up.
    """
    raw, normalised = [], []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = reference_ms()
        t0 = perf_counter()
        ro = import_library()
        workload = WORKLOADS[name](ro, seed, workdir, smoke)
        workload.warm_up()
        elapsed = perf_counter() - t0
        raw.append(elapsed)
        normalised.append(elapsed * REFERENCE_MS / statistics.mean((before, reference_ms())))
    return workload, statistics.median(raw), statistics.median(normalised)


class Pass:
    """Latencies, failures and block digests of one measurement pass."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.midpoints: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.calibration = Calibration()

    def normalised(self) -> np.ndarray:
        """Op times scaled to reference speed (see ``calibration``)."""
        return np.array(self.latencies) * self.calibration.factors(self.midpoints)

    @property
    def digest(self) -> str:
        joined = "".join(self.digests[:DIGEST_BLOCKS])
        return hashlib.sha256(joined.encode()).hexdigest()


def run_pass(workload, seconds: float, min_ops: int, blocks: int | None = None,
             tracer: Tracer | None = None) -> Pass:
    """Run whole blocks until ``seconds`` and ``min_ops`` are reached, or ``blocks``."""
    result = Pass()
    start = perf_counter()
    index = 0
    while True:
        if blocks is None:
            done = perf_counter() - start >= seconds and len(result.latencies) >= min_ops
            if index >= DIGEST_BLOCKS and done:
                break
        elif index >= blocks:
            break
        digest = hashlib.sha256()
        for op in workload.block(index):
            op_id = len(result.latencies)
            span = tracer.begin_op(op_id) if tracer else None
            t0 = perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # an exception from the library fails the op
                output, error = None, exc
            elapsed = perf_counter() - t0
            if tracer:
                tracer.end_op(span)
            result.latencies.append(elapsed)
            result.midpoints.append(t0 + elapsed / 2.0)
            result.kinds.append(op.kind)
            if error is None:
                try:
                    op.check(output)
                    digest.update(op.encode(output))
                    if tracer:
                        workload.observe(op, output, elapsed)
                except Exception as exc:  # a wrong output (or an unreadable one) fails the op
                    error = exc
            if error is not None:
                digest.update(b"failed")
                frame = traceback.extract_tb(error.__traceback__)[-1]
                result.failures.append(f"block {index} {op.kind}: {type(error).__name__}: {error} "
                                       f"({Path(frame.filename).name}:{frame.lineno})")
            result.calibration.maybe_sample()
        result.digests.append(digest.hexdigest())
        index += 1
    result.calibration.sample()
    return result


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": UNITS[name]}


def _times(latencies: np.ndarray, setup_s: float) -> dict:
    p50, p90 = np.percentile(latencies * 1e3, [50, 90])
    return {
        "ops_per_s": latencies.size / latencies.sum(),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": setup_s,
    }


def end_to_end(run: Pass, raw_setup_s: float, setup_s: float) -> dict:
    """The end-to-end metrics, with times normalised; the raw ones are printed."""
    latencies = run.normalised()
    values = _times(latencies, setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = _times(np.array(run.latencies), raw_setup_s)
    reference = np.array(run.calibration.reference)
    print("raw " + " ".join(f"{name} {value:.4f}" for name, value in raw.items()))
    print(f"reference_ms samples {reference.size} min {reference.min():.4f} "
          f"median {np.median(reference):.4f} max {reference.max():.4f}")
    print(f"ops {latencies.size}, beyond p90 {int(np.sum(latencies * 1e3 > values['latency_p90_ms']))}, "
          f"error_rate {len(run.failures) / latencies.size:.6f}")
    kinds = np.array(run.kinds)
    for kind in sorted(set(run.kinds)):
        times = latencies[kinds == kind] * 1e3
        print(f"kind {kind:20s} ops {times.size:5d} median_ms {np.median(times):10.3f} "
              f"min_ms {times.min():10.3f} max_ms {times.max():10.3f}")
    return {name: _metric(name, values[name]) for name, _, _ in END_TO_END}


def spectral_probe(ro, seed: int, repeats: int) -> dict[str, float]:
    """Median ``decompose`` and single-threaded ``eigh`` times on the same matrices."""
    rng = np.random.default_rng([seed, 2])
    values = {}
    for n in PROBE_SIZES:
        jacobi, floor = [], []
        for _ in range(repeats):
            matrix = KnownSpectrum.random(rng, n, max(1, round(0.8 * n))).matrix
            t0 = perf_counter()
            ro.decompose(matrix)
            jacobi.append(perf_counter() - t0)
            t0 = perf_counter()
            for _ in range(EIGH_REPEATS):
                np.linalg.eigh(matrix)
            floor.append((perf_counter() - t0) / EIGH_REPEATS)
        values[f"spectral.decompose.ms.n{n}"] = statistics.median(jacobi) * 1e3
        if n != 8:
            values[f"spectral.eigh_floor.ms.n{n}"] = statistics.median(floor) * 1e3
    values["spectral.decompose.over_floor.n64"] = (
        values["spectral.decompose.ms.n64"] / values["spectral.eigh_floor.ms.n64"]
    )
    return values


def cold_start_ms(workdir: Path, seed: int, repeats: int) -> float:
    """Median wall time of a ``python -m reachopt direction`` subprocess."""
    spectrum = KnownSpectrum.random(np.random.default_rng([seed, 3]), 12, 10)
    operator, gradient = workdir / "cold_operator.json", workdir / "cold_gradient.json"
    operator.write_text(json.dumps({"dim": 12, "entries": spectrum.matrix.tolist()}))
    gradient.write_text(json.dumps([1.0] * 12))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    command = [sys.executable, "-m", "reachopt", "direction",
               "--operator", str(operator), "--gradient", str(gradient)]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


class LayerHooks:
    """Outcome counters attached to traced calls; each hook only counts or appends."""

    def __init__(self, tracer: Tracer) -> None:
        self.feasible = 0
        self.degenerate = 0
        self.paths: list[str] = []
        tracer.hooks.update({
            "cones.is_feasible": self._feasible,
            "directions.optimal_direction": self._direction,
            "io.load_matrix": self._path,
            "io.load_vector": self._path,
            "io.load_cone_family": self._path,
        })

    def _feasible(self, index, args, kwargs, result):
        self.feasible += bool(result.feasible)

    def _direction(self, index, args, kwargs, result):
        self.degenerate += result.kind.value == "degenerate"

    def _path(self, index, args, kwargs, result):
        self.paths.append(args[0])


def per_layer(summary, run: Pass, hooks: LayerHooks, workload) -> dict[str, float]:
    values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    for span in ("spectral.decompose", "spectral.pseudoinverse", "operators.ConstraintOperator",
                 "directions.optimal_direction", "kernels.truncate", "cones.is_feasible",
                 "cones.phi_curve", "ascent.run_ascent", "ascent.feasible_direction"):
        values[f"{span}.calls"] = summary.calls_of(span)
        values[f"{span}.self_s"] = summary.self_of(span)
    for span in ("operators.effort", "kernels.smallest_k_for_error", "cones.find_gamma_star",
                 "cli.main"):
        values[f"{span}.calls"] = summary.calls_of(span)
    for span in ("kernels.apply_with_residual", "ascent.write_trace_csv", "io.load_matrix",
                 "io.load_vector", "io.load_cone_family"):
        values[f"{span}.self_s"] = summary.self_of(span)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = summary.layer_self(layer)
    # Everything the CLI layer itself does inside main, outside library spans.
    values["cli.main.self_s"] = summary.layer_self("cli")

    directions = values["directions.optimal_direction.calls"]
    values["directions.optimal_direction.us"] = summary.median_duration("directions.optimal_direction") * 1e6
    values["directions.degenerate_share"] = hooks.degenerate / directions if directions else 0.0

    feasible = summary.mask("cones.is_feasible")
    values["cones.is_feasible.ms"] = summary.median_duration("cones.is_feasible") * 1e3
    thresholds = values["cones.find_gamma_star.calls"]
    threshold_id = summary.index("cones.find_gamma_star")
    if thresholds and threshold_id is not None:
        parents = summary.parent[feasible]
        inside = np.sum(summary.name[parents[parents >= 0]] == threshold_id)
        values["cones.is_feasible.per_threshold"] = float(inside) / thresholds
    calls = values["cones.is_feasible.calls"]
    values["cones.is_feasible.feasible_share"] = hooks.feasible / calls if calls else 0.0

    main = summary.mask("cli.main")
    for sub in CLI_SUBCOMMANDS:
        durations = [d for d, op in zip(summary.duration[main], summary.op[main]) if run.kinds[op] == sub]
        values[f"cli.main.ms.{sub}"] = float(np.median(durations)) * 1e3 if durations else 0.0
    values["io.bytes_read"] = float(sum(os.path.getsize(p) for p in hooks.paths))

    op_seconds = sum(run.latencies)
    values["trace.op_s"] = op_seconds
    values["spectral.decompose.op_share"] = values["spectral.decompose.self_s"] / op_seconds
    values["cones.is_feasible.op_share"] = values["cones.is_feasible.self_s"] / op_seconds
    values.update(workload.layer_metrics())
    return values


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    print("env " + json.dumps(environment(), sort_keys=True))
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        return (_traced if trace else _untraced)(name, seed, seconds, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(passes, digest_ok: bool, metrics: dict) -> dict:
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    attempted = sum(len(p.latencies) for p in passes)
    print(f"digest sha256={passes[-1].digest} blocks={min(DIGEST_BLOCKS, len(passes[-1].digests))}")
    return {
        "correct": not failures and digest_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def _untraced(name, seed, seconds, smoke, workdir) -> dict:
    workload, raw_setup_s, setup_s = set_up(name, seed, workdir, smoke, SETUP_REPEATS)
    measured = run_pass(workload, seconds, 0 if smoke else MIN_OPS)
    return _report([measured], True, end_to_end(measured, raw_setup_s, setup_s))


def _traced(name, seed, seconds, smoke, workdir) -> dict:
    workload, _, _ = set_up(name, seed, workdir, smoke, 1)
    plain = run_pass(workload, seconds / 2.0, 0)
    workload.counting = True
    tracer = Tracer()
    hooks = LayerHooks(tracer)
    tracer.install(workload.ro)
    try:
        traced = run_pass(workload, 0.0, 0, blocks=len(plain.digests), tracer=tracer)
    finally:
        tracer.uninstall()
    digest_ok = plain.digests == traced.digests
    if not digest_ok:
        print("digest mismatch between the untraced and the traced pass", file=sys.stderr)
    summary = tracer.summary()
    values = per_layer(summary, traced, hooks, workload)
    # Normalised, so a change in machine speed between the passes does not show as overhead.
    values["trace.overhead_pct"] = (traced.normalised().sum() / plain.normalised().sum() - 1.0) * 100.0
    repeats = 1 if smoke else 3
    values.update(spectral_probe(workload.ro, seed, repeats))
    values["cli.cold_start_ms"] = cold_start_ms(workdir, seed, repeats)
    for span_name, calls, total, self_s in summary.table():
        print(f"span {span_name:40s} calls {calls:8d} total_s {total:10.4f} self_s {self_s:10.4f}")
    metrics = {name: _metric(name, values[name]) for name, _, _ in PER_LAYER}
    return _report([plain, traced], digest_ok, metrics)
