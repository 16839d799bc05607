"""cli-files: one op is one in-process ``reachopt.cli.main(argv)`` call.

Set-up writes JSON inputs: eight n = 12 operators with gradients, four
two-cone families and two ``optimize`` run configs. A block is ten calls:
four ``direction``, two ``compress --eps ... --sweep``, two
``threshold --tol 1e-3``, one ``phi-curve`` and one ``optimize`` writing a
2000-row trace CSV. The threshold share (20%) puts p90 inside that class and
p50 among the cheap file-to-JSON calls.

Each call's stdout and output files are compared with the same library
calls made directly (computed once per input file, outside the timed
interval), and with the oracles: the known spectrum, the closed-form
threshold, exact zeros of the measure below it, and the trajectory checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from ascent_trajectory import Case, Quadratic, check_trajectory
from oracles import KnownSpectrum, axis_at_angle, check_phi_curve, check_witness, close, expect, unit
from workload import Op, Workload, pack

BLOCK = (
    "direction", "threshold", "direction", "compress", "phi-curve",
    "direction", "threshold", "compress", "direction", "optimize",
)
OPERATORS, FAMILIES, CONFIGS = 8, 4, 2
DIM, RANK = 12, 10
GAMMA_MAX, PHI_STEPS = 1.2, 7
#: Thresholds of the four two-cone files (dims 2-5). Each makes bisection to
#: 1e-3 run four infeasible solves within 0.02 below it, so the threshold
#: calls cost about the same on every seed; the seed draws the geometry.
THRESHOLDS = (0.097, 0.202, 0.3, 0.403)


class CliFiles(Workload):
    name = "cli-files"

    def __init__(self, ro, seed: int, workdir, smoke: bool) -> None:
        super().__init__(ro, seed, workdir, smoke)
        self.tol = 1e-2 if smoke else 1e-3
        self.samples = 2000 if smoke else 20000
        self.trace_rows = 200 if smoke else 2000
        self.references: dict = {}
        self.bytes_out = 0
        rng = self.rng("files")
        self.operators = []
        for i in range(OPERATORS):
            spectrum = KnownSpectrum.random(rng, DIM, RANK)
            gradient = rng.standard_normal(DIM)
            k = int(rng.integers(1, RANK))
            eps = math.sqrt(spectrum.op_error(k) * spectrum.op_error(k - 1))
            paths = (self._write(f"operator{i}.json",
                                 {"dim": DIM, "entries": spectrum.matrix.tolist()}),
                     self._write(f"gradient{i}.json", gradient.tolist()))
            self.operators.append((spectrum, gradient, eps, paths))
        self.families = []
        for i, answer in enumerate(THRESHOLDS):
            dim = 2 + i
            halves = rng.uniform(0.05, 0.6, size=2)
            first = unit(rng.standard_normal(dim))
            second = axis_at_angle(rng, first, halves[0] + halves[1] + 2.0 * answer)
            payload = [{"axis": a.tolist(), "half_angle_deg": math.degrees(h)}
                       for a, h in zip((first, second), halves)]
            axes = np.array([first, second])
            loaded = np.radians([math.degrees(h) for h in halves])
            spread = math.acos(float(np.clip(first @ second, -1.0, 1.0)))
            self.families.append(((spread - loaded[0] - loaded[1]) / 2.0, axes, loaded,
                                  self._write(f"cones{i}.json", payload)))
        self.configs = []
        for i in range(CONFIGS):
            spectrum = KnownSpectrum.random(rng, 3, 3)
            payoff = Quadratic(KnownSpectrum.random(rng, 3, 3, 0.5, 2.0).matrix,
                               rng.standard_normal(3))
            config = {
                "objective": {"kind": "quadratic", "matrix": payoff.matrix.tolist(),
                              "linear": payoff.linear.tolist()},
                "operator_field": {"kind": "constant",
                                   "matrix": {"dim": 3, "entries": spectrum.matrix.tolist()}},
                "budget": None,
                "theta0": rng.standard_normal(3).tolist(),
                "steps": self.trace_rows,
                "eta": 1e-3,
                "out": str(workdir / f"trace{i}.csv"),
            }
            case = Case("optimize", None, payoff, lambda p, s=spectrum: s, None,
                        np.asarray(config["theta0"]), config["steps"], config["eta"])
            self.configs.append((config, case, self._write(f"run{i}.json", config)))

    def _write(self, name: str, payload) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def warm_up(self) -> None:
        spectrum, gradient, eps, (op_path, grad_path) = self.operators[0]
        self._call(["direction", "--operator", op_path, "--gradient", grad_path])
        self._call(["phi-curve", "--cones", self.families[0][3], "--gamma-max", "1.2",
                    "--steps", "3", "--samples", "100", "--seed", "0"])

    def _call(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.ro.cli.main(argv)
        return code, buffer.getvalue()

    def block(self, index: int) -> list[Op]:
        counts = dict.fromkeys(BLOCK, 0)
        ops = []
        for kind in BLOCK:
            slot = counts[kind]
            counts[kind] += 1
            ops.append(getattr(self, "_" + kind.replace("-", "_"))(index, slot))
        return ops

    def _op(self, kind: str, argv, check, outfile=None) -> Op:
        def run():
            return self._call(argv)

        def read(output):
            code, stdout = output
            expect(code == 0, f"exit code {code}")
            data = b"" if outfile is None else open(outfile, "rb").read()
            return stdout, data

        def checked(output):
            stdout, data = read(output)
            check(stdout, data)

        def encode(output):
            stdout, data = read(output)
            return pack([stdout, data])

        return Op(kind, run, checked, encode, {"outfile": outfile})

    def _reference(self, key, compute):
        if key not in self.references:
            self.references[key] = compute()
        return self.references[key]

    def _direction(self, index: int, slot: int) -> Op:
        ro = self.ro
        spectrum, gradient, _, (op_path, grad_path) = self.operators[(4 * index + slot) % OPERATORS]

        def reference():
            result = ro.optimal_direction(ro.ConstraintOperator(ro.io.load_matrix(op_path)),
                                          ro.io.load_vector(grad_path))
            return {"kind": result.kind.value,
                    "direction": None if result.direction is None else result.direction.tolist(),
                    "gain": result.first_order_gain}

        def check(stdout, _):
            payload = json.loads(stdout)
            expect(payload == self._reference(("direction", op_path), reference),
                   "stdout differs from the library result")
            expected = spectrum.optimal_direction(gradient)
            expect(payload["kind"] == "optimal", "degenerate verdict on a generic gradient")
            expect(close(payload["direction"], expected, 1e-7), "direction differs from the oracle")
            expect(close(payload["gain"], gradient @ expected, 1e-7), "gain differs from the oracle")

        return self._op("direction", ["direction", "--operator", op_path, "--gradient", grad_path],
                        check)

    def _compress(self, index: int, slot: int) -> Op:
        ro = self.ro
        spectrum, gradient, eps, (op_path, grad_path) = self.operators[(2 * index + slot + 1) % OPERATORS]
        sweep = self.workdir / "sweep.csv"

        def reference():
            decomposition = ro.ConstraintOperator(ro.io.load_matrix(op_path)).spectrum
            vector = ro.io.load_vector(grad_path)
            kernel = ro.truncate(decomposition, ro.smallest_k_for_error(decomposition, eps))
            _, report = kernel.apply_with_residual(vector)
            rows = []
            for k in range(decomposition.rank + 1):
                swept = ro.truncate(decomposition, k)
                rows.append([k, swept.op_error, swept.apply_with_residual(vector)[1].residual_norm_sq])
            payload = {"k": kernel.k, "op_error": kernel.op_error,
                       "residual_norm_sq": report.residual_norm_sq,
                       "per_mode": [[i, v] for i, v in report.per_mode_contributions]}
            return payload, rows

        def check(stdout, data):
            payload = json.loads(stdout)
            expected_payload, expected_rows = self._reference(("compress", op_path), reference)
            expect(payload == expected_payload, "stdout differs from the library result")
            lines = data.decode().splitlines()
            expect(lines[0] == "k,op_error,residual_norm_sq", "sweep CSV header")
            rows = [[int(k), float(e), float(r)] for k, e, r in (line.split(",") for line in lines[1:])]
            expect(rows == expected_rows, "sweep CSV differs from the library result")
            expect(payload["k"] == spectrum.smallest_k_for_error(eps), "k differs from the oracle")
            for k, op_error, residual in rows:
                expect(close(op_error, spectrum.op_error(k), 1e-9), f"op_error wrong at k={k}")
                expect(close(residual, spectrum.residual_norm_sq(gradient, k), 1e-8, 1e-12),
                       f"residual wrong at k={k}")

        argv = ["compress", "--operator", op_path, "--gradient", grad_path,
                "--eps", repr(eps), "--sweep", str(sweep)]
        return self._op("compress", argv, check, outfile=sweep)

    def _threshold(self, index: int, slot: int) -> Op:
        ro, tol = self.ro, self.tol
        answer, axes, halves, path = self.families[(2 * index + slot) % FAMILIES]

        def reference():
            result = ro.find_gamma_star(ro.io.load_cone_family(path), tol, 64, seed=0)
            return {"gamma_star": result.gamma_star, "bracket": list(result.bracket),
                    "witness": result.witness.tolist(), "tolerance": result.tolerance}

        def check(stdout, _):
            payload = json.loads(stdout)
            expect(payload == self._reference(("threshold", path), reference),
                   "stdout differs from the library result")
            expect(abs(payload["gamma_star"] - answer) <= tol, "threshold differs from the oracle")
            check_witness(payload["witness"], axes, halves, payload["gamma_star"])

        return self._op("threshold", ["threshold", "--cones", path, "--tol", repr(tol)], check)

    def _phi_curve(self, index: int, slot: int) -> Op:
        ro, samples = self.ro, self.samples
        answer, axes, halves, path = self.families[index % FAMILIES]
        seed = index % 97
        gammas = np.linspace(0.0, GAMMA_MAX, PHI_STEPS)
        check_rng = self.rng("phi-check", index)

        def reference():
            return ro.phi_curve(ro.io.load_cone_family(path), gammas, samples, seed)

        def check(stdout, _):
            lines = stdout.splitlines()
            expect(lines[0] == "gamma,phi,stderr", "phi-curve CSV header")
            curve = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
            expected = [tuple(point) for point in self._reference(("phi", path, seed), reference)]
            expect(curve == expected, "stdout differs from the library result")
            check_phi_curve(curve, axes, halves, gammas, samples, answer, check_rng)

        argv = ["phi-curve", "--cones", path, "--gamma-max", repr(GAMMA_MAX),
                "--steps", str(PHI_STEPS), "--samples", str(samples), "--seed", str(seed)]
        return self._op("phi-curve", argv, check)

    def _optimize(self, index: int, slot: int) -> Op:
        ro = self.ro
        config, case, path = self.configs[index % CONFIGS]
        out = config["out"]
        reference_csv = self.workdir / f"reference{index % CONFIGS}.csv"

        def reference():
            record = ro.run_ascent(
                ro.objective_from_config(config["objective"]),
                ro.operator_field_from_config(config["operator_field"]),
                None, np.asarray(config["theta0"], dtype=float), config["steps"], config["eta"],
            )
            check_trajectory(record, case)
            ro.write_trace_csv(record, reference_csv)
            payload = {"status": record.status, "steps_logged": len(record.steps),
                       "final_theta": record.final_point.tolist(),
                       "final_objective": record.final_objective, "final_cost": record.final_cost}
            return payload, reference_csv.read_bytes()

        def check(stdout, data):
            payload = json.loads(stdout)
            expected_payload, expected_csv = self._reference(("optimize", path), reference)
            expect(payload == expected_payload, "stdout differs from the library result")
            expect(data == expected_csv, "trace CSV differs from the library result")
            expect(data.count(b"\n") == config["steps"] + 1, "trace CSV row count")

        return self._op("optimize", ["optimize", "--config", path], check, outfile=out)

    def observe(self, op: Op, output, seconds: float) -> None:
        code, stdout = output
        self.bytes_out += len(stdout.encode())
        if op.info["outfile"] is not None:
            with open(op.info["outfile"], "rb") as handle:
                self.bytes_out += len(handle.read())

    def layer_metrics(self) -> dict[str, float]:
        return {"cli.bytes_out": float(self.bytes_out)}
