"""Command-line interface.

Subcommands: ``direction``, ``compress``, ``threshold``, ``phi-curve``,
``optimize``. All outputs are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import io
from .ascent import run_ascent, write_trace_csv
from .cones import find_gamma_star, phi_curve
from .directions import optimal_direction
from .errors import ReachoptError
from .kernels import smallest_k_for_error, truncate
from .operators import ConstraintOperator
from .spectral import _as_count, decompose


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _cmd_direction(args) -> int:
    operator = ConstraintOperator(io.load_matrix(args.operator))
    gradient = io.load_vector(args.gradient)
    result = optimal_direction(operator, gradient)
    _emit_json(
        {
            "kind": result.kind.value,
            "direction": None if result.direction is None else result.direction.tolist(),
            "gain": result.first_order_gain,
        }
    )
    return 0


def _cmd_compress(args) -> int:
    spectrum = decompose(io.load_matrix(args.operator))
    gradient = io.load_vector(args.gradient)
    if args.k is not None:
        k = args.k
    else:
        k = smallest_k_for_error(spectrum, args.eps)
    kernel = truncate(spectrum, k)
    _, report = kernel.apply_with_residual(gradient)
    _emit_json(
        {
            "k": kernel.k,
            "op_error": kernel.op_error,
            "residual_norm_sq": report.residual_norm_sq,
            "per_mode": [[index, value] for index, value in report.per_mode_contributions],
        }
    )
    if args.sweep is not None:
        lines = ["k,op_error,residual_norm_sq"]
        for level in range(spectrum.rank + 1):
            swept = truncate(spectrum, level)
            _, swept_report = swept.apply_with_residual(gradient)
            lines.append(
                f"{level},{swept.op_error!r},{swept_report.residual_norm_sq!r}"
            )
        with open(args.sweep, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    return 0


def _cmd_threshold(args) -> int:
    family = io.load_cone_family(args.cones)
    result = find_gamma_star(family, args.tol, seed=args.seed)
    _emit_json(
        {
            "gamma_star": result.gamma_star,
            "bracket": [result.bracket[0], result.bracket[1]],
            "witness": result.witness.tolist(),
            "tolerance": result.tolerance,
        }
    )
    return 0


def _cmd_phi_curve(args) -> int:
    if not math.isfinite(args.gamma_max):
        raise ValueError(f"--gamma-max must be finite, got {args.gamma_max!r}")
    family = io.load_cone_family(args.cones)
    grid = np.linspace(0.0, args.gamma_max, _as_count(args.steps, "--steps", 1))
    curve = phi_curve(family, grid, args.samples, args.seed)
    print("gamma,phi,stderr")
    for gamma, estimate, std_error in curve:
        print(f"{gamma!r},{estimate!r},{std_error!r}")
    return 0


def _cmd_optimize(args) -> int:
    run = io.load_run_config(args.config)
    out = run.pop("out")
    record = run_ascent(**run)
    if record.status == "non-finite":
        raise ValueError(
            f"a callback returned a non-finite value after {len(record.steps)} logged steps"
        )
    if out is not None:
        write_trace_csv(record, out)
    _emit_json(
        {
            "status": record.status,
            "steps_logged": len(record.steps),
            "final_theta": record.final_point.tolist(),
            "final_objective": record.final_objective,
            "final_cost": record.final_cost,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachopt",
        description="Constrained ascent directions, spectral rule kernels, "
        "and cone compatibility thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dir = sub.add_parser("direction", help="optimal unit-effort ascent direction")
    p_dir.add_argument("--operator", required=True, help="operator matrix JSON file")
    p_dir.add_argument("--gradient", required=True, help="gradient vector JSON file")
    p_dir.set_defaults(func=_cmd_direction)

    p_comp = sub.add_parser("compress", help="rank-k rule kernel diagnostics")
    p_comp.add_argument("--operator", required=True)
    p_comp.add_argument("--gradient", required=True)
    group = p_comp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="truncation rank")
    group.add_argument("--eps", type=float, help="target error level")
    p_comp.add_argument("--sweep", help="also write an error-vs-k CSV to this path")
    p_comp.set_defaults(func=_cmd_compress)

    p_thr = sub.add_parser(
        "threshold", help="compatibility threshold: one minimax solve, bisection past a clamp"
    )
    p_thr.add_argument("--cones", required=True, help="cone family JSON file")
    p_thr.add_argument("--tol", type=float, required=True, help="bracket width target")
    p_thr.add_argument("--seed", type=int, default=0,
                       help="validated (nonnegative); the result does not depend on it")
    p_thr.set_defaults(func=_cmd_threshold)

    p_phi = sub.add_parser("phi-curve", help="spherical-measure curve as CSV")
    p_phi.add_argument("--cones", required=True)
    p_phi.add_argument("--gamma-max", type=float, required=True)
    p_phi.add_argument("--steps", type=int, required=True, help="grid points")
    p_phi.add_argument("--samples", type=int, required=True)
    p_phi.add_argument("--seed", type=int, required=True)
    p_phi.set_defaults(func=_cmd_phi_curve)

    p_opt = sub.add_parser("optimize", help="run an ascent trajectory from a config")
    p_opt.add_argument("--config", required=True, help="run configuration JSON file")
    p_opt.set_defaults(func=_cmd_optimize)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReachoptError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
