"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from tracing import LAYERS

#: (name, unit, better) of the untraced run's metrics.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

CLI_SUBCOMMANDS = ("direction", "compress", "threshold", "phi-curve", "optimize")


def _per_layer():
    count, seconds, ms, us, share = "count", "s", "ms", "us", "ratio"
    rows = [
        ("spectral.decompose.calls", count),
        ("spectral.decompose.self_s", seconds),
        *((f"spectral.decompose.ms.n{n}", ms) for n in (8, 12, 32, 64)),
        *((f"spectral.eigh_floor.ms.n{n}", ms) for n in (12, 32, 64)),
        ("spectral.decompose.over_floor.n64", share),
        ("spectral.pseudoinverse.calls", count),
        ("spectral.pseudoinverse.self_s", seconds),
        ("operators.ConstraintOperator.calls", count),
        ("operators.ConstraintOperator.self_s", seconds),
        ("operators.effort.calls", count),
        ("directions.optimal_direction.calls", count),
        ("directions.optimal_direction.self_s", seconds),
        ("directions.optimal_direction.us", us),
        ("directions.degenerate_share", share),
        ("kernels.truncate.calls", count),
        ("kernels.truncate.self_s", seconds),
        ("kernels.apply_with_residual.self_s", seconds),
        ("kernels.smallest_k_for_error.calls", count),
        ("cones.find_gamma_star.calls", count),
        ("cones.is_feasible.calls", count),
        ("cones.is_feasible.self_s", seconds),
        ("cones.is_feasible.ms", ms),
        ("cones.is_feasible.per_threshold", count),
        ("cones.is_feasible.feasible_share", share),
        ("cones.phi_curve.calls", count),
        ("cones.phi_curve.self_s", seconds),
        ("cones.threshold.max_abs_err", "rad"),
        ("cones.threshold.bracket_width_max", "rad"),
        ("ascent.run_ascent.calls", count),
        ("ascent.run_ascent.self_s", seconds),
        ("ascent.feasible_direction.calls", count),
        ("ascent.feasible_direction.self_s", seconds),
        ("ascent.steps", count),
        ("ascent.step_us.constant", us),
        ("ascent.step_us.point_dependent", us),
        ("ascent.cost_calls_per_step", share),
        ("ascent.gradient_calls_per_step", share),
        ("ascent.objective_calls_per_step", share),
        ("ascent.backtracks", count),
        ("ascent.budget_active_share", share),
        ("ascent.status.completed", count),
        ("ascent.status.degenerate", count),
        ("ascent.status.budget-stall", count),
        ("ascent.write_trace_csv.self_s", seconds),
        ("io.load_matrix.self_s", seconds),
        ("io.load_vector.self_s", seconds),
        ("io.load_cone_family.self_s", seconds),
        ("io.bytes_read", "bytes"),
        ("cli.main.calls", count),
        ("cli.main.self_s", seconds),
        *((f"cli.main.ms.{sub}", ms) for sub in CLI_SUBCOMMANDS),
        ("cli.bytes_out", "bytes"),
        ("cli.cold_start_ms", ms),
        *((f"{layer}.self_s", seconds) for layer in LAYERS),
        ("trace.op_s", seconds),
        ("trace.overhead_pct", "%"),
        ("spectral.decompose.op_share", share),
        ("cones.is_feasible.op_share", share),
    ]
    # Shares of useful outcomes and counts of finished work read better higher.
    higher = {"cones.is_feasible.feasible_share", "ascent.steps", "ascent.status.completed"}
    return tuple((name, unit, "higher" if name in higher else "lower") for name, unit in rows)


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
