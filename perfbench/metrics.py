"""Every metric the benchmark prints: name, unit, direction and, for a
per-layer metric, the end-to-end metric it should move and on which
workload.  Every metric is printed for every workload.

BENCHMARK.json lists the end-to-end metrics and the per-layer metrics with
``declared=True``; test_perfbench.py keeps the two in step.  A per-layer
self time that reads zero on some workload (its layer never runs there) is
printed by every traced run but left out of BENCHMARK.json, because a time
that reads the same on every run carries no signal; its call count or work
count stands in for it there.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("tables", "sweep", "large")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    declared: bool = True


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("op_p50_ms", "ms", "lower"),
    Metric("op_p90_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
)

# fail_frac is printed by every run with its base but is not listed: it
# reads zero on a healthy workload.  The result line carries it as the
# attempted/failed pair.

PER_LAYER = (
    Metric("gf.build_field.self_ms", "ms", "lower",
           moves="setup_s on large; wall_s on tables; about zero on sweep"),
    Metric("gf.build_field.calls", "count", "lower",
           moves="setup_s on large; wall_s on tables"),
    Metric("gf.build_field.table_mb", "MiB", "lower",
           moves="peak_rss_mb on large"),
    Metric("frames.build.self_ms", "ms", "lower",
           moves="wall_s and peak_rss_mb on large"),
    Metric("frames.build.cells", "count", "lower",
           moves="wall_s and peak_rss_mb on large"),
    Metric("frames.build.failed", "count", "lower",
           moves="fail_frac with probes on large"),
    Metric("frames.materialize.self_ms", "ms", "lower",
           moves="wall_s and peak_rss_mb on large; small on sweep"),
    Metric("frames.materialize.mb", "MiB", "lower",
           moves="peak_rss_mb on large"),
    Metric("frames.save.self_ms", "ms", "lower",
           moves="wall_s on tables", declared=False),
    Metric("frames.save.mb", "MiB", "lower",
           moves="wall_s on tables; zero elsewhere"),
    Metric("frames.load_frame.self_ms", "ms", "lower",
           moves="wall_s on tables", declared=False),
    Metric("frames.load_frame.calls", "count", "lower",
           moves="wall_s on tables; zero elsewhere"),
    Metric("coherence.tightness_residual.self_ms", "ms", "lower",
           moves="wall_s on large and tables; under 5% on sweep"),
    Metric("coherence.tightness_residual.gflop", "GFLOP", "lower",
           moves="wall_s on large and tables"),
    Metric("coherence.average_coherence.self_ms", "ms", "lower",
           moves="wall_s on large and tables"),
    Metric("coherence.coset_sums.self_ms", "ms", "lower",
           moves="wall_s on large; under 1% elsewhere"),
    Metric("coherence.multiplier_sums.self_ms", "ms", "lower",
           moves="wall_s on large, through the random baselines",
           declared=False),
    Metric("coherence.multiplier_sums.calls", "count", "lower",
           moves="wall_s on large; zero on sweep"),
    Metric("coherence.coherence_bruteforce.self_ms", "ms", "lower",
           moves="wall_s, op_p50_ms, op_p90_ms, peak_rss_mb on sweep",
           declared=False),
    Metric("coherence.coherence_bruteforce.gflop", "GFLOP", "lower",
           moves="wall_s, op_p50_ms, op_p90_ms on sweep; zero on large"),
    Metric("coherence.cluster_complex.self_ms", "ms", "lower",
           moves="wall_s, op_p50_ms, op_p90_ms, peak_rss_mb on sweep"),
    Metric("coherence.cluster_complex.values", "count", "lower",
           moves="wall_s and peak_rss_mb on sweep"),
    Metric("coherence.analyze.self_ms", "ms", "lower",
           moves="wall_s on large and sweep"),
    Metric("coherence.analyze.calls", "count", "lower",
           moves="wall_s on every workload"),
    Metric("coherence.analyze.total_ms", "ms", "lower",
           moves="base of coherence.analyze.dense_share"),
    Metric("coherence.analyze.dense_share", "1", "lower",
           moves="wall_s on large and sweep"),
    Metric("sl2.sl2_report.self_ms", "ms", "lower",
           moves="wall_s on tables; negligible", declared=False),
    Metric("sl2.sl2_report.calls", "count", "lower",
           moves="fail_frac with probes on tables; zero elsewhere"),
    Metric("sl2.sl2_report.failed", "count", "lower",
           moves="fail_frac with probes on tables"),
    Metric("cli.startup_ms", "ms", "lower",
           moves="setup_s and wall_s on tables"),
    Metric("cli.main.calls", "count", "lower",
           moves="wall_s on tables; zero elsewhere"),
    Metric("trace.overhead_s", "s", "lower",
           moves="traced minus untraced wall_s of the same operations"),
)

# cli.main self time is also printed per subcommand, cli.main.<sub>.self_ms
CLI_MAIN_MOVES = "wall_s on tables"


def declared(metrics) -> list[Metric]:
    return [m for m in metrics if m.declared]
