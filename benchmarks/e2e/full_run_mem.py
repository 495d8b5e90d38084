"""``full_run_mem_sf001`` — the paper's complete test, in memory:
load → Query Run 1 → data maintenance → Query Run 2 at sf 0.01 with two
closed-loop streams, repeated.

The only workload that yields QphDS.  Two streams on two cores expose
GIL and scheduler contention; dsdgen + load, the runner and in-memory
data maintenance all sit on its critical path; the front end is ≈ 6 %.

The phases are driven through ``BenchmarkRun`` exactly as
``run_benchmark`` drives them (which adds only the optional journal,
sampler and profiler), so that the probe can be put on the database
between the load and the first query run.
"""

from __future__ import annotations

from common import (
    SMOKE_SF,
    add_maintenance_layers,
    add_runner_layers,
    check_query_run,
    emit_maintenance_rate,
    emit_peak_rss,
    emit_runner_layers,
    finish_memory_setup,
    latency_metrics,
    median,
)
from probe import EngineProbe, emit_engine_layers

SCALE_FACTOR = 0.01
STREAMS = 2
#: seconds one complete test takes on the 2-core sandbox
REPEAT_SECONDS = 9.0


def run(ctx) -> None:
    from repro.runner import BenchmarkConfig, BenchmarkRun, MetricInputs, qphds

    scale_factor = SMOKE_SF if ctx.smoke else SCALE_FACTOR
    tracer = ctx.tracer
    tests, latencies, returned = [], [], 0
    probe = None
    config = BenchmarkConfig(scale_factor=scale_factor, streams=STREAMS, seed=ctx.seed)
    # a traced run reports layers, not medians: one test is enough, and
    # its spans and operator statistics then describe the same queries
    repeats = 1 if ctx.traced else ctx.units(REPEAT_SECONDS)
    loads = []
    for _ in range(repeats):
        bench = BenchmarkRun(config, tracer=tracer if ctx.traced else None)
        load = bench.load_test()
        loads.append(load)
        probe = EngineProbe(bench.db, tracer)
        qr1_results = probe.collect_into("qr1")
        qr1 = bench.query_run(1)
        add_runner_layers(ctx, qr1, sum(probe.elapsed))
        maintenance = bench.data_maintenance()
        qr2_results = probe.collect_into("qr2")
        qr2 = bench.query_run(2)
        add_runner_layers(ctx, qr2, sum(probe.elapsed))
        probe.remove()
        tests.append({
            "wall_s": load.elapsed + qr1.elapsed + maintenance.elapsed + qr2.elapsed,
            "qps": (len(qr1.timings) + len(qr2.timings)) / (qr1.elapsed + qr2.elapsed),
            "qphds": qphds(MetricInputs(
                scale_factor=scale_factor, streams=STREAMS, t_qr1=qr1.elapsed,
                t_dm=maintenance.elapsed, t_qr2=qr2.elapsed, t_load=load.elapsed,
            ), enforce_min_streams=False),  # as run_benchmark does unless strict
            "load_tables_s": bench.tracer.total("load_tables"),
            "gather_stats_s": bench.tracer.total("gather_stats"),
        })
        add_maintenance_layers(ctx, maintenance.operations)
        for query_run, results, label, first in (
            (qr1, qr1_results, "qr1", 0), (qr2, qr2_results, "qr2", STREAMS),
        ):
            latencies.extend(t.elapsed for t in query_run.timings)
            with tracer.span("harness.verify"):
                returned += check_query_run(
                    ctx, bench, results, query_run, label,
                    range(first, first + STREAMS),
                )

    def mid(key):
        return median([t[key] for t in tests])

    ctx.emit("unit_wall_s", mid("wall_s"))
    ctx.emit("throughput_ops_s", mid("qps"))
    latency_metrics(ctx, latencies)
    ctx.emit("runner.qphds", mid("qphds"))
    ctx.emit("dsdgen.load_tables_s", mid("load_tables_s"))
    ctx.emit("dsdgen.gather_stats_s", mid("gather_stats_s"))
    emit_runner_layers(ctx, 2 * len(tests), latencies)
    emit_maintenance_rate(ctx)
    emit_peak_rss(ctx)
    if ctx.traced:
        emit_engine_layers(ctx, probe, returned)
    del bench, probe
    finish_memory_setup(ctx, config, loads)
