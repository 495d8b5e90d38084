"""Shared pieces of the end-to-end benchmark: paths, sample statistics,
answer digests, the per-run context every workload fills in, and the
set-up builders (generate → load → stats → full store save).

Nothing here starts a thread or a process; importing it only puts the
repository's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from statistics import geometric_mean, median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(REPO, "BENCHMARK.json")
DIGEST_PATH = os.path.join(HERE, "expected_digests.json")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: the seed ``expected_digests.json`` is pinned for (dsdgen's default)
DEFAULT_SEED = 19620718

#: the scale factor every ``--smoke`` run uses instead of the workload's own
SMOKE_SF = 0.004

#: how often an untraced run builds and loads its inputs, to report the
#: medians as ``setup_s`` and ``load_s``: a sf 0.1 store build + open
#: (≈ 4.5 s) and a sf 0.01 generate + load (≈ 0.6 s).  The first is the
#: one the workload runs on; the others come after it, so that a slow
#: few seconds of the sandbox cannot sit under every sample.  (A traced
#: run prints neither metric and sets up once.)
STORE_SETUPS = 3
MEMORY_SETUPS = 5


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- sample statistics -------------------------------------------------------


def percentile(samples, q: float) -> float:
    """The exact ``q`` quantile of the raw samples (linear interpolation
    between order statistics) — never a histogram bucket edge."""
    return float(np.percentile(samples, 100.0 * q))


def tail_quantile(count: int, cap: float = 0.95) -> float:
    """The highest quantile, at most ``cap``, that still has ten samples
    beyond it; the median when even that has fewer (tiny smoke runs)."""
    if count <= 0:
        return 0.5
    return max(0.5, min(cap, 1.0 - 10.0 / count))


def latency_metrics(ctx: "RunContext", seconds: list) -> None:
    """The per-operation latency metrics every workload reports, from
    its exact samples (in seconds)."""
    ms = [s * 1000.0 for s in seconds]
    quantile = tail_quantile(len(ms))
    ctx.emit("query_p50_ms", percentile(ms, 0.5))
    ctx.emit("query_tail_ms", percentile(ms, quantile))
    ctx.emit("obs.tail_percentile", quantile * 100.0)
    ctx.emit("obs.latency_samples", len(ms))


# -- answer digests ----------------------------------------------------------


def digest_rows(rows) -> list:
    """``[row count, order-insensitive content digest]`` of a result."""
    from repro.qgen.qualification import fingerprint_rows

    rows = list(rows)
    return [len(rows), fingerprint_rows(rows)]


def load_pins(workload: str) -> dict:
    """The pinned answers of one workload at the default seed."""
    if not os.path.exists(DIGEST_PATH):
        return {}
    with open(DIGEST_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def write_pins(workload: str, digests: dict) -> None:
    pins = {}
    if os.path.exists(DIGEST_PATH):
        with open(DIGEST_PATH, encoding="utf-8") as handle:
            pins = json.load(handle)
    pins[workload] = digests
    with open(DIGEST_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=0, sort_keys=True)
        handle.write("\n")


# -- the per-run context -----------------------------------------------------


class RunContext:
    """What one workload run is given and what it gives back.

    ``emit`` records a metric under its ``BENCHMARK.json`` name (a name
    may be emitted once) and ``add`` accumulates into one; ``op`` counts
    operations attempted and failed;
    ``digests`` collects ``key -> [rows, digest]`` answers, compared with
    the pinned ones after the run when the seed is the default."""

    def __init__(self, seed, seconds, tracer, smoke=False):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.smoke = smoke
        self.metrics: dict[str, float] = {}
        self.sums: dict[str, float] = {}
        self.digests: dict[str, list] = {}
        #: the service driver's per-statement records, for the trace file
        self.requests: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def emit(self, name: str, value: float) -> None:
        if name in self.metrics or name in self.sums:
            raise RuntimeError(f"metric {name} emitted twice")
        self.metrics[name] = float(value)

    def add(self, name: str, value: float) -> None:
        if name in self.metrics:
            raise RuntimeError(f"metric {name} emitted twice")
        self.sums[name] = self.sums.get(name, 0.0) + value

    def all_metrics(self) -> dict:
        return {**self.metrics, **self.sums}

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def check_answer(self, key: str, answer: list, reference=None) -> None:
        """Record one answer; count it failed when it disagrees with
        ``reference`` (the answer a second path gave) or with the answer
        an earlier repeat recorded under the same key."""
        earlier = self.digests.setdefault(key, answer)
        ok = answer == earlier and reference in (None, answer)
        self.op(ok, f"{key}: {answer} != {reference or earlier}")

    def units(self, nominal_s: float, least: int = 1) -> int:
        """How many whole units of work (passes, repeats, rounds) of
        about ``nominal_s`` seconds fit ``--seconds``; one under
        ``--smoke``.  A count, not a deadline, so that two runs do the
        same work and their count metrics repeat."""
        if self.smoke:
            return 1
        return max(least, int(self.seconds // nominal_s))


# -- set-up ------------------------------------------------------------------


@contextmanager
def scratch_dir(prefix: str):
    """A directory under ``out/`` that is gone when the block ends."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def file_states(path: str) -> dict:
    """``file -> (size, mtime_ns, inode)`` of everything under ``path``."""
    states = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            stat = os.stat(full)
            states[full] = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
    return states


def stored_bytes(states: dict) -> int:
    return sum(size for size, _mtime, _inode in states.values())


def build_store(ctx: RunContext, scale_factor: float, path: str) -> dict:
    """Untimed-input construction for the store workloads: dsdgen
    generate (serial), load, statistics, full store save — each call
    into a layer under its own span.  Returns the seconds of each step
    and of the whole."""
    from repro.dsdgen import DsdGen, load_tables
    from repro.engine import Database

    tracer = ctx.tracer
    shutil.rmtree(path, ignore_errors=True)
    start = time.perf_counter()
    with tracer.span("dsdgen.generate") as span:
        data = DsdGen(scale_factor, seed=ctx.seed).generate()
        rows = sum(data.row_counts.values())
        span.set(rows=rows)
    generated = time.perf_counter()
    db = Database()
    with tracer.span("dsdgen.load_tables"):
        load_tables(db, data)
    loaded = time.perf_counter()
    with tracer.span("dsdgen.gather_stats"):
        db.gather_stats()
    analysed = time.perf_counter()
    with tracer.span("engine.colstore.save_full"):
        db.save(path, scale_factor=scale_factor, seed=ctx.seed)
    saved = time.perf_counter()
    # generated data holds reference cycles; collect them now, or the next
    # build stacks on top of this one and peak_rss_mb measures the set-up
    del data, db
    gc.collect()
    return {
        "rows": rows,
        "generate_s": generated - start,
        "load_tables_s": loaded - generated,
        "gather_stats_s": analysed - loaded,
        "save_full_s": saved - analysed,
        "total_s": saved - start,
    }


def open_store(ctx: RunContext, path: str):
    """Open the store through the runner's ``db_path`` load path;
    returns the ``BenchmarkRun`` and its ``LoadResult``."""
    from repro.runner import BenchmarkConfig, BenchmarkRun

    bench = BenchmarkRun(
        BenchmarkConfig(db_path=path, streams=1),
        tracer=ctx.tracer if ctx.traced else None,
    )
    return bench, bench.load_test()


def finish_store_setup(ctx: RunContext, built: dict, load, scale_factor: float,
                       path: str) -> None:
    """Build and open the store again until there are ``STORE_SETUPS``
    of each (a traced run keeps the one it has), and emit ``setup_s`` and
    ``load_s`` as the medians, with the dsdgen and full-save layer
    metrics.  Called when the workload is done with the store and
    ``peak_rss_mb`` has been read."""
    builds, loads = [built], [load.elapsed]
    with ctx.tracer.span("harness.setup"):
        while not ctx.traced and len(builds) < STORE_SETUPS:
            builds.append(build_store(ctx, scale_factor, path))
            loads.append(open_store(ctx, path)[1].elapsed)
            gc.collect()
    ctx.emit("load_s", median(loads))
    for name, key in (
        ("setup_s", "total_s"),
        ("dsdgen.generate_s", "generate_s"),
        ("dsdgen.load_tables_s", "load_tables_s"),
        ("dsdgen.gather_stats_s", "gather_stats_s"),
        ("engine.colstore.save_full_s", "save_full_s"),
    ):
        ctx.emit(name, median([build[key] for build in builds]))
    ctx.emit("dsdgen.rows_per_s", built["rows"] / ctx.metrics["dsdgen.generate_s"])


def finish_memory_setup(ctx: RunContext, config, loads: list) -> None:
    """Generate and load ``config``'s database again until there are
    ``MEMORY_SETUPS`` ``LoadResult`` s (a traced run keeps those it has),
    and emit ``setup_s`` (untimed generation) and ``load_s`` as the
    medians.  Called when the workload is done and ``peak_rss_mb`` read."""
    from repro.runner import BenchmarkRun

    loads = list(loads)
    with ctx.tracer.span("harness.setup"):
        while not ctx.traced and len(loads) < MEMORY_SETUPS:
            loads.append(BenchmarkRun(config).load_test())
            gc.collect()  # generated data holds reference cycles
    generate_s = median([load.untimed_generation for load in loads])
    ctx.emit("setup_s", generate_s)
    ctx.emit("load_s", median([load.elapsed for load in loads]))
    ctx.emit("dsdgen.generate_s", generate_s)
    ctx.emit("dsdgen.rows_per_s", loads[0].rows_loaded / generate_s)


def emit_peak_rss(ctx: RunContext) -> None:
    """``ru_maxrss`` of this interpreter so far (the driver starts one
    per run, so it is the workload's own)."""
    ctx.emit("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


# -- checking a runner query run ---------------------------------------------


def check_query_run(ctx: RunContext, bench, results: dict, query_run, label: str,
                    streams) -> int:
    """Count every query of one ``BenchmarkRun.query_run`` as an
    operation: it fails when the runner reported it failed, when the
    kept results give another row count than the runner saw, or (after
    the run, against the pins) when its digest is wrong.  ``results`` is
    the probe's ``sql -> Result`` of that phase.  Returns the number of
    rows the queries returned."""
    timings = {(t.stream, t.template_id): t for t in query_run.timings}
    returned = 0
    for stream in streams:
        start = time.perf_counter()
        with ctx.tracer.span("qgen.stream", stream=stream):
            queries = bench.qgen.generate_stream(stream)
        ctx.add("qgen.stream_s", time.perf_counter() - start)
        ctx.add("qgen.statements", sum(len(q.statements) for q in queries))
        for query in queries:
            key = f"{label}.s{stream}.t{query.template_id}"
            timing = timings.get((stream, query.template_id))
            if timing is None or timing.status != "ok":
                ctx.op(False, f"{key}: {getattr(timing, 'status', 'missing')}")
                continue
            rows = []
            for statement in query.statements:
                result = results.get(statement)
                if result is not None:
                    rows.extend(result.rows())
            returned += len(rows)
            answer = digest_rows(rows)
            ctx.check_answer(key, answer, [timing.rows, answer[1]])
    return returned


# -- data-maintenance layers -------------------------------------------------

#: the 12 operations fold into the paper's three function groups
MAINTENANCE_GROUPS = ("DM", "LF", "DF")


def add_maintenance_layers(ctx: RunContext, operations) -> None:
    """Fold ``MaintenanceResult`` records into per-group self time and
    rows (``DM_*`` dimension updates, ``LF_*`` fact inserts, ``DF_*``
    fact deletes) and the auxiliary-structure maintenance time."""
    for result in operations:
        group = result.operation.split("_")[0]
        if group in MAINTENANCE_GROUPS:
            ctx.add(f"maintenance.{group}.self_s", result.elapsed)
            ctx.add(f"maintenance.{group}.rows", result.rows_affected)
            ctx.add("maintenance.dml_s", result.elapsed)
            ctx.add("maintenance.rows", result.rows_affected)
        else:
            ctx.add("maintenance.aux_s", result.elapsed)


def emit_maintenance_rate(ctx: RunContext) -> float:
    """Refresh rows applied per second of the 12 operations."""
    rate = ctx.sums["maintenance.rows"] / ctx.sums["maintenance.dml_s"]
    ctx.emit("maintenance.rows_per_s", rate)
    return rate


# -- runner layers -----------------------------------------------------------


def add_runner_layers(ctx, query_run, executing_s: float) -> None:
    """What the stream scheduler costs one query run: the share of the
    streams' wall time not spent inside ``Database.execute``
    (``executing_s`` is the sum of its ``Result.elapsed``), and how
    uneven the streams were (slowest ÷ fastest)."""
    per_stream: dict[int, float] = {}
    for timing in query_run.timings:
        per_stream[timing.stream] = per_stream.get(timing.stream, 0.0) + timing.elapsed
    ctx.add(
        "runner.overhead_frac",
        1.0 - executing_s / (len(per_stream) * query_run.elapsed),
    )
    ctx.add(
        "runner.stream_imbalance",
        max(per_stream.values()) / min(per_stream.values()),
    )
    ctx.add("runner.retries", query_run.retries)


def emit_runner_layers(ctx: RunContext, query_runs: int, latencies: list) -> None:
    """Turn the two sums of ``add_runner_layers`` into means, and give
    the geometric mean of the query latencies (the roadmap's target for
    the serial hot path)."""
    for name in ("runner.overhead_frac", "runner.stream_imbalance"):
        ctx.emit(name, ctx.sums.pop(name) / query_runs)
    ctx.emit("runner.query_geomean_ms", geometric_mean(latencies) * 1000.0)
