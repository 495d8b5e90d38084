"""Benchmark execution rules (§5.2, Figure 11).

The benchmark test is a *database load test* followed by a *performance
test*::

    Load  →  Query Run 1  →  Data Maintenance  →  Query Run 2

* The load test times table loading, auxiliary-structure creation,
  constraint validation and statistics gathering (data *generation* is
  untimed, as in the spec).
* Each query run executes S concurrent streams; each stream runs all
  99 templates in its own permuted order with its own substitutions.
* The data-maintenance run applies one refresh set per stream through
  the 12 operations, then maintains auxiliary structures — whose cost
  Query Run 2 would otherwise expose.

Robustness (§5's compliance rule says the metric is valid only when
*every* query in *every* stream completes): each query runs inside a
containment boundary — failures become ``QueryTiming(status=...)``
records instead of killing the stream, transient failures retry with
capped exponential backoff + jitter, every completed query is
journaled to a crash-safe checkpoint (``BenchmarkConfig.checkpoint_path``)
so ``resume=True`` skips finished work, and per-query resource bounds
(``query_timeout_s`` / ``query_mem_budget_bytes``) flow into the
engine's governor.  A run with any terminally failed query is reported
non-compliant (``BenchmarkResult.compliant``).
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from ..obs import (
    MetricsSampler,
    PlanQualityAggregator,
    PoolProfiler,
    StatementStore,
    Tracer,
    get_registry,
    latency_percentiles,
    set_profiler,
)
from ..dsdgen import DsdGen, GeneratedData, minimum_streams
from ..dsdgen.generator import load_tables
from ..engine import Database, OptimizerSettings
from ..engine.errors import ConstraintError, failure_status
from ..engine.parallel import get_pool
from ..maintenance import RefreshGenerator, run_all
from ..qgen import QGen, build_catalog
from ..schema import AD_HOC_TABLES, ALL_TABLES
from .checkpoint import CheckpointJournal, CheckpointState, load_checkpoint
from .metric import MetricInputs, qphds, total_queries

#: materialized views created on the reporting (catalog) channel when
#: auxiliary structures are enabled; Q20-family queries rewrite onto the
#: first, brand queries onto the second, call-center reporting onto the
#: third
REPORTING_MATVIEWS = {
    "mv_catalog_item_date": """
        SELECT i_item_id, i_item_desc, i_category, i_class, i_current_price,
               d_date, SUM(cs_ext_sales_price)
        FROM catalog_sales, item, date_dim
        WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk
        GROUP BY i_item_id, i_item_desc, i_category, i_class,
                 i_current_price, d_date
    """,
    "mv_catalog_brand_month": """
        SELECT d_year, d_moy, i_brand, i_brand_id, i_manager_id,
               SUM(cs_ext_sales_price)
        FROM catalog_sales, item, date_dim
        WHERE cs_sold_date_sk = d_date_sk AND cs_item_sk = i_item_sk
        GROUP BY d_year, d_moy, i_brand, i_brand_id, i_manager_id
    """,
    "mv_call_center_profit": """
        SELECT cc_name, cc_manager, SUM(cs_net_profit), COUNT(*)
        FROM catalog_sales, call_center
        WHERE cs_call_center_sk = cc_call_center_sk
        GROUP BY cc_name, cc_manager
    """,
}

#: bitmap join indexes on reporting-channel fact foreign keys (complex
#: aux structures — only legal on the catalog channel)
REPORTING_BITMAP_INDEXES = (
    ("catalog_sales", "cs_sold_date_sk"),
    ("catalog_sales", "cs_item_sk"),
    ("catalog_sales", "cs_call_center_sk"),
)

#: basic indexes (legal everywhere): business keys and fact date columns
BASIC_HASH_INDEXES = (
    ("customer", "c_customer_id"),
    ("customer_address", "ca_address_id"),
    ("item", "i_item_id"),
    ("store", "s_store_id"),
    ("call_center", "cc_call_center_id"),
    ("web_site", "web_site_id"),
    ("web_page", "wp_web_page_id"),
    ("warehouse", "w_warehouse_id"),
    ("promotion", "p_promo_id"),
    ("catalog_page", "cp_catalog_page_id"),
    ("date_dim", "d_date"),
)

BASIC_SORTED_INDEXES = (
    ("store_sales", "ss_sold_date_sk"),
    ("store_returns", "sr_returned_date_sk"),
    ("catalog_sales", "cs_sold_date_sk"),
    ("catalog_returns", "cr_returned_date_sk"),
    ("web_sales", "ws_sold_date_sk"),
    ("web_returns", "wr_returned_date_sk"),
)


@dataclass
class BenchmarkConfig:
    scale_factor: float = 0.01
    #: number of concurrent query streams; None = the Figure 12 minimum
    streams: Optional[int] = None
    seed: int = 19620718
    #: open this persistent column store (written by ``dsdgen --store``
    #: or ``Database.save``) instead of generating + loading; the
    #: store's recorded scale factor and seed override the two fields
    #: above so query substitutions match the stored data
    db_path: Optional[str] = None
    #: create the reporting-channel aux structures (matviews + bitmaps)
    use_aux_structures: bool = True
    #: enforce the official discrete scale factors
    strict: bool = False
    #: enforce the ad-hoc implementation rules (complex aux structures
    #: restricted to the reporting channel)
    enforce_implementation_rules: bool = True
    #: run every query under a stats collector and aggregate per-operator
    #: Q-error into the full-disclosure report (adds per-query overhead,
    #: so it is opt-in)
    plan_quality: bool = False
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    #: refresh-set sizing
    update_fraction: float = 0.02
    insert_fraction: float = 0.02
    #: 3-year total cost of ownership for $/QphDS (synthetic price book)
    system_price: float = 150_000.0
    #: per-query resource bounds, threaded into the engine's governor
    query_timeout_s: Optional[float] = None
    query_mem_budget_bytes: Optional[float] = None
    #: morsel-parallel workers for the engine's hot operators (None or
    #: 1 = serial).  Query streams and operator morsels share the one
    #: pool: with workers set, streams are scheduled on it too, and a
    #: saturated stream runs its morsels inline.  Results are
    #: byte-identical at any worker count.
    workers: Optional[int] = None
    #: retry policy for *transient* query failures (exponential backoff
    #: with jitter, capped)
    max_query_retries: int = 2
    retry_backoff_s: float = 0.05
    retry_backoff_cap_s: float = 1.0
    #: crash-safe journal of completed queries; with ``resume=True`` a
    #: journaled run restarts without re-executing finished queries
    checkpoint_path: Optional[str] = None
    resume: bool = False
    #: optional :class:`~repro.faults.FaultInjector`, installed on the
    #: database for the duration of each query run (load and data
    #: maintenance are never fault-injected — a corrupted load would
    #: invalidate the whole test, not degrade it)
    faults: Optional[object] = None
    #: sample the metrics registry on a background thread for the
    #: duration of the run (the time-series lands in
    #: ``BenchmarkResult.metrics_series``; ``sample_metrics_path``
    #: additionally mirrors each sample as one JSONL line)
    sample_metrics: bool = False
    sample_interval_s: float = 0.25
    sample_metrics_path: Optional[str] = None
    #: journal every executed statement into a fingerprinted
    #: :class:`~repro.obs.statements.StatementStore` at this path; the
    #: aggregates land in ``BenchmarkResult.statements`` and stay
    #: queryable through ``sys.statements`` afterwards
    statement_store_path: Optional[str] = None

    def resolved_streams(self) -> int:
        return self.streams or minimum_streams(self.scale_factor)


@dataclass
class QueryTiming:
    stream: int
    template_id: int
    name: str
    query_class: str
    channel_part: str
    elapsed: float
    rows: int
    used_view: Optional[str]
    #: "ok" | "failed" | "timeout" | "cancelled"
    status: str = "ok"
    attempts: int = 1
    error: str = ""
    spill_partitions: int = 0
    spilled_bytes: int = 0


@dataclass
class QueryRunResult:
    elapsed: float
    timings: list[QueryTiming] = field(default_factory=list)

    @property
    def queries_executed(self) -> int:
        return len(self.timings)

    @property
    def failures(self) -> list[QueryTiming]:
        return [t for t in self.timings if t.status != "ok"]

    @property
    def retries(self) -> int:
        return sum(t.attempts - 1 for t in self.timings)

    def latency_percentiles(self) -> dict:
        """p50/p90/p95/p99 of successful query latencies: the run
        overall plus each stream separately (keyed by stream id)."""
        ok = [t for t in self.timings if t.status == "ok"]
        per_stream: dict[int, list[float]] = defaultdict(list)
        for timing in ok:
            per_stream[timing.stream].append(timing.elapsed)
        return {
            "overall": latency_percentiles([t.elapsed for t in ok]),
            "streams": {
                str(stream): latency_percentiles(values)
                for stream, values in sorted(per_stream.items())
            },
        }


@dataclass
class LoadResult:
    elapsed: float
    untimed_generation: float
    rows_loaded: int
    aux_structures: int


@dataclass
class MaintenanceRunResult:
    elapsed: float
    operations: list = field(default_factory=list)


def validate_primary_keys(db: Database) -> None:
    """Constraint validation — part of the timed load (§5.2)."""
    for name, schema in ALL_TABLES.items():
        pk = schema.primary_key
        if len(pk) != 1:
            continue
        column = db.table(name).scan_column(pk[0])
        if column.null.any():
            raise ConstraintError(f"NULL primary key in {name}")
        import numpy as np

        valid = column.data
        if len(np.unique(valid)) != len(valid):
            raise ConstraintError(f"duplicate primary key in {name}")


class BenchmarkRun:
    """Drives one full benchmark test against a fresh database.

    Every phase runs under a :class:`~repro.obs.Tracer` span: the
    benchmark emits a per-phase / per-stream / per-query *span
    timeline* (``span_timeline()``, ``export_trace()``) that the
    full-disclosure report consumes.  Pass ``tracer=None`` to keep the
    default enabled tracer, or a disabled one to opt out."""

    def __init__(
        self,
        config: BenchmarkConfig,
        tracer: Optional[Tracer] = None,
        journal: Optional[CheckpointJournal] = None,
        resume_state: Optional[CheckpointState] = None,
    ):
        self.config = config
        self.db: Optional[Database] = None
        self.data: Optional[GeneratedData] = None
        #: the generator context behind query substitutions and refresh
        #: sets; on the ``db_path`` load path it is rebuilt from the
        #: store's (scale, seed) without regenerating any data
        self.context = None
        self.qgen: Optional[QGen] = None
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        self.journal = journal
        self.resume_state = resume_state
        self.queries_skipped = 0

    # -- load test -------------------------------------------------------------

    def load_test(self) -> LoadResult:
        if self.config.db_path:
            return self._load_from_store()
        config = self.config
        with self.tracer.installed(), self.tracer.span("phase:load") as phase:
            with self.tracer.span("generate") as span:
                gen_start = time.perf_counter()
                generator = DsdGen(
                    config.scale_factor, seed=config.seed, strict=config.strict
                )
                self.data = generator.generate()
                untimed = time.perf_counter() - gen_start
                span.set(timed=False, rows=sum(self.data.row_counts.values()))

            db = Database(
                optimizer_settings=config.optimizer, workers=config.workers
            )
            if config.statement_store_path:
                db.statement_store = StatementStore(config.statement_store_path)
            start = time.perf_counter()
            with self.tracer.span("load_tables"):
                load_tables(db, self.data)
            aux = 0
            with self.tracer.span("aux_structures") as span:
                aux = self._create_aux_structures(db)
                span.set(count=aux)
            with self.tracer.span("validate_constraints"):
                validate_primary_keys(db)
            with self.tracer.span("gather_stats"):
                db.gather_stats()
            elapsed = time.perf_counter() - start
            if config.plan_quality:
                db.plan_quality = PlanQualityAggregator()
            self.db = db
            self.context = self.data.context
            self.qgen = QGen(self.context, build_catalog())
            rows = sum(self.data.row_counts.values())
            phase.set(rows=rows, aux_structures=aux, untimed_generation=untimed)
        return LoadResult(elapsed, untimed, rows, aux)

    def _create_aux_structures(self, db: Database) -> int:
        """Indexes / matviews / the aux-restriction policy (shared by
        the generate path and the ``db_path`` store-open path)."""
        config = self.config
        aux = 0
        for table, column in BASIC_HASH_INDEXES:
            db.create_index(table, column, "hash")
            aux += 1
        for table, column in BASIC_SORTED_INDEXES:
            db.create_index(table, column, "sorted")
            aux += 1
        if config.enforce_implementation_rules:
            db.catalog.restrict_aux_on = set(AD_HOC_TABLES)
        if config.use_aux_structures:
            for table, column in REPORTING_BITMAP_INDEXES:
                db.create_index(table, column, "bitmap")
                aux += 1
            for name, sql in REPORTING_MATVIEWS.items():
                db.create_materialized_view(name, sql)
                aux += 1
        return aux

    def _load_from_store(self) -> LoadResult:
        """The ``db_path`` load path: open a persistent column store
        instead of generating + loading.

        The open is O(columns touched): tables attach as mmap-backed
        lazy columns, optimizer statistics come from the manifest, and
        neither PK validation nor ``gather_stats`` re-runs (both were
        part of the timed load that produced the store).  Only aux
        structures are built fresh — hash/sorted/bitmap indexes are
        lazy; materialized views execute their defining queries, which
        hydrates exactly the columns those queries touch."""
        config = self.config
        from ..dsdgen.context import GeneratorContext
        from ..engine.colstore import open_database

        with self.tracer.installed(), self.tracer.span("phase:load") as phase:
            db = Database(
                optimizer_settings=config.optimizer, workers=config.workers
            )
            if config.statement_store_path:
                db.statement_store = StatementStore(config.statement_store_path)
            start = time.perf_counter()
            with self.tracer.span("open_store") as span:
                open_database(db, config.db_path)
                info = db.store_info
                span.set(path=config.db_path, tables=len(info["tables"]))
            # the store records what data it holds; substitutions and
            # refresh sets must be derived from those values, not from
            # whatever the caller's defaults were
            if info.get("scale_factor") is not None:
                config.scale_factor = info["scale_factor"]
            if info.get("seed") is not None:
                config.seed = int(info["seed"])
            with self.tracer.span("aux_structures") as span:
                aux = self._create_aux_structures(db)
                span.set(count=aux)
            elapsed = time.perf_counter() - start
            if config.plan_quality:
                db.plan_quality = PlanQualityAggregator()
            self.db = db
            self.context = GeneratorContext(config.scale_factor, config.seed)
            self.context.ensure_key_pools()
            self.qgen = QGen(self.context, build_catalog())
            rows = sum(info["tables"].values())
            phase.set(rows=rows, aux_structures=aux, untimed_generation=0.0,
                      store=config.db_path)
        return LoadResult(elapsed, 0.0, rows, aux)

    # -- query runs -------------------------------------------------------------

    def _run_stream(
        self, stream: int, parent=None, run_label: str = "qr1"
    ) -> list[QueryTiming]:
        """Execute one stream's 99 queries under the containment
        boundary: per-query failures become degraded timings, and even
        a failure in stream machinery itself (query generation, tracer)
        returns the partial timings instead of propagating through the
        thread pool and killing the sibling streams."""
        timings: list[QueryTiming] = []
        registry = get_registry()
        with self.tracer.span(
            "stream", parent=parent, stream=stream
        ) as stream_span:
            try:
                for query in self.qgen.generate_stream(stream):
                    resumed = self._resumed_timing(run_label, stream, query)
                    if resumed is not None:
                        timings.append(resumed)
                        self.queries_skipped += 1
                        if registry.enabled:
                            registry.counter("runner.queries_skipped").add()
                        continue
                    timing = self._run_query(query, stream, run_label)
                    if registry.enabled:
                        registry.counter("runner.queries").add()
                        if timing.status == "ok":
                            registry.histogram(
                                "runner.query_seconds",
                                labels={"class": query.query_class},
                            ).observe(timing.elapsed)
                    if self.journal is not None:
                        self.journal.record_query(run_label, timing)
                    timings.append(timing)
            except Exception as exc:  # containment: never kill the phase
                stream_span.set(
                    error=f"{type(exc).__name__}: {exc}", partial=True
                )
                if registry.enabled:
                    registry.counter("runner.stream_failures").add()
        return timings

    def _resumed_timing(
        self, run_label: str, stream: int, query
    ) -> Optional[QueryTiming]:
        """The journaled timing for an already-completed query (resume
        path), or ``None`` when the query still has to run.  Journaled
        *failures* re-run — resume must converge on a compliant run,
        not replay its failures."""
        if self.resume_state is None:
            return None
        if not self.resume_state.has_query(run_label, stream, query.template_id):
            return None
        record = self.resume_state.query_record(
            run_label, stream, query.template_id
        )
        if record.get("status", "ok") != "ok":
            return None
        fields = {
            f: record[f]
            for f in QueryTiming.__dataclass_fields__
            if f in record
        }
        return QueryTiming(**fields)

    def _run_query(self, query, stream: int, run_label: str) -> QueryTiming:
        """One query with retry: transient failures (duck-typed on a
        ``transient`` attribute, e.g. injected faults) retry with
        capped exponential backoff + deterministic jitter; anything
        else — timeout, cancel, hard error — degrades immediately."""
        config = self.config
        registry = get_registry()
        jitter = random.Random(f"{config.seed}:{stream}:{query.template_id}")
        attempts = 0
        while True:
            attempts += 1
            status, error, transient = "ok", "", False
            rows = 0
            used_view = None
            spill_parts = 0
            spill_bytes = 0
            with self.tracer.span(
                "query", stream=stream, template=query.template_id,
                query_name=query.name, query_class=query.query_class,
            ) as span:
                start = time.perf_counter()
                try:
                    for statement in query.statements:
                        result = self.db.execute(
                            statement,
                            timeout_s=config.query_timeout_s,
                            mem_budget_bytes=config.query_mem_budget_bytes,
                        )
                        rows += len(result)
                        used_view = used_view or result.rewritten_from_view
                        spill_parts += result.spill_partitions
                        spill_bytes += result.spilled_bytes
                except Exception as exc:
                    status = failure_status(exc)
                    error = f"{type(exc).__name__}: {exc}"
                    transient = bool(getattr(exc, "transient", False))
                elapsed = time.perf_counter() - start
                span.set(rows=rows, used_view=used_view, attempts=attempts)
                if status != "ok":
                    span.set(status=status, error=error)
                if spill_parts:
                    span.set(
                        spill_partitions=spill_parts, spilled_bytes=spill_bytes
                    )
            if status == "ok":
                return QueryTiming(
                    stream=stream,
                    template_id=query.template_id,
                    name=query.name,
                    query_class=query.query_class,
                    channel_part=query.channel_part,
                    elapsed=elapsed,
                    rows=rows,
                    used_view=used_view,
                    attempts=attempts,
                    spill_partitions=spill_parts,
                    spilled_bytes=spill_bytes,
                )
            if transient and attempts <= config.max_query_retries:
                if registry.enabled:
                    registry.counter("runner.query_retries").add()
                store = self.db.statement_store
                if store is not None:
                    for statement in query.statements:
                        store.note_retry(statement)
                backoff = min(
                    config.retry_backoff_s * (2 ** (attempts - 1)),
                    config.retry_backoff_cap_s,
                )
                time.sleep(backoff * (0.5 + 0.5 * jitter.random()))
                continue
            if registry.enabled:
                registry.counter("runner.query_failures").add()
            return QueryTiming(
                stream=stream,
                template_id=query.template_id,
                name=query.name,
                query_class=query.query_class,
                channel_part=query.channel_part,
                elapsed=elapsed,
                rows=rows,
                used_view=used_view,
                status=status,
                attempts=attempts,
                error=error,
            )

    def query_run(self, run_number: int) -> QueryRunResult:
        streams = self.config.resolved_streams()
        run_label = f"qr{run_number}"
        # the single-stream phase is the "power"-style run; concurrent
        # streams exercise throughput (§5.2 names both query runs)
        phase_name = "phase:power" if streams == 1 else "phase:throughput"
        skipped_before = self.queries_skipped
        # faults are confined to query runs: installed here, removed in
        # the finally even when the phase degrades
        self.db.fault_injector = self.config.faults
        try:
            with self.tracer.installed(), self.tracer.span(
                phase_name, run=run_number, streams=streams
            ) as phase:
                start = time.perf_counter()
                # stream ids differ between run 1 and run 2 so substitutions differ
                base = (run_number - 1) * streams
                shared_pool = get_pool(self.config.workers)
                if streams == 1:
                    all_timings = [
                        self._run_stream(base, parent=phase, run_label=run_label)
                    ]
                elif shared_pool is not None:
                    # streams × morsels share the one worker pool: a
                    # stream saturating it runs its morsels inline, so
                    # total thread count stays at the configured workers
                    futures = [
                        shared_pool.submit(
                            self._run_stream, s, parent=phase,
                            run_label=run_label,
                        )
                        for s in range(base, base + streams)
                    ]
                    all_timings = [f.result() for f in futures]
                else:
                    with ThreadPoolExecutor(max_workers=streams) as pool:
                        all_timings = list(
                            pool.map(
                                lambda s: self._run_stream(
                                    s, parent=phase, run_label=run_label
                                ),
                                range(base, base + streams),
                            )
                        )
                elapsed = time.perf_counter() - start
        finally:
            self.db.fault_injector = None
        result = QueryRunResult(elapsed)
        for timings in all_timings:
            result.timings.extend(timings)
        result.elapsed = self._phase_elapsed(
            run_label, elapsed, result, self.queries_skipped - skipped_before
        )
        if self.journal is not None:
            self.journal.record_phase(run_label, result.elapsed)
        return result

    def _phase_elapsed(
        self,
        run_label: str,
        measured: float,
        result: QueryRunResult,
        skipped: int,
    ) -> float:
        """The phase elapsed time to report.  An uninterrupted run uses
        the wall clock.  A resumed run substitutes the journaled phase
        time when the whole phase had finished; a partially resumed
        phase approximates the full-phase time as the busiest stream's
        summed query time (wall clock would under-count skipped work)."""
        if self.resume_state is not None:
            journaled = self.resume_state.phase_elapsed(run_label)
            if journaled is not None:
                return journaled
            if skipped:
                per_stream: dict[int, float] = defaultdict(float)
                for timing in result.timings:
                    per_stream[timing.stream] += timing.elapsed
                busiest = max(per_stream.values(), default=0.0)
                return max(measured, busiest)
        return measured

    # -- data maintenance ----------------------------------------------------------

    def data_maintenance(self) -> MaintenanceRunResult:
        config = self.config
        generator = RefreshGenerator(
            self.context,
            update_fraction=config.update_fraction,
            insert_fraction=config.insert_fraction,
        )
        with self.tracer.installed(), self.tracer.span("phase:maintenance"):
            start = time.perf_counter()
            operations = []
            for stream in range(1, config.resolved_streams() + 1):
                refresh = generator.generate(refresh_round=stream)
                with self.tracer.span("refresh_set", stream=stream):
                    operations.extend(run_all(self.db, refresh, refresh_aux=False))
            # aux maintenance once, after all refresh sets (its cost belongs
            # to the DM run; deferring it further would distort Query Run 2)
            aux_start = time.perf_counter()
            with self.tracer.span("aux_maintenance"):
                self.db.refresh_matviews()
                self.db.catalog.rebuild_indexes()
            from ..maintenance import MaintenanceResult

            operations.append(
                MaintenanceResult("AUX", 0, time.perf_counter() - aux_start)
            )
            elapsed = time.perf_counter() - start
        # resume re-applies the DML (the database is in-memory, state
        # must be rebuilt) but reports the originally journaled time
        if self.resume_state is not None:
            journaled = self.resume_state.phase_elapsed("maintenance")
            if journaled is not None:
                elapsed = journaled
        if self.journal is not None:
            self.journal.record_phase("maintenance", elapsed)
        return MaintenanceRunResult(elapsed, operations)

    # -- observability ---------------------------------------------------------

    def span_timeline(self) -> list[dict]:
        """The finished spans of every phase so far, as JSON-ready
        dicts ordered by start time."""
        return self.tracer.export()

    def export_trace(self, path: str) -> None:
        """Write the span timeline to ``path`` as a JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.span_timeline(), handle, indent=2)


@dataclass
class BenchmarkResult:
    config: BenchmarkConfig
    load: LoadResult
    query_run_1: QueryRunResult
    maintenance: MaintenanceRunResult
    query_run_2: QueryRunResult
    qphds: float
    price_performance: float
    #: the JSON span timeline from the run's tracer (phase / stream /
    #: query spans) — the disclosure report's phase breakdown source
    trace: list = field(default_factory=list)
    #: plan-quality summary (worst Q-error operators) when the run was
    #: configured with ``plan_quality=True``
    plan_quality: Optional[dict] = None
    #: injection counts when the run was fault-injected
    fault_stats: Optional[dict] = None
    #: queries skipped because a resumed checkpoint had them journaled
    queries_resumed: int = 0
    #: the worker-pool "Parallelism profile" (occupancy, operator skew,
    #: utilization timeline) when the run used a pool
    parallelism: Optional[dict] = None
    #: registry time-series from the background sampler, when sampled
    metrics_series: list = field(default_factory=list)
    #: statement-store summary (top offenders by elapsed / spill) when
    #: the run was configured with ``statement_store_path``
    statements: Optional[dict] = None

    @property
    def all_timings(self) -> list[QueryTiming]:
        return self.query_run_1.timings + self.query_run_2.timings

    @property
    def latency(self) -> dict:
        """Latency percentiles: both query runs plus the combined set."""
        ok = [t.elapsed for t in self.all_timings if t.status == "ok"]
        return {
            "all": latency_percentiles(ok),
            "qr1": self.query_run_1.latency_percentiles(),
            "qr2": self.query_run_2.latency_percentiles(),
        }

    @property
    def compliant(self) -> bool:
        """§5 compliance: the metric is valid only when every query in
        every stream of both query runs ultimately completed."""
        expected = self.total_queries  # 198 * S covers both query runs
        timings = self.all_timings
        return len(timings) == expected and all(
            t.status == "ok" for t in timings
        )

    @property
    def metric_inputs(self) -> MetricInputs:
        return MetricInputs(
            scale_factor=self.config.scale_factor,
            streams=self.config.resolved_streams(),
            t_qr1=self.query_run_1.elapsed,
            t_dm=self.maintenance.elapsed,
            t_qr2=self.query_run_2.elapsed,
            t_load=self.load.elapsed,
        )

    @property
    def total_queries(self) -> int:
        return total_queries(self.config.resolved_streams())


def run_benchmark(config: BenchmarkConfig) -> tuple[BenchmarkResult, BenchmarkRun]:
    """Execute the Figure 11 sequence and compute the §5.3 metrics.

    With ``config.checkpoint_path`` set, completed queries are
    journaled as they finish; with ``config.resume`` also set, a prior
    journal (same scale/streams/seed — anything else is refused) lets
    the run skip already-finished queries, so a SIGKILLed benchmark
    picks up where the journal ends and produces one merged result."""
    from .metric import price_performance

    journal = None
    resume_state = None
    streams = config.resolved_streams()
    if config.checkpoint_path:
        if config.resume:
            resume_state = load_checkpoint(config.checkpoint_path)
            if resume_state is not None:
                resume_state.validate(config.scale_factor, streams, config.seed)
        journal = CheckpointJournal(
            config.checkpoint_path,
            config.scale_factor,
            streams,
            config.seed,
            append=resume_state is not None,
        )
    run = BenchmarkRun(config, journal=journal, resume_state=resume_state)
    # pool profiling rides along whenever the run is parallel: the
    # pool's instrumented path only activates when a profiler (or
    # tracer/registry) is live, so serial runs stay on the bare path
    profiler = None
    previous_profiler = None
    if config.workers is not None and config.workers > 1:
        profiler = PoolProfiler()
        previous_profiler = set_profiler(profiler)
    sampler = None
    if config.sample_metrics or config.sample_metrics_path:
        sampler = MetricsSampler(
            interval_s=config.sample_interval_s,
            path=config.sample_metrics_path,
        ).start()
    try:
        load = run.load_test()
        qr1 = run.query_run(1)
        dm = run.data_maintenance()
        qr2 = run.query_run(2)
        if journal is not None:
            journal.record_complete()
    finally:
        if journal is not None:
            journal.close()
        if sampler is not None:
            sampler.stop()
        if previous_profiler is not None:
            set_profiler(previous_profiler)
    inputs = MetricInputs(
        scale_factor=config.scale_factor,
        streams=streams,
        t_qr1=qr1.elapsed,
        t_dm=dm.elapsed,
        t_qr2=qr2.elapsed,
        t_load=load.elapsed,
    )
    metric = qphds(inputs, enforce_min_streams=config.strict)
    quality = None
    if run.db is not None and run.db.plan_quality is not None:
        quality = run.db.plan_quality.as_dict()
    result = BenchmarkResult(
        config=config,
        load=load,
        query_run_1=qr1,
        maintenance=dm,
        query_run_2=qr2,
        qphds=metric,
        price_performance=price_performance(config.system_price, metric),
        trace=run.span_timeline(),
        plan_quality=quality,
        fault_stats=config.faults.stats() if config.faults is not None else None,
        queries_resumed=run.queries_skipped,
        parallelism=profiler.as_dict() if profiler is not None else None,
        metrics_series=sampler.samples if sampler is not None else [],
    )
    store = run.db.statement_store if run.db is not None else None
    if store is not None:
        result.statements = store.as_dict()
        store.close()
    return result, run
