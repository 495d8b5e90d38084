"""The public engine facade: a small in-memory analytical database.

Typical use::

    db = Database()
    db.create_table(schema)           # TableSchema from repro.schema
    db.table("store_sales").append_rows(rows)
    db.gather_stats()
    result = db.execute("SELECT ... FROM store_sales, date_dim WHERE ...")
    for row in result.rows():
        ...

``execute`` accepts SELECT (with CTEs, set ops, windows), INSERT,
DELETE and UPDATE — plus an ``EXPLAIN [ANALYZE]`` prefix on any query,
returned as a one-column plan result. ``explain`` returns the
optimized plan as text and ``explain_analyze`` executes the query and
annotates every plan node with measured rows / elapsed / operator
counters (see :mod:`repro.obs`). Materialized views
(``create_materialized_view``) are matched transparently by query
rewrite when ``enable_matview_rewrite`` is on.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..obs import (
    ExecStatsCollector,
    annotate_plan,
    format_bytes,
    get_registry,
    plan_to_dict,
    q_error,
)
from .batch import Batch
from .catalog import Catalog
from .errors import EngineError, ExecutionError, PlanningError, failure_status
from .executor import Executor
from .expr import EvalContext, evaluate
from .governor import ResourceContext
from .parallel import get_pool
from .matview import MaterializedView, define_view, try_rewrite
from .optimizer import Optimizer, OptimizerSettings
from .planner import Planner
from .sql import ast_nodes as A
from .sql.parser import parse_query, parse_statement
from .systables import install_sys_tables, statement_touches_sys
from .types import Kind, TableSchema
from .vector import Vector


@dataclass
class Result:
    """A query result: ordered column names plus row tuples."""

    column_names: list[str]
    _batch: Batch
    elapsed: float = 0.0
    rewritten_from_view: Optional[str] = None
    rowcount: int = 0  # affected rows for DML
    spill_partitions: int = 0  # operator spill fan-out under a memory budget
    spilled_bytes: int = 0  # bytes written to spill files

    def rows(self) -> list[tuple]:
        return self._batch.rows()

    def column(self, name: str) -> list[Any]:
        return self._batch.column(name).to_list()

    def scalar(self) -> Any:
        rows = self.rows()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise ExecutionError("scalar() requires a 1x1 result")
        return rows[0][0]

    def __len__(self) -> int:
        return self._batch.num_rows

    def to_text(self, max_rows: int = 20) -> str:
        header = " | ".join(self.column_names)
        lines = [header, "-" * len(header)]
        for row in self.rows()[:max_rows]:
            lines.append(" | ".join(str(v) for v in row))
        if len(self) > max_rows:
            lines.append(f"... ({len(self)} rows)")
        return "\n".join(lines)


#: recognizes an EXPLAIN [ANALYZE] prefix handed to ``execute``
_EXPLAIN_RE = re.compile(r"^\s*EXPLAIN(\s+ANALYZE)?\s+", re.IGNORECASE)


@dataclass(frozen=True)
class ExecOptions:
    """One statement's execution options, resolved against the
    database-wide defaults once at the public boundary
    (:meth:`resolve`).  Everything the five knobs do happens here and
    nowhere else: the statement's query-level fault roll, its
    :class:`ResourceContext` and its worker pool."""

    timeout_s: Optional[float]
    mem_budget_bytes: Optional[float]
    cancel: Any  # a ``threading.Event`` or ``None``
    workers: Optional[int]
    faults: Any  # a :class:`~repro.faults.FaultInjector` or ``None``

    @classmethod
    def resolve(cls, db, timeout_s, mem_budget_bytes, cancel, workers, faults):
        """Per-call knobs fall back to ``db``'s worker count and fault
        injector."""
        return cls(
            timeout_s,
            mem_budget_bytes,
            cancel,
            db.workers if workers is None else workers,
            faults if faults is not None else db.fault_injector,
        )

    def roll_query_fault(self, label: str) -> None:
        """The once-per-statement injection point."""
        if self.faults is not None:
            self.faults.at_query(label)

    def resource(self) -> Optional[ResourceContext]:
        """A :class:`ResourceContext` for one statement, or ``None``
        when nothing is bounded (so ungoverned statements skip every
        per-operator check)."""
        if (
            self.timeout_s is None
            and self.mem_budget_bytes is None
            and self.cancel is None
            and self.faults is None
        ):
            return None
        return ResourceContext(
            memory_budget_bytes=self.mem_budget_bytes,
            timeout_s=self.timeout_s,
            cancel=self.cancel,
            faults=self.faults,
        )

    def pool(self):
        """The shared worker pool for one statement (``None`` = serial)."""
        return get_pool(self.workers)


def _view_header(used_view: Optional[str]) -> list[str]:
    if used_view:
        return [f"-- rewritten to use materialized view {used_view}"]
    return []


def _annotated_text(result: Result, plan, collector: ExecStatsCollector) -> str:
    """EXPLAIN ANALYZE output: the plan annotated with what the
    collector measured, under the rewrite header, over a totals line."""
    lines = _view_header(result.rewritten_from_view)
    lines.append(annotate_plan(plan, collector))
    lines.append(f"Execution: rows={len(result)} "
                 f"elapsed={result.elapsed * 1000:.3f}ms "
                 f"peak_mem={format_bytes(collector.peak_memory_bytes)}")
    return "\n".join(lines)


def _worst_q_error(plan, collector: ExecStatsCollector):
    """The worst per-operator cardinality Q-error of one executed
    plan, or ``None`` when no operator had both an estimate and a
    measurement."""
    worst = None
    for node in plan.walk():
        stats = collector.stats_for(node)
        est = node.estimated_rows
        if stats is None or est is None:
            continue
        value = q_error(est, stats.rows_out)
        if worst is None or value > worst:
            worst = value
    return worst


class Database:
    """The engine facade: DDL, SQL execution, materialized views, statistics."""
    def __init__(
        self,
        optimizer_settings: OptimizerSettings | None = None,
        enable_matview_rewrite: bool = True,
        workers: Optional[int] = None,
        statement_store=None,
    ):
        self.catalog = Catalog()
        self.optimizer_settings = optimizer_settings or OptimizerSettings()
        self.enable_matview_rewrite = enable_matview_rewrite
        #: default morsel-parallelism for every statement (``None`` or
        #: 1 = serial); per-call ``workers=`` overrides it.  Results are
        #: byte-identical at any worker count — see
        #: :mod:`repro.engine.parallel`
        self.workers = workers
        #: optional :class:`~repro.obs.PlanQualityAggregator`; when set,
        #: every query executes under a stats collector and folds its
        #: per-operator Q-error records into the aggregator (the
        #: benchmark runner installs one for plan-quality reporting)
        self.plan_quality = None
        #: optional :class:`~repro.faults.FaultInjector`; when set, every
        #: query execution rolls its query- and operator-level injection
        #: points (the runner installs one for the duration of fault-
        #: injected query runs)
        self.fault_injector = None
        #: optional :class:`~repro.obs.StatementStore`; when set, every
        #: statement run under a source text (``execute``,
        #: ``explain_analyze``, ``execute_ast`` given one) is
        #: fingerprinted and its outcome folded into per-fingerprint
        #: aggregates (queryable as ``sys.statements`` /
        #: ``sys.queries``).  Statements that scan ``sys.*`` tables are
        #: never recorded — introspection must not pollute the data it
        #: reads.  The disabled path costs one ``is None`` check.
        self.statement_store = statement_store
        #: ``(plan, collector)`` of the most recent statement executed
        #: under a stats collector — the backing state of
        #: ``sys.operators``
        self.last_profiled = None
        #: absolute path of the column store this database was opened
        #: from / last saved to (incremental saves key off it), plus a
        #: small info dict (scale factor, seed, per-table row counts)
        self._store_path: Optional[str] = None
        self.store_info: Optional[dict] = None
        install_sys_tables(self)

    # -- persistence ---------------------------------------------------------

    def save(
        self,
        path: str,
        block_rows: Optional[int] = None,
        scale_factor: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> dict:
        """Persist every base table to the column store at ``path``
        (see :mod:`repro.engine.colstore`).  Saving back to the store
        this database came from rewrites only columns DML touched.
        Returns the written manifest."""
        from .colstore import save_database

        return save_database(
            self, path, block_rows=block_rows,
            scale_factor=scale_factor, seed=seed,
        )

    @classmethod
    def open(cls, path: str, **kwargs) -> "Database":
        """Open a persistent column store as a new database.

        Columns stay on disk until first scanned (lazy mmap-backed
        hydration) and optimizer statistics come from the manifest, so
        opening costs O(columns touched) — not a full load.  Keyword
        arguments are forwarded to the constructor."""
        from .colstore import open_database

        db = cls(**kwargs)
        open_database(db, path)
        return db

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: TableSchema):
        return self.catalog.create_table(schema)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def table(self, name: str):
        return self.catalog.table(name)

    def create_index(self, table: str, column: str, index_type: str = "hash"):
        return self.catalog.create_index(table, column, index_type)

    def gather_stats(self, table: Optional[str] = None) -> None:
        self.catalog.gather_stats(table)

    def create_materialized_view(self, name: str, sql: str) -> MaterializedView:
        view = define_view(name, sql, self.catalog, self._materialize)
        self.catalog.register_matview(view)
        return view

    def refresh_matviews(self) -> int:
        """Recompute every materialized view (data-maintenance step)."""
        for view in self.catalog.matviews:
            view.refresh(self._materialize)
        return len(self.catalog.matviews)

    # -- queries -----------------------------------------------------------------

    def execute(
        self,
        sql: str,
        timeout_s: Optional[float] = None,
        mem_budget_bytes: Optional[float] = None,
        cancel=None,
        workers: Optional[int] = None,
        faults=None,
    ) -> Result:
        """Execute one SQL statement.

        ``timeout_s`` / ``mem_budget_bytes`` / ``cancel`` (a
        ``threading.Event``) bound the statement's resources via a
        :class:`~repro.engine.governor.ResourceContext`: past the
        deadline or with the flag set the engine raises
        :class:`~repro.engine.errors.QueryTimeout` /
        :class:`~repro.engine.errors.QueryCancelled` at the next batch
        boundary; over the memory budget operators spill to temp files
        instead of failing (totals in ``Result.spill_partitions`` /
        ``Result.spilled_bytes``).  ``workers`` (default: the
        database-wide setting) fans the hot operators out over the
        shared morsel pool; the result is byte-identical to serial.
        ``faults`` overrides the database-wide fault injector for this
        statement only (the query service scopes injection per tenant).
        All five apply identically to queries, DML and
        ``EXPLAIN ANALYZE``; ``Result.elapsed`` covers the whole
        statement, parsing included.
        """
        opts = ExecOptions.resolve(
            self, timeout_s, mem_budget_bytes, cancel, workers, faults
        )
        match = _EXPLAIN_RE.match(sql)
        if match is None:
            return self._run(sql, opts, sql)[0]
        start = time.perf_counter()
        body = sql[match.end():]
        if match.group(1):
            text = _annotated_text(*self._run(body, opts, sql, profile=True))
        else:
            text = self.explain(body)
        lines = Vector.from_values(Kind.STR, text.splitlines())
        return Result(
            ["QUERY PLAN"], Batch({"QUERY PLAN": lines}),
            elapsed=time.perf_counter() - start,
        )

    def execute_ast(
        self,
        query: A.Query,
        sql: str = "",
        timeout_s: Optional[float] = None,
        mem_budget_bytes: Optional[float] = None,
        cancel=None,
        workers: Optional[int] = None,
        faults=None,
    ) -> Result:
        """Execute an already-parsed query AST (the differential-testing
        harness runs shrunk ASTs without a render/re-parse round trip).
        ``sql`` is the source text the caller holds for it: the
        statement is recorded under that text, or, without one, only
        observed in ``engine.statement_seconds``."""
        opts = ExecOptions.resolve(
            self, timeout_s, mem_budget_bytes, cancel, workers, faults
        )
        return self._run(query, opts, sql)[0]

    def explain(self, sql: str) -> str:
        plan, used_view = self._explain_plan(sql)
        return "\n".join(_view_header(used_view) + [plan.explain()])

    def explain_dict(self, sql: str) -> dict:
        """:meth:`explain` for machine consumers: the optimized plan
        (with optimizer row estimates) as JSON-ready dicts, without
        executing the query."""
        plan, used_view = self._explain_plan(sql)
        return {
            "sql": sql,
            "rewritten_from_view": used_view,
            "plan": plan_to_dict(plan),
        }

    def explain_analyze(
        self,
        sql: str,
        timeout_s: Optional[float] = None,
        mem_budget_bytes: Optional[float] = None,
        cancel=None,
        workers: Optional[int] = None,
        faults=None,
    ) -> str:
        """Execute ``sql`` and return the optimized plan tree annotated
        with per-node measured rows, elapsed time, loop counts and
        operator-specific counters (hash build sizes, bitmap probes,
        CTE-memo hits, spill partitions/bytes under a memory budget,
        ``workers=`` / ``morsels=`` fan-out under a worker pool)."""
        opts = ExecOptions.resolve(
            self, timeout_s, mem_budget_bytes, cancel, workers, faults
        )
        return _annotated_text(*self._run(sql, opts, sql, profile=True))

    def explain_analyze_dict(
        self,
        sql: str,
        timeout_s: Optional[float] = None,
        mem_budget_bytes: Optional[float] = None,
        cancel=None,
        workers: Optional[int] = None,
        faults=None,
    ) -> dict:
        """:meth:`explain_analyze` for machine consumers: the annotated
        plan tree as JSON-ready dicts plus execution totals."""
        opts = ExecOptions.resolve(
            self, timeout_s, mem_budget_bytes, cancel, workers, faults
        )
        result, plan, collector = self._run(sql, opts, sql, profile=True)
        return {
            "sql": sql,
            "rewritten_from_view": result.rewritten_from_view,
            "rows": len(result),
            "elapsed": result.elapsed,
            "peak_memory_bytes": collector.peak_memory_bytes,
            "plan": plan_to_dict(plan, collector),
        }

    # -- the statement pipeline ------------------------------------------------------

    def _run(self, source, opts: ExecOptions, sql: str = "", profile: bool = False):
        """The one way a statement runs.  ``source`` is SQL text or a
        parsed statement, ``sql`` the text it is recorded under (none:
        histogram only), ``profile`` forces a stats collector (EXPLAIN
        ANALYZE).  Stages: clock start → parse → ``sys.*`` guard →
        fault roll → resource context + pool + collector → matview
        rewrite → plan + optimize → execute (query or DML) → spill
        cleanup → record.  Returns ``(result, plan, collector)``; the
        public entry points differ only in which of the three they
        present."""
        start = time.perf_counter()
        store = self.statement_store
        record = store is not None and bool(sql)
        pool = None
        try:
            statement = (
                parse_statement(source) if isinstance(source, str) else source
            )
            # recursion guard: introspection over sys.* tables is never
            # recorded into the store it reads, nor displaces the
            # profile sys.operators shows
            introspective = store is not None and statement_touches_sys(statement)
            record = record and not introspective
            if profile and not isinstance(statement, A.Query):
                raise PlanningError("EXPLAIN ANALYZE supports queries only")
            opts.roll_query_fault(sql or f"ast:{type(statement).__name__}")
            resource = opts.resource()
            pool = opts.pool()
            # a collector rides along whenever someone reads it: the
            # caller, the store (peak operator memory, Q-error) or the
            # plan-quality hook
            collector = (
                ExecStatsCollector()
                if profile or record or self.plan_quality is not None
                else None
            )
            try:
                result, plan = self._execute_statement(
                    statement, collector, resource, pool
                )
            finally:
                # spill files never outlive the statement — success,
                # timeout, cancellation or error
                if resource is not None:
                    resource.cleanup()
            if resource is not None:
                result.spill_partitions = resource.spill_partitions
                result.spilled_bytes = resource.spilled_bytes
        except Exception as exc:
            self._record(sql, record, time.perf_counter() - start, pool, error=exc)
            raise
        result.elapsed = time.perf_counter() - start
        if collector is not None and plan is not None:
            if self.plan_quality is not None:
                self.plan_quality.record(sql, plan, collector)
            if not introspective:
                self.last_profiled = (plan, collector)
        self._record(sql, record, result.elapsed, pool, result, plan, collector)
        return result, plan, collector

    def _record(
        self, sql, record, elapsed, pool,
        result=None, plan=None, collector=None, error=None,
    ) -> None:
        """The record stage: every statement lands in
        ``engine.statement_seconds``; ``record`` ones also in the
        statement store, as ``ok`` with their totals or under
        :func:`failure_status` with the error text."""
        registry = get_registry()
        if registry.enabled:
            registry.histogram("engine.statement_seconds").observe(elapsed)
        if not record:
            return
        if error is not None:
            outcome = {
                "status": failure_status(error),
                "error": f"{type(error).__name__}: {error}",
            }
        else:
            # a recorded statement always ran under a collector; DML
            # results are empty batches carrying a rowcount, and only
            # INSERT ... SELECT among them has a plan
            outcome = {
                "rows": len(result) or result.rowcount,
                "spill_partitions": result.spill_partitions,
                "spilled_bytes": result.spilled_bytes,
                "peak_memory_bytes": collector.peak_memory_bytes,
                "q_error": _worst_q_error(plan, collector) if plan else None,
            }
        self.statement_store.record(
            sql, elapsed, workers=getattr(pool, "workers", None) or 1, **outcome
        )

    def _execute_statement(
        self,
        statement: A.Statement,
        collector: ExecStatsCollector | None,
        resource: ResourceContext | None,
        pool,
    ):
        """The execute stage.  A statement's query part — the statement
        itself, or an INSERT's SELECT — is rewritten, planned and run;
        DML then applies to its table, its expression subqueries
        running under the same collector / resource / pool.  Returns
        ``(result, optimized plan or None)``."""
        def run(query: A.Query):
            return self._execute_plan(query, collector, resource, pool)

        if isinstance(statement, A.Query):
            query, used_view = self._maybe_rewrite(statement)
            plan, batch = run(query)
            return Result(batch.names, batch, rewritten_from_view=used_view), plan
        plan = batch = None
        if isinstance(statement, A.Insert) and statement.query is not None:
            plan, batch = run(self._maybe_rewrite(statement.query)[0])
        if resource is not None:
            resource.check("dml")
        ctx = EvalContext(lambda sub_query: run(sub_query)[1])
        if isinstance(statement, A.Insert):
            count = self._insert(statement, batch, ctx)
        elif isinstance(statement, A.Delete):
            count = self._delete(statement, ctx)
        elif isinstance(statement, A.Update):
            count = self._update(statement, ctx)
        else:  # pragma: no cover
            raise EngineError(
                f"unsupported statement {type(statement).__name__}"
            )
        return Result([], Batch({}), rowcount=count), plan

    def _maybe_rewrite(self, query: A.Query):
        if self.enable_matview_rewrite and self.catalog.matviews:
            rewritten = try_rewrite(query, self.catalog, self.catalog.matviews)
            registry = get_registry()
            if registry.enabled:
                name = ("engine.matview.rewrites" if rewritten is not None
                        else "engine.matview.misses")
                registry.counter(name).add()
            if rewritten is not None:
                view_name = rewritten.body.from_[0].name  # type: ignore[union-attr]
                return rewritten, view_name
        return query, None

    def _plan(self, query: A.Query):
        """Plan and optimize a query AST — the one planner / optimizer
        set-up.  Returns the optimized plan and a function giving the
        optimized plan of one of its expression subqueries (pre-planned
        in their CTE scope, optimized on first use)."""
        planner = Planner(self.catalog)
        optimizer = Optimizer(self.catalog, self.optimizer_settings)
        plan = optimizer.optimize(planner.plan_query(query))
        subplans = planner.subquery_plans
        optimized: dict[int, object] = {}

        def subplan(sub_query: A.Query):
            key = id(sub_query)
            if key not in optimized:
                sub_plan = subplans.get(key)
                if sub_plan is None:
                    sub_plan = Planner(self.catalog).plan_query(sub_query)
                optimized[key] = optimizer.optimize(sub_plan)
            return optimized[key]

        return plan, subplan

    def _explain_plan(self, sql: str):
        """Parse, rewrite and plan without executing (EXPLAIN)."""
        statement = parse_statement(sql)
        if not isinstance(statement, A.Query):
            raise PlanningError("EXPLAIN supports queries only")
        query, used_view = self._maybe_rewrite(statement)
        return self._plan(query)[0], used_view

    def _execute_plan(
        self,
        query: A.Query,
        collector: ExecStatsCollector | None = None,
        resource: ResourceContext | None = None,
        pool=None,
    ):
        """Plan, optimize and execute a query AST, wiring expression
        subqueries into the executor.  Returns ``(optimized plan,
        result batch)``; when ``collector`` is given, every executed
        node records its stats into it; when ``resource`` is given, the
        statement (including subqueries) runs under its budget/deadline;
        when ``pool`` is given, the hot operators (in subqueries too)
        morsel-parallelize over it."""
        plan, subplan = self._plan(query)

        def run_sub(sub_query: A.Query) -> Batch:
            return Executor(
                run_sub, self.catalog, collector, resource, pool
            ).run(subplan(sub_query))

        executor = Executor(run_sub, self.catalog, collector, resource, pool)
        return plan, executor.run(plan)

    def _materialize(self, sql: str) -> Batch:
        """A view's defining query, planned and executed bare: never
        rewritten (a view must not answer itself), bounded or recorded."""
        return self._execute_plan(parse_query(sql))[1]

    # -- DML ------------------------------------------------------------------------

    def _insert(
        self, statement: A.Insert, batch: Optional[Batch], ctx: EvalContext
    ) -> int:
        table = self.catalog.table(statement.table)
        schema = table.schema
        target_cols = list(statement.columns) or schema.column_names
        for c in target_cols:
            schema.column(c)  # validates
        if batch is None:
            one_row = Batch({"_dummy": Vector.constant(Kind.INT, 0, 1)})
            full_rows = []
            for exprs in statement.rows:
                if len(exprs) != len(target_cols):
                    raise ExecutionError("INSERT arity mismatch")
                row = [evaluate(e, one_row, ctx).value(0) for e in exprs]
                by_col = dict(zip(target_cols, row))
                full_rows.append([by_col.get(c) for c in schema.column_names])
            table.append_rows(full_rows)
            return len(full_rows)
        if len(batch.columns) != len(target_cols):
            raise ExecutionError("INSERT ... SELECT arity mismatch")
        vectors = dict(zip(target_cols, batch.columns.values()))
        full = {}
        n = batch.num_rows
        for c in schema.column_names:
            if c in vectors:
                full[c] = self._coerce(vectors[c], schema.column(c).kind)
            else:
                full[c] = Vector.nulls(schema.column(c).kind, n)
        table.append_columns(full)
        return n

    @staticmethod
    def _coerce(vec: Vector, kind: Kind) -> Vector:
        if vec.kind is kind:
            return vec
        if kind is Kind.FLOAT and vec.kind is Kind.INT:
            return Vector(Kind.FLOAT, vec.data.astype(np.float64), vec.null)
        if kind is Kind.DATE and vec.kind is Kind.INT:
            return Vector(Kind.DATE, vec.data, vec.null)
        if kind is Kind.INT and vec.kind in (Kind.DATE, Kind.FLOAT):
            return Vector(Kind.INT, vec.data.astype(np.int64), vec.null)
        if kind is Kind.STR:
            return Vector.from_values(
                Kind.STR, [None if vec.null[i] else str(vec.value(i)) for i in range(len(vec))]
            )
        raise ExecutionError(f"cannot coerce {vec.kind} to {kind}")

    def _table_batch(self, table_name: str) -> Batch:
        table = self.catalog.table(table_name)
        return Batch(
            {
                f"{table_name}.{c}": table.scan_column(c)
                for c in table.schema.column_names
            }
        )

    def _delete(self, statement: A.Delete, ctx: EvalContext) -> int:
        table = self.catalog.table(statement.table)
        if statement.where is None:
            mask = np.ones(table.num_rows, dtype=bool)
        else:
            batch = self._table_batch(statement.table)
            mask = evaluate(statement.where, batch, ctx).is_true()
        return table.delete_where(mask)

    def _update(self, statement: A.Update, ctx: EvalContext) -> int:
        table = self.catalog.table(statement.table)
        batch = self._table_batch(statement.table)
        if statement.where is None:
            mask = np.ones(table.num_rows, dtype=bool)
        else:
            mask = evaluate(statement.where, batch, ctx).is_true()
        indices = np.flatnonzero(mask)
        if not len(indices):
            return 0
        target = batch.take(indices)
        assignments: dict[str, list[Any]] = {}
        for column, expr in statement.assignments:
            table.schema.column(column)  # validates
            assignments[column] = evaluate(expr, target, ctx).to_list()
        return table.update_rows(indices, assignments)
