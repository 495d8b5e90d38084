"""Measuring the engine's layers from outside.

``EngineProbe`` replaces ``db.execute`` on one ``Database`` *instance*
with a wrapper, so that the runner and the query service — which call
``self.db.execute`` — go through it without a line of ``src/`` changing.

Untraced, the wrapper only keeps each ``Result`` so the harness can
digest the answers after the clock has stopped.  Traced, it also

* opens an ``engine.statement`` span per statement (with a statement
  id shared by its child spans),
* re-does the front end — ``parse_statement``, ``try_rewrite``,
  ``Planner.plan_query``, ``Optimizer.optimize`` — under one span each
  and discards the products (``Database.execute`` repeats them inside;
  the re-done copies are what the traced run pays for seeing them),
* installs itself as ``db.plan_quality``, the engine's documented hook
  that makes every query run under an ``ExecStatsCollector`` and hands
  ``(sql, plan, collector)`` back: the plan tree is folded by operator
  kind into self times, rows, zone-map block and morsel counts.  These
  are the numbers ``Database.explain_analyze_dict`` reports, taken from
  the one execution instead of a second one.

The spans go to the harness's ``repro.obs.Tracer`` — the same object the
runner is given, so its phase / stream / query spans and the probe's
statement spans form one tree.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
from collections import defaultdict

from repro.engine.matview import try_rewrite
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.sql import ast_nodes as A
from repro.engine.sql.parser import parse_statement

#: operator kinds reported on their own; everything else is "other"
OPERATOR_KINDS = (
    "HashAggregate", "HashJoin", "Scan", "Rollup", "Sort", "Filter", "Window",
)

FRONTEND_SPANS = (
    "engine.sql.parse",
    "engine.matview.rewrite",
    "engine.planner.plan",
    "engine.optimizer.optimize",
)

_KIND_RE = re.compile(r"[A-Za-z]+")


class EngineProbe:
    def __init__(self, db, tracer):
        self.db = db
        self.tracer = tracer
        self._execute = db.execute
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: ``label -> {sql: Result}`` — see :meth:`collect_into`
        self.results: dict[str, dict] = {}
        self._current: dict = {}
        #: ``Result.elapsed`` of every statement since the last
        #: :meth:`collect_into` (two streams can send the same text)
        self.elapsed: list[float] = []
        self.operator_self_s: dict[str, float] = defaultdict(float)
        self.operator_rows: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        db.execute = self.execute_traced if tracer.enabled else self.execute
        if tracer.enabled:
            db.plan_quality = self
        self.collect_into("default")

    def collect_into(self, label: str) -> dict:
        """Keep the results of the statements that follow under
        ``label`` (one label per phase: the same SQL text can answer
        differently before and after data maintenance)."""
        self._current = self.results.setdefault(label, {})
        self.elapsed = []
        return self._current

    def remove(self) -> None:
        del self.db.execute
        if self.db.plan_quality is self:
            self.db.plan_quality = None

    # -- the db.execute replacements -----------------------------------------

    def execute(self, sql, **kwargs):
        result = self._execute(sql, **kwargs)
        self._keep(sql, result)
        return result

    def execute_traced(self, sql, **kwargs):
        tracer = self.tracer
        sid = next(self._ids)
        with self._lock:  # service workers and runner streams share the probe
            self.counters["statements"] += 1
        with tracer.span("engine.statement", statement=sid):
            self._redo_front_end(sql, sid)
            with tracer.span("engine.database.execute", statement=sid):
                result = self._execute(sql, **kwargs)
        self._keep(sql, result)
        # lets a caller on another thread (the service driver) tie its
        # request span to this statement's spans
        result.statement_id = sid
        return result

    def _keep(self, sql, result) -> None:
        self._current[sql] = result
        self.elapsed.append(result.elapsed)

    def _redo_front_end(self, sql: str, sid: int) -> None:
        tracer = self.tracer
        db = self.db
        with tracer.span("engine.sql.parse", statement=sid):
            statement = parse_statement(sql)
        if not isinstance(statement, A.Query):
            return
        query = statement
        if db.enable_matview_rewrite and db.catalog.matviews:
            with tracer.span("engine.matview.rewrite", statement=sid) as span:
                rewritten = try_rewrite(query, db.catalog, db.catalog.matviews)
                span.set(rewritten=rewritten is not None)
            if rewritten is not None:
                with self._lock:
                    self.counters["rewrites"] += 1
                query = rewritten
        with tracer.span("engine.planner.plan", statement=sid):
            plan = Planner(db.catalog).plan_query(query)
        with tracer.span("engine.optimizer.optimize", statement=sid):
            Optimizer(db.catalog, db.optimizer_settings).optimize(plan)

    # -- the db.plan_quality hook --------------------------------------------

    def record(self, sql, plan, collector) -> None:
        """Fold one executed plan by operator kind: self time is a
        node's inclusive time minus its children's; a subtree shared by
        several parents (CTE, star-filter dimension) counts once."""
        self_s: dict[str, float] = defaultdict(float)
        rows: dict[str, int] = defaultdict(int)
        counters: dict[str, float] = defaultdict(float)
        seen: set[int] = set()
        for node in plan.walk():
            if id(node) in seen:
                continue
            seen.add(id(node))
            stats = collector.stats_for(node)
            if stats is None:
                continue
            kind = _KIND_RE.match(node.label()).group(0)
            if kind not in OPERATOR_KINDS:
                kind = "other"
            children = (collector.stats_for(c) for c in node.children())
            child_s = sum(c.elapsed for c in children if c is not None)
            self_s[kind] += max(stats.elapsed - child_s, 0.0)
            rows[kind] += stats.rows_out
            for name in ("blocks", "blocks_skipped", "morsels"):
                counters[name] += stats.extra.get(name, 0)
            if kind == "Scan":
                counters["rows_examined"] += stats.extra.get("rows_in", 0)
        with self._lock:
            for kind, value in self_s.items():
                self.operator_self_s[kind] += value
            for kind, value in rows.items():
                self.operator_rows[kind] += value
            for name, value in counters.items():
                self.counters[name] += value


# -- reading the trace -------------------------------------------------------


def _covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


def finish_spans(tracer) -> list[dict]:
    """The tracer's spans with ``end``, ``statement`` and ``self_s``
    (duration minus the part of it child spans cover — a union, because
    stream and worker threads run children side by side)."""
    spans = tracer.export()
    children = defaultdict(list)
    for span in spans:
        span["end"] = span["start"] + span["elapsed"]
        span["statement"] = span["attrs"].get("statement")
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    for span in spans:
        covered = _covered(children[span["id"]], span["start"], span["end"])
        span["self_s"] = span["elapsed"] - covered
    return spans


def emit_engine_layers(ctx, probe: EngineProbe, rows_returned: int) -> None:
    """The engine's per-layer metrics of a traced run, from the spans
    and operator statistics gathered so far."""
    total = probe.tracer.total
    counters = probe.counters
    ctx.emit("engine.statements", counters["statements"])
    ctx.emit("engine.sql.parse_s", total("engine.sql.parse"))
    ctx.emit("engine.matview.rewrite_s", total("engine.matview.rewrite"))
    ctx.emit("engine.matview.rewrites", counters["rewrites"])
    ctx.emit("engine.planner.plan_s", total("engine.planner.plan"))
    ctx.emit("engine.optimizer.optimize_s", total("engine.optimizer.optimize"))
    front_s = sum(total(name) for name in FRONTEND_SPANS)
    execute_s = total("engine.database.execute")
    ctx.emit("engine.frontend_frac", front_s / execute_s if execute_s else 0.0)
    ctx.emit("engine.executor.execute_s", max(execute_s - front_s, 0.0))
    for kind in OPERATOR_KINDS + ("other",):
        ctx.emit(f"engine.executor.{kind}.self_s", probe.operator_self_s[kind])
        ctx.emit(f"engine.executor.{kind}.rows", probe.operator_rows[kind])
    ctx.emit(
        "engine.executor.rows_examined_per_row_returned",
        counters["rows_examined"] / max(rows_returned, 1),
    )
    ctx.emit("engine.colstore.blocks", counters["blocks"])
    ctx.emit("engine.colstore.blocks_skipped", counters["blocks_skipped"])
    ctx.emit(
        "engine.colstore.skip_ratio",
        counters["blocks_skipped"] / counters["blocks"] if counters["blocks"] else 0.0,
    )


def write_trace(path: str, workload: str, spans: list[dict], requests: list) -> None:
    """``requests`` are the service driver's per-statement records (due,
    sent, done); ``statement`` ties each to its ``engine.statement`` span."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    keep = ("id", "name", "parent", "statement", "start", "end", "self_s",
            "thread", "attrs")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload,
             "spans": [{k: s[k] for k in keep} for s in spans],
             "requests": requests},
            handle, default=str,
        )
