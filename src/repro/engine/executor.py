"""Physical execution of logical plans.

One :class:`Executor` instance runs one statement; it memoizes CTE
subtrees (plan nodes are shared by reference when a CTE is referenced
more than once) and carries the expression-evaluation context used for
uncorrelated subqueries.

Operator notes:

* **hash join** — builds on the right input, probes with the left; a
  sorted-key binary-search fast path handles the ubiquitous single
  integer surrogate-key joins without Python-level hashing. NULL keys
  never match. LEFT/RIGHT/FULL are supported; the residual (non-equi)
  condition is applied before null-extension, as SQL requires.
* **hash aggregate** — group keys are factorized to integer codes and
  grouped with ``np.unique``; SUM/COUNT/AVG/MIN/MAX/STDDEV run as
  vectorized segmented reductions. ROLLUP executes one pass per prefix
  grouping set. NULLs form a single group, per SQL.
* **window** — aggregate windows without ORDER BY compute one value per
  partition; with ORDER BY they compute running (RANGE-peers) values,
  matching the SQL default frame. RANK / DENSE_RANK / ROW_NUMBER are
  supported.
* **sort** — stable lexicographic sort; NULLs sort as larger than every
  value (NULLS LAST ascending), with explicit NULLS FIRST/LAST honored.

Resource governance: when a :class:`~repro.engine.governor
.ResourceContext` is installed, every operator dispatch (and every
long Python row loop) calls ``resource.check()`` — the cooperative
timeout/cancel point — and the memory-hungry operators compare their
working-set estimate against the budget.  Over budget they degrade
instead of dying: hash joins Grace-partition both inputs to temp
files and join partition pairs, hash aggregates partition rows by
group-key hash (partitions hold disjoint groups, so per-partition
results concatenate exactly), and sorts fall back to an external merge
sort over spilled sorted runs.  All three spill paths reproduce the
in-memory result byte-for-byte, including row order.

Morsel-driven parallelism: with a :class:`~repro.engine.parallel
.WorkerPool` installed, the hot operators split their work into
fixed-size morsels dispatched to the shared pool — scan/filter
predicate evaluation and hash-join probes cut by row range, Grace-join
partitions, partitioned aggregation and external-sort runs reuse the
*spill* cut (a spill partition is a morsel), and sorts encode their
keys concurrently.  Every parallel site concatenates morsel results in
submission order, so parallel output is byte-identical to serial at
any worker count; expressions containing subqueries stay on the
statement thread (the subquery memo is shared state).  ``workers=`` /
``morsels=`` counters appear per operator in EXPLAIN ANALYZE.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Callable, Optional

import numpy as np

from ..obs import ExecStatsCollector, get_registry
from ..obs.profile import MorselProfile
from . import plan as P
from .batch import Batch
from .errors import ExecutionError, PlanningError
from .expr import EvalContext, evaluate, harmonize
from .governor import ResourceContext, read_spill, write_spill
from .parallel import (
    MIN_PARALLEL_ROWS,
    WorkerContext,
    WorkerPool,
    morsel_ranges,
)
from .colstore import prune_scan
from .sql import ast_nodes as A
from .storage import Table as StorageTable
from .types import Kind
from .vector import Vector
from .virtual import VirtualTable

#: guard against runaway cartesian products: a cross join may emit at
#: most this many rows (every output row materializes all columns of
#: both sides, so memory cost is rows x total width)
_MAX_JOIN_ROWS = 20_000_000

#: estimated per-entry overhead of a Python hash build (dict slot +
#: key tuple + match list) used by the memory accounting
_HASH_ENTRY_BYTES = 112.0

#: estimated per-entry overhead of a Python set (star-filter key sets)
_SET_ENTRY_BYTES = 64.0

#: Fibonacci-hash multiplier for spill partitioning (mixes low bits so
#: sequential surrogate keys spread across partitions)
_PARTITION_MIX = np.uint64(0x9E3779B97F4A7C15)

#: timeout/cancel check cadence inside Python row loops
_CHECK_EVERY = 8192


def _partition_ids(vec: Vector, parts: int) -> np.ndarray:
    """Hash-partition ids in ``[0, parts)`` for every row of ``vec``
    (``parts`` must be a power of two).  NULL rows map to partition 0,
    so rows that group/join together always share a partition even if
    their (irrelevant) null-slot fill data were to differ."""
    if vec.kind is Kind.FLOAT:
        bits = vec.data.view(np.uint64)
    elif vec.kind is Kind.STR:
        bits = np.fromiter(
            (hash(v) & 0xFFFFFFFFFFFFFFFF for v in vec.data),
            dtype=np.uint64,
            count=len(vec.data),
        )
    else:
        bits = vec.data.astype(np.int64).view(np.uint64)
    log2 = parts.bit_length() - 1
    ids = ((bits * _PARTITION_MIX) >> np.uint64(64 - log2)).astype(np.int64)
    ids[vec.null] = 0
    return ids


#: expression nodes whose evaluation runs a subquery (shared memo
#: state — such expressions must stay on the statement thread)
_SUBQUERY_NODES = (A.InSubquery, A.Exists, A.ScalarSubquery)


def _has_subquery(expr: A.Expr) -> bool:
    """True when ``expr`` contains any subquery-evaluating node."""
    return any(isinstance(node, _SUBQUERY_NODES) for node in A.walk(expr))


def factorize(vec: Vector) -> np.ndarray:
    """Map a vector to dense int codes; NULL gets code 0, values get codes
    ordered by value starting at 1 (so codes also encode sort order)."""
    codes = np.zeros(len(vec), dtype=np.int64)
    valid = ~vec.null
    if not valid.any():
        return codes
    if vec.kind is Kind.STR:
        # rank the distinct strings, not the rows: sorting an object
        # array compares through pointers row by row, the slowest and
        # least steady step of a wide string GROUP BY
        values = vec.data[valid].tolist()
        rank = {v: i for i, v in enumerate(sorted(set(values)), 1)}
        codes[valid] = np.fromiter(
            map(rank.__getitem__, values), dtype=np.int64, count=len(values)
        )
    else:
        _, inverse = np.unique(vec.data[valid], return_inverse=True)
        codes[valid] = inverse + 1
    return codes


def _row_codes(vectors: list[Vector]) -> np.ndarray:
    """Factorize a list of key vectors into a single int64 row id."""
    n = len(vectors[0]) if vectors else 0
    if not vectors:
        return np.zeros(n, dtype=np.int64)
    # fold the per-column codes into one mixed-radix int64 per row —
    # the same lexicographic order as sorting the stacked rows, at the
    # cost of a 1-D integer sort — re-ranking before a digit could
    # overflow
    row_ids = np.zeros(n, dtype=np.int64)
    span = 1
    for codes in map(factorize, vectors):
        width = int(codes.max()) + 1 if n else 1
        if span * width >= 1 << 62:
            _, row_ids = np.unique(row_ids, return_inverse=True)
            span = n
        row_ids = row_ids * width + codes
        span *= width
    _, row_ids = np.unique(row_ids, return_inverse=True)
    return row_ids.astype(np.int64)


class Executor:
    """Interprets one logical plan tree; memoizes shared (CTE) subtrees.

    When an :class:`~repro.obs.ExecStatsCollector` is supplied, every
    node execution records output rows, inclusive elapsed time and
    operator-specific counters into it (the EXPLAIN ANALYZE substrate);
    without one, ``run`` takes a branch with no timing calls at all.
    """
    def __init__(
        self,
        run_subquery: Callable[[A.Query], Batch],
        catalog,
        collector: ExecStatsCollector | None = None,
        resource: ResourceContext | None = None,
        pool: WorkerPool | None = None,
    ):
        self._catalog = catalog
        self._ctx = EvalContext(run_subquery)
        self._cache: dict[int, Batch] = {}
        self._collector = collector
        self._resource = resource
        self._pool = pool
        # a memory budget forces working-set estimation even without a
        # collector (the spill decision needs the numbers)
        self._budgeted = (
            resource is not None and resource.memory_budget_bytes is not None
        )
        # memory accounting is live when a collector is installed
        # (EXPLAIN ANALYZE) or the metrics registry is enabled
        # (`run --metrics`); otherwise the guards below cost one
        # attribute check and the engine allocates nothing
        registry = get_registry()
        self._track_mem = collector is not None or registry.enabled
        self._mem_gauge = registry.gauge("engine.peak_operator_bytes")

    def _note_spill(self, node: P.PlanNode, partitions: int, nbytes: int) -> None:
        """Account one operator spill: the resource context's totals,
        the node's EXPLAIN ANALYZE counters, and the global metrics."""
        self._resource.note_spill(partitions, nbytes)
        if self._collector is not None:
            self._collector.add(
                node, spill_partitions=partitions, spilled_bytes=nbytes
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("engine.spill.partitions").add(partitions)
            registry.counter("engine.spill.bytes").add(nbytes)

    def _note_memory(self, node: P.PlanNode, nbytes: float) -> None:
        """Report one operator's peak memory: into the per-node stats
        (when a collector is installed) and the engine-wide high-water
        gauge (a no-op instrument when the registry is disabled)."""
        if self._collector is not None:
            self._collector.note_memory(node, nbytes)
        self._mem_gauge.set_max(nbytes)

    # -- morsel dispatch ---------------------------------------------------

    def _morsel_pool(self, n_rows: int, *exprs) -> WorkerPool | None:
        """The worker pool when ``n_rows`` justifies morsel dispatch
        and every expression is subquery-free, else ``None`` (the
        subquery memo cache must stay on the statement thread)."""
        if self._pool is None or n_rows < MIN_PARALLEL_ROWS:
            return None
        for expr in exprs:
            if expr is not None and _has_subquery(expr):
                return None
        return self._pool

    def _morsel_profile(self, pool: WorkerPool | None) -> MorselProfile | None:
        """A fresh per-dispatch profile when someone will read it (a
        stats collector is installed and the pool is live), else
        ``None`` so the dispatch path stays unobserved."""
        if pool is not None and self._collector is not None:
            return MorselProfile()
        return None

    def _map_morsels(self, fn, items: list, pool: WorkerPool | None,
                     label: str = "task",
                     profile: MorselProfile | None = None) -> list:
        """Run ``fn(item, ctx)`` over every item — fanned out through
        ``pool`` when given, else a serial loop with a pass-through
        :class:`WorkerContext`.  Results arrive in item order either
        way, which is what keeps parallel output byte-identical."""
        if pool is not None and len(items) > 1:
            return pool.map_morsels(fn, items, self._resource,
                                    label=label, profile=profile)
        ctx = WorkerContext(self._resource, 0)
        return [fn(item, ctx) for item in items]

    def _note_parallel(self, node: P.PlanNode, pool: WorkerPool | None,
                       morsels: int,
                       profile: MorselProfile | None = None) -> None:
        """Record one operator's fan-out: ``morsels=`` sums across
        executions, ``workers=`` keeps the widest pool used; with a
        per-dispatch profile, ``wait=`` (total queue wait, summing) and
        ``skew=`` (max/median morsel run time, max semantics) land in
        EXPLAIN ANALYZE too."""
        if self._collector is not None and pool is not None:
            self._collector.add(node, morsels=morsels)
            self._collector.note_max(node, workers=pool.workers)
            if profile is not None and profile.morsels:
                self._collector.add(node, wait_ms=profile.total_wait() * 1000)
                self._collector.note_max(node, skew=profile.skew())

    def _filter_mask(self, node: P.PlanNode, batch: Batch,
                     predicate: A.Expr) -> np.ndarray:
        """The TRUE-rows mask of ``predicate`` over ``batch`` —
        evaluated in row-range morsels across the pool when the batch
        is big enough.  Masks concatenate in range order, so the
        result is bitwise equal to one whole-batch evaluation."""
        n = batch.num_rows
        pool = self._morsel_pool(n, predicate)
        if pool is None:
            return evaluate(predicate, batch, self._ctx).is_true()
        ranges = morsel_ranges(n)
        ctx = self._ctx

        def eval_morsel(rng, wctx):
            wctx.check("Filter(morsel)")
            return evaluate(predicate, batch.slice(*rng), ctx).is_true()

        profile = self._morsel_profile(pool)
        masks = pool.map_morsels(eval_morsel, ranges, self._resource,
                                 label="Filter", profile=profile)
        self._note_parallel(node, pool, len(ranges), profile)
        return np.concatenate(masks)

    # -- entry -------------------------------------------------------------

    def run(self, node: P.PlanNode) -> Batch:
        if self._resource is not None:
            # the cooperative timeout / cancel / fault-injection point:
            # one check per operator dispatch bounds the reaction
            # latency to a single batch of work
            self._resource.check(type(node).__name__)
        key = id(node)
        collector = self._collector
        if key in self._cache:
            if collector is not None:
                collector.memo_hit(node)
            return self._cache[key]
        if collector is None:
            batch = self._dispatch(node)
        else:
            start = time.perf_counter()
            batch = self._dispatch(node)
            collector.record(node, batch.num_rows, time.perf_counter() - start)
        self._cache[key] = batch
        return batch

    def _dispatch(self, node: P.PlanNode) -> Batch:
        if isinstance(node, P.Scan):
            return self._scan(node)
        if isinstance(node, P.StarFilter):
            return self._star_filter(node)
        if isinstance(node, P.MatViewScan):
            return self._matview_scan(node)
        if isinstance(node, P.OneRow):
            return Batch({"_dummy": Vector.constant(Kind.INT, 0, 1)})
        if isinstance(node, P.Filter):
            child = self.run(node.child)
            mask = self._filter_mask(node, child, node.predicate)
            return child.filter(mask)
        if isinstance(node, P.Project):
            return self._project(node)
        if isinstance(node, P.Join):
            return self._join(node)
        if isinstance(node, P.Aggregate):
            return self._aggregate(node)
        if isinstance(node, P.Window):
            return self._window(node)
        if isinstance(node, P.Sort):
            return self._sort(node)
        if isinstance(node, P.Limit):
            child = self.run(node.child)
            limit = child.num_rows if node.limit is None else node.limit
            return child.head(limit, node.offset)
        if isinstance(node, P.Distinct):
            return self._distinct(self.run(node.child))
        if isinstance(node, P.SetOpPlan):
            return self._set_op(node)
        if isinstance(node, P.Rename):
            return self._rename(node)
        raise ExecutionError(f"no executor for {type(node).__name__}")

    # -- scans ----------------------------------------------------------------

    def _scan(self, node: P.Scan, row_subset: np.ndarray | None = None) -> Batch:
        table = self._catalog.table(node.table)
        if isinstance(table, VirtualTable):
            # one atomic materialization: the backing state (statement
            # store, registry, profiler) mutates concurrently, so the
            # columns must come from a single rows() snapshot
            batch = table.snapshot(node.binding)
        else:
            if node.pushed_filters and isinstance(table, StorageTable):
                # store-backed columns carry per-block zone maps: rows
                # in blocks a pushed conjunct can never match are cut
                # before the filters run
                pruned, blocks, skipped = prune_scan(
                    table, node.pushed_filters
                )
                if blocks:
                    if self._collector is not None:
                        self._collector.add(node, blocks=blocks,
                                            blocks_skipped=skipped)
                    registry = get_registry()
                    if registry.enabled and skipped:
                        registry.counter("engine.scan.blocks_skipped").add(
                            skipped
                        )
                if pruned is not None:
                    row_subset = (
                        pruned if row_subset is None
                        else np.intersect1d(row_subset, pruned)
                    )
            batch = Batch(
                {
                    f"{node.binding}.{name}": table.scan_column(name)
                    for name in table.schema.column_names
                }
            )
        if self._collector is not None:
            self._collector.add(node, rows_in=batch.num_rows,
                                pushed_filters=len(node.pushed_filters))
        if row_subset is not None:
            batch = batch.take(row_subset)
        # predicates stay sequential (later ones see already-filtered
        # rows, as the pushdown contract requires); each predicate's
        # evaluation fans out over row-range morsels
        for predicate in node.pushed_filters:
            mask = self._filter_mask(node, batch, predicate)
            batch = batch.filter(mask)
        return batch

    def _star_filter(self, node: P.StarFilter) -> Batch:
        """Bitmap star transformation: intersect per-dimension row sets
        before materializing the fact scan."""
        allowed: Optional[np.ndarray] = None
        mem_bytes = 0.0
        for dim_plan, fact_col, dim_ref in node.dims:
            dim_batch = self.run(dim_plan)
            vec = dim_batch.column(dim_ref.name, dim_ref.table)
            keys = set(vec.data[~vec.null].tolist())
            if self._track_mem:
                mem_bytes += _SET_ENTRY_BYTES * len(keys)
            rows = self._catalog.bitmap_rows(node.fact.table, fact_col, keys)
            if self._collector is not None:
                self._collector.add(node, bitmap_probes=len(keys),
                                    bitmap_hit=0 if rows is None else 1)
            if rows is None:
                continue
            allowed = rows if allowed is None else np.intersect1d(allowed, rows)
        if self._collector is not None and allowed is not None:
            self._collector.add(node, bitmap_rows=len(allowed))
        if self._track_mem:
            if allowed is not None:
                mem_bytes += float(allowed.nbytes)
            self._note_memory(node, mem_bytes)
        return self._scan(node.fact, row_subset=allowed)

    def _matview_scan(self, node: P.MatViewScan) -> Batch:
        view = self._catalog.matview(node.view)
        return Batch(
            {
                f"{node.binding}.{name}": view.storage.scan_column(name)
                for name in view.column_names
            }
        )

    def _project(self, node: P.Project) -> Batch:
        child = self.run(node.child)
        out = Batch()
        for expr, name in node.items:
            out.add(name, evaluate(expr, child, self._ctx))
        if not node.items:
            raise ExecutionError("empty projection")
        return out

    # -- joins --------------------------------------------------------------------

    def _join(self, node: P.Join) -> Batch:
        left = self.run(node.left)
        right = self.run(node.right)
        if self._collector is not None:
            # the hash (or sorted-probe) build side is always the right
            self._collector.add(node, build_rows=right.num_rows,
                                probe_rows=left.num_rows)
        kind = node.kind
        if kind == "right":
            # execute as a left join with sides swapped, then restore order
            swapped = P.Join(node.right, node.left, "left",
                             [(r, l) for l, r in node.equi_keys], node.residual)
            swapped_result = self._join_impl(right, left, swapped, stats_node=node)
            names = list(left.columns) + list(right.columns)
            return Batch({n: swapped_result.columns[n] for n in names})
        return self._join_impl(left, right, node)

    def _join_impl(
        self, left: Batch, right: Batch, node: P.Join,
        stats_node: P.Join | None = None,
    ) -> Batch:
        """``stats_node`` is the original plan node to charge stats to
        when ``node`` is the transient right-join swap."""
        kind = node.kind
        if not node.equi_keys:
            pairs = self._cross_pairs(left, right)
        else:
            pairs = self._hash_pairs(
                left, right, node.equi_keys, stats_node or node
            )
        li, ri = pairs
        joined = Batch()
        for name, vec in left.columns.items():
            joined.add(name, vec.take(li))
        for name, vec in right.columns.items():
            joined.add(name, vec.take(ri))
        if node.residual is not None:
            mask = evaluate(node.residual, joined, self._ctx).is_true()
            joined = joined.filter(mask)
            li = li[mask]
            ri = ri[mask]
        if kind in ("left", "full"):
            matched = np.zeros(left.num_rows, dtype=bool)
            matched[li] = True
            missing = np.flatnonzero(~matched)
            if len(missing):
                pad = Batch()
                for name, vec in left.columns.items():
                    pad.add(name, vec.take(missing))
                for name, vec in right.columns.items():
                    pad.add(name, Vector.nulls(vec.kind, len(missing)))
                joined = Batch.concat([joined, pad])
        if kind == "full":
            # also null-extend unmatched right rows
            rmatched = np.zeros(right.num_rows, dtype=bool)
            rmatched[ri] = True
            missing_r = np.flatnonzero(~rmatched)
            if len(missing_r):
                pad = Batch()
                for name, vec in left.columns.items():
                    pad.add(name, Vector.nulls(vec.kind, len(missing_r)))
                for name, vec in right.columns.items():
                    pad.add(name, vec.take(missing_r))
                joined = Batch.concat([joined, pad])
        return joined

    def _cross_pairs(self, left: Batch, right: Batch):
        total = left.num_rows * right.num_rows
        if total > _MAX_JOIN_ROWS:
            raise ExecutionError(
                f"cross join would produce {total} rows; add a join condition"
            )
        li = np.repeat(np.arange(left.num_rows), right.num_rows)
        ri = np.tile(np.arange(right.num_rows), left.num_rows)
        return li, ri

    def _hash_pairs(self, left: Batch, right: Batch, keys, stats_node=None):
        lvecs = [evaluate(l, left, self._ctx) for l, _ in keys]
        rvecs = [evaluate(r, right, self._ctx) for _, r in keys]
        for i in range(len(keys)):
            lvecs[i], rvecs[i] = harmonize([lvecs[i], rvecs[i]])
        int_path = len(keys) == 1 and lvecs[0].kind in (Kind.INT, Kind.DATE)
        if (self._track_mem or self._budgeted) and stats_node is not None:
            build_bytes = float(sum(v.nbytes for v in rvecs))
            if int_path:
                # key copy + stable-sorted copy + sorted row-id array
                build_bytes *= 3.0
            else:
                n_build = len(rvecs[0]) if rvecs else 0
                build_bytes += _HASH_ENTRY_BYTES * n_build
            if self._track_mem:
                self._note_memory(stats_node, build_bytes)
            if self._budgeted and self._resource.over_budget(build_bytes):
                return self._grace_pairs(
                    lvecs, rvecs, int_path, build_bytes, stats_node
                )
        if int_path:
            return self._int_key_pairs(lvecs[0], rvecs[0], stats_node)
        return self._tuple_key_pairs(lvecs, rvecs)

    def _grace_pairs(
        self,
        lvecs: list[Vector],
        rvecs: list[Vector],
        int_path: bool,
        build_bytes: float,
        stats_node: P.PlanNode,
    ):
        """Grace hash join: hash-partition both inputs on the first key
        to temp files, then join partition pairs one at a time.  Every
        key value lives in exactly one partition, and within a
        partition row order is preserved, so concatenating partition
        pair lists and stable-sorting by left row index reproduces the
        in-memory join's output exactly."""
        resource = self._resource
        parts = resource.partitions_for(build_bytes)
        # NULL keys never match: drop them before partitioning
        lvalid = ~lvecs[0].null
        for v in lvecs[1:]:
            lvalid &= ~v.null
        rvalid = ~rvecs[0].null
        for v in rvecs[1:]:
            rvalid &= ~v.null
        lrows = np.flatnonzero(lvalid)
        rrows = np.flatnonzero(rvalid)
        lids = _partition_ids(lvecs[0], parts)[lrows]
        rids = _partition_ids(rvecs[0], parts)[rrows]
        lkinds = [v.kind for v in lvecs]
        rkinds = [v.kind for v in rvecs]
        # a spill partition is a morsel: both phases fan out over the
        # shared pool, with results collected in partition order
        pool = self._morsel_pool(len(lrows) + len(rrows))

        def write_partition(p, wctx):
            wctx.check("GraceHashJoin(partition)")
            lsel = lrows[lids == p]
            rsel = rrows[rids == p]
            if not len(lsel) or not len(rsel):
                return None
            arrays = {"lsel": lsel, "rsel": rsel}
            for i, v in enumerate(lvecs):
                arrays[f"l{i}"] = v.data[lsel]
            for i, v in enumerate(rvecs):
                arrays[f"r{i}"] = v.data[rsel]
            path = wctx.spill_path()
            return path, write_spill(path, arrays)

        profile = self._morsel_profile(pool)
        written = self._map_morsels(write_partition, list(range(parts)), pool,
                                    label="GraceJoin(partition)",
                                    profile=profile)
        written = [w for w in written if w is not None]
        paths = [path for path, _ in written]
        spilled = sum(nbytes for _, nbytes in written)

        def probe_partition(path, wctx):
            wctx.check("GraceHashJoin(probe)")
            arrays = read_spill(path)
            os.unlink(path)
            lsel, rsel = arrays["lsel"], arrays["rsel"]
            no_nulls_l = np.zeros(len(lsel), dtype=bool)
            no_nulls_r = np.zeros(len(rsel), dtype=bool)
            sub_l = [
                Vector(lkinds[i], arrays[f"l{i}"], no_nulls_l)
                for i in range(len(lvecs))
            ]
            sub_r = [
                Vector(rkinds[i], arrays[f"r{i}"], no_nulls_r)
                for i in range(len(rvecs))
            ]
            if int_path:
                li_local, ri_local = self._int_key_pairs(sub_l[0], sub_r[0])
            else:
                li_local, ri_local = self._tuple_key_pairs(sub_l, sub_r)
            return lsel[li_local], rsel[ri_local]

        probed = self._map_morsels(probe_partition, paths, pool,
                                   label="GraceJoin(probe)", profile=profile)
        li_parts = [li_local for li_local, _ in probed]
        ri_parts = [ri_local for _, ri_local in probed]
        self._note_parallel(stats_node, pool, parts + len(paths), profile)
        if li_parts:
            li = np.concatenate(li_parts)
            ri = np.concatenate(ri_parts)
        else:
            li = np.empty(0, dtype=np.int64)
            ri = np.empty(0, dtype=np.int64)
        # restore the in-memory probe order (ascending left row; the
        # per-left-row right order is already identical per partition)
        order = np.argsort(li, kind="stable")
        self._note_spill(stats_node, parts, spilled)
        return li[order], ri[order]

    def _int_key_pairs(self, lvec: Vector, rvec: Vector,
                       stats_node: P.PlanNode | None = None):
        """Sorted-probe equi-join on a single integer key.

        The build (sort) runs once; the probe fans out over row-range
        morsels of the left keys.  Each morsel emits its matches with
        ascending left rows, and morsels cover ascending disjoint
        ranges, so ordered concatenation reproduces the serial probe's
        (li, ri) sequence exactly."""
        rvalid = np.flatnonzero(~rvec.null)
        rkeys = rvec.data[rvalid]
        order = np.argsort(rkeys, kind="stable")
        rkeys_sorted = rkeys[order]
        rrows_sorted = rvalid[order]
        lvalid = np.flatnonzero(~lvec.null)
        lkeys = lvec.data[lvalid]
        pool = self._morsel_pool(len(lkeys))
        if pool is None:
            return self._int_probe(lvalid, lkeys, rkeys_sorted, rrows_sorted)
        ranges = morsel_ranges(len(lkeys))

        def probe_morsel(rng, wctx):
            wctx.check("HashJoin(morsel)")
            start, stop = rng
            return Executor._int_probe(
                lvalid[start:stop], lkeys[start:stop],
                rkeys_sorted, rrows_sorted,
            )
        profile = (self._morsel_profile(pool)
                   if stats_node is not None else None)
        parts = pool.map_morsels(probe_morsel, ranges, self._resource,
                                 label="HashJoin(probe)", profile=profile)
        if stats_node is not None:
            self._note_parallel(stats_node, pool, len(ranges), profile)
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )

    @staticmethod
    def _int_probe(lrows: np.ndarray, lkeys: np.ndarray,
                   rkeys_sorted: np.ndarray, rrows_sorted: np.ndarray):
        """Probe one chunk of left keys against the sorted build side."""
        lo = np.searchsorted(rkeys_sorted, lkeys, side="left")
        hi = np.searchsorted(rkeys_sorted, lkeys, side="right")
        counts = hi - lo
        has_match = counts > 0
        lrows = lrows[has_match]
        lo = lo[has_match]
        counts = counts[has_match]
        li = np.repeat(lrows, counts)
        if len(counts):
            # positions within the sorted build array for every match
            starts = np.repeat(lo, counts)
            step = np.arange(len(starts)) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            ri = rrows_sorted[starts + step]
        else:
            ri = np.empty(0, dtype=np.int64)
        return li, ri

    def _tuple_key_pairs(self, lvecs: list[Vector], rvecs: list[Vector]):
        build: dict[tuple, list[int]] = {}
        r_n = len(rvecs[0]) if rvecs else 0
        rnull = np.zeros(r_n, dtype=bool)
        for v in rvecs:
            rnull |= v.null
        for i in range(r_n):
            if rnull[i]:
                continue
            key = tuple(v.data[i] for v in rvecs)
            build.setdefault(key, []).append(i)
        l_n = len(lvecs[0]) if lvecs else 0
        lnull = np.zeros(l_n, dtype=bool)
        for v in lvecs:
            lnull |= v.null
        li_parts: list[int] = []
        ri_parts: list[int] = []
        resource = self._resource
        for i in range(l_n):
            if resource is not None and i % _CHECK_EVERY == 0:
                resource.check("HashJoin(probe)")
            if lnull[i]:
                continue
            matches = build.get(tuple(v.data[i] for v in lvecs))
            if matches:
                li_parts.extend([i] * len(matches))
                ri_parts.extend(matches)
        return (
            np.asarray(li_parts, dtype=np.int64),
            np.asarray(ri_parts, dtype=np.int64),
        )

    # -- aggregation ------------------------------------------------------------------

    def _aggregate(self, node: P.Aggregate) -> Batch:
        child = self.run(node.child)
        group_vecs = [evaluate(g, child, self._ctx) for g, _ in node.group_items]
        if self._collector is not None:
            self._collector.add(node, rows_in=child.num_rows)
        if self._track_mem:
            # group-key vectors plus the int64 code + inverse arrays
            # the np.unique grouping materializes
            self._note_memory(
                node,
                float(sum(v.nbytes for v in group_vecs))
                + 16.0 * child.num_rows,
            )
        if not node.rollup:
            return self._aggregate_pass(node, child, group_vecs, active=len(group_vecs))
        passes = []
        for active in range(len(group_vecs), -1, -1):
            passes.append(self._aggregate_pass(node, child, group_vecs, active))
        return Batch.concat(passes)

    def _aggregate_pass(
        self, node: P.Aggregate, child: Batch, group_vecs: list[Vector], active: int
    ) -> Batch:
        """One grouping-set pass: the first ``active`` keys group, the rest
        (for ROLLUP) are emitted as NULL.  Over a memory budget, or with
        a worker pool on a large input, the pass hash-partitions its
        input rows by group key and runs the partitions through
        :meth:`_aggregate_partitioned` (the spill cut doubles as the
        morsel cut)."""
        spill = False
        est = 0.0
        if active:
            est = (
                float(sum(v.nbytes for v in group_vecs[:active]))
                + 16.0 * child.num_rows
            )
            spill = self._budgeted and self._resource.over_budget(est)
        pool = None
        if active:
            exprs = [g for g, _ in node.group_items]
            exprs += [c.args[0] for c, _ in node.agg_items if c.args]
            pool = self._morsel_pool(child.num_rows, *exprs)
        if not spill and pool is None:
            return self._aggregate_pass_memory(node, child, group_vecs, active)
        return self._aggregate_partitioned(
            node, child, group_vecs, active, est, spill, pool
        )

    def _aggregate_partitioned(
        self,
        node: P.Aggregate,
        child: Batch,
        group_vecs: list[Vector],
        active: int,
        est_bytes: float,
        spill: bool,
        pool: WorkerPool | None,
    ) -> Batch:
        """Grace-style partitioned aggregation — one cut serving both
        spill (over budget) and morsel parallelism: partition input rows
        by a hash of the first group key (NULLs to partition 0),
        aggregate each partition independently — partitions hold
        disjoint groups, so per-partition outputs concatenate without
        merging — then restore the in-memory pass's group order
        (ascending stacked factorize codes of the active keys, exactly
        what ``np.unique(row_ids)`` emits on the unpartitioned path;
        groups are distinct, so no ties).  When ``spill`` is set each
        partition detours through a temp file; the partition count
        comes from the budget, not the worker count, so spill totals
        are identical at any parallelism."""
        resource = self._resource
        if spill:
            parts = resource.partitions_for(est_bytes)
        else:
            # parallel-only cut: enough partitions to load the pool;
            # the canonical reorder makes the count irrelevant to output
            parts = max(2, pool.workers * 2)
        ids = _partition_ids(group_vecs[0], parts)
        # stable argsort groups each partition's rows contiguously while
        # preserving ascending original row order within partitions —
        # the same selections the per-partition flatnonzero loop built
        by_part = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[by_part], np.arange(parts + 1))
        selections = [
            by_part[bounds[p]:bounds[p + 1]]
            for p in range(parts)
            if bounds[p + 1] > bounds[p]
        ]
        kinds = {name: vec.kind for name, vec in child.columns.items()}

        def run_partition(sel, wctx):
            wctx.check("HashAggregate(partition)")
            nbytes = 0
            if spill:
                arrays: dict[str, np.ndarray] = {"_rows": sel}
                for name, vec in child.columns.items():
                    arrays[f"d:{name}"] = vec.data[sel]
                    arrays[f"n:{name}"] = vec.null[sel]
                path = wctx.spill_path()
                nbytes = write_spill(path, arrays)
                wctx.check("HashAggregate(merge)")
                arrays = read_spill(path)
                os.unlink(path)
                sub = Batch(
                    {
                        name: Vector(
                            kinds[name], arrays[f"d:{name}"], arrays[f"n:{name}"]
                        )
                        for name in kinds
                    }
                )
            else:
                sub = child.take(sel)
            sub_groups = [evaluate(g, sub, self._ctx) for g, _ in node.group_items]
            return nbytes, self._aggregate_pass_memory(node, sub, sub_groups, active)

        profile = self._morsel_profile(pool)
        results = self._map_morsels(run_partition, selections, pool,
                                    label="Aggregate(partition)",
                                    profile=profile)
        outs = [out for _, out in results]
        if spill:
            self._note_spill(node, parts, sum(nbytes for nbytes, _ in results))
        self._note_parallel(node, pool, len(selections), profile)
        if not outs:
            return self._aggregate_pass_memory(node, child, group_vecs, active)
        result = Batch.concat(outs)
        group_names = [name for _, name in node.group_items][:active]
        codes = [factorize(result.columns[name]) for name in group_names]
        order = np.lexsort(tuple(reversed(codes)))
        return result.take(order)

    def _aggregate_pass_memory(
        self, node: P.Aggregate, child: Batch, group_vecs: list[Vector], active: int
    ) -> Batch:
        used = group_vecs[:active]
        n = child.num_rows
        if used:
            row_ids = _row_codes(used)
            uniques, first_idx, inverse = np.unique(
                row_ids, return_index=True, return_inverse=True
            )
            n_groups = len(uniques)
        else:
            # global aggregate (or the ROLLUP grand-total pass): one row,
            # even over empty input, per SQL
            n_groups = 1
            first_idx = np.zeros(1, dtype=np.int64)
            inverse = np.zeros(n, dtype=np.int64)
        out = Batch()
        group_names = [name for _, name in node.group_items]
        for idx, (vec, name) in enumerate(zip(group_vecs, group_names)):
            if idx < active:
                out.add(name, vec.take(first_idx[:n_groups]))
            else:
                out.add(name, Vector.nulls(vec.kind, n_groups))
        for call, name in node.agg_items:
            out.add(name, self._compute_aggregate(call, child, inverse, n_groups))
        if not node.group_items and not node.agg_items:
            raise ExecutionError("degenerate aggregate")
        return out

    def _compute_aggregate(
        self, call: A.FuncCall, child: Batch, inverse: np.ndarray, n_groups: int
    ) -> Vector:
        name = call.name
        if name == "COUNT" and call.is_star:
            counts = np.bincount(inverse, minlength=n_groups)
            return Vector(Kind.INT, counts.astype(np.int64), np.zeros(n_groups, dtype=bool))
        arg = evaluate(call.args[0], child, self._ctx)
        valid = ~arg.null
        if name == "COUNT":
            if call.distinct:
                return self._count_distinct(arg, inverse, n_groups)
            counts = np.bincount(inverse[valid], minlength=n_groups)
            return Vector(Kind.INT, counts.astype(np.int64), np.zeros(n_groups, dtype=bool))
        if name in ("SUM", "AVG", "STDDEV_SAMP", "STDDEV", "VAR_SAMP"):
            if arg.kind is Kind.STR:
                raise ExecutionError(f"{name} over strings")
            data = arg.data.astype(np.float64)
            data = np.where(valid, data, 0.0)
            counts = np.bincount(inverse[valid], minlength=n_groups).astype(np.float64)
            sums = np.bincount(inverse, weights=data, minlength=n_groups)
            null = counts == 0
            if name == "SUM":
                if call.distinct:
                    return self._sum_distinct(arg, inverse, n_groups)
                kind = Kind.INT if arg.kind is Kind.INT else Kind.FLOAT
                out = sums.astype(np.int64) if kind is Kind.INT else sums
                return Vector(kind, np.asarray(out), null)
            if name == "AVG":
                means = sums / np.where(null, 1.0, counts)
                return Vector(Kind.FLOAT, means, null)
            sq = np.bincount(inverse, weights=data * data, minlength=n_groups)
            denom = np.where(counts > 1, counts - 1, 1.0)
            means = sums / np.where(null, 1.0, np.where(counts == 0, 1.0, counts))
            var = (sq - counts * means * means) / denom
            var = np.maximum(var, 0.0)
            null_v = counts < 2
            if name == "VAR_SAMP":
                return Vector(Kind.FLOAT, var, null_v)
            return Vector(Kind.FLOAT, np.sqrt(var), null_v)
        if name in ("MIN", "MAX"):
            return self._min_max(arg, inverse, n_groups, name == "MIN")
        raise ExecutionError(f"unknown aggregate {name}")

    @staticmethod
    def _min_max(arg: Vector, inverse: np.ndarray, n_groups: int, is_min: bool) -> Vector:
        valid = ~arg.null
        if arg.kind is Kind.STR:
            best: list[Optional[str]] = [None] * n_groups
            for i in np.flatnonzero(valid):
                g = inverse[i]
                v = arg.data[i]
                if best[g] is None or (v < best[g]) == is_min and v != best[g]:
                    best[g] = v
            return Vector.from_values(Kind.STR, best)
        data = arg.data.astype(np.float64)
        init = np.inf if is_min else -np.inf
        acc = np.full(n_groups, init, dtype=np.float64)
        if is_min:
            np.minimum.at(acc, inverse[valid], data[valid])
        else:
            np.maximum.at(acc, inverse[valid], data[valid])
        counts = np.bincount(inverse[valid], minlength=n_groups)
        null = counts == 0
        if arg.kind in (Kind.INT, Kind.DATE):
            out = np.where(null, 0, acc).astype(np.int64)
            return Vector(arg.kind, out, null)
        return Vector(Kind.FLOAT, np.where(null, 0.0, acc), null)

    @staticmethod
    def _count_distinct(arg: Vector, inverse: np.ndarray, n_groups: int) -> Vector:
        valid = ~arg.null
        codes = factorize(arg)
        pairs = np.stack([inverse[valid], codes[valid]], axis=1)
        if len(pairs):
            uniq = np.unique(pairs, axis=0)
            counts = np.bincount(uniq[:, 0], minlength=n_groups)
        else:
            counts = np.zeros(n_groups, dtype=np.int64)
        return Vector(Kind.INT, counts.astype(np.int64), np.zeros(n_groups, dtype=bool))

    @staticmethod
    def _sum_distinct(arg: Vector, inverse: np.ndarray, n_groups: int) -> Vector:
        valid = ~arg.null
        sums = np.zeros(n_groups, dtype=np.float64)
        seen: set[tuple[int, float]] = set()
        counts = np.zeros(n_groups, dtype=np.int64)
        for i in np.flatnonzero(valid):
            key = (int(inverse[i]), float(arg.data[i]))
            if key in seen:
                continue
            seen.add(key)
            sums[key[0]] += key[1]
            counts[key[0]] += 1
        null = counts == 0
        kind = Kind.INT if arg.kind is Kind.INT else Kind.FLOAT
        data = sums.astype(np.int64) if kind is Kind.INT else sums
        return Vector(kind, data, null)

    # -- window functions -----------------------------------------------------------

    def _window(self, node: P.Window) -> Batch:
        child = self.run(node.child)
        out = Batch(dict(child.columns))
        for wf, name in node.items:
            out.add(name, self._compute_window(wf, child))
        return out

    def _compute_window(self, wf: A.WindowFunc, child: Batch) -> Vector:
        n = child.num_rows
        if n == 0:
            kind = Kind.INT if wf.func.name in ("RANK", "DENSE_RANK", "ROW_NUMBER", "COUNT") else Kind.FLOAT
            return Vector.from_values(kind, [])
        part_vecs = [evaluate(p, child, self._ctx) for p in wf.partition_by]
        part_ids = _row_codes(part_vecs) if part_vecs else np.zeros(n, dtype=np.int64)
        func = wf.func.name
        if not wf.order_by:
            if func in ("RANK", "DENSE_RANK", "ROW_NUMBER"):
                raise ExecutionError(f"{func} requires ORDER BY in OVER clause")
            # one value per partition, broadcast back
            n_groups = int(part_ids.max()) + 1
            agg = self._compute_aggregate(wf.func, child, part_ids, n_groups)
            return agg.take(part_ids)
        order = self._sort_indices(child, list(wf.order_by), pre_keys=[part_ids])
        sorted_parts = part_ids[order]
        key_vecs = [evaluate(k.expr, child, self._ctx) for k in wf.order_by]
        order_codes = _row_codes(key_vecs)[order]
        boundaries = np.ones(n, dtype=bool)
        if n:
            boundaries[1:] = sorted_parts[1:] != sorted_parts[:-1]
        part_start = np.maximum.accumulate(
            np.where(boundaries, np.arange(n), 0)
        )
        row_number = np.arange(n) - part_start + 1
        peer_change = np.ones(n, dtype=bool)
        if n:
            peer_change[1:] = boundaries[1:] | (order_codes[1:] != order_codes[:-1])
        result = np.zeros(n, dtype=np.float64)
        null = np.zeros(n, dtype=bool)
        kind = Kind.INT
        group_ids = np.cumsum(peer_change) - 1  # peer-group id per sorted row
        if func == "ROW_NUMBER":
            result = row_number.astype(np.float64)
        elif func == "RANK":
            # rank = row_number of the first row of the peer group
            first_rows = np.flatnonzero(peer_change)
            result = row_number[first_rows][group_ids].astype(np.float64)
        elif func == "DENSE_RANK":
            # peer groups seen so far within the partition
            cum = np.cumsum(peer_change.astype(np.int64))
            start_cum = np.maximum.accumulate(np.where(boundaries, cum, 0))
            result = (cum - start_cum + 1).astype(np.float64)
        else:
            # running aggregate over peers (SQL default frame)
            arg = (
                evaluate(wf.func.args[0], child, self._ctx)
                if wf.func.args
                else Vector.constant(Kind.INT, 1, n)
            )
            kind = Kind.FLOAT if func == "AVG" or arg.kind is Kind.FLOAT else Kind.INT
            data = arg.data.astype(np.float64)[order]
            data_valid = (~arg.null)[order]
            running_sum = np.zeros(n, dtype=np.float64)
            running_cnt = np.zeros(n, dtype=np.float64)
            acc_s = 0.0
            acc_c = 0.0
            # peer groups share the value computed at the last peer row
            for i in range(n):
                if boundaries[i]:
                    acc_s = 0.0
                    acc_c = 0.0
                if data_valid[i]:
                    acc_s += data[i]
                    acc_c += 1
                running_sum[i] = acc_s
                running_cnt[i] = acc_c
            # propagate last-peer values backwards within peer groups
            last_in_group = np.zeros(int(group_ids.max()) + 1 if n else 0, dtype=np.int64)
            last_in_group[group_ids] = np.arange(n)
            running_sum = running_sum[last_in_group][group_ids]
            running_cnt = running_cnt[last_in_group][group_ids]
            if func == "SUM":
                result = running_sum
                null = running_cnt == 0
            elif func == "COUNT":
                result = running_cnt
            elif func == "AVG":
                null = running_cnt == 0
                result = running_sum / np.where(null, 1.0, running_cnt)
            elif func in ("MIN", "MAX"):
                raw = self._running_min_max(
                    data, data_valid, boundaries, func == "MIN"
                )
                # peers share the value computed at the last peer row
                result = raw[last_in_group][group_ids]
                null = running_cnt == 0
                kind = arg.kind
            else:
                raise ExecutionError(f"unsupported window function {func}")
        unsorted = np.empty(n, dtype=np.int64)
        unsorted[order] = np.arange(n)
        final = result[unsorted]
        final_null = null[unsorted]
        if kind is Kind.INT or kind is Kind.DATE:
            return Vector(kind, final.astype(np.int64), final_null)
        return Vector(Kind.FLOAT, final, final_null)

    @staticmethod
    def _running_min_max(data, valid, boundaries, is_min: bool) -> np.ndarray:
        n = len(data)
        out = np.zeros(n, dtype=np.float64)
        acc = np.inf if is_min else -np.inf
        for i in range(n):
            if boundaries[i]:
                acc = np.inf if is_min else -np.inf
            if valid[i]:
                acc = min(acc, data[i]) if is_min else max(acc, data[i])
            out[i] = acc
        return out

    # -- sort / distinct / set ops -------------------------------------------------------

    def _sort_indices(
        self, batch: Batch, keys: list[A.SortKey],
        pre_keys: list[np.ndarray] | None = None,
        stats_node: P.PlanNode | None = None,
    ) -> np.ndarray:
        """Stable lexsort indices; ``pre_keys`` sort before the SQL keys."""
        n = batch.num_rows
        arrays = self._key_codes(batch, keys, stats_node)
        all_keys = (pre_keys or []) + arrays
        if not all_keys:
            return np.arange(n)
        return np.lexsort(tuple(reversed(all_keys)))

    def _key_codes(
        self, batch: Batch, keys: list[A.SortKey],
        stats_node: P.PlanNode | None = None,
    ) -> list[np.ndarray]:
        """Sort-code arrays for every key, one whole-column task per
        key across the pool (codes are independent per key, and the
        result list keeps key order)."""
        pool = None
        if len(keys) > 1:
            pool = self._morsel_pool(batch.num_rows, *[k.expr for k in keys])
        ctx = self._ctx

        def code_key(key, wctx):
            wctx.check("Sort(key)")
            return Executor._sort_codes(evaluate(key.expr, batch, ctx), key)

        profile = (self._morsel_profile(pool)
                   if stats_node is not None else None)
        codes = self._map_morsels(code_key, list(keys), pool,
                                  label="Sort(encode)", profile=profile)
        if stats_node is not None:
            self._note_parallel(stats_node, pool, len(keys), profile)
        return codes

    @staticmethod
    def _sort_codes(vec: Vector, key: A.SortKey) -> np.ndarray:
        """Integer codes encoding the desired ordering of one sort key.

        ``factorize`` yields 0 for NULL and 1..k in ascending value order;
        this remaps codes so a plain ascending integer sort realizes the
        requested direction and NULL placement (default: NULLs sort as the
        largest value — last ascending, first descending).
        """
        codes = factorize(vec).astype(np.int64)
        k = int(codes.max()) if len(codes) else 0
        nulls_first = key.nulls_first
        if nulls_first is None:
            nulls_first = not key.ascending
        value_codes = codes if key.ascending else (k + 1) - codes
        null_code = 0 if nulls_first else k + 2
        return np.where(vec.null, null_code, value_codes)

    def _sort(self, node: P.Sort) -> Batch:
        child = self.run(node.child)
        n = child.num_rows
        est = 8.0 * n * (len(node.keys) + 1)
        if self._budgeted and node.keys and n and self._resource.over_budget(est):
            order = self._external_sort_indices(node, child, est)
        else:
            order = self._sort_indices(child, node.keys, stats_node=node)
        if self._track_mem:
            # one int64 code array per sort key plus the lexsort result
            self._note_memory(node, est)
        return child.take(order)

    def _external_sort_indices(
        self, node: P.Sort, child: Batch, est_bytes: float
    ) -> np.ndarray:
        """External merge sort over the budget: slice the sort-code
        arrays into runs, lexsort each run and spill it as a stacked
        ``(codes..., global_index)`` int64 array, then k-way merge the
        memory-mapped runs with a heap.  Merging by the full tuple —
        global index last — reproduces ``np.lexsort``'s stable order
        exactly, so the budgeted sort is byte-identical."""
        resource = self._resource
        n = child.num_rows
        codes = self._key_codes(child, node.keys, stats_node=node)
        parts = resource.partitions_for(est_bytes)
        run_len = -(-n // parts)
        # runs are the spill cut and the morsel cut at once: each run
        # sorts and spills independently, and the path list keeps run
        # order (the merge reads whole tuples, so order is cosmetic —
        # determinism comes from the global-index tiebreak)
        pool = self._morsel_pool(n)

        def sort_run(start, wctx):
            wctx.check("Sort(run)")
            stop = min(start + run_len, n)
            chunk = [c[start:stop] for c in codes]
            local = np.lexsort(tuple(reversed(chunk)))
            stacked = np.stack(
                [c[local] for c in chunk]
                + [local.astype(np.int64) + np.int64(start)],
                axis=1,
            )
            path = wctx.spill_path()
            np.save(path, stacked, allow_pickle=False)
            path += ".npy"  # np.save appends the suffix
            return path, os.path.getsize(path)

        starts = list(range(0, n, run_len))
        profile = self._morsel_profile(pool)
        runs_written = self._map_morsels(sort_run, starts, pool,
                                         label="Sort(run)", profile=profile)
        paths = [path for path, _ in runs_written]
        spilled = sum(nbytes for _, nbytes in runs_written)
        self._note_parallel(node, pool, len(starts), profile)
        runs = [np.load(path, mmap_mode="r") for path in paths]
        order = np.empty(n, dtype=np.int64)
        for i, row in enumerate(heapq.merge(*(map(tuple, run) for run in runs))):
            if i % _CHECK_EVERY == 0:
                resource.check("Sort(merge)")
            order[i] = row[-1]
        del runs
        for path in paths:
            os.unlink(path)
        self._note_spill(node, len(paths), spilled)
        return order

    def _distinct(self, batch: Batch) -> Batch:
        if batch.num_rows == 0:
            return batch
        row_ids = _row_codes(list(batch.columns.values()))
        _, first_idx = np.unique(row_ids, return_index=True)
        return batch.take(np.sort(first_idx))

    def _set_op(self, node: P.SetOpPlan) -> Batch:
        left = self.run(node.left)
        right = self.run(node.right)
        right = Batch(dict(zip(left.names, right.columns.values())))
        if node.op == "union_all":
            return Batch.concat([left, right])
        if node.op == "union":
            return self._distinct(Batch.concat([left, right]))
        # intersect / except use distinct-row semantics
        combined = Batch.concat([left, right])
        row_ids = _row_codes(list(combined.columns.values()))
        left_ids = set(row_ids[: left.num_rows].tolist())
        right_ids = set(row_ids[left.num_rows:].tolist())
        if node.op == "intersect":
            keep_ids = left_ids & right_ids
        elif node.op == "except":
            keep_ids = left_ids - right_ids
        else:
            raise ExecutionError(f"unknown set op {node.op}")
        mask = np.fromiter(
            (rid in keep_ids for rid in row_ids[: left.num_rows]),
            dtype=bool,
            count=left.num_rows,
        )
        return self._distinct(left.filter(mask))

    def _rename(self, node: P.Rename) -> Batch:
        child = self.run(node.child)
        mapping = {
            old: f"{node.alias}.{old.rsplit('.', 1)[-1]}" for old in child.names
        }
        return child.renamed(mapping)
