"""Exception hierarchy for the query engine.

Every error raised by the engine derives from :class:`EngineError`, so
callers can catch one type. The subtypes mirror the stage of query
processing that failed, which makes test assertions precise.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class SqlSyntaxError(EngineError):
    """The SQL text could not be tokenized or parsed.

    Carries the 1-based line/column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PlanningError(EngineError):
    """The statement parsed but could not be bound to the catalog.

    Examples: unknown table, unknown column, ambiguous column reference,
    aggregate misuse (nested aggregates, aggregate in WHERE).
    """


class ExecutionError(EngineError):
    """A runtime failure while executing a physical plan."""


class ResourceError(EngineError):
    """A query exceeded a resource bound set by its
    :class:`~repro.engine.governor.ResourceContext` (deadline, cancel
    flag, or a memory budget that could not be honored by spilling)."""


class QueryTimeout(ResourceError):
    """The query ran past its deadline; raised cooperatively at the
    next batch boundary after the deadline passes."""


class QueryCancelled(ResourceError):
    """The query's cancel flag was set; raised cooperatively at the
    next batch boundary."""


def failure_status(exc: BaseException) -> str:
    """The status a failed statement is reported under — ``"timeout"``,
    ``"cancelled"`` or ``"failed"`` — in the statement store, the
    runner's ``QueryTiming`` and the query service's counters alike."""
    if isinstance(exc, QueryTimeout):
        return "timeout"
    if isinstance(exc, QueryCancelled):
        return "cancelled"
    return "failed"


class MemoryBudgetExceeded(ResourceError):
    """An operator's working set exceeded the memory budget and could
    not be reduced by partitioning/spilling."""


class CatalogError(EngineError):
    """Catalog violation: duplicate table, unknown index, bad DDL."""


class StoreError(EngineError):
    """The persistent column store refused a directory: missing or torn
    manifest, format-version mismatch, schema-fingerprint mismatch, or
    a column file that fails its trailer check."""


class TypeError_(EngineError):
    """Type mismatch in an expression (named with underscore to avoid
    shadowing the builtin)."""


class ConstraintError(EngineError):
    """Primary-key or not-null constraint violation during DML."""
