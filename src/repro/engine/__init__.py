"""In-memory columnar SQL engine — the DBMS substrate for the TPC-DS
reproduction (see DESIGN.md for the substitution rationale).

Public surface: :class:`Database`, :class:`Result`,
:class:`OptimizerSettings`, the error hierarchy, and the schema type
constructors re-exported from :mod:`repro.engine.types`.
"""

from .database import Database, Result
from .errors import (
    CatalogError,
    ConstraintError,
    EngineError,
    ExecutionError,
    MemoryBudgetExceeded,
    PlanningError,
    QueryCancelled,
    QueryTimeout,
    ResourceError,
    SqlSyntaxError,
    StoreError,
)
from .governor import ResourceContext
from .optimizer import OptimizerSettings
from .parallel import WorkerPool, get_pool, shutdown_pool
from .types import (
    ColumnDef,
    Kind,
    SqlType,
    TableSchema,
    char,
    date,
    date_to_epoch_days,
    decimal,
    epoch_days_to_date,
    format_date,
    identifier,
    integer,
    parse_date,
    time_of_day,
    varchar,
)

__all__ = [
    "Database",
    "Result",
    "OptimizerSettings",
    "EngineError",
    "SqlSyntaxError",
    "PlanningError",
    "ExecutionError",
    "ResourceError",
    "QueryTimeout",
    "QueryCancelled",
    "MemoryBudgetExceeded",
    "ResourceContext",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "CatalogError",
    "ConstraintError",
    "StoreError",
    "TableSchema",
    "ColumnDef",
    "SqlType",
    "Kind",
    "identifier",
    "integer",
    "decimal",
    "char",
    "varchar",
    "date",
    "time_of_day",
    "parse_date",
    "format_date",
    "date_to_epoch_days",
    "epoch_days_to_date",
]
