"""Differential execution harness: engine vs SQLite oracle.

For every query AST the harness runs both engines and compares the
normalized result sets.  A comparison that fails at full precision is
retried down a short tolerance ladder before being declared a mismatch:

1. exact comparison at ``float_digits`` (default 6) significant digits;
2. if the query has a LIMIT but its ORDER BY is not a total order, the
   visible rows are an arbitrary tie-break — rerun both sides without
   LIMIT/OFFSET and compare as multisets (``tie_ambiguous``);
3. retry with ``math.isclose`` on the raw cell values (rel 1e-9) —
   numpy's pairwise summation and SQLite's running sum accumulate
   floating-point error in different orders, and when the true value
   sits on a decimal rounding boundary the quantized forms split no
   matter how many digits are kept (``float_tolerant``).

Anything that still differs is a real mismatch and gets delta-shrunk
into a minimal repro for the checked-in corpus.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional

from ..engine.errors import EngineError, QueryTimeout
from ..engine.sql import ast_nodes as A
from ..engine.sql.parser import parse_query
from .normalize import compare_results, is_total_order
from .oracle import SqliteOracle
from .render import to_engine_sql, to_sqlite_sql

#: outcome statuses that count as agreement; ``engine_timeout`` passes
#: because the harness's wall-clock guard killing a pathological
#: generated query is a liveness protection, not a disagreement
PASS_STATUSES = frozenset(
    {"match", "float_tolerant", "tie_ambiguous", "engine_timeout"}
)


@dataclasses.dataclass
class DiffOutcome:
    """Result of one differential check."""

    status: str  # match | float_tolerant | tie_ambiguous | mismatch
    #           # | engine_error | oracle_error
    sql: str
    sqlite_sql: str
    detail: str = ""
    label: str = ""

    @property
    def passed(self) -> bool:
        return self.status in PASS_STATUSES

    def with_label(self, label: str) -> "DiffOutcome":
        return dataclasses.replace(self, label=label)


class DiffHarness:
    """Runs query ASTs against both engines and classifies the outcome."""

    def __init__(
        self,
        db,
        oracle: Optional[SqliteOracle] = None,
        float_digits: int = 6,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-9,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.db = db
        self.oracle = oracle if oracle is not None else SqliteOracle.from_database(db)
        self.float_digits = float_digits
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        #: per-query wall-clock guard (via the engine's governor) so a
        #: pathological generated query cannot hang a fuzz run
        self.timeout_s = timeout_s

    # -- single-query checking ---------------------------------------------

    def check_sql(self, sql: str, label: str = "") -> DiffOutcome:
        return self.check_query(parse_query(sql), label=label)

    def check_query(self, query: A.Query, label: str = "") -> DiffOutcome:
        sql = to_engine_sql(query)
        sqlite_sql = to_sqlite_sql(query)
        try:
            engine_rows = self._engine_rows(query, sql)
        except QueryTimeout as exc:
            return DiffOutcome("engine_timeout", sql, sqlite_sql, str(exc), label)
        except EngineError as exc:
            return DiffOutcome("engine_error", sql, sqlite_sql, str(exc), label)
        try:
            oracle_rows, _ = self.oracle.execute(sqlite_sql)
        except Exception as exc:  # sqlite3 raises its own hierarchy
            return DiffOutcome("oracle_error", sql, sqlite_sql, str(exc), label)

        ordered = bool(query.order_by)
        total = is_total_order(query)
        diff = compare_results(
            engine_rows, oracle_rows, ordered and total, self.float_digits
        )
        if diff is None:
            return DiffOutcome("match", sql, sqlite_sql, "", label)

        # ORDER BY + LIMIT with ties: which duplicates survive the cut is
        # an arbitrary tie-break — compare the unlimited multisets instead
        if query.limit is not None and not total:
            unlimited = dataclasses.replace(query, limit=None, offset=0)
            retry = self._compare_unlimited(unlimited)
            if retry is not None:
                return retry.with_label(label)

        tolerant = compare_results(
            engine_rows,
            oracle_rows,
            ordered and total,
            self.float_digits,
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
        )
        if tolerant is None:
            return DiffOutcome(
                "float_tolerant",
                sql,
                sqlite_sql,
                f"within rel_tol={self.rel_tol}; exact diff: {diff}",
                label,
            )
        return DiffOutcome("mismatch", sql, sqlite_sql, diff, label)

    def _engine_rows(self, query: A.Query, sql: str) -> list[tuple]:
        """Run the AST as is (no render / re-parse round trip), recorded
        under the text rendered for its outcome."""
        return self.db.execute_ast(query, sql, timeout_s=self.timeout_s).rows()

    def _compare_unlimited(self, query: A.Query) -> Optional[DiffOutcome]:
        sql = to_engine_sql(query)
        sqlite_sql = to_sqlite_sql(query)
        try:
            engine_rows = self._engine_rows(query, sql)
            oracle_rows, _ = self.oracle.execute(sqlite_sql)
        except Exception:
            return None
        diff = compare_results(
            engine_rows,
            oracle_rows,
            False,
            self.float_digits,
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
        )
        if diff is None:
            return DiffOutcome(
                "tie_ambiguous",
                sql,
                sqlite_sql,
                "LIMIT tie-break differs; unlimited multisets agree",
            )
        return None

    # -- workloads ----------------------------------------------------------

    def run_qualification(self, qgen, stream: int = 0) -> list[DiffOutcome]:
        """Differentially check all 99 qualification queries."""
        outcomes = []
        for template_id in sorted(qgen.templates):
            generated = qgen.generate(template_id, stream)
            for i, statement in enumerate(generated.statements):
                suffix = f"/{i}" if len(generated.statements) > 1 else ""
                outcomes.append(
                    self.check_sql(statement, label=f"query{template_id}{suffix}")
                )
        return outcomes

    def run_fuzz(
        self,
        count: int,
        seed: int,
        on_mismatch: Optional[Callable[[A.Query, DiffOutcome], None]] = None,
    ) -> list[DiffOutcome]:
        """Run ``count`` generated queries; invoke ``on_mismatch`` with the
        (unshrunk) AST for every real disagreement."""
        from .fuzzer import QueryFuzzer

        fuzzer = QueryFuzzer(self.db, seed)
        outcomes = []
        for index in range(count):
            query = fuzzer.generate()
            outcome = self.check_query(query, label=f"fuzz#{index}")
            outcomes.append(outcome)
            if not outcome.passed and on_mismatch is not None:
                on_mismatch(query, outcome)
        return outcomes


def summarize(outcomes: Iterable[DiffOutcome]) -> dict[str, int]:
    """Count outcomes by status, e.g. ``{'match': 97, 'mismatch': 2}``."""
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts
