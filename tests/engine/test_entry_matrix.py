"""Entry point × execution option matrix.

Every public way to run a statement goes through one pipeline, so every
option must behave identically on all of them: the same typed error for
an expired deadline, a set cancel flag or an injected query fault; the
same spill total under a memory budget; the same rows under a worker
pool — and every call leaves exactly one row in the statement store and
one ``engine.statement_seconds`` observation.
"""

from __future__ import annotations

import glob
import os
import re
import tempfile
import threading

import pytest

from repro.dsdgen import build_database
from repro.engine import ColumnDef, QueryCancelled, QueryTimeout, TableSchema
from repro.engine import decimal, integer
from repro.engine.sql.parser import parse_query
from repro.faults import FaultInjector, InjectedFault
from repro.obs import MetricsRegistry, StatementStore, set_registry

from ..conftest import SESSION_SF

#: a budget far below the join's and the aggregate's working set
TIGHT_BUDGET = 4096

SQL = """
    SELECT d_year, i_brand_id, SUM(ss_ext_sales_price) AS total
    FROM store_sales, date_dim, item
    WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
    GROUP BY d_year, i_brand_id
    ORDER BY d_year, i_brand_id, total
"""

SINK = TableSchema("matrix_sink", [
    ColumnDef("d_year", integer()),
    ColumnDef("i_brand_id", integer()),
    ColumnDef("total", decimal()),
])


def _sum_spill(text: str) -> int:
    return sum(int(n) for n in re.findall(r"spill_partitions=(\d+)", text))


def _walk(node: dict):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def _from_text(text: str):
    rows = int(re.search(r"Execution: rows=(\d+)", text).group(1))
    return rows, _sum_spill(text)


# each entry point runs SQL under ``options`` and reports what it can
# see of the outcome: (rows or row count, spill partitions)


def _execute(db, options):
    result = db.execute(SQL, **options)
    return result.rows(), result.spill_partitions


def _insert_select(db, options):
    result = db.execute(f"INSERT INTO matrix_sink {SQL}", **options)
    return result.rowcount, result.spill_partitions


def _explain_analyze_prefix(db, options):
    result = db.execute(f"EXPLAIN ANALYZE {SQL}", **options)
    return _from_text("\n".join(row[0] for row in result.rows()))


def _execute_ast(db, options):
    result = db.execute_ast(parse_query(SQL), SQL, **options)
    return result.rows(), result.spill_partitions


def _explain_analyze(db, options):
    return _from_text(db.explain_analyze(SQL, **options))


def _explain_analyze_dict(db, options):
    tree = db.explain_analyze_dict(SQL, **options)
    spill = sum(
        node["stats"].get("spill_partitions", 0) for node in _walk(tree["plan"])
    )
    return tree["rows"], spill


ENTRY_POINTS = [
    _execute, _insert_select, _explain_analyze_prefix,
    _execute_ast, _explain_analyze, _explain_analyze_dict,
]


def _expired_deadline():
    return {"timeout_s": 0.0}


def _cancelled():
    flag = threading.Event()
    flag.set()
    return {"cancel": flag}


def _query_fault():
    return {"faults": FaultInjector(seed=1, error_rate=1.0, scope=("query",))}


#: option -> (fresh keyword arguments, expected error, statement-store status)
FAILING = {
    "timeout_s": (_expired_deadline, QueryTimeout, "timeout"),
    "cancel": (_cancelled, QueryCancelled, "cancelled"),
    "faults": (_query_fault, InjectedFault, "failed"),
}
PASSING = {
    "mem_budget_bytes": {"mem_budget_bytes": TIGHT_BUDGET},
    "workers": {"workers": 2},
}


@pytest.fixture(scope="module")
def matrix_db(generated_data):
    db, _ = build_database(SESSION_SF, data=generated_data)
    db.statement_store = StatementStore()
    return db


@pytest.fixture(scope="module")
def reference(matrix_db):
    """What the plainest entry point answers: the rows with no option
    set, and the spill total under the tight budget."""
    rows = matrix_db.execute(SQL).rows()
    spill = matrix_db.execute(SQL, mem_budget_bytes=TIGHT_BUDGET).spill_partitions
    assert rows and spill > 0, "budget did not trigger spilling"
    return rows, spill


@pytest.fixture()
def observed(matrix_db):
    """Yields a function returning (statement-store rows, histogram
    observations) recorded since the fixture was set up."""
    if "matrix_sink" in matrix_db.catalog.table_names:
        matrix_db.drop_table("matrix_sink")
    matrix_db.create_table(SINK)
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    logged = len(matrix_db.statement_store.recent())

    def since():
        seconds = registry.histogram("engine.statement_seconds")
        return matrix_db.statement_store.recent()[logged:], seconds.count

    try:
        yield since
    finally:
        set_registry(previous)


@pytest.mark.parametrize("option", FAILING)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_failing_option_raises_the_same_error_everywhere(
    matrix_db, observed, entry, option
):
    make_options, error, status = FAILING[option]
    with pytest.raises(error):
        entry(matrix_db, make_options())
    logged, observations = observed()
    assert [row["status"] for row in logged] == [status]
    assert observations == 1
    assert matrix_db.table("matrix_sink").num_rows == 0


@pytest.mark.parametrize("option", PASSING)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_passing_option_answers_the_same_everywhere(
    matrix_db, reference, observed, entry, option
):
    rows, spill = reference
    answer, spilled = entry(matrix_db, PASSING[option])
    logged, observations = observed()
    assert [row["status"] for row in logged] == ["ok"]
    assert logged[0]["rows"] == len(rows)
    assert observations == 1
    assert spilled == (spill if option == "mem_budget_bytes" else 0)
    leaked = glob.glob(os.path.join(tempfile.gettempdir(), "tpcds-spill-*"))
    assert not leaked, "spill directories outlived their statement"
    if option == "workers":
        assert logged[0]["workers"] >= 2
    if entry is _insert_select:
        answer = matrix_db.execute("SELECT * FROM matrix_sink").rows()
    # entry points that return a plan can only show the row count
    assert answer == (rows if isinstance(answer, list) else len(rows))


# -- one clock, one record ---------------------------------------------------


def test_parse_error_is_recorded_as_failed(matrix_db, observed):
    from repro.engine import SqlSyntaxError

    with pytest.raises(SqlSyntaxError):
        matrix_db.execute("SELECT FROM WHERE")
    logged, observations = observed()
    assert [row["status"] for row in logged] == ["failed"]
    assert logged[0]["error"].startswith("SqlSyntaxError")
    assert observations == 1


def test_execute_ast_without_text_is_observed_but_not_recorded(
    matrix_db, reference, observed
):
    assert matrix_db.execute_ast(parse_query(SQL)).rows() == reference[0]
    assert observed() == ([], 1)


def test_elapsed_includes_parsing(matrix_db, monkeypatch):
    import time

    from repro.engine import database

    def slow_parse(sql):
        time.sleep(0.05)
        return parse_query(sql)

    monkeypatch.setattr(database, "parse_statement", slow_parse)
    assert matrix_db.execute("SELECT COUNT(*) FROM item").elapsed >= 0.05


def test_dml_without_a_query_is_bounded_too(matrix_db, observed):
    matrix_db.execute("INSERT INTO matrix_sink VALUES (2000, 1, 1.5)")
    with pytest.raises(QueryCancelled):
        matrix_db.execute("DELETE FROM matrix_sink", **_cancelled())
    assert matrix_db.table("matrix_sink").num_rows == 1
    logged, _ = observed()
    assert [row["status"] for row in logged] == ["ok", "cancelled"]
