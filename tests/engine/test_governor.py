"""Resource governor: memory budgets with spill, timeouts, cancellation.

The spill tests assert *byte identity*: a query run under a budget far
smaller than its working set must produce exactly the rows — values
and order — of the unbudgeted run, while actually exercising the spill
path (``spill_partitions > 0``).
"""

from __future__ import annotations

import glob
import os
import tempfile
import threading
import time

import pytest

from repro.dsdgen import DsdGen, build_database
from repro.engine import QueryTimeout, ResourceContext
from repro.engine.governor import read_spill, write_spill
from repro.faults import FaultInjector

SF = 0.01
SEED = 19620718

#: a budget far below any fact-table operator's working set at sf=0.01
TIGHT_BUDGET = 4096


@pytest.fixture(scope="module")
def sf_db():
    data = DsdGen(SF, seed=SEED).generate()
    db, _ = build_database(SF, data=data)
    return db


def _spill_dirs():
    return glob.glob(os.path.join(tempfile.gettempdir(), "tpcds-spill-*"))


JOIN_SQL = """
    SELECT d_year, i_brand_id, SUM(ss_ext_sales_price) AS total
    FROM store_sales, date_dim, item
    WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
    GROUP BY d_year, i_brand_id
    ORDER BY d_year, i_brand_id, total
"""

SORT_SQL = """
    SELECT ss_item_sk, ss_customer_sk, ss_ext_sales_price
    FROM store_sales
    ORDER BY ss_ext_sales_price DESC, ss_item_sk, ss_customer_sk
"""

AGG_SQL = """
    SELECT ss_customer_sk, COUNT(*) AS cnt, SUM(ss_net_paid) AS paid,
           AVG(ss_quantity) AS qty
    FROM store_sales
    GROUP BY ss_customer_sk
    ORDER BY cnt DESC, ss_customer_sk
"""

ROLLUP_SQL = """
    SELECT d_year, d_moy, SUM(ss_ext_sales_price) AS total
    FROM store_sales, date_dim
    WHERE ss_sold_date_sk = d_date_sk
    GROUP BY ROLLUP (d_year, d_moy)
    ORDER BY d_year, d_moy
"""


@pytest.mark.parametrize(
    "sql", [JOIN_SQL, SORT_SQL, AGG_SQL, ROLLUP_SQL],
    ids=["grace-join", "external-sort", "agg-spill", "rollup-spill"],
)
def test_spill_byte_identical(sf_db, sql):
    baseline = sf_db.execute(sql)
    budgeted = sf_db.execute(sql, mem_budget_bytes=TIGHT_BUDGET)
    assert budgeted.spill_partitions > 0, "budget did not trigger spilling"
    assert budgeted.spilled_bytes > 0
    assert baseline.rows() == budgeted.rows()
    assert not _spill_dirs(), "spill directories leaked"


def test_explain_analyze_shows_spill_counters(sf_db):
    text = sf_db.explain_analyze(JOIN_SQL, mem_budget_bytes=TIGHT_BUDGET)
    assert "spill_partitions=" in text
    assert "spilled_bytes=" in text
    assert not _spill_dirs()


def test_unbudgeted_result_reports_no_spill(sf_db):
    result = sf_db.execute(JOIN_SQL)
    assert result.spill_partitions == 0
    assert result.spilled_bytes == 0


def test_timeout_raises_promptly_and_leaves_no_spill_files(sf_db):
    # operator-level injected delays make every batch boundary slow, so
    # the deadline check must fire within ~one batch of the deadline
    sf_db.fault_injector = FaultInjector(
        seed=11, delay_rate=1.0, max_delay_s=0.02, scope=("operator",)
    )
    try:
        start = time.perf_counter()
        with pytest.raises(QueryTimeout):
            sf_db.execute(JOIN_SQL, timeout_s=0.1, mem_budget_bytes=TIGHT_BUDGET)
        elapsed = time.perf_counter() - start
    finally:
        sf_db.fault_injector = None
    assert elapsed < 5.0, f"timeout latency {elapsed:.2f}s is not prompt"
    assert not _spill_dirs(), "timed-out query leaked spill files"


# an expired deadline and a set cancel flag are columns of the entry
# point × option matrix (test_entry_matrix.py)


def test_unset_cancel_flag_does_not_interfere(sf_db):
    result = sf_db.execute(
        "SELECT COUNT(*) FROM date_dim", cancel=threading.Event()
    )
    assert result.scalar() > 0


def test_resource_context_partitioning_math():
    ctx = ResourceContext(memory_budget_bytes=100.0)
    assert ctx.partitions_for(150.0) == 2
    assert ctx.partitions_for(1000.0) == 16
    assert ctx.partitions_for(1e12) == 64  # capped
    assert ctx.over_budget(101.0)
    assert not ctx.over_budget(99.0)
    ctx.cleanup()


def test_spill_file_roundtrip():
    import numpy as np

    ctx = ResourceContext(memory_budget_bytes=1.0)
    try:
        path = ctx.spill_path()
        arrays = {
            "ints": np.arange(10, dtype=np.int64),
            "strs": np.array(["a", None, "c"], dtype=object),
        }
        nbytes = write_spill(path, arrays)
        assert nbytes > 0
        loaded = read_spill(path)
        assert loaded["ints"].tolist() == list(range(10))
        assert loaded["strs"].tolist() == ["a", None, "c"]
    finally:
        ctx.cleanup()
    assert not os.path.exists(path)


def test_memory_pressure_forces_budget(sf_db):
    # no explicit budget, but the injector imposes one -> spilling happens
    sf_db.fault_injector = FaultInjector(seed=0, force_budget_bytes=TIGHT_BUDGET)
    try:
        result = sf_db.execute(AGG_SQL)
    finally:
        sf_db.fault_injector = None
    assert result.spill_partitions > 0
    assert result.rows() == sf_db.execute(AGG_SQL).rows()
