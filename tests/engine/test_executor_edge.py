"""Executor edge cases: empty inputs, degenerate limits, big keys,
guard rails, and key-row ranking."""

import pytest

from repro.engine import (
    ColumnDef,
    Database,
    ExecutionError,
    TableSchema,
    decimal,
    integer,
    varchar,
)
from repro.engine.executor import _row_codes
from repro.engine.types import Kind
from repro.engine.vector import Vector


@pytest.fixture()
def db():
    db = Database()
    db.create_table(TableSchema("e", [
        ColumnDef("k", integer()), ColumnDef("v", varchar(5)),
    ]))  # stays empty
    t = db.create_table(TableSchema("t", [
        ColumnDef("k", integer()), ColumnDef("v", varchar(5)),
    ]))
    t.append_rows([[1, "a"], [2, "b"]])
    return db


class TestEmptyInputs:
    def test_scan_empty(self, db):
        assert db.execute("SELECT * FROM e").rows() == []

    def test_filter_empty(self, db):
        assert db.execute("SELECT * FROM e WHERE k > 0").rows() == []

    def test_join_empty_build_side(self, db):
        assert db.execute("SELECT * FROM t JOIN e ON t.k = e.k").rows() == []

    def test_left_join_empty_right(self, db):
        out = db.execute("SELECT t.v, e.v FROM t LEFT JOIN e ON t.k = e.k").rows()
        assert out == [("a", None), ("b", None)]

    def test_group_by_empty(self, db):
        assert db.execute("SELECT k, COUNT(*) FROM e GROUP BY k").rows() == []

    def test_global_agg_empty(self, db):
        assert db.execute("SELECT COUNT(*), SUM(k), MIN(v) FROM e").rows() == [(0, None, None)]

    def test_order_empty(self, db):
        assert db.execute("SELECT k FROM e ORDER BY k DESC").rows() == []

    def test_distinct_empty(self, db):
        assert db.execute("SELECT DISTINCT k FROM e").rows() == []

    def test_union_with_empty(self, db):
        out = db.execute("SELECT k FROM t UNION ALL SELECT k FROM e").rows()
        assert len(out) == 2

    def test_intersect_with_empty(self, db):
        assert db.execute("SELECT k FROM t INTERSECT SELECT k FROM e").rows() == []

    def test_except_from_empty(self, db):
        assert db.execute("SELECT k FROM e EXCEPT SELECT k FROM t").rows() == []

    def test_rollup_empty_grand_total_row(self, db):
        out = db.execute("SELECT k, COUNT(*) FROM e GROUP BY ROLLUP(k)").rows()
        # the grand-total grouping set yields its single row even on empty input
        assert out == [(None, 0)]

    def test_in_empty_subquery(self, db):
        out = db.execute("SELECT COUNT(*) FROM t WHERE k IN (SELECT k FROM e)").rows()
        assert out == [(0,)]

    def test_not_in_empty_subquery_all_pass(self, db):
        out = db.execute("SELECT COUNT(*) FROM t WHERE k NOT IN (SELECT k FROM e)").rows()
        assert out == [(2,)]


class TestLimits:
    def test_limit_zero(self, db):
        assert db.execute("SELECT k FROM t LIMIT 0").rows() == []

    def test_limit_past_end(self, db):
        assert len(db.execute("SELECT k FROM t LIMIT 99").rows()) == 2

    def test_offset_past_end(self, db):
        assert db.execute("SELECT k FROM t LIMIT 10 OFFSET 5").rows() == []

    def test_offset_without_order_is_positional(self, db):
        assert len(db.execute("SELECT k FROM t LIMIT 1 OFFSET 1").rows()) == 1


class TestGuards:
    def test_huge_cross_join_rejected(self):
        db = Database()
        t = db.create_table(TableSchema("big", [ColumnDef("k", integer())]))
        t.append_rows([[i] for i in range(20_000)])
        with pytest.raises(ExecutionError):
            db.execute("SELECT COUNT(*) FROM big a CROSS JOIN big b")

    def test_scalar_subquery_multirow_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT (SELECT k FROM t) FROM t")

    def test_in_subquery_multicolumn_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT 1 FROM t WHERE k IN (SELECT k, v FROM t)")


class TestBigValues:
    def test_int64_range_keys(self, db):
        db.execute(f"INSERT INTO t VALUES ({2**62}, 'big')")
        out = db.execute(f"SELECT v FROM t WHERE k = {2**62}").rows()
        assert out == [("big",)]

    def test_negative_keys_join(self):
        db = Database()
        a = db.create_table(TableSchema("a", [ColumnDef("k", integer())]))
        b = db.create_table(TableSchema("b", [ColumnDef("k", integer())]))
        a.append_rows([[-5], [0], [5]])
        b.append_rows([[-5], [5]])
        out = db.execute("SELECT a.k FROM a JOIN b ON a.k = b.k ORDER BY 1").rows()
        assert out == [(-5,), (5,)]

    def test_unicode_strings(self, db):
        db.execute("INSERT INTO t VALUES (9, 'héllo')")
        assert db.execute("SELECT v FROM t WHERE k = 9").rows() == [("héllo",)]


class TestRowCodes:
    """``_row_codes`` ranks key rows lexicographically, NULL first,
    however many and however wide the key columns are."""

    @staticmethod
    def _rank(rows):
        key = lambda row: tuple((v is not None, v) for v in row)  # noqa: E731
        order = {k: i for i, k in enumerate(sorted(set(map(key, rows))))}
        return [order[key(row)] for row in rows]

    def test_strings_and_nulls_rank_in_value_order(self):
        rows = [("b", 2), (None, 1), ("a", None), ("é", 1), ("a", 3),
                ("B", 1), ("a", None)]
        vectors = [
            Vector.from_values(Kind.STR, [r[0] for r in rows]),
            Vector.from_values(Kind.INT, [r[1] for r in rows]),
        ]
        assert _row_codes(vectors).tolist() == self._rank(rows)

    def test_nine_all_distinct_columns_do_not_overflow(self):
        # 2000 ** 9 is far past int64: the codes are re-ranked on the way
        n = 2000
        columns = [[(i * step) % 2003 for i in range(n)]
                   for step in (1, 7, 11, 13, 17, 19, 23, 29, 31)]
        vectors = [Vector.from_values(Kind.INT, c) for c in columns]
        assert _row_codes(vectors).tolist() == self._rank(list(zip(*columns)))
