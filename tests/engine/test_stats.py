"""Statistics gathering and selectivity estimation."""

import pytest

from repro.engine.sql.parser import parse_query
from repro.engine.stats import (
    ColumnStats,
    TableStats,
    conjunction_selectivity,
    estimate_selectivity,
    gather_statistics,
)


def predicate(sql_condition):
    query = parse_query(f"SELECT 1 FROM t WHERE {sql_condition}")
    return query.body.where


class TestGather:
    def test_row_count_and_ndv(self, simple_db):
        stats = gather_statistics(simple_db.table("sales"))
        assert stats.row_count == 6
        assert stats.columns["item_sk"].ndv == 3
        assert stats.columns["cust_sk"].ndv == 3

    def test_null_fraction(self, simple_db):
        stats = gather_statistics(simple_db.table("sales"))
        assert stats.columns["item_sk"].null_fraction == pytest.approx(1 / 6)

    def test_min_max(self, simple_db):
        stats = gather_statistics(simple_db.table("sales"))
        assert stats.columns["price"].min_value == 5.0
        assert stats.columns["price"].max_value == 25.0

    def test_string_columns_have_no_min_max(self, simple_db):
        stats = gather_statistics(simple_db.table("item"))
        assert stats.columns["i_brand"].min_value is None
        assert stats.columns["i_brand"].ndv == 4

    def test_catalog_caches_stats(self, simple_db):
        assert simple_db.catalog.stats("sales") is not None
        assert simple_db.catalog.stats("missing_table") is None


class TestSelectivity:
    @pytest.fixture()
    def stats(self, simple_db):
        return gather_statistics(simple_db.table("sales"))

    def test_equality_uses_ndv(self, stats):
        sel = estimate_selectivity(predicate("item_sk = 1"), stats, "sales")
        assert sel == pytest.approx(1 / 3)

    def test_range_interpolates(self, stats):
        sel = estimate_selectivity(predicate("price < 15"), stats, "sales")
        assert 0 < sel < 1
        wider = estimate_selectivity(predicate("price < 25"), stats, "sales")
        assert wider >= sel

    def test_between_width(self, stats):
        narrow = estimate_selectivity(predicate("price BETWEEN 10 AND 11"), stats, "sales")
        wide = estimate_selectivity(predicate("price BETWEEN 5 AND 25"), stats, "sales")
        assert narrow < wide

    def test_in_list_scales_with_length(self, stats):
        one = estimate_selectivity(predicate("item_sk IN (1)"), stats, "sales")
        three = estimate_selectivity(predicate("item_sk IN (1, 2, 3)"), stats, "sales")
        assert three == pytest.approx(3 * one)

    def test_and_uses_exponential_backoff(self, stats):
        a = estimate_selectivity(predicate("item_sk = 1"), stats, "sales")
        b = estimate_selectivity(predicate("cust_sk = 10"), stats, "sales")
        both = estimate_selectivity(predicate("item_sk = 1 AND cust_sk = 10"), stats, "sales")
        # s0 * s1^(1/2) with conjuncts sorted ascending — dampened, so
        # between pure independence (a*b) and the most selective conjunct
        assert both == pytest.approx(min(a, b) * max(a, b) ** 0.5)
        assert a * b < both <= min(a, b)

    def test_backoff_exponents_halve_per_conjunct(self):
        sels = [0.5, 0.2, 0.1]
        expected = 0.1 * 0.2 ** 0.5 * 0.5 ** 0.25
        assert conjunction_selectivity(sels) == pytest.approx(expected)
        assert conjunction_selectivity([]) == 1.0
        assert conjunction_selectivity([2.0, -1.0]) <= 1.0

    def test_or_adds_with_overlap(self, stats):
        a = estimate_selectivity(predicate("item_sk = 1"), stats, "sales")
        either = estimate_selectivity(predicate("item_sk = 1 OR item_sk = 2"), stats, "sales")
        assert a < either <= 1.0

    def test_or_clamped_to_one(self, stats):
        either = estimate_selectivity(
            predicate("price BETWEEN 0 AND 99999 OR qty >= 0"), stats, "sales"
        )
        assert either <= 1.0

    def test_is_null_uses_null_fraction(self, stats):
        sel = estimate_selectivity(predicate("item_sk IS NULL"), stats, "sales")
        assert sel == pytest.approx(1 / 6)

    def test_not_inverts(self, stats):
        sel = estimate_selectivity(predicate("NOT item_sk = 1"), stats, "sales")
        assert sel == pytest.approx(1 - 1 / 3)

    def test_missing_stats_fall_back(self):
        sel = estimate_selectivity(predicate("a = 1"), None, "t")
        assert 0 < sel < 1

    def test_missing_stats_use_system_r_defaults(self):
        assert estimate_selectivity(predicate("a = 1"), None, "t") == 0.05
        assert estimate_selectivity(predicate("a < 10"), None, "t") == 0.25
        assert estimate_selectivity(predicate("a LIKE 'x%'"), None, "t") == 0.1
        # a column the stats object does not cover also falls back
        stats = TableStats(row_count=10, columns={})
        assert estimate_selectivity(predicate("nope = 1"), stats, "t") == 0.05

    def test_null_heavy_column(self):
        stats = TableStats(
            row_count=100,
            columns={"c": ColumnStats(ndv=2, null_fraction=0.95)},
        )
        assert estimate_selectivity(
            predicate("c IS NULL"), stats, "t"
        ) == pytest.approx(0.95)
        assert estimate_selectivity(
            predicate("c IS NOT NULL"), stats, "t"
        ) == pytest.approx(0.05)

    def test_selectivity_bounded(self, stats):
        sel = estimate_selectivity(predicate("price BETWEEN 0 AND 99999"), stats, "sales")
        assert sel <= 1.0


class TestJoinEstimate:
    """The NDV-based equi-join cardinality estimate on the optimizer."""

    @staticmethod
    def _tiny_db(gather: bool):
        from repro.engine import ColumnDef, Database, TableSchema, integer

        db = Database()
        fact = db.create_table(TableSchema("f", [ColumnDef("k", integer())]))
        dim = db.create_table(TableSchema("d", [ColumnDef("dk", integer())]))
        fact.append_rows([[1], [1], [2], [2], [3], [3]])
        dim.append_rows([[1], [1], [2], [3]])
        if gather:
            db.gather_stats()
        return db

    @staticmethod
    def _join_estimate(db):
        from repro.engine import plan as P

        plan, _ = db._plan(parse_query("SELECT * FROM f, d WHERE k = dk"))
        join = next(n for n in plan.walk() if isinstance(n, P.Join))
        return join.estimated_rows

    def test_equi_join_uses_ndv(self):
        db = self._tiny_db(gather=True)
        # |f| * |d| / max(ndv(k)=3, ndv(dk)=3) = 6 * 4 / 3
        assert self._join_estimate(db) == pytest.approx(8.0)

    def test_equi_join_falls_back_without_ndv(self):
        db = self._tiny_db(gather=False)
        # no gathered stats: the old max(left, right) estimate
        assert self._join_estimate(db) == pytest.approx(6.0)
