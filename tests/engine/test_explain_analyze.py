"""EXPLAIN / EXPLAIN ANALYZE over a seeded sf-model database.

Structural assertions only (node kinds, row counts, annotations) —
timings vary run to run, so no test depends on an elapsed value."""

import re

import pytest

from repro.engine import Database


def _q52(qgen) -> str:
    return qgen.generate(52, stream=0).statements[0]


class TestExplainAnalyzeText:
    def test_annotated_plan_tree_for_query52(self, loaded_db, qgen):
        text = loaded_db.explain_analyze(_q52(qgen))
        # the Figure 6 plan shape: limit/sort/aggregate over a join of
        # store_sales with date_dim and item
        assert "Limit" in text
        assert "Sort" in text
        assert "HashAggregate" in text
        assert "HashJoin" in text
        assert "Scan(store_sales" in text
        # every operator line carries measured rows and elapsed
        for line in text.splitlines():
            if line.strip().startswith(("Limit", "Sort", "Hash", "Scan")):
                assert re.search(r"rows=\d+ elapsed=\d+\.\d+ms", line), line
        assert re.search(r"Execution: rows=\d+ elapsed=", text)

    def test_estimates_and_q_error_annotated(self, loaded_db, qgen):
        text = loaded_db.explain_analyze(_q52(qgen))
        # every operator line carries the optimizer estimate + Q-error
        for line in text.splitlines():
            if line.strip().startswith(("Limit", "Sort", "Hash", "Scan")):
                assert re.search(r"est=\d+ q_err=\d+\.\d+", line), line

    def test_misestimate_flagged_above_threshold(self, simple_db):
        # the subquery predicate cannot be pushed into the scan, so it
        # stays a Filter whose estimate is child * 0.2 (1.2 of 6 rows);
        # every row passes, putting the Q-error past the 4x threshold
        text = simple_db.explain_analyze(
            "SELECT item_sk, qty FROM sales "
            "WHERE qty > (SELECT MIN(qty) FROM sales) - 1"
        )
        assert "[misestimate]" in text

    def test_memory_reported_for_join_and_peak(self, loaded_db):
        text = loaded_db.explain_analyze(
            "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk"
        )
        join_line = next(l for l in text.splitlines() if "HashJoin" in l)
        assert re.search(r"mem=\d+(\.\d+)?\s?(B|KB|MB|GB)", join_line), join_line
        assert re.search(r"peak_mem=\d+(\.\d+)?\s?(B|KB|MB|GB)", text)

    def test_row_counts_match_execution(self, loaded_db, qgen):
        sql = _q52(qgen)
        expected = len(loaded_db.execute(sql))
        text = loaded_db.explain_analyze(sql)
        top_line = text.splitlines()[0]
        assert f"rows={expected} " in top_line

    def test_scan_reports_input_rows_and_pushed_filters(self, loaded_db):
        text = loaded_db.explain_analyze(
            "SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 50"
        )
        scan_line = next(l for l in text.splitlines() if "Scan(store_sales" in l)
        rows_in = int(re.search(r"rows_in=(\d+)", scan_line).group(1))
        assert rows_in == loaded_db.table("store_sales").num_rows
        assert "pushed_filters=1" in scan_line

    def test_join_reports_build_and_probe_sides(self, loaded_db):
        text = loaded_db.explain_analyze(
            "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk"
        )
        join_line = next(l for l in text.splitlines() if "HashJoin" in l)
        assert "build_rows=" in join_line
        assert "probe_rows=" in join_line

    def test_cte_memo_hits_surface(self, simple_db):
        text = simple_db.explain_analyze(
            "WITH c AS (SELECT item_sk, qty FROM sales) "
            "SELECT * FROM c UNION ALL SELECT * FROM c"
        )
        assert "memo_hits=1" in text

    def test_rewrite_annotation_when_matview_answers(self, fresh_db):
        fresh_db.create_materialized_view("mv_brand", """
            SELECT i_brand, SUM(ss_ext_sales_price)
            FROM store_sales, item
            WHERE ss_item_sk = i_item_sk
            GROUP BY i_brand
        """)
        sql = (
            "SELECT i_brand, SUM(ss_ext_sales_price) "
            "FROM store_sales, item WHERE ss_item_sk = i_item_sk "
            "GROUP BY i_brand"
        )
        header = "-- rewritten to use materialized view mv_brand"
        text = fresh_db.explain_analyze(sql)
        assert text.startswith(header)
        assert "MatViewScan(mv_brand" in text
        assert fresh_db.explain(sql).startswith(header)
        assert fresh_db.execute(sql).rewritten_from_view == "mv_brand"

    def test_rejects_dml(self, simple_db):
        from repro.engine.errors import PlanningError

        with pytest.raises(PlanningError):
            simple_db.explain_analyze("DELETE FROM sales")


class TestExplainAnalyzeDict:
    def test_tree_shape_and_totals(self, loaded_db, qgen):
        sql = _q52(qgen)
        tree = loaded_db.explain_analyze_dict(sql)
        assert tree["sql"] == sql
        assert tree["rows"] == len(loaded_db.execute(sql))
        assert tree["elapsed"] > 0
        node = tree["plan"]
        labels = []
        stack = [node]
        while stack:
            item = stack.pop()
            labels.append(item["label"])
            assert "stats" in item, item["label"]
            stack.extend(item.get("children", ()))
        assert any(label.startswith("Scan(store_sales") for label in labels)

    def test_estimates_q_error_and_memory_in_dict(self, loaded_db, qgen):
        tree = loaded_db.explain_analyze_dict(_q52(qgen))
        assert tree["peak_memory_bytes"] > 0
        nodes = []
        stack = [tree["plan"]]
        while stack:
            item = stack.pop()
            nodes.append(item)
            stack.extend(item.get("children", ()))
        for node in nodes:
            assert node["estimated_rows"] >= 1.0, node["label"]
            assert node["q_error"] >= 1.0, node["label"]
            assert isinstance(node["misestimate"], bool), node["label"]
        assert any("mem_bytes" in n["stats"] for n in nodes)

    def test_explain_dict_has_estimates_but_no_stats(self, loaded_db, qgen):
        tree = loaded_db.explain_dict(_q52(qgen))
        stack = [tree["plan"]]
        while stack:
            item = stack.pop()
            assert item["estimated_rows"] >= 1.0, item["label"]
            assert "stats" not in item, item["label"]
            stack.extend(item.get("children", ()))


class TestExplainPrefixInExecute:
    def test_explain_prefix_returns_plan_rows(self, simple_db):
        result = simple_db.execute("EXPLAIN SELECT item_sk FROM sales")
        assert result.column_names == ["QUERY PLAN"]
        text = "\n".join(row[0] for row in result.rows())
        assert "Scan(sales" in text
        # plain EXPLAIN does not execute, so no measured stats
        assert "elapsed=" not in text

    def test_explain_analyze_prefix_is_annotated(self, simple_db):
        result = simple_db.execute(
            "explain analyze SELECT COUNT(*) FROM sales WHERE qty > 1"
        )
        text = "\n".join(row[0] for row in result.rows())
        assert "rows=" in text
        assert "Execution:" in text


class TestExplainText:
    def test_plan_text_populated(self, simple_db):
        text = simple_db.explain(
            "SELECT item_sk FROM sales WHERE qty > 1 ORDER BY 1"
        )
        assert "Scan(sales" in text
        assert "Sort" in text
