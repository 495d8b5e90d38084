"""``maintenance_store_sf01`` — refresh rounds against a sf 0.1 column
store: the 12 maintenance operations, auxiliary-structure maintenance,
an incremental save, a reopen, and read-back queries.

Writes beside reads on the same storage and engine layers: a colstore
or matview change that speeds scans but slows dirty-column rewrites,
index rebuild or view refresh shows here (auxiliary maintenance is most
of a round today).  Read cost, write cost and space are reported
together: ``query_p50_ms`` / ``engine.colstore.skip_ratio`` on the power
workload, ``engine.colstore.write_amp`` and
``engine.colstore.bytes_per_row`` here.
"""

from __future__ import annotations

import time

from common import (
    SMOKE_SF,
    add_maintenance_layers,
    build_store,
    digest_rows,
    emit_maintenance_rate,
    emit_peak_rss,
    file_states,
    finish_store_setup,
    latency_metrics,
    open_store,
    median,
    scratch_dir,
    stored_bytes,
)

SCALE_FACTOR = 0.1
#: seconds one round takes on the 2-core sandbox
ROUND_SECONDS = 5.0

#: fixed queries over the tables a refresh touches, run on the reopened
#: store and — as the reference answer — on the live database before the
#: save.  The live database answers the fourth from a refreshed
#: materialized view and the reopened one (which has none) from base
#: tables, so a stale view is a wrong answer here.
READ_BACK = (
    "SELECT COUNT(*), SUM(ss_quantity), MIN(ss_sold_date_sk), MAX(ss_sold_date_sk) "
    "FROM store_sales",
    "SELECT d_year, COUNT(*), SUM(cs_quantity) FROM catalog_sales, date_dim "
    "WHERE cs_sold_date_sk = d_date_sk GROUP BY d_year ORDER BY d_year",
    "SELECT COUNT(*), SUM(ws_quantity), COUNT(DISTINCT ws_web_site_sk) FROM web_sales",
    "SELECT cc_name, cc_manager, COUNT(*) FROM catalog_sales, call_center "
    "WHERE cs_call_center_sk = cc_call_center_sk GROUP BY cc_name, cc_manager "
    "ORDER BY cc_name, cc_manager",
    "SELECT COUNT(*), COUNT(i_rec_end_date), SUM(i_manager_id) FROM item",
    "SELECT ca_state, COUNT(*) FROM customer, customer_address "
    "WHERE c_current_addr_sk = ca_address_sk GROUP BY ca_state ORDER BY ca_state",
)


def run(ctx) -> None:
    from repro.engine import Database
    from repro.maintenance import RefreshGenerator, run_all
    scale_factor = SMOKE_SF if ctx.smoke else SCALE_FACTOR
    rounds = ctx.units(ROUND_SECONDS, least=2)
    tracer = ctx.tracer
    with scratch_dir("maintenance_store_") as store:
        with tracer.span("harness.setup"):
            built = build_store(ctx, scale_factor, store)
        bench, load = open_store(ctx, store)
        ctx.emit("engine.colstore.open_s", bench.tracer.total("open_store"))
        db, config = bench.db, bench.config
        generator = RefreshGenerator(
            bench.context,
            update_fraction=config.update_fraction,
            insert_fraction=config.insert_fraction,
        )
        walls, latencies, saves = [], [], []
        for number in range(1, rounds + 1):
            timed = 0.0
            start = time.perf_counter()
            with tracer.installed(), tracer.span("maintenance.round", round=number):
                with tracer.span("maintenance.generate"):
                    refresh = generator.generate(refresh_round=number)
                with tracer.span("maintenance.dml"):
                    operations = run_all(db, refresh, refresh_aux=False)
                aux_start = time.perf_counter()
                with tracer.span("maintenance.aux"):
                    db.refresh_matviews()
                    db.catalog.rebuild_indexes()
                ctx.add("maintenance.aux_s", time.perf_counter() - aux_start)
            timed += time.perf_counter() - start
            add_maintenance_layers(ctx, operations)

            with tracer.span("harness.verify"):
                reference = [digest_rows(db.execute(sql).rows()) for sql in READ_BACK]
                before = file_states(store)
                bytes_per_row = stored_bytes(before) / sum(
                    db.store_info["tables"].values()
                )

            start = time.perf_counter()
            with tracer.span("engine.colstore.save_incr"):
                db.save(store)
            saves.append(time.perf_counter() - start)
            timed += saves[-1]

            with tracer.span("harness.verify"):
                after = file_states(store)
                rewritten = stored_bytes({
                    path: state for path, state in after.items()
                    if before.get(path) != state
                })
                changed = sum(op.rows_affected for op in operations)
                ctx.add("engine.colstore.columns_written",
                        db.store_info["columns_written"])
                ctx.add("engine.colstore.bytes_written_incr", rewritten)
                ctx.add("engine.colstore.bytes_changed", changed * bytes_per_row)

            start = time.perf_counter()
            with tracer.span("engine.colstore.open"):
                reopened = Database.open(store)
            answers = []
            for sql in READ_BACK:
                with tracer.span("maintenance.read_back"):
                    answers.append(reopened.execute(sql))
            # one sample a round, the mean over the six queries: a
            # percentile straight over 24 latencies of six kinds falls
            # between two kinds and jumps by a third from run to run
            latencies.append(sum(r.elapsed for r in answers) / len(answers))
            timed += time.perf_counter() - start
            walls.append(timed)

            with tracer.span("harness.verify"):
                for index, result in enumerate(answers):
                    ctx.check_answer(
                        f"r{number}.q{index}", digest_rows(result.rows()),
                        reference[index],
                    )
            del reopened, answers

        ctx.emit("unit_wall_s", median(walls))
        ctx.emit("throughput_ops_s", emit_maintenance_rate(ctx))
        latency_metrics(ctx, latencies)
        ctx.emit("maintenance.round_s", median(walls))
        ctx.emit("engine.colstore.save_incr_s", median(saves))
        ctx.emit(
            "engine.colstore.write_amp",
            ctx.sums["engine.colstore.bytes_written_incr"]
            / ctx.sums.pop("engine.colstore.bytes_changed"),
        )
        ctx.emit(
            "engine.colstore.bytes_per_row",
            stored_bytes(after) / sum(db.store_info["tables"].values()),
        )
        emit_peak_rss(ctx)
        del bench, db, generator
        finish_store_setup(ctx, built, load, scale_factor, store)
