"""``service_short`` — short statements through ``QueryService(workers=2)``
over a sf 0.01 in-memory database.

Parse + plan + optimize is ≈ a quarter of a ≈ 1.2 ms statement and
admission and queueing are on the path, while the executor does little:
the workload on which a plan cache or a service-scheduler change shows
and an operator change does not.

Closed-loop slices (two clients, each sending its next statement when
the previous one has answered) alternate with open-loop phases at three
fixed rates: A, 100/s, A, 200/s, A, 300/s, A.  The end-to-end metrics
are the closed loop's — the median slice rate and the clients' own
latencies — because on this two-core box the open-loop latencies do not
repeat within a third between runs (they hang on how the interpreter
lock happens to pass between the two workers and the generator); spread
over the run, the slices also see the same minutes the open loop does.
The open loop is driven by this file's own single-thread scheduler over
``Session.submit`` futures: arrivals are Poisson draws from ``--seed``,
every latency is timed from the instant the statement was *due* (so a
stall delays the statements behind it, as it would independent users),
and how late the scheduler itself ran is reported beside them.
"""

from __future__ import annotations

import random
import threading
import time

from common import (
    SMOKE_SF,
    digest_rows,
    emit_peak_rss,
    finish_memory_setup,
    latency_metrics,
    median,
    percentile,
)
from probe import EngineProbe, emit_engine_layers

SCALE_FACTOR = 0.01
WORKERS = 2
CLIENTS = 2
#: open-loop rates, statements/s (the closed loop completes ≈ 365/s
#: here); queue wait is reported at ``WAIT_RATE``
RATES = (100, 200, 300)
WAIT_RATE = 200
#: shares of ``--seconds``: one closed-loop slice (there is one more of
#: them than rates) and one open-loop phase
CLOSED_SHARE = 0.1
OPEN_SHARE = 0.15
#: distinct parameter values per statement shape — the working set a
#: statement or plan cache would have to hold is 2 * POOL + a dozen texts
POOL = 64
#: deep enough that the service queues rather than sheds at these rates:
#: overload then shows as latency, and a shed statement is a failure
QUEUE_DEPTH = 4096
#: ``service.max_ok_qps`` limit on the 99th percentile
LATENCY_LIMIT_MS = 25.0
REQUEST_TIMEOUT_S = 60.0


def statement_pool(db, rng: random.Random) -> list[str]:
    """The four statement shapes over parameters drawn from the loaded
    tables' own key ranges."""
    items = db.table("item").num_rows
    customers = db.table("customer").num_rows
    low, high = db.execute("SELECT MIN(d_year), MAX(d_year) FROM date_dim").rows()[0]
    pool = [
        "SELECT i_item_id, i_item_desc, i_current_price FROM item "
        f"WHERE i_item_sk = {key}"
        for key in rng.sample(range(1, items + 1), min(POOL, items))
    ]
    pool += [
        "SELECT c_customer_id, c_first_name, c_last_name, ca_city, ca_state "
        "FROM customer, customer_address "
        f"WHERE c_current_addr_sk = ca_address_sk AND c_customer_sk = {key}"
        for key in rng.sample(range(1, customers + 1), min(POOL, customers))
    ]
    pool += [
        f"SELECT d_moy, COUNT(*) FROM date_dim WHERE d_year = {year} "
        "GROUP BY d_moy ORDER BY d_moy"
        for year in range(low, high + 1)
    ]
    pool += [
        "SELECT s_store_id, s_store_name, s_city FROM store "
        f"WHERE s_number_employees >= {floor} ORDER BY s_store_id LIMIT 5"
        for floor in range(200, 300, 20)
    ]
    return pool


def run(ctx) -> None:
    from repro.runner import BenchmarkConfig, BenchmarkRun
    from repro.service import QueryService, TenantQuota

    scale_factor = SMOKE_SF if ctx.smoke else SCALE_FACTOR
    closed_s = 0.5 if ctx.smoke else CLOSED_SHARE * ctx.seconds
    open_s = 1.0 if ctx.smoke else OPEN_SHARE * ctx.seconds
    tracer = ctx.tracer
    rng = random.Random(ctx.seed)

    config = BenchmarkConfig(scale_factor=scale_factor, seed=ctx.seed)
    bench = BenchmarkRun(config, tracer=tracer if ctx.traced else None)
    load = bench.load_test()
    ctx.emit("dsdgen.load_tables_s", bench.tracer.total("load_tables"))
    ctx.emit("dsdgen.gather_stats_s", bench.tracer.total("gather_stats"))

    db = bench.db
    pool = statement_pool(db, rng)
    # the reference answers: serial, straight into the engine, before the
    # service exists
    with tracer.span("harness.verify"):
        expected = {sql: digest_rows(db.execute(sql).rows()) for sql in pool}
    ctx.digests["pool"] = digest_rows(sorted(
        (sql, rows, digest) for sql, (rows, digest) in expected.items()
    ))

    probe = EngineProbe(db, tracer)
    service = QueryService(
        db, workers=WORKERS,
        default_quota=TenantQuota(max_concurrent=WORKERS, max_queue_depth=QUEUE_DEPTH),
    )
    requests = ctx.requests
    try:
        closed, opened = [], {}
        with tracer.installed():
            for rate in (*RATES, None):
                with tracer.span("service.closed_loop"):
                    closed.append(closed_loop(service, pool, rng, closed_s))
                if rate is not None:
                    with tracer.span("service.open_loop", rate=rate):
                        opened[rate] = open_loop(service, pool, rng, rate, open_s)
        shed = service.as_dict()["shed"]
    finally:
        service.close(drain=True)
        probe.remove()

    returned = 0
    with tracer.span("harness.verify"):
        for phase in [*closed, *opened.values()]:
            for request in phase["requests"]:
                result = request.pop("result")
                answer = None
                if result is not None:
                    answer = digest_rows(result.rows())
                    returned += answer[0]
                    request["statement"] = getattr(result, "statement_id", None)
                ctx.op(
                    answer == expected[request["sql"]],
                    f"{request['sql']}: {request.get('error') or answer}",
                )
                requests.append(request)

    rate = median([c["completed"] / c["wall_s"] for c in closed])
    ctx.emit("throughput_ops_s", rate)
    ctx.emit("unit_wall_s", 1000.0 / rate)
    latency_metrics(ctx, [
        r["done"] - r["sent"] for c in closed for r in c["requests"] if "error" not in r
    ])
    ctx.emit("service.short_stmt_per_s", rate)
    ctx.emit("service.shed", shed)
    ctx.emit("service.exec_s", sum(r["exec_s"] for r in requests))
    waits = [w * 1000.0 for w in opened[WAIT_RATE]["queue_wait_s"]]
    ctx.emit("service.queue_wait_p50_ms", percentile(waits, 0.5))
    ctx.emit("service.queue_wait_p95_ms", percentile(waits, 0.95))
    late = [s * 1000.0 for phase in opened.values() for s in phase["late_s"]]
    ctx.emit("service.gen_late_p99_ms", percentile(late, 0.99))
    max_ok = 0
    for rate, phase in opened.items():
        ms = [s * 1000.0 for s in phase["latency_s"]]
        for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            ctx.emit(f"service.lat_{name}_ms.r{rate}", percentile(ms, q))
        healthy = (
            percentile(ms, 0.99) <= LATENCY_LIMIT_MS
            and not phase["failed"]
            and not phase["backlog_grew"]
        )
        if healthy:
            max_ok = max(max_ok, rate)
    ctx.emit("service.max_ok_qps", max_ok)
    emit_peak_rss(ctx)
    if ctx.traced:
        emit_engine_layers(ctx, probe, returned)
    del bench, db, service, probe
    finish_memory_setup(ctx, config, [load])


def closed_loop(service, pool, rng, seconds: float) -> dict:
    """``CLIENTS`` threads, each sending its next statement when the
    previous one has answered, for ``seconds``."""
    picks = [random.Random(rng.random()) for _ in range(CLIENTS)]
    records: list[list] = [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(index: int) -> None:
        session = service.create_session("bench")
        pick, mine = picks[index], records[index]
        while time.perf_counter() < deadline:
            sql = pool[pick.randrange(len(pool))]
            sent = time.perf_counter()
            request = {"phase": "closed", "sql": sql, "due": sent, "sent": sent}
            try:
                result = session.submit(sql).result(timeout=REQUEST_TIMEOUT_S)
            except Exception as exc:  # a failed statement is counted, not raised
                result = None
                request["error"] = f"{type(exc).__name__}: {exc}"
            request["done"] = time.perf_counter()
            request["result"] = result
            request["exec_s"] = result.elapsed if result is not None else 0.0
            mine.append(request)
        session.close()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    requests = [r for mine in records for r in mine]
    return {
        "requests": requests,
        "completed": sum(1 for r in requests if r["result"] is not None),
        "wall_s": max(r["done"] for r in requests) - start,
    }


def open_loop(service, pool, rng, rate: int, seconds: float) -> dict:
    """Send on a Poisson schedule of ``rate`` statements/s for
    ``seconds`` whatever the service does, then wait for the answers."""
    offsets, at = [], rng.expovariate(rate)
    while at < seconds:
        offsets.append(at)
        at += rng.expovariate(rate)
    session = service.create_session("bench")
    requests = []
    completed = [0]

    def finished(request):
        def callback(_future):
            request["done"] = time.perf_counter()
            completed[0] += 1  # worker threads race here; only a trend is read
        return callback

    outstanding = []
    start = time.perf_counter() + 0.05
    for index, offset in enumerate(offsets):
        due = start + offset
        while True:
            wait = due - time.perf_counter()
            if wait <= 0:
                break
            time.sleep(wait)
        sql = pool[rng.randrange(len(pool))]
        request = {"phase": f"r{rate}", "sql": sql, "due": due,
                   "sent": time.perf_counter(), "done": None}
        try:
            future = session.submit(sql)
            future.add_done_callback(finished(request))
            request["future"] = future
        except Exception as exc:  # shed at admission: a failed statement
            request["error"] = f"{type(exc).__name__}: {exc}"
        requests.append(request)
        outstanding.append(index + 1 - completed[0])
    for request in requests:
        future = request.pop("future", None)
        result = None
        if future is not None:
            try:
                result = future.result(timeout=REQUEST_TIMEOUT_S)
            except Exception as exc:
                request["error"] = f"{type(exc).__name__}: {exc}"
        request["result"] = result
        request["exec_s"] = result.elapsed if result is not None else 0.0
    session.close()
    answered = [r for r in requests if r["result"] is not None]
    quarter = max(len(outstanding) // 4, 1)
    return {
        "requests": requests,
        "failed": len(requests) - len(answered),
        "latency_s": [r["done"] - r["due"] for r in answered],
        "queue_wait_s": [r["done"] - r["due"] - r["exec_s"] for r in answered],
        "late_s": [r["sent"] - r["due"] for r in requests],
        # the backlog grows when the last quarter of the phase ends with
        # clearly more statements in flight than the first quarter had
        "backlog_grew": (
            sum(outstanding[-quarter:]) / quarter
            > sum(outstanding[:quarter]) / quarter + 8
        ),
    }
