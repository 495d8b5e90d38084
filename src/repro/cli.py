"""Command-line interface: ``tpcds-py``.

Subcommands mirror the original kit's tools:

* ``dsdgen``  — generate flat files for a scale factor;
* ``dsqgen``  — print generated queries for a template / stream;
* ``run``     — execute the full benchmark and print the report
  (``--trace`` writes the span timeline, ``--metrics`` prints the
  metrics-registry snapshot, ``--plan-quality`` aggregates
  per-operator Q-error diagnostics);
* ``explain`` — EXPLAIN / EXPLAIN ANALYZE a generated template or
  ad-hoc SQL against a freshly loaded database (``--json`` emits the
  machine-readable plan tree);
* ``obs``     — observability tooling: ``obs diff`` compares the
  latest two benchmark runs in ``history.jsonl`` and exits nonzero on
  regressions beyond the noise threshold; ``obs trace`` exports a
  Chrome-trace/Perfetto span timeline; ``obs report`` renders the
  self-contained HTML observability dashboard;
* ``serve``   — interactive multi-tenant query service: statements
  from stdin run through admission control, quotas and the circuit
  breaker against a generated (or ``--db``-opened) database;
* ``loadgen`` — open-loop load driver: replay a phased arrival
  pattern (steady / burst / ramp) with a per-tenant qgen query mix
  against the service, check declared SLA targets, and write
  ``BENCH_service.json``;
* ``difftest`` — differential correctness run against the SQLite
  oracle: the 99 qualification queries plus a seeded query fuzzer;
  disagreements are delta-shrunk into ``tests/difftest_corpus/``;
* ``schema``  — print Table 1-style schema statistics;
* ``audit``   — generate, load and audit a database (auditor checks);
* ``scaling`` — print Table 2-style row counts for a scale factor.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core.benchmark import Benchmark
from .dsdgen import DsdGen, ScalingModel
from .qgen import QGen, build_catalog
from .schema import PAPER_TABLE_1, schema_statistics


def _cmd_dsdgen(args: argparse.Namespace) -> int:
    import time

    generator = DsdGen(
        args.scale, seed=args.seed, strict=args.strict, workers=args.parallel
    )
    start = time.perf_counter()
    if args.chunk is not None:
        n_chunks = args.parallel or 1
        try:
            data = generator.generate_chunk(args.chunk, n_chunks)
        except ValueError as exc:
            print(f"dsdgen: {exc}", file=sys.stderr)
            return 2
        suffix = f"_{args.chunk}_{n_chunks}" if n_chunks > 1 else ""
    else:
        data = generator.generate()
        suffix = ""
    gen_elapsed = time.perf_counter() - start
    if args.store:
        # direct-to-store: load the generated columns into an engine
        # database and persist it, skipping the .dat round trip
        from .dsdgen import load_tables
        from .engine import Database

        if args.chunk is not None:
            print("dsdgen: --store is incompatible with --chunk",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        db = Database()
        load_tables(db, data)
        db.gather_stats()
        db.save(args.store, scale_factor=args.scale, seed=args.seed)
        store_elapsed = time.perf_counter() - start
        total_rows = sum(data.row_counts.values())
        for name in sorted(data.row_counts):
            print(f"{name:24s} {data.row_counts[name]:>12,} rows")
        print(f"{'total':24s} {total_rows:>12,} rows")
        print(f"column store written to {args.store} "
              f"(generate {gen_elapsed:.3f}s, load+save {store_elapsed:.3f}s)")
        return 0
    start = time.perf_counter()
    sizes = data.write_flat_files(args.output, suffix=suffix)
    write_elapsed = time.perf_counter() - start
    total = sum(sizes.values())
    total_rows = sum(data.row_counts.values())
    for name in sorted(sizes):
        print(f"{name:24s} {data.row_counts[name]:>12,} rows  {sizes[name]:>14,} bytes")
    print(f"{'total':24s} {total_rows:>12,} rows  {total:>14,} bytes")
    if args.profile:
        print()
        print(f"{'-- profile':24s} {'generate (ms)':>14s}")
        for name, elapsed in sorted(data.timings.items(), key=lambda kv: -kv[1]):
            print(f"{name:24s} {elapsed * 1000.0:>14.1f}")
        from .dsdgen import load_tables
        from .engine import Database

        start = time.perf_counter()
        load_tables(Database(), data)
        load_elapsed = time.perf_counter() - start
        print()
        print(f"{'generate':24s} {gen_elapsed:>10.3f} s  "
              f"{total_rows / max(gen_elapsed, 1e-9):>14,.0f} rows/s")
        print(f"{'write flat files':24s} {write_elapsed:>10.3f} s  "
              f"{total_rows / max(write_elapsed, 1e-9):>14,.0f} rows/s")
        print(f"{'load into engine':24s} {load_elapsed:>10.3f} s  "
              f"{total_rows / max(load_elapsed, 1e-9):>14,.0f} rows/s")
    return 0


def _cmd_dsqgen(args: argparse.Namespace) -> int:
    generator = DsdGen(args.scale, seed=args.seed)
    generator.generate()  # registers key pools used by substitutions
    qgen = QGen(generator.context, build_catalog())
    ids = [args.template] if args.template else sorted(qgen.templates)
    for template_id in ids:
        query = qgen.generate(template_id, stream=args.stream)
        print(f"-- query {query.template_id} ({query.name}; {query.query_class};"
              f" {query.channel_part} part)")
        print(query.sql.strip())
        print(";")
    return 0


def _parse_bytes(text: str | None) -> float | None:
    """Parse a byte size with an optional K/M/G suffix ('64M' -> 64 MiB)."""
    if text is None:
        return None
    text = text.strip()
    scale = 1
    if text and text[-1].upper() in "KMG":
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[text[-1].upper()]
        text = text[:-1]
    return float(text) * scale


def _add_exec_flags(
    parser: argparse.ArgumentParser,
    timeout_help: str,
    mem_budget_help: str,
    workers_help: str,
    workers_default: int | None = None,
) -> None:
    """The three execution knobs every executing subcommand takes."""
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help=timeout_help)
    parser.add_argument("--mem-budget", default=None, metavar="BYTES",
                        help=mem_budget_help)
    parser.add_argument("--workers", type=int, default=workers_default,
                        metavar="N", help=workers_help)


def _exec_kwargs(args: argparse.Namespace) -> dict:
    """The parsed execution knobs, named as ``Database.execute`` names them."""
    return {
        "timeout_s": args.timeout,
        "mem_budget_bytes": _parse_bytes(args.mem_budget),
        "workers": args.workers,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    if args.metrics:
        from .obs import MetricsRegistry, set_registry

        set_registry(MetricsRegistry(enabled=True))
    faults = None
    if args.fault_error_rate or args.fault_delay_rate:
        from .faults import FaultInjector

        faults = FaultInjector(
            seed=args.fault_seed,
            error_rate=args.fault_error_rate,
            delay_rate=args.fault_delay_rate,
            max_delay_s=args.fault_max_delay,
        )
    if args.sample_metrics and not args.metrics:
        # sampling implies a live registry — empty samples help nobody
        from .obs import MetricsRegistry, set_registry

        set_registry(MetricsRegistry(enabled=True))
    knobs = _exec_kwargs(args)
    bench = Benchmark(
        scale_factor=args.scale,
        streams=args.streams,
        seed=args.seed,
        db_path=args.db,
        use_aux_structures=not args.no_aux,
        strict=args.strict,
        plan_quality=args.plan_quality,
        query_timeout_s=knobs["timeout_s"],
        query_mem_budget_bytes=knobs["mem_budget_bytes"],
        max_query_retries=args.retries,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        faults=faults,
        workers=knobs["workers"],
        sample_metrics=bool(args.sample_metrics),
        sample_interval_s=args.sample_interval,
        sample_metrics_path=args.sample_metrics,
        statement_store_path=args.statement_store,
    )
    summary = bench.run()
    if args.full:
        from .runner import render_full_disclosure

        print(render_full_disclosure(summary.result))
    else:
        print(summary.report())
        if args.plan_quality and summary.result.plan_quality:
            from .runner import render_plan_quality

            print()
            print("\n".join(render_plan_quality(summary.result.plan_quality)))
    if args.trace:
        import json

        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(summary.result.trace, handle, indent=2)
        print(f"\nspan timeline written to {args.trace} "
              f"({len(summary.result.trace)} spans)")
    if args.metrics:
        from .obs import get_registry

        print()
        print("metrics registry snapshot")
        print(get_registry().to_json())
    if args.telemetry:
        import json

        from .obs import get_registry
        from .runner import telemetry_bundle

        metrics = (get_registry().snapshot()
                   if get_registry().enabled else None)
        with open(args.telemetry, "w", encoding="utf-8") as handle:
            json.dump(telemetry_bundle(summary.result, metrics=metrics),
                      handle, indent=2)
        print(f"telemetry bundle written to {args.telemetry}")
    if args.sample_metrics:
        print(f"metrics time-series written to {args.sample_metrics} "
              f"({len(summary.result.metrics_series)} samples)")
    if args.statement_store and summary.result.statements:
        print(f"statement store written to {args.statement_store} "
              f"({summary.result.statements['fingerprints']} fingerprints)")
    return 0 if summary.result.compliant else 1


def _service_db(args: argparse.Namespace):
    """A (database, qgen) pair for ``serve`` / ``loadgen``: either the
    persistent store at ``--db`` (adopting its scale factor and seed)
    or a freshly generated database at ``--scale``."""
    from .dsdgen import build_database

    if args.db:
        from .dsdgen.context import GeneratorContext
        from .engine import Database

        db = Database.open(args.db)
        info = db.store_info or {}
        scale = info.get("scale_factor") or args.scale
        seed = int(info.get("seed") or args.seed)
        context = GeneratorContext(scale, seed)
        context.ensure_key_pools()
        return db, QGen(context, build_catalog())
    db, data = build_database(args.scale, seed=args.seed)
    return db, QGen(data.context, build_catalog())


def _service_quota(args: argparse.Namespace):
    from .service import TenantQuota

    knobs = _exec_kwargs(args)
    return TenantQuota(
        max_concurrent=args.max_concurrent,
        max_queue_depth=args.queue_depth,
        statement_timeout_s=knobs["timeout_s"],
        mem_budget_bytes=knobs["mem_budget_bytes"],
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import AdmissionRejected, QueryService

    db, _ = _service_db(args)
    service = QueryService(
        db,
        workers=args.workers or 2,
        default_quota=_service_quota(args),
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
    )
    session = service.create_session(args.tenant)
    interactive = sys.stdin.isatty()
    if interactive:
        print(f"tpcds-py serve: tenant {args.tenant!r}; ';'-terminated "
              f"statements, EOF (ctrl-d) quits")
    buffered = ""
    try:
        for line in sys.stdin:
            buffered += line
            while ";" in buffered:
                sql, buffered = buffered.split(";", 1)
                if not sql.strip():
                    continue
                try:
                    result = session.execute(sql)
                except AdmissionRejected as shed:
                    print(f"shed ({shed.reason}): retry after "
                          f"{shed.retry_after_s:.3f}s", file=sys.stderr)
                    continue
                except Exception as exc:
                    print(f"error: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    continue
                for row in result.rows():
                    print("\t".join(str(v) for v in row))
                print(f"({len(result)} rows in {result.elapsed:.3f}s)",
                      file=sys.stderr)
    finally:
        session.close()
        service.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .service import (
        LoadDriver,
        QueryService,
        SLATarget,
        TenantProfile,
        parse_phases,
    )

    try:
        phases = parse_phases(args.phases)
    except ValueError as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 2
    templates = tuple(int(t) for t in args.templates.split(","))
    sla = SLATarget(p99_s=args.sla_p99, max_error_rate=args.sla_error_rate)
    names = [name.strip() for name in args.tenants.split(",") if name.strip()]
    if not names:
        print("loadgen: --tenants named nobody", file=sys.stderr)
        return 2
    quota = _service_quota(args)
    profiles = [
        TenantProfile(name, weight=1.0, templates=templates, sla=sla,
                      quota=quota)
        for name in names
    ]

    db, qgen = _service_db(args)
    service = QueryService(
        db,
        workers=args.workers or 2,
        default_quota=quota,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
    )
    if args.fault_rate and args.fault_tenant:
        from .faults import FaultInjector

        service.set_faults(args.fault_tenant, FaultInjector(
            seed=args.fault_seed,
            error_rate=args.fault_rate,
            scope=("query", "operator"),
        ))
    driver = LoadDriver(service, qgen, profiles, phases, seed=args.seed)
    print(f"loadgen: {len(driver.schedule)} arrivals over "
          f"{sum(p.duration_s for p in phases):g}s across "
          f"{len(profiles)} tenant(s)", file=sys.stderr)
    report = driver.run()
    service.close()

    from .runner import render_load_report

    print(render_load_report(report.as_dict()))
    if args.out:
        report.write_json(args.out)
        print(f"load report written to {args.out}", file=sys.stderr)
    if args.sys_dump:
        result = db.execute("SELECT * FROM sys.service")
        print(json.dumps(
            [dict(zip(result.column_names, row)) for row in result.rows()],
            indent=1, default=str,
        ))
    return 0 if report.ok else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from .dsdgen import build_database

    db, data = build_database(args.scale, seed=args.seed)
    if args.sql:
        sql = args.sql
    else:
        qgen = QGen(data.context, build_catalog())
        query = qgen.generate(args.template, stream=args.stream)
        sql = query.statements[0]
        if not args.json:
            print(f"-- query {query.template_id} ({query.name}; "
                  f"{query.query_class}; {query.channel_part} part)")
    bounds = _exec_kwargs(args)
    if args.json:
        import json

        payload = (
            db.explain_analyze_dict(sql, **bounds)
            if args.analyze
            else db.explain_dict(sql)
        )
        print(json.dumps(payload, indent=2))
    else:
        print(db.explain_analyze(sql, **bounds) if args.analyze else db.explain(sql))
    return 0


def _collect_telemetry(args: argparse.Namespace) -> dict:
    """The telemetry bundle ``obs trace`` / ``obs report`` render:
    loaded from ``--input`` when given, else measured fresh by a power
    run (streams=1) with the tracer, registry and pool profiler on."""
    import json

    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            return json.load(handle)
    from .obs import MetricsRegistry, get_registry, set_registry
    from .runner import telemetry_bundle
    from .runner.execution import BenchmarkConfig, run_benchmark

    print(f"running sf={args.scale} streams={args.streams} "
          f"workers={args.workers} to collect telemetry ...", file=sys.stderr)
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        config = BenchmarkConfig(
            scale_factor=args.scale,
            streams=args.streams,
            seed=args.seed,
            workers=args.workers,
            plan_quality=True,
        )
        result, _ = run_benchmark(config)
        return telemetry_bundle(result, metrics=get_registry().snapshot())
    finally:
        set_registry(previous)


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    if args.action == "diff":
        from .obs import compare_latest, load_history

        history = load_history(args.history)
        report = compare_latest(history, threshold=args.threshold)
        print(report.render())
        return report.exit_code()
    if args.action == "history":
        from .obs import load_history, prune_history

        if args.prune:
            kept, dropped = prune_history(args.history, args.keep)
            print(f"history pruned to last {args.keep} run(s) per"
                  f" (sha, module): {kept} kept, {dropped} dropped")
            return 0
        records = load_history(args.history)
        by_key: dict = {}
        for record in records:
            key = (record.get("sha", "")[:12], record.get("module", ""))
            by_key[key] = by_key.get(key, 0) + 1
        print(f"{len(records)} record(s) in {args.history}")
        for (sha, module), count in sorted(by_key.items()):
            print(f"  {sha:12s} {module:36s} {count} run(s)")
        return 0
    if args.action == "top":
        from .obs import load_store

        if not os.path.exists(args.store):
            print(f"obs top: no statement store at {args.store}",
                  file=sys.stderr)
            return 1
        store = load_store(args.store)
        try:
            try:
                rows = store.top(by=args.by, limit=args.limit)
            except ValueError as exc:
                print(f"obs top: {exc}", file=sys.stderr)
                return 2
            print(f"top {len(rows)} statement(s) by {args.by} "
                  f"({len(store)} fingerprints in {args.store})")
            print(f"  {'calls':>6s} {'total s':>9s} {'mean ms':>9s} "
                  f"{'rows':>9s} {'spill':>10s} {'q_err':>6s}  "
                  f"fingerprint / statement")
            for stats in rows:
                query = " ".join(stats.query.split())
                print(f"  {stats.calls:>6d} {stats.total_elapsed:>9.3f} "
                      f"{stats.mean_elapsed * 1000:>9.1f} {stats.rows:>9d} "
                      f"{stats.spilled_bytes:>10,} "
                      f"{stats.worst_q_error:>6.1f}  "
                      f"{stats.fingerprint}  {query:.60s}")
        finally:
            store.close()
        return 0
    if args.action == "trace":
        from .obs import to_chrome_trace, validate_chrome_trace, worker_lanes

        telemetry = _collect_telemetry(args)
        doc = to_chrome_trace(telemetry.get("trace") or [])
        errors = validate_chrome_trace(doc)
        if errors:
            for error in errors[:10]:
                print(f"obs trace: {error}", file=sys.stderr)
            return 1
        out = args.out or "trace.json"
        if out == "-":
            json.dump(doc, sys.stdout)
            sys.stdout.write("\n")
            return 0
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        lanes = worker_lanes(doc)
        print(f"chrome trace written to {out} "
              f"({len(doc['traceEvents'])} events, "
              f"{len(lanes)} pool-worker lanes) — "
              f"load it at ui.perfetto.dev")
        return 0
    if args.action == "report":
        from .obs import render_html_report

        telemetry = _collect_telemetry(args)
        out = args.out or "obs_report.html"
        if out == "-":
            sys.stdout.write(render_html_report(telemetry))
            return 0
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(render_html_report(telemetry))
        print(f"observability dashboard written to {out}")
        return 0
    print(f"obs: unknown action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_audit(args: argparse.Namespace) -> int:
    from .dsdgen import build_database
    from .runner import audit_database

    db, _ = build_database(args.scale, seed=args.seed)
    findings = audit_database(db, scale_factor=args.scale, deep=not args.fast)
    if not findings:
        print("audit passed: no findings")
        return 0
    for finding in findings:
        print(finding)
    return 1


def _cmd_difftest(args: argparse.Namespace) -> int:
    from .difftest import (
        DiffHarness,
        shrink_query,
        summarize,
        to_engine_sql,
    )
    from .difftest.corpus import write_repro
    from .dsdgen import build_database

    print(f"loading sf={args.scale} into engine + sqlite oracle ...")
    db, data = build_database(args.scale, seed=args.seed)
    harness = DiffHarness(db, timeout_s=args.query_timeout or None)
    outcomes = []

    if not args.skip_qualification:
        qual = harness.run_qualification(QGen(data.context, build_catalog()))
        outcomes.extend(qual)
        print(f"qualification: {summarize(qual)}")

    if args.fuzz > 0:
        # the fuzz seed rotates in CI (logged here for reproduction:
        # `tpcds-py difftest --fuzz-seed <seed>` replays the run)
        print(f"fuzz: {args.fuzz} queries, seed {args.fuzz_seed}")

        def on_mismatch(query, outcome):
            def still_fails(candidate):
                return not harness.check_query(candidate).passed

            shrunk = shrink_query(query, still_fails)
            final = harness.check_query(shrunk, label=outcome.label)
            if final.passed:  # shrink lost the repro; keep the original
                shrunk, final = query, outcome
            path = write_repro(
                args.corpus,
                to_engine_sql(shrunk),
                label=final.label or outcome.label,
                status=final.status,
                detail=final.detail,
                seed=args.fuzz_seed,
            )
            print(f"  MISMATCH {outcome.label}: shrunk repro -> {path}")

        fuzz = harness.run_fuzz(args.fuzz, args.fuzz_seed, on_mismatch)
        outcomes.extend(fuzz)
        print(f"fuzz: {summarize(fuzz)}")

    failed = [o for o in outcomes if not o.passed]
    for o in failed:
        print(f"FAIL {o.label} [{o.status}] {o.detail}")
        print(f"  engine: {o.sql}")
        print(f"  sqlite: {o.sqlite_sql}")
    print(f"total: {summarize(outcomes)}")
    return 1 if failed else 0


def _cmd_schema(args: argparse.Namespace) -> int:
    ours = schema_statistics()
    print(f"{'statistic':34s} {'ours':>10s} {'paper':>10s}")
    for (label, value), (_, paper) in zip(ours.as_rows(), PAPER_TABLE_1.as_rows()):
        print(f"{label:34s} {value!s:>10s} {paper!s:>10s}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    model = ScalingModel(args.scale, strict=args.strict)
    for table, rows in sorted(model.table_rows().items()):
        print(f"{table:24s} {rows:>15,}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="tpcds-py",
        description="Pure-Python reproduction of TPC-DS (VLDB 2006).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsdgen", help="generate flat files")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=19620718)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output", default="tpcds_data")
    p.add_argument("--parallel", type=int, default=None, metavar="N",
                   help="generate with an N-process pool (byte-identical"
                        " to serial output)")
    p.add_argument("--chunk", type=int, default=None, metavar="I",
                   help="generate only chunk I of --parallel chunks"
                        " (1-based, like the kit's -child); chunk 1"
                        " carries the dimension tables")
    p.add_argument("--profile", action="store_true",
                   help="print per-table generation timings and"
                        " generate/write/load rows-per-second")
    p.add_argument("--store", metavar="PATH", default=None,
                   help="write a persistent column store at PATH instead"
                        " of .dat flat files (open it with `run --db`)")
    p.set_defaults(func=_cmd_dsdgen)

    p = sub.add_parser("dsqgen", help="generate queries")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=19620718)
    p.add_argument("--template", type=int, default=None)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=_cmd_dsqgen)

    p = sub.add_parser("run", help="run the full benchmark")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--streams", type=int, default=None)
    p.add_argument("--seed", type=int, default=19620718)
    p.add_argument("--db", metavar="PATH", default=None,
                   help="open the persistent column store at PATH"
                        " (from `dsdgen --store`) instead of generating;"
                        " the store's scale factor and seed are adopted")
    p.add_argument("--no-aux", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--full", action="store_true",
                   help="long-form full-disclosure report")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write the benchmark span timeline to FILE as JSON")
    p.add_argument("--metrics", action="store_true",
                   help="enable the metrics registry and print its"
                        " snapshot after the run")
    p.add_argument("--plan-quality", action="store_true",
                   help="collect per-operator Q-error diagnostics and"
                        " print the worst-offender summary")
    _add_exec_flags(
        p,
        "per-query wall-clock timeout in seconds"
        " (timed-out queries degrade, the run continues)",
        "per-query memory budget; hash joins, aggregates"
        " and sorts spill past it (accepts K/M/G suffix)",
        "morsel-parallel worker threads shared by query"
        " streams and operators (results are byte-"
        "identical to serial; default: serial)",
    )
    p.add_argument("--retries", type=int, default=2,
                   help="max retries for transient query failures"
                        " (default 2)")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="journal completed queries to FILE (crash-safe)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint: skip journaled queries")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="fault-injection seed")
    p.add_argument("--fault-error-rate", type=float, default=0.0,
                   help="inject transient errors at this per-query rate")
    p.add_argument("--fault-delay-rate", type=float, default=0.0,
                   help="inject random delays at this per-query rate")
    p.add_argument("--fault-max-delay", type=float, default=0.01,
                   help="max injected delay in seconds (default 0.01)")
    p.add_argument("--telemetry", metavar="FILE", default=None,
                   help="write the full telemetry bundle (trace,"
                        " latency percentiles, parallelism profile,"
                        " metrics) to FILE as JSON — the input to"
                        " `obs trace` / `obs report`")
    p.add_argument("--statement-store", metavar="FILE", default=None,
                   help="journal every executed statement into a"
                        " fingerprinted statement store at FILE"
                        " (crash-safe JSONL); queryable afterwards via"
                        " `obs top` and the sys.statements table")
    p.add_argument("--sample-metrics", metavar="FILE", default=None,
                   help="sample the metrics registry on a background"
                        " thread, appending one JSONL line per sample"
                        " to FILE (implies --metrics registry)")
    p.add_argument("--sample-interval", type=float, default=0.25,
                   metavar="S", help="sampling interval in seconds"
                                     " (default 0.25)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("explain",
                       help="EXPLAIN [ANALYZE] a query against a loaded db")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=19620718)
    p.add_argument("--template", type=int, default=52,
                   help="query template to explain (default 52)")
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--sql", default=None,
                   help="explain this SQL instead of a template")
    p.add_argument("--analyze", action="store_true",
                   help="execute the query and annotate the plan with"
                        " per-operator rows / elapsed / counters")
    p.add_argument("--json", action="store_true",
                   help="emit the plan tree as machine-readable JSON"
                        " (plan_to_dict output)")
    _add_exec_flags(
        p,
        "wall-clock timeout for --analyze execution",
        "memory budget for --analyze execution (spill"
        " counters appear in the annotated plan)",
        "morsel-parallel workers for --analyze execution"
        " (workers=/morsels= counters appear per operator)",
    )
    p.set_defaults(func=_cmd_explain)

    def _service_args(p: argparse.ArgumentParser) -> None:
        """Options shared by ``serve`` and ``loadgen``."""
        p.add_argument("--scale", type=float, default=0.002)
        p.add_argument("--seed", type=int, default=19620718)
        p.add_argument("--db", metavar="PATH", default=None,
                       help="open the persistent column store at PATH"
                            " instead of generating")
        _add_exec_flags(
            p,
            "per-statement end-to-end deadline (queue"
            " wait included); drives deadline-aware"
            " shedding",
            "per-statement memory budget (K/M/G suffix)",
            "service worker threads (default 2)",
            workers_default=2,
        )
        p.add_argument("--max-concurrent", type=int, default=2,
                       help="per-tenant concurrent statements (default 2)")
        p.add_argument("--queue-depth", type=int, default=8,
                       help="per-tenant admission queue bound (default 8)")
        p.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures that trip a tenant's"
                            " circuit breaker (default 5)")
        p.add_argument("--breaker-reset", type=float, default=1.0,
                       metavar="S",
                       help="seconds an open breaker waits before"
                            " half-opening (default 1.0)")

    p = sub.add_parser("serve",
                       help="interactive multi-tenant query service")
    _service_args(p)
    p.add_argument("--tenant", default="default",
                   help="tenant the stdin session runs as")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("loadgen",
                       help="open-loop load driver with SLA checking")
    _service_args(p)
    p.add_argument("--phases", default="steady:2:5,burst:8:5,steady:2:5",
                   help="arrival pattern: comma-joined name:qps:secs"
                        " segments, qps 'lo-hi' ramps linearly"
                        " (default steady:2:5,burst:8:5,steady:2:5)")
    p.add_argument("--tenants", default="alpha,beta,gamma,delta",
                   help="comma-separated tenant names (equal weights)")
    p.add_argument("--templates", default="3,7,42,52",
                   help="comma-separated qgen template ids the mix"
                        " draws from (default 3,7,42,52)")
    p.add_argument("--sla-p99", type=float, default=5.0, metavar="S",
                   help="per-tenant p99 end-to-end latency target"
                        " (default 5.0s)")
    p.add_argument("--sla-error-rate", type=float, default=0.0,
                   help="per-tenant ceiling on failed/admitted"
                        " (default 0.0; sheds don't count)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="inject transient faults at this rate into"
                        " --fault-tenant's statements")
    p.add_argument("--fault-tenant", default=None,
                   help="tenant whose statements the faults target")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the load report (BENCH_service.json)")
    p.add_argument("--sys-dump", action="store_true",
                   help="after the run, print sys.service as JSON"
                        " (queried through the engine itself)")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("obs", help="observability tooling")
    p.add_argument("action",
                   choices=["diff", "history", "top", "trace", "report"],
                   help="'diff' compares the latest two benchmark runs"
                        " in the history file; 'history' summarizes (or,"
                        " with --prune, bounds) the history file; 'top'"
                        " shows a statement store's worst offenders;"
                        " 'trace' exports a Chrome-trace/Perfetto"
                        " timeline; 'report' renders the self-contained"
                        " HTML dashboard")
    p.add_argument("--history", default="benchmarks/results/history.jsonl",
                   help="path to the benchmark history JSONL file")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="relative noise threshold (default 0.25: flag"
                        " regressions slower than 1.25x)")
    p.add_argument("--prune", action="store_true",
                   help="with 'history': drop all but the last --keep"
                        " runs per (git sha, bench module) pair")
    p.add_argument("--keep", type=int, default=3,
                   help="runs to keep per (sha, module) when pruning"
                        " (default 3)")
    p.add_argument("--store", default="benchmarks/results/statements.jsonl",
                   help="statement-store journal for 'top' (written by"
                        " `run --statement-store`)")
    p.add_argument("--by", default="total_elapsed",
                   help="statement-store column to rank 'top' by"
                        " (default total_elapsed; e.g. spilled_bytes,"
                        " mean_elapsed, calls, worst_q_error)")
    p.add_argument("--limit", type=int, default=10,
                   help="rows shown by 'top' (default 10)")
    p.add_argument("--input", metavar="FILE", default=None,
                   help="telemetry bundle from `run --telemetry` to"
                        " render; without it, trace/report measure a"
                        " fresh power run")
    p.add_argument("--out", "--output", dest="out", metavar="FILE",
                   default=None,
                   help="output path (default trace.json /"
                        " obs_report.html); '-' streams the document to"
                        " stdout (progress goes to stderr)")
    p.add_argument("--scale", type=float, default=0.004,
                   help="scale factor for the fresh measuring run")
    p.add_argument("--seed", type=int, default=19620718)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--workers", type=int, default=2,
                   help="pool workers for the measuring run (worker"
                        " lanes need >= 2)")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser("audit", help="generate, load and audit a database")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=19620718)
    p.add_argument("--fast", action="store_true", help="skip the FK scan")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("difftest",
                       help="differential correctness vs the SQLite oracle")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=19620718,
                   help="dsdgen seed for the database under test")
    p.add_argument("--fuzz", type=int, default=200, metavar="N",
                   help="number of fuzzer queries (default 200)")
    p.add_argument("--fuzz-seed", type=int, default=19620718,
                   help="fuzzer seed; rotate it in CI, pin it to replay")
    p.add_argument("--skip-qualification", action="store_true",
                   help="skip the 99 qualification queries")
    p.add_argument("--corpus", default="tests/difftest_corpus",
                   help="directory for shrunk mismatch repros")
    p.add_argument("--query-timeout", type=float, default=30.0,
                   help="wall-clock guard per generated query so a"
                        " pathological fuzz query cannot hang the job"
                        " (default 30s; 0 disables)")
    p.set_defaults(func=_cmd_difftest)

    p = sub.add_parser("schema", help="Table 1 schema statistics")
    p.set_defaults(func=_cmd_schema)

    p = sub.add_parser("scaling", help="Table 2 row counts")
    p.add_argument("--scale", type=float, default=100)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_scaling)

    return parser


#: exit codes for engine failures: one per processing stage, so shell
#: scripts and CI can tell a bad query from a resource kill
EXIT_PARSE = 2
EXIT_PLANNING = 3
EXIT_EXECUTION = 4
EXIT_RESOURCE = 5


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Engine errors become one-line diagnostics with stage-specific exit
    codes (parse=2, planning=3, execution=4, resource=5) instead of
    tracebacks."""
    from .engine import (
        EngineError,
        PlanningError,
        ResourceError,
        SqlSyntaxError,
        StoreError,
    )
    from .runner import CheckpointMismatch

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SqlSyntaxError as exc:
        print(f"tpcds-py: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PlanningError as exc:
        print(f"tpcds-py: planning error: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except StoreError as exc:
        # before EngineError (StoreError is a subclass): a missing or
        # failing column store is an environment/resource problem, not
        # a query-execution one
        print(f"tpcds-py: storage error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ResourceError as exc:
        # before EngineError: ResourceError is a subclass
        print(f"tpcds-py: resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except EngineError as exc:
        print(f"tpcds-py: execution error: {exc}", file=sys.stderr)
        return EXIT_EXECUTION
    except CheckpointMismatch as exc:
        print(f"tpcds-py: checkpoint error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
