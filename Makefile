PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test determinism e2e-smoke bench bench-smoke bench-compare qualification difftest faultcheck parallelcheck obscheck storecheck servecheck

## fuzz seed for `make difftest`; CI rotates it per run and logs the
## value so any failure replays with DIFFTEST_SEED=<logged seed>
DIFFTEST_SEED ?= 19620718

## noise threshold for `make bench-compare` (fraction: 0.25 flags
## run-over-run slowdowns beyond 1.25x)
BENCH_COMPARE_THRESHOLD ?= 0.25

## history.jsonl is append-only; bench-compare bounds it to the last
## N runs per (git sha, bench module) before diffing
BENCH_HISTORY_KEEP ?= 10

## tier-1 suite + parallel-generation determinism smoke + the
## end-to-end benchmark harness at smoke size
check: test determinism e2e-smoke

test:
	$(PYTHON) -m pytest -x -q

## serial vs 4-worker generation must be byte-identical (sf 0.001)
determinism:
	$(PYTHON) -m pytest tests/test_parallel_dsdgen.py -q

## every BENCHMARK.json workload at --smoke, untraced and traced
## (≈ 1 min): the harness reaches into try_rewrite / Planner /
## Optimizer / db.plan_quality and wraps db.execute, so an engine
## refactor that breaks that reach fails here, not in the driver
e2e-smoke:
	$(PYTHON) benchmarks/e2e/test_harness.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

## fast CI smoke: quick benches with BENCH_*.json output, the
## observability zero-overhead check (<2% with tracing disabled), and
## the serial-vs-parallel operator speedup curve
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_metric_qphds.py \
	    benchmarks/bench_table1_schema_stats.py \
	    benchmarks/bench_engine_operators.py --benchmark-only -q
	$(PYTHON) benchmarks/check_overhead.py
	$(PYTHON) benchmarks/check_parallel_speedup.py

## compare the latest two benchmark runs in history.jsonl; exits
## nonzero when any bench regressed beyond the noise threshold
bench-compare:
	$(PYTHON) -m repro.cli obs history --prune --keep $(BENCH_HISTORY_KEEP) \
	    --history benchmarks/results/history.jsonl
	$(PYTHON) -m repro.cli obs diff --history benchmarks/results/history.jsonl \
	    --threshold $(BENCH_COMPARE_THRESHOLD)

## telemetry pipeline: the <2% disabled-path overhead certificate plus
## an end-to-end smoke — a sf=0.004 workers=2 power run exporting a
## validated Chrome trace (with >= 2 pool-worker lanes) and the
## self-contained HTML dashboard
obscheck:
	$(PYTHON) benchmarks/check_overhead.py
	$(PYTHON) scripts/obs_smoke.py

## column-store round trip: build sf=0.01, save, reopen lazily, run
## all 108 qualification statements byte-identical store-vs-memory,
## verify zone-map pruning and incremental DML saves
storecheck:
	$(PYTHON) scripts/store_check.py

## query-service gate: service/loadgen unit tests, then a 4-tenant
## burst under fault injection — zero cross-tenant failures, bounded
## queues with retry_after shedding, breaker trip + recovery, SLA
## verdict emitted and sys.service consistent
servecheck:
	$(PYTHON) -m pytest tests/test_service.py tests/test_loadgen.py -q
	$(PYTHON) scripts/serve_check.py

## regenerate the pinned qualification answer set (after intentional
## behavioral changes only)
qualification:
	$(PYTHON) -m repro.qgen.qualification

## differential correctness vs the SQLite oracle: all 99 qualification
## queries + 200 fuzzer queries; mismatches get shrunk into
## tests/difftest_corpus/
difftest:
	$(PYTHON) -m repro.cli difftest --scale 0.01 --fuzz 200 \
	    --fuzz-seed $(DIFFTEST_SEED)

## morsel-parallel execution: pool unit tests, the 108-statement +
## repro-corpus determinism matrix (workers ∈ {2, 4} byte-identical to
## serial), spill-accounting invariance, and governor/fault-injection
## checks firing inside worker threads
parallelcheck:
	$(PYTHON) -m pytest tests/engine/test_parallel_pool.py \
	    tests/test_parallel_engine.py tests/test_stream_stress.py -q

## robustness suite: resource governor (spill byte-identity, timeouts,
## cancellation), deterministic fault injection, checkpoint/resume, the
## 4-stream race-freedom stress test, and a SIGKILL-and-resume smoke
faultcheck:
	$(PYTHON) -m pytest tests/engine/test_governor.py tests/test_faults.py \
	    tests/test_resume.py tests/test_stream_stress.py -q
	$(PYTHON) scripts/kill_resume_smoke.py
