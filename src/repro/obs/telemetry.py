"""Continuous telemetry: Chrome-trace export, latency percentiles,
and a background metrics sampler.

Three pieces that turn the run-scoped observability primitives into
artifacts a human (or a viewer) can consume after the fact:

* :func:`to_chrome_trace` renders a :class:`~repro.obs.Tracer` span
  timeline as a Chrome-trace-format document (the JSON Perfetto and
  ``chrome://tracing`` load).  Spans are anchored to the tracer's
  wall-clock epoch and mapped onto pid/tid lanes, so the statement
  thread, the benchmark streams and every pool worker appear as
  parallel tracks.  :func:`validate_chrome_trace` is the structural
  check CI and the tests run against the emitted document.
* :func:`latency_percentiles` reads p50/p90/p95/p99 off exact samples
  (nearest rank) or off a :class:`~repro.obs.metrics.Histogram` — the
  single percentile definition shared by the runner's report tables,
  the telemetry bundle, the query service and the ``BENCH_*.json``
  payloads.
* :class:`MetricsSampler` snapshots the metrics registry on a
  background thread at a fixed interval into an in-memory time series
  (optionally mirrored to JSONL), giving gauges and counters a time
  axis instead of a single end-of-run value.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from typing import Optional, Sequence, Union

from .metrics import Histogram, MetricsRegistry, get_registry

#: the percentile surface every latency table reports
PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


def latency_percentiles(source: Union[Sequence[float], Histogram]) -> dict:
    """count / mean / max and p50/p90/p95/p99 of latencies — empty
    input yields zeros.  Samples give exact nearest-rank percentiles
    (the smallest sample with at least ``q`` of the data at or below
    it); a :class:`Histogram`, which kept only log2 buckets, gives its
    bucket-edge approximation."""
    if isinstance(source, Histogram):
        count, mean = source.count, source.mean()
        peak = source.max if count else 0.0
        quantile = source.quantile
    else:
        ordered = sorted(source)
        count = len(ordered)
        mean = sum(ordered) / count if count else 0.0
        peak = ordered[-1] if count else 0.0

        def quantile(q: float) -> float:
            return ordered[max(math.ceil(q * count), 1) - 1] if count else 0.0

    out = {"count": count, "mean": mean, "max": peak}
    for name, q in PERCENTILES:
        out[name] = quantile(q)
    return out


# -- Chrome trace export ---------------------------------------------------

def _lane_name(spans_on_thread: list[dict]) -> str:
    """A human label for one thread's lane, inferred from what ran on
    it: pool workers are tagged by their morsel spans, service workers
    by their service:statement spans, benchmark streams by their stream
    spans, the statement thread by its phases."""
    workers = {
        s["attrs"]["worker"]
        for s in spans_on_thread
        if s["name"].startswith("morsel:") and "worker" in s.get("attrs", {})
    }
    if workers:
        return f"pool worker {min(workers)}"
    service_workers = {
        s["attrs"]["worker"]
        for s in spans_on_thread
        if s["name"].startswith("service:") and "worker" in s.get("attrs", {})
    }
    if service_workers:
        return f"service worker {min(service_workers)}"
    streams = {
        s["attrs"]["stream"]
        for s in spans_on_thread
        if s["name"] == "stream" and "stream" in s.get("attrs", {})
    }
    if streams:
        if len(streams) == 1:
            return f"stream {next(iter(streams))}"
        return "streams " + ",".join(str(s) for s in sorted(streams))
    if any(s["name"].startswith("phase:") for s in spans_on_thread):
        return "benchmark"
    return "thread"


def to_chrome_trace(spans: list[dict], process_name: str = "tpcds-py") -> dict:
    """Render exported spans (``Span.as_dict()`` dicts) as a
    Chrome-trace-format document.

    Every span becomes one complete event (``ph: "X"``) with
    microsecond ``ts``/``dur`` taken from its wall-clock anchored
    start; the span's thread becomes its ``tid`` lane, labelled via
    ``thread_name`` metadata so Perfetto shows named parallel tracks
    (statement thread, streams, pool workers)."""
    by_thread: dict[int, list[dict]] = {}
    for span in spans:
        by_thread.setdefault(span.get("thread", 0), []).append(span)
    # stable lane order: first appearance in (start-ordered) span list
    tids: dict[int, int] = {}
    for span in sorted(spans, key=lambda s: s.get("start", 0.0)):
        thread = span.get("thread", 0)
        if thread not in tids:
            tids[thread] = len(tids)
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": process_name}},
    ]
    for thread, tid in tids.items():
        events.append({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
            "args": {"name": _lane_name(by_thread[thread])},
        })
    for span in spans:
        start = span.get("wall_start", span.get("start", 0.0))
        args = {k: v for k, v in span.get("attrs", {}).items()}
        args["span_id"] = span.get("id")
        if span.get("parent") is not None:
            args["parent_span_id"] = span["parent"]
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span["name"].split(":", 1)[0],
            "ts": round(start * 1e6, 3),
            "dur": round(span.get("elapsed", 0.0) * 1e6, 3),
            "pid": 0,
            "tid": tids.get(span.get("thread", 0), 0),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> list[str]:
    """Structural errors in a Chrome-trace document (empty = valid).

    Checks the JSON-object format Perfetto accepts: a ``traceEvents``
    list whose duration events carry ``name``/``ph``/``ts``/``dur``/
    ``pid``/``tid`` with numeric, non-negative timestamps."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        errors.append("traceEvents is empty")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {index} is not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "C"):
            errors.append(f"event {index}: unknown phase {ph!r}")
        for field in ("name", "pid", "tid"):
            if field not in event:
                errors.append(f"event {index}: missing {field!r}")
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"event {index}: bad {field!r}: {value!r}")
    return errors


def worker_lanes(doc: dict) -> list[str]:
    """The pool-worker lane names declared in a Chrome-trace document
    (the ``workers=2`` acceptance check counts these)."""
    return sorted(
        event["args"]["name"]
        for event in doc.get("traceEvents", [])
        if event.get("ph") == "M" and event.get("name") == "thread_name"
        and event.get("args", {}).get("name", "").startswith("pool worker")
    )


# -- background metrics sampling -------------------------------------------

class MetricsSampler:
    """Snapshots a :class:`MetricsRegistry` at a fixed interval on a
    daemon thread, accumulating ``{"ts": wall_clock, "metrics": ...}``
    samples in memory and (optionally) appending each as one JSONL
    line to ``path``.

    Lifecycle: ``start()`` launches the thread, ``stop()`` joins it and
    takes one final sample so the series always covers the full window
    even when the run is shorter than the interval.  Usable as a
    context manager.  A disabled registry yields empty snapshots, so an
    accidentally-on sampler records timestamps but no data.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        interval_s: float = 0.25,
        path: Optional[str] = None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.registry = registry if registry is not None else get_registry()
        self.interval_s = interval_s
        self.path = path
        self.samples: list[dict] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._handle = None
        self._stopped = False

    def sample(self) -> dict:
        """Take (and record) one snapshot immediately."""
        record = {"ts": time.time(), "metrics": self.registry.snapshot()}
        self.samples.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()
        return record

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> "MetricsSampler":
        """Start the background sampling thread (idempotent)."""
        if self._thread is not None:
            return self
        if self.path is not None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._stop.clear()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="obs-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> list[dict]:
        """Stop sampling, take a final snapshot, return the series.

        Idempotent: only the first call takes the final sample and
        closes the JSONL mirror; later calls just return the series
        (both the runner's ``finally`` and a context-manager ``__exit__``
        may call it)."""
        if self._stopped:
            return self.samples
        self._stopped = True
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        return self.samples

    def __enter__(self) -> "MetricsSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def load_metrics_series(path: str) -> list[dict]:
    """Load a sampler's JSONL mirror, tolerating a torn final line (a
    run killed mid-append leaves at most one partial record).  Missing
    file -> empty series."""
    if not os.path.exists(path):
        return []
    series = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "ts" in record:
                series.append(record)
    return series
