"""The open-loop load driver: arrival patterns, query mix, SLA checks.

An **open-loop** driver issues statements on a precomputed arrival
schedule regardless of how fast the service answers — unlike a
closed-loop driver (issue, wait, issue), it keeps the pressure on when
the service slows down, which is exactly the regime where admission
control and load shedding earn their keep (coordinated omission is the
classic closed-loop blind spot).

The schedule is fully deterministic: phases (:func:`parse_phases`
accepts ``"steady:20:2,burst:40:1,ramp:5-40:3"`` — ``name:qps:secs``
with ``lo-hi`` ramping the rate linearly) are integrated into exact
arrival offsets, and a seeded RNG draws each arrival's tenant (by
weight) and query template; the SQL itself comes from the qgen
templates, pre-generated before the clock starts.  Each tenant
declares an optional :class:`SLATarget` (p99 latency ceiling,
error-rate ceiling); the resulting :class:`LoadReport` carries
per-tenant verdicts, latency percentiles off the shared log2
histograms, shed/retry-after observations, and the service's own
counters — ready for ``BENCH_service.json`` and the full-disclosure
report.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..obs import Histogram, latency_percentiles
from .core import AdmissionRejected, QueryService, TenantQuota
from ..engine.errors import failure_status

#: how long (seconds) the driver waits for stragglers after the last
#: scheduled arrival before declaring them lost
DRAIN_TIMEOUT_S = 60.0


# -- arrival phases ----------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    """One segment of the arrival pattern.

    Rate is ``qps`` throughout, or ramps linearly ``start_qps -> qps``
    when ``start_qps`` is set."""

    name: str
    duration_s: float
    qps: float
    start_qps: Optional[float] = None

    def arrivals(self) -> list[float]:
        """Offsets (seconds from phase start) of every arrival in this
        phase, by inverting the cumulative-rate integral."""
        lo = self.qps if self.start_qps is None else self.start_qps
        hi = self.qps
        total = (lo + hi) / 2.0 * self.duration_s
        out = []
        k = 1
        while k <= int(total + 1e-9):
            if lo == hi:
                t = k / lo
            else:
                # solve lo*t + (hi-lo) t^2 / (2 D) = k for t
                a = (hi - lo) / (2.0 * self.duration_s)
                disc = lo * lo + 4.0 * a * k
                t = (-lo + disc ** 0.5) / (2.0 * a)
            out.append(min(t, self.duration_s))
            k += 1
        return out


def parse_phases(spec: str) -> list[Phase]:
    """Parse ``"steady:2:10,burst:20:5,ramp:2-20:10"`` — comma-joined
    ``name:qps:duration_s`` segments where ``qps`` may be ``lo-hi``
    for a linear ramp."""
    phases = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"phase {chunk!r}: expected name:qps:duration_s"
            )
        name, rate, duration = parts
        try:
            if "-" in rate:
                lo_s, hi_s = rate.split("-", 1)
                lo, hi = float(lo_s), float(hi_s)
            else:
                lo = hi = float(rate)
            duration_s = float(duration)
        except ValueError:
            raise ValueError(
                f"phase {chunk!r}: qps and duration must be numeric"
            ) from None
        if duration_s <= 0 or hi <= 0 or lo < 0:
            raise ValueError(
                f"phase {chunk!r}: duration and peak qps must be positive"
            )
        phases.append(Phase(
            name=name, duration_s=duration_s, qps=hi,
            start_qps=None if lo == hi else lo,
        ))
    if not phases:
        raise ValueError(f"no phases in {spec!r}")
    return phases


# -- tenants and SLAs --------------------------------------------------------


@dataclass(frozen=True)
class SLATarget:
    """Declared service-level objectives for one tenant: an end-to-end
    p99 latency ceiling and a ceiling on the failure rate among
    *admitted* statements (sheds are capacity signalling, not errors,
    and are reported separately)."""

    p99_s: float
    max_error_rate: float = 0.0


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's share of the workload: arrival ``weight`` (relative
    to the other tenants), the qgen ``templates`` its mix draws from,
    and optional SLA / quota declarations."""

    name: str
    weight: float = 1.0
    templates: tuple[int, ...] = (1,)
    sla: Optional[SLATarget] = None
    quota: Optional[TenantQuota] = None


@dataclass
class TenantReport:
    """Per-tenant outcome of one load run."""

    tenant: str
    issued: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    lost: int = 0
    max_retry_after_s: float = 0.0
    latency: dict = field(default_factory=dict)
    sla: Optional[SLATarget] = None
    sla_failures: list[str] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        done = self.completed + self.failed + self.timeouts
        return (self.failed + self.timeouts) / done if done else 0.0

    @property
    def sla_ok(self) -> bool:
        return not self.sla_failures

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "issued": self.issued,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "lost": self.lost,
            "error_rate": self.error_rate,
            "max_retry_after_s": self.max_retry_after_s,
            "latency": self.latency,
            "sla": (
                {"p99_s": self.sla.p99_s,
                 "max_error_rate": self.sla.max_error_rate}
                if self.sla else None
            ),
            "sla_ok": self.sla_ok,
            "sla_failures": list(self.sla_failures),
        }


@dataclass
class LoadReport:
    """The whole run: per-tenant reports plus the service's own view."""

    phases: list[dict] = field(default_factory=list)
    duration_s: float = 0.0
    issued: int = 0
    tenants: list[TenantReport] = field(default_factory=list)
    service: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def ok(self) -> bool:
        return all(t.sla_ok for t in self.tenants)

    def as_dict(self) -> dict:
        return {
            "kind": "service-load",
            "seed": self.seed,
            "duration_s": self.duration_s,
            "issued": self.issued,
            "ok": self.ok,
            "phases": list(self.phases),
            "tenants": [t.as_dict() for t in self.tenants],
            "service": self.service,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- the driver --------------------------------------------------------------


class _Arrival:
    __slots__ = ("at_s", "tenant", "template", "sql")

    def __init__(self, at_s: float, tenant: str, template: int, sql: str):
        self.at_s = at_s
        self.tenant = tenant
        self.template = template
        self.sql = sql


class LoadDriver:
    """Replays a deterministic arrival schedule against a service.

    Construction precomputes the whole schedule (arrival offsets,
    tenant draws, generated SQL); :meth:`run` then plays it open-loop —
    a late schedule issues immediately rather than silently stretching
    the pattern — and blocks until every admitted statement resolves
    (or the drain timeout passes)."""

    def __init__(
        self,
        service: QueryService,
        qgen,
        tenants: Sequence[TenantProfile],
        phases: Sequence[Phase],
        seed: int = 1,
    ):
        if not tenants:
            raise ValueError("at least one tenant profile is required")
        self.service = service
        self.tenants = list(tenants)
        self.phases = list(phases)
        self.seed = seed
        self.schedule = self._build_schedule(qgen)

    def _build_schedule(self, qgen) -> list[_Arrival]:
        import random

        rng = random.Random(self.seed)
        weights = [t.weight for t in self.tenants]
        arrivals: list[_Arrival] = []
        base = 0.0
        for phase in self.phases:
            for offset in phase.arrivals():
                profile = rng.choices(self.tenants, weights=weights)[0]
                template = profile.templates[
                    rng.randrange(len(profile.templates))
                ]
                arrivals.append(_Arrival(
                    base + offset, profile.name, template, sql=""
                ))
            base += phase.duration_s
        arrivals.sort(key=lambda a: a.at_s)
        # pre-generate all SQL before the clock starts: template
        # expansion must not perturb the arrival pattern.  The arrival
        # index doubles as the qgen permutation stream, so repeated
        # draws of one template still vary their substitutions.
        for index, arrival in enumerate(arrivals):
            generated = qgen.generate(arrival.template, stream=index)
            arrival.sql = generated.statements[0]
        return arrivals

    def run(self) -> LoadReport:
        """Issue the schedule, wait for stragglers, report."""
        profiles = {t.name: t for t in self.tenants}
        sessions = {
            t.name: self.service.create_session(t.name, quota=t.quota)
            for t in self.tenants
        }
        reports = {t.name: TenantReport(tenant=t.name, sla=t.sla)
                   for t in self.tenants}
        hists = {
            t.name: Histogram(f"loadgen.{t.name}", threading.Lock())
            for t in self.tenants
        }
        lock = threading.Lock()
        outstanding: list = []

        def on_done(report: TenantReport, hist: Histogram, t0: float):
            def callback(future):
                elapsed = time.monotonic() - t0
                exc = future.exception()
                status = failure_status(exc) if exc is not None else "ok"
                with lock:
                    if status == "ok":
                        report.completed += 1
                        hist.observe(elapsed)
                    elif status == "cancelled":
                        report.cancelled += 1
                    elif status == "timeout":
                        report.timeouts += 1
                    else:
                        report.failed += 1
            return callback

        start = time.monotonic()
        for arrival in self.schedule:
            due = start + arrival.at_s
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            report = reports[arrival.tenant]
            report.issued += 1
            t0 = time.monotonic()
            try:
                future = sessions[arrival.tenant].submit(arrival.sql)
            except AdmissionRejected as shed:
                report.shed += 1
                report.max_retry_after_s = max(
                    report.max_retry_after_s, shed.retry_after_s
                )
                continue
            report.admitted += 1
            future.add_done_callback(
                on_done(report, hists[arrival.tenant], t0)
            )
            outstanding.append(future)

        drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for future in outstanding:
            remaining = drain_deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                future.exception(timeout=remaining)
            except TimeoutError:
                break
        duration = time.monotonic() - start

        out = LoadReport(
            seed=self.seed,
            duration_s=duration,
            issued=len(self.schedule),
            phases=[
                {"name": p.name, "duration_s": p.duration_s, "qps": p.qps,
                 "start_qps": p.start_qps}
                for p in self.phases
            ],
        )
        with lock:
            for name in sorted(reports):
                report = reports[name]
                report.latency = latency_percentiles(hists[name])
                resolved = (report.completed + report.failed
                            + report.timeouts + report.cancelled)
                report.lost = report.admitted - resolved
                self._check_sla(report, profiles[name].sla)
                out.tenants.append(report)
        out.service = self.service.as_dict()
        return out

    @staticmethod
    def _check_sla(report: TenantReport, sla: Optional[SLATarget]) -> None:
        if sla is None:
            return
        p99 = report.latency.get("p99", 0.0)
        if p99 > sla.p99_s:
            report.sla_failures.append(
                f"p99 latency {p99:.3f}s exceeds target {sla.p99_s:.3f}s"
            )
        if report.error_rate > sla.max_error_rate:
            report.sla_failures.append(
                f"error rate {report.error_rate:.3f} exceeds ceiling "
                f"{sla.max_error_rate:.3f}"
            )
        if report.lost:
            report.sla_failures.append(
                f"{report.lost} admitted statements never resolved"
            )
