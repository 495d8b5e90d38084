"""The multi-tenant query service: admission control, quotas, shedding.

A :class:`QueryService` wraps one shared
:class:`~repro.engine.Database` in a long-lived pool of worker threads
and hands out :class:`Session` objects keyed by *tenant*.  Every
statement flows through four gates before it reaches the engine:

1. **Circuit breaker** — each tenant has a breaker that trips OPEN
   after ``breaker_threshold`` consecutive execution failures.  While
   open, submissions are shed immediately with a ``retry_after`` equal
   to the remaining cool-down; after ``breaker_reset_s`` the breaker
   half-opens and admits exactly one probe statement — success closes
   it, failure re-opens it.
2. **Bounded queue** — at most ``quota.max_queue_depth`` statements
   may wait per tenant; past that the service sheds with a
   ``retry_after`` derived from the tenant's EWMA statement latency.
3. **Deadline-aware shedding** — when the predicted queue wait
   (EWMA latency x queue length / concurrency slots) already exceeds
   the statement's timeout, queueing is pointless work: the service
   rejects up front instead of timing the statement out later.
4. **Per-tenant concurrency** — a tenant never holds more than
   ``quota.max_concurrent`` worker threads, so a flood (or a fault
   storm) from one tenant cannot starve the others; dispatch
   round-robins across tenants with queued work.

Admitted statements execute under the engine's existing
:class:`~repro.engine.governor.ResourceContext`: the statement's
*end-to-end* deadline (admission time + timeout, minus time spent
queued) becomes the governor deadline, the tenant's memory budget
becomes the governor budget, and the session's cancel event is the
governor cancel flag.  A per-tenant
:class:`~repro.faults.FaultInjector` (``set_faults``) scopes injected
failures to that tenant alone.

Service state is queryable in SQL: the service registers the
``sys.sessions`` and ``sys.service`` virtual tables on its database.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Optional

from ..engine.errors import (
    EngineError,
    QueryCancelled,
    QueryTimeout,
    failure_status,
)
from ..engine.types import ColumnDef, Kind, SqlType, TableSchema, varchar
from ..engine.virtual import VirtualTableProvider
from ..obs import Histogram, get_registry, get_tracer, latency_percentiles

#: EWMA smoothing for the per-tenant latency estimate that drives
#: deadline-aware shedding (0.2 = a new sample moves the estimate 20%)
EWMA_ALPHA = 0.2

#: floor on every retry_after hint, so clients never busy-spin
MIN_RETRY_AFTER_S = 0.01


# -- errors ------------------------------------------------------------------


class ServiceError(EngineError):
    """Base class for query-service errors."""


class AdmissionRejected(ServiceError):
    """The service shed this statement instead of queueing it.

    ``retry_after_s`` tells the client when capacity is expected;
    ``reason`` is one of ``"queue_full"``, ``"deadline"`` or
    ``"breaker_open"``.  Marked *transient*: a later retry may be
    admitted."""

    transient = True

    def __init__(self, message: str, reason: str, retry_after_s: float):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class SessionClosed(ServiceError):
    """The statement's session was closed."""


class ServiceShutdown(ServiceError):
    """The service is shutting down and no longer admits statements."""


# -- quotas and the circuit breaker ------------------------------------------


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource bounds, enforced at admission and execution.

    ``max_concurrent`` bounds worker threads held at once;
    ``max_queue_depth`` bounds statements waiting for a slot;
    ``statement_timeout_s`` is the default end-to-end deadline (queue
    wait included); ``mem_budget_bytes`` flows into the governor so
    over-budget operators spill instead of dying."""

    max_concurrent: int = 2
    max_queue_depth: int = 8
    statement_timeout_s: Optional[float] = None
    mem_budget_bytes: Optional[float] = None


class CircuitBreaker:
    """A per-tenant three-state breaker (closed / open / half_open).

    Not internally locked: the owning service calls every method under
    its own lock, which also keeps state transitions and counter
    updates atomic with admission decisions."""

    def __init__(self, threshold: int = 5, reset_timeout_s: float = 1.0):
        self.threshold = threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0
        self.opened_at = 0.0
        self._probe_inflight = False

    def admit(self, now: float) -> tuple[bool, float]:
        """``(admitted, retry_after_s)`` for one arrival at ``now``.

        An OPEN breaker past its cool-down transitions to HALF_OPEN and
        admits exactly one probe; concurrent arrivals during the probe
        are shed with the full reset timeout as the hint."""
        if self.state == "closed":
            return True, 0.0
        if self.state == "open":
            remaining = self.opened_at + self.reset_timeout_s - now
            if remaining > 0.0:
                return False, remaining
            self.state = "half_open"
            self._probe_inflight = False
        if self._probe_inflight:
            return False, self.reset_timeout_s
        self._probe_inflight = True
        return True, 0.0

    def record_success(self) -> None:
        """A statement completed: close the breaker, reset the count."""
        self.state = "closed"
        self.consecutive_failures = 0
        self._probe_inflight = False

    def record_failure(self, now: float) -> None:
        """A statement failed: count it; trip past the threshold, and
        re-open immediately on a failed half-open probe."""
        self.consecutive_failures += 1
        self._probe_inflight = False
        if (
            self.state == "half_open"
            or self.consecutive_failures >= self.threshold
        ):
            if self.state != "open":
                self.trips += 1
            self.state = "open"
            self.opened_at = now


# -- internal state ----------------------------------------------------------


class _Statement:
    """One admitted statement waiting for (or holding) a worker."""

    __slots__ = (
        "session", "sql", "future", "cancel_event", "enqueued_at",
        "deadline", "timeout_s",
    )

    def __init__(self, session, sql, timeout_s, now):
        self.session = session
        self.sql = sql
        self.future: Future = Future()
        self.cancel_event = threading.Event()
        self.enqueued_at = now
        self.timeout_s = timeout_s
        self.deadline = now + timeout_s if timeout_s is not None else None


class _TenantState:
    """Everything the service tracks about one tenant."""

    __slots__ = (
        "name", "quota", "breaker", "pending", "running", "faults",
        "admitted", "completed", "failed", "timeouts", "cancelled",
        "shed_queue_full", "shed_deadline", "shed_breaker",
        "max_queued", "last_retry_after_s", "ewma_latency_s",
        "latency", "queue_wait",
    )

    def __init__(self, name: str, quota: TenantQuota, breaker: CircuitBreaker):
        self.name = name
        self.quota = quota
        self.breaker = breaker
        self.pending: deque[_Statement] = deque()
        self.running = 0
        self.faults = None
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.timeouts = 0
        self.cancelled = 0
        self.shed_queue_full = 0
        self.shed_deadline = 0
        self.shed_breaker = 0
        self.max_queued = 0
        self.last_retry_after_s = 0.0
        self.ewma_latency_s: Optional[float] = None
        # log2 histograms: bounded memory, mergeable, percentile-ready
        self.latency = Histogram(f"service.latency.{name}", threading.Lock())
        self.queue_wait = Histogram(
            f"service.queue_wait.{name}", threading.Lock()
        )

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline + self.shed_breaker

    def predicted_wait_s(self) -> float:
        """Expected queue wait for a new arrival: EWMA statement
        latency scaled by how many statements stand between the arrival
        and a free slot (0 until the first completion seeds the EWMA)."""
        if self.ewma_latency_s is None:
            return 0.0
        slots = max(self.quota.max_concurrent, 1)
        ahead = len(self.pending) + self.running
        return self.ewma_latency_s * (ahead / slots)

    def as_row(self) -> tuple:
        return (
            self.name, self.breaker.state,
            self.breaker.consecutive_failures, self.breaker.trips,
            self.admitted, self.shed, self.shed_queue_full,
            self.shed_deadline, self.shed_breaker, len(self.pending),
            self.max_queued, self.running, self.completed, self.failed,
            self.timeouts, self.cancelled, self.last_retry_after_s,
            self.ewma_latency_s,
            self.queue_wait.quantile(0.5) if self.queue_wait.count else None,
            self.latency.quantile(0.5) if self.latency.count else None,
            self.latency.quantile(0.99) if self.latency.count else None,
        )

    def as_dict(self) -> dict:
        return {
            "tenant": self.name,
            "breaker_state": self.breaker.state,
            "consecutive_failures": self.breaker.consecutive_failures,
            "breaker_trips": self.breaker.trips,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "shed_breaker": self.shed_breaker,
            "queued": len(self.pending),
            "max_queued": self.max_queued,
            "running": self.running,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "last_retry_after_s": self.last_retry_after_s,
            "ewma_latency_s": self.ewma_latency_s,
            "latency": latency_percentiles(self.latency),
            "queue_wait": latency_percentiles(self.queue_wait),
        }


# -- sessions ----------------------------------------------------------------


class Session:
    """One client's handle on the service.

    ``submit`` enqueues a statement and returns a
    :class:`~concurrent.futures.Future`; ``execute`` blocks for the
    result.  ``cancel`` sets the cancel flag of every in-flight
    statement of *this session only* — running statements stop at the
    next batch boundary, queued ones fail at dispatch — and leaves the
    session usable for new statements."""

    def __init__(self, service: "QueryService", session_id: int, tenant: str):
        self.service = service
        self.session_id = session_id
        self.tenant = tenant
        self.created_at = time.time()
        self.closed = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.cancelled = 0
        self._inflight: set[_Statement] = set()

    def submit(self, sql: str, timeout_s: Optional[float] = None) -> Future:
        return self.service.submit(self, sql, timeout_s=timeout_s)

    def execute(self, sql: str, timeout_s: Optional[float] = None):
        """Submit and block for the engine
        :class:`~repro.engine.database.Result` (raises what the
        statement raised)."""
        return self.submit(sql, timeout_s=timeout_s).result()

    def cancel(self) -> int:
        """Cancel every in-flight statement; returns how many were
        flagged.  The session stays open."""
        return self.service._cancel_session(self)

    def close(self) -> None:
        """Close the session: cancel in-flight statements and refuse
        new ones."""
        self.service._close_session(self)

    def as_row(self) -> tuple:
        return (
            self.session_id, self.tenant,
            "closed" if self.closed else "open", self.created_at,
            self.submitted, self.completed, self.failed, self.shed,
            self.cancelled, len(self._inflight),
        )


# -- the service -------------------------------------------------------------


class QueryService:
    """A long-lived thread-pool query service over one shared database.

    ``workers`` threads drain the per-tenant admission queues in
    round-robin order; per-tenant quotas bound concurrency, queue depth,
    memory and statement deadlines; a per-tenant circuit breaker sheds
    during failure storms.  See the module docstring for the admission
    pipeline."""

    def __init__(
        self,
        db,
        workers: int = 4,
        default_quota: Optional[TenantQuota] = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
    ):
        self.db = db
        self.workers = max(int(workers), 1)
        self.default_quota = default_quota or TenantQuota()
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.started_at = time.time()
        self._lock = threading.Condition()
        self._tenants: dict[str, _TenantState] = {}
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._rr: deque[str] = deque()  # round-robin dispatch order
        self._shutdown = False
        self._drain = True
        self._threads = [
            threading.Thread(
                target=self._worker, args=(i,),
                name=f"svc-worker-{i}", daemon=True,
            )
            for i in range(self.workers)
        ]
        install_service_tables(db, self)
        for thread in self._threads:
            thread.start()

    # -- tenants and sessions ------------------------------------------------

    def tenant(
        self, name: str, quota: Optional[TenantQuota] = None
    ) -> _TenantState:
        """Get-or-create the tenant ``name`` (``quota`` applies only on
        first sight; later calls must not silently rewrite limits)."""
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = _TenantState(
                    name,
                    quota or self.default_quota,
                    CircuitBreaker(self.breaker_threshold,
                                   self.breaker_reset_s),
                )
                self._tenants[name] = state
                self._rr.append(name)
            return state

    def create_session(
        self, tenant: str, quota: Optional[TenantQuota] = None
    ) -> Session:
        """Open a session for ``tenant`` (created on first use)."""
        self.tenant(tenant, quota)
        with self._lock:
            if self._shutdown:
                raise ServiceShutdown("service is shut down")
            session = Session(self, next(self._session_ids), tenant)
            self._sessions[session.session_id] = session
            return session

    def set_faults(self, tenant: str, injector) -> None:
        """Install (or clear, with ``None``) a tenant-scoped
        :class:`~repro.faults.FaultInjector`: its query- and
        operator-level injection points fire only for this tenant's
        statements."""
        state = self.tenant(tenant)
        with self._lock:
            state.faults = injector

    # -- admission -----------------------------------------------------------

    def submit(
        self, session: Session, sql: str, timeout_s: Optional[float] = None
    ) -> Future:
        """Admit one statement or shed it with
        :class:`AdmissionRejected` (see the module docstring for the
        gate order)."""
        registry = get_registry()
        with self._lock:
            if self._shutdown:
                raise ServiceShutdown("service is shut down")
            if session.closed:
                raise SessionClosed(
                    f"session {session.session_id} is closed"
                )
            tenant = self._tenants[session.tenant]
            session.submitted += 1
            now = time.monotonic()
            if timeout_s is None:
                timeout_s = tenant.quota.statement_timeout_s

            admitted, retry_after = tenant.breaker.admit(now)
            if not admitted:
                return self._shed(
                    session, tenant, "breaker_open", retry_after, registry,
                    f"tenant {tenant.name} circuit breaker is open",
                )
            if len(tenant.pending) >= tenant.quota.max_queue_depth:
                retry_after = max(tenant.predicted_wait_s(),
                                  tenant.ewma_latency_s or 0.0)
                return self._shed(
                    session, tenant, "queue_full", retry_after, registry,
                    f"tenant {tenant.name} admission queue is full "
                    f"({tenant.quota.max_queue_depth} waiting)",
                )
            predicted = tenant.predicted_wait_s()
            if timeout_s is not None and predicted >= timeout_s:
                return self._shed(
                    session, tenant, "deadline", predicted, registry,
                    f"predicted queue wait {predicted:.3f}s exceeds the "
                    f"{timeout_s:.3f}s statement deadline",
                )

            statement = _Statement(session, sql, timeout_s, now)
            session._inflight.add(statement)
            tenant.pending.append(statement)
            tenant.admitted += 1
            tenant.max_queued = max(tenant.max_queued, len(tenant.pending))
            if registry.enabled:
                registry.counter(
                    "service.admitted", labels={"tenant": tenant.name}
                ).add()
                registry.gauge(
                    "service.max_queue_depth", labels={"tenant": tenant.name}
                ).set_max(len(tenant.pending))
            self._lock.notify()
            return statement.future

    def _shed(
        self, session, tenant, reason, retry_after, registry, message
    ) -> Future:
        """Reject one arrival (caller holds the lock): count it, stamp
        the retry hint, raise."""
        retry_after = max(retry_after, MIN_RETRY_AFTER_S)
        if reason == "queue_full":
            tenant.shed_queue_full += 1
        elif reason == "deadline":
            tenant.shed_deadline += 1
        else:
            tenant.shed_breaker += 1
        tenant.last_retry_after_s = retry_after
        session.shed += 1
        if registry.enabled:
            registry.counter(
                "service.shed", labels={"tenant": tenant.name}
            ).add()
        raise AdmissionRejected(
            f"{message}; retry after {retry_after:.3f}s",
            reason=reason, retry_after_s=retry_after,
        )

    # -- dispatch ------------------------------------------------------------

    def _next_statement(self) -> Optional[tuple[_Statement, _TenantState]]:
        """The next runnable statement under round-robin tenant
        fairness, or ``None``.  Caller holds the lock."""
        for _ in range(len(self._rr)):
            name = self._rr[0]
            self._rr.rotate(-1)
            tenant = self._tenants[name]
            if tenant.pending and tenant.running < tenant.quota.max_concurrent:
                return tenant.pending.popleft(), tenant
        return None

    def _worker(self, index: int) -> None:
        while True:
            with self._lock:
                item = self._next_statement()
                while item is None:
                    if self._shutdown:
                        return
                    self._lock.wait()
                    item = self._next_statement()
                statement, tenant = item
                tenant.running += 1
            try:
                self._run_statement(statement, tenant, index)
            finally:
                with self._lock:
                    tenant.running -= 1
                    statement.session._inflight.discard(statement)
                    self._lock.notify_all()

    def _run_statement(
        self, statement: _Statement, tenant: _TenantState, worker: int
    ) -> None:
        registry = get_registry()
        now = time.monotonic()
        queue_wait = now - statement.enqueued_at
        tenant.queue_wait.observe(queue_wait)
        if registry.enabled:
            registry.histogram("service.queue_wait_seconds").observe(
                queue_wait
            )
        session = statement.session
        future = statement.future
        remaining = None
        if statement.deadline is not None:
            remaining = statement.deadline - now
        error: Optional[BaseException] = None
        result = None
        if statement.cancel_event.is_set() or session.closed:
            error = QueryCancelled(
                "statement cancelled while queued"
                if statement.cancel_event.is_set()
                else f"session {session.session_id} closed while queued"
            )
        elif remaining is not None and remaining <= 0.0:
            error = QueryTimeout(
                f"deadline exceeded after {queue_wait:.3f}s in the "
                f"admission queue"
            )
        else:
            with get_tracer().span(
                "service:statement", tenant=tenant.name,
                session=session.session_id, worker=worker,
            ):
                try:
                    result = self.db.execute(
                        statement.sql,
                        timeout_s=remaining,
                        mem_budget_bytes=tenant.quota.mem_budget_bytes,
                        cancel=statement.cancel_event,
                        faults=tenant.faults,
                    )
                except BaseException as exc:  # classified below
                    error = exc
        elapsed = time.monotonic() - statement.enqueued_at
        status = failure_status(error) if error is not None else "ok"
        with self._lock:
            mono_now = time.monotonic()
            if error is None:
                tenant.completed += 1
                session.completed += 1
                tenant.breaker.record_success()
                tenant.latency.observe(elapsed)
                sample = elapsed
                tenant.ewma_latency_s = (
                    sample if tenant.ewma_latency_s is None
                    else (1 - EWMA_ALPHA) * tenant.ewma_latency_s
                    + EWMA_ALPHA * sample
                )
            elif status == "cancelled":
                tenant.cancelled += 1
                session.cancelled += 1
                # client-initiated: not a backend failure, breaker unmoved
            else:
                if status == "timeout":
                    tenant.timeouts += 1
                else:
                    tenant.failed += 1
                session.failed += 1
                tenant.breaker.record_failure(mono_now)
        if registry.enabled:
            if error is None:
                registry.counter(
                    "service.completed", labels={"tenant": tenant.name}
                ).add()
                registry.histogram(
                    "service.latency_seconds", labels={"tenant": tenant.name}
                ).observe(elapsed)
            else:
                registry.counter(
                    "service.failed", labels={"tenant": tenant.name}
                ).add()
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    # -- cancellation and teardown -------------------------------------------

    def _cancel_session(self, session: Session) -> int:
        with self._lock:
            inflight = list(session._inflight)
        for statement in inflight:
            statement.cancel_event.set()
        return len(inflight)

    def _close_session(self, session: Session) -> None:
        with self._lock:
            session.closed = True
        self._cancel_session(session)

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Shut the service down.

        ``drain=True`` (default) lets workers finish everything already
        admitted; ``drain=False`` fails queued statements with
        :class:`ServiceShutdown` and stops after in-flight statements
        complete."""
        with self._lock:
            if not drain:
                for tenant in self._tenants.values():
                    while tenant.pending:
                        statement = tenant.pending.popleft()
                        statement.session._inflight.discard(statement)
                        statement.future.set_exception(
                            ServiceShutdown("service shut down")
                        )
            else:
                # wait for the queues to empty before stopping workers
                deadline = time.monotonic() + timeout_s
                while any(t.pending or t.running
                          for t in self._tenants.values()):
                    if not self._lock.wait(timeout=0.05):
                        if time.monotonic() >= deadline:
                            break
            self._shutdown = True
            self._lock.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout_s)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    def tenants(self) -> list[_TenantState]:
        with self._lock:
            return [self._tenants[n] for n in sorted(self._tenants)]

    def sessions(self) -> list[Session]:
        with self._lock:
            return [self._sessions[i] for i in sorted(self._sessions)]

    def as_dict(self) -> dict:
        """JSON-ready service state (the ``BENCH_service.json`` /
        disclosure-report payload)."""
        with self._lock:
            tenants = [self._tenants[n] for n in sorted(self._tenants)]
            sessions = [self._sessions[i] for i in sorted(self._sessions)]
            return {
                "workers": self.workers,
                "started_at": self.started_at,
                "breaker_threshold": self.breaker_threshold,
                "breaker_reset_s": self.breaker_reset_s,
                "tenants": [t.as_dict() for t in tenants],
                "sessions": len(sessions),
                "admitted": sum(t.admitted for t in tenants),
                "shed": sum(t.shed for t in tenants),
                "completed": sum(t.completed for t in tenants),
                "failed": sum(t.failed for t in tenants),
                "timeouts": sum(t.timeouts for t in tenants),
                "cancelled": sum(t.cancelled for t in tenants),
            }


# -- sys.* registration ------------------------------------------------------


def _float_type() -> SqlType:
    return SqlType("double", Kind.FLOAT, 18)


def _int_type() -> SqlType:
    return SqlType("bigint", Kind.INT, 20)


def _schema(name: str, columns: list[tuple[str, SqlType]]) -> TableSchema:
    return TableSchema(
        name=name,
        columns=[ColumnDef(cname, ctype) for cname, ctype in columns],
    )


def install_service_tables(db, service: QueryService) -> None:
    """Register ``sys.sessions`` and ``sys.service`` on ``db``: live
    service state, SQL-queryable like every other ``sys.*`` table."""
    _F, _I, _S = _float_type, _int_type, varchar

    db.catalog.register_virtual(VirtualTableProvider(
        "sys.sessions",
        _schema("sys.sessions", [
            ("session_id", _I()), ("tenant", _S(100)), ("state", _S(8)),
            ("created_at", _F()), ("submitted", _I()), ("completed", _I()),
            ("failed", _I()), ("shed", _I()), ("cancelled", _I()),
            ("inflight", _I()),
        ]),
        lambda: [s.as_row() for s in service.sessions()],
    ))

    db.catalog.register_virtual(VirtualTableProvider(
        "sys.service",
        _schema("sys.service", [
            ("tenant", _S(100)), ("breaker_state", _S(10)),
            ("consecutive_failures", _I()), ("breaker_trips", _I()),
            ("admitted", _I()), ("shed", _I()), ("shed_queue_full", _I()),
            ("shed_deadline", _I()), ("shed_breaker", _I()),
            ("queued", _I()), ("max_queued", _I()), ("running", _I()),
            ("completed", _I()), ("failed", _I()), ("timeouts", _I()),
            ("cancelled", _I()), ("last_retry_after_s", _F()),
            ("ewma_latency_s", _F()), ("queue_wait_p50_s", _F()),
            ("latency_p50_s", _F()), ("latency_p99_s", _F()),
        ]),
        lambda: [t.as_row() for t in service.tenants()],
    ))
