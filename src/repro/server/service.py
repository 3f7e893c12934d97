"""The transport-agnostic compilation service core.

:class:`CompileService` is what every transport (stdio, socket, HTTP —
see :mod:`repro.server.daemon`) hands requests to.  It owns exactly one
:class:`repro.api.Pipeline` — and therefore one warm persistent worker
pool and one shared :class:`repro.sched.store.ScheduleStore` — for the
whole daemon lifetime, and turns many concurrent single-request clients
into the batch shape the pipeline is fastest at:

* **Response memo.**  A request the service has answered before is
  answered again from :func:`repro.sched.cache.response_memo` (keyed
  by the coalescing key below plus ``Pipeline.verify``) before it
  queues: ``submit()`` returns an already-completed future holding a
  caller-owned copy, so a warm request costs one lookup and never
  waits out the batch window.  Errors and expired deadlines are never
  stored; inside :func:`repro.sched.cache.disabled` every request
  recompiles.
* **Request queue + batching.**  On a memo miss ``submit()`` enqueues
  and returns a future; a dispatcher thread drains the queue, waits
  one short batch window for stragglers, and runs the whole group
  through :meth:`Pipeline.compile_many` — so eight clients arriving
  together cost one batch, not eight independent compiles.  With
  ``jobs=1`` the batch compiles the graph ``submit()`` already parsed.
* **In-flight coalescing.**  Requests are keyed by
  :meth:`Pipeline.request_key` — the material the memo/store layers use
  (:func:`repro.sched.cache.compile_request_key`: DDG fingerprint,
  machine, scheduler, strategy, budget, options) plus the loop name,
  which is part of the response document.  A request
  whose key is already queued or executing does not enqueue again: it
  receives the in-flight computation's future, so identical concurrent
  requests schedule exactly once.
* **Determinism.**  Results are the pipeline's service shape (volatile
  fields — ``wall_seconds`` and the cache-warmth-dependent work
  counters — zeroed, heavyweight artifacts stripped), so a served
  response is byte-identical to a direct in-process
  ``Pipeline.compile_many`` result, whatever the batching or coalescing
  did.
* **Telemetry.**  :meth:`stats` reports service counters (requests,
  answered from the memo, batches, coalesced, errors, routed cell
  batches), the
  :class:`repro.sched.cache.CacheStats` movement and the PR-4
  :data:`repro.graph.index.WORK` counters for the server lifetime,
  the **aggregated worker-process counters** (``workers`` block — with
  ``jobs > 1`` the schedule computations happen in pool workers, and
  this is where their warm-pool hits show up), store telemetry, the
  worker-pool state, and the metrics recorder's latency/counter digest
  — the ``/stats`` endpoint.
* **Metrics.**  Every service owns a
  :class:`repro.metrics.MetricsRecorder`: per-request latency
  histograms, batch sizes, coalesced hits and per-batch CacheStats
  deltas, flushed as time-series rows into SQLite when the recorder has
  a database (``repro serve --cache-dir`` puts it at
  ``<cache-dir>/metrics.sqlite``).
"""

from __future__ import annotations

import contextlib
import copy
import threading
import time
from collections import deque
from concurrent.futures import Future

from repro import pool as worker_pool_mod
from repro.api import Pipeline
from repro.graph.index import WORK
from repro.metrics import MetricsRecorder
from repro.metrics.prom import render_prometheus
from repro.sched import store as sched_store
from repro.sched.cache import (
    STATS,
    CacheStats,
    caching_enabled,
    response_memo,
)
from repro.trace import context as trace_context

STATS_SCHEMA = "repro.server-stats/2"
HEALTH_SCHEMA = "repro.server-health/1"

# The response memo is process-wide (every service of the process
# shares it) and its FIFO eviction is not thread-safe: transport
# threads read it while dispatcher threads fill it.
_RESPONSE_LOCK = threading.Lock()


class ServiceClosed(RuntimeError):
    """Raised by :meth:`CompileService.submit` after :meth:`close`."""


class ServiceShuttingDown(ServiceClosed):
    """Raised by :meth:`CompileService.submit` while draining: the
    daemon is finishing in-flight work but accepts nothing new."""


class ServiceBusy(RuntimeError):
    """Raised by :meth:`CompileService.submit` when the bounded request
    queue is full — explicit load-shedding instead of unbounded
    buffering (clients should back off and retry elsewhere)."""


class ServiceTimeout(TimeoutError):
    """A request's ``deadline_ms`` expired before (or while) it was
    compiled.  A ``TimeoutError`` subclass, so generic timeout handling
    catches it too."""


class _Inflight:
    """One queued-or-executing unique request and its shared future."""

    __slots__ = (
        "future", "request", "ddg", "deadline", "trace", "enqueued",
    )

    def __init__(
        self, request: dict, ddg, deadline: float | None = None
    ) -> None:
        self.future: Future = Future()
        self.request = request
        # the graph submit() parsed for the key; a jobs=1 batch
        # compiles it instead of parsing the source again
        self.ddg = ddg
        self.deadline = deadline
        # the submitting thread's propagated trace context (set under
        # the protocol's server span), if any — queue/batch spans and
        # the worker compile span all hang off it
        self.trace = trace_context.current()
        self.enqueued = time.perf_counter()


class CompileService:
    """One warm pipeline behind a batching, coalescing request queue.

    Arguments:
        pipeline: the :class:`~repro.api.Pipeline` to serve (its
            defaults fill omitted request fields).  Built from *cache*
            with stock defaults when not given.
        cache: persistent store directory (or
            :class:`~repro.sched.store.ScheduleStore`) when *pipeline*
            is not given.
        jobs: pool width for each batch (``1`` = compile in the
            dispatcher thread; memos still make repeats free).
        batch_window: seconds the dispatcher waits after the first
            queued request for more to arrive before compiling.
        max_batch: largest group handed to one ``compile_many`` call.
        metrics: a :class:`repro.metrics.MetricsRecorder` (or a
            database path for one).  Defaults to a purely in-memory
            recorder, so the telemetry surface is always present; the
            service owns the recorder and closes it on :meth:`close`.
        start: start the dispatcher thread immediately.  Tests pass
            ``False`` to stage several duplicate submissions and then
            :meth:`start` the dispatcher, making coalescing assertions
            deterministic.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        cache: "sched_store.ScheduleStore | str | None" = None,
        jobs: int = 1,
        batch_window: float = 0.002,
        max_batch: int = 64,
        max_queue: int = 256,
        metrics: "MetricsRecorder | str | None" = None,
        start: bool = True,
    ) -> None:
        self.pipeline = pipeline if pipeline is not None else Pipeline(cache=cache)
        self.jobs = max(1, int(jobs))
        self.batch_window = batch_window
        self.max_batch = max(1, int(max_batch))
        self.max_queue = max(1, int(max_queue))
        if isinstance(metrics, MetricsRecorder):
            self.metrics = metrics
        else:  # None → in-memory only; a path → SQLite-backed
            self.metrics = MetricsRecorder(db=metrics)
        self.started_at = time.time()
        self._lock = threading.Condition()
        # engine-cell evaluation mutates process-wide memos; one batch
        # of routed cells runs at a time
        self._cells_lock = threading.Lock()
        self._queue: deque[tuple] = deque()
        self._inflight: dict[tuple, _Inflight] = {}
        self._closed = False
        self._draining = False
        self._dispatcher: threading.Thread | None = None
        # lifetime baselines: /stats reports movement since construction
        self._cache_base = STATS.snapshot()
        self._work_base = WORK.snapshot()
        self._worker_counters_last: dict[str, int] = {}
        self.requests_total = 0
        self.answered_total = 0
        self.coalesced_total = 0
        self.batches_total = 0
        self.compiled_total = 0
        self.errors_total = 0
        self.cells_total = 0
        self.cell_batches_total = 0
        self.shed_total = 0
        self.timeouts_total = 0
        if self.jobs > 1:
            # warm the shared pool under this pipeline's store so the
            # first batch pays no worker spin-up
            context = (
                sched_store.using(self.pipeline.cache)
                if self.pipeline.cache is not None
                else contextlib.nullcontext()
            )
            with context:
                worker_pool_mod.warm_pool(self.jobs)
        if start:
            self.start()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._dispatcher is not None or self._closed:
                return
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-server-dispatch",
                daemon=True,
            )
            self._dispatcher.start()

    def drain(self) -> None:
        """Enter drain mode: new :meth:`submit` calls fail with
        :class:`ServiceShuttingDown` while already-queued and in-flight
        work still completes.  ``repro serve`` drains on SIGTERM and
        only then tears the transports down, so a graceful stop never
        drops accepted work.  The metrics recorder (and any buffered
        trace spans) flush here, so a SIGTERM'd shard never loses its
        final interval."""
        with self._lock:
            self._draining = True
            self._lock.notify_all()
        self.metrics.flush()

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no work is queued or in flight (or *timeout*
        elapses); returns whether the service went idle."""
        limit = time.monotonic() + timeout
        while time.monotonic() < limit:
            with self._lock:
                if not self._queue and not self._inflight:
                    return True
            time.sleep(0.02)
        with self._lock:
            return not self._queue and not self._inflight

    def close(self) -> None:
        """Stop accepting work, finish the queue, stop the dispatcher.
        The worker pool is left alive (it is process-wide and shared)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=30)
        self.metrics.close()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _memo_key(self, key: tuple) -> tuple:
        """The response-memo key: a verifying pipeline's documents
        differ (``verified``), so it never shares an entry with a plain
        one."""
        return (*key, self.pipeline.verify)

    def _answered(self, key: tuple):
        """A caller-owned copy of the memoized response for *key*, or
        None (a miss, or caching disabled)."""
        if not caching_enabled():
            return None
        with _RESPONSE_LOCK:
            return response_memo().get(
                self._memo_key(key), copy.deepcopy, self.pipeline.cache
            )

    def submit(self, request: dict, deadline_ms: float | None = None) -> Future:
        """Enqueue one compile request mapping; returns a future
        resolving to the service-shaped
        :class:`~repro.api.CompilationResult`.

        Raises :class:`ValueError` immediately on a malformed request
        (unknown keys/machine/scheduler/strategy, unparsable loop) —
        bad requests never reach the batch — :class:`ServiceClosed`
        after :meth:`close`, :class:`ServiceShuttingDown` while
        draining, and :class:`ServiceBusy` when the bounded queue
        (:attr:`max_queue` unique pending requests) is full.

        *deadline_ms* bounds queue wait: a request still queued when
        its deadline expires fails with :class:`ServiceTimeout` instead
        of occupying a batch slot.  A request the response memo holds
        is answered at once: the future it returns is already done.
        """
        key, ddg = self.pipeline.request_key(request)  # validates; may raise
        started = time.perf_counter()
        answer = self._answered(key)
        deadline = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None and deadline_ms > 0
            else None
        )
        with self._lock:
            if self._closed:
                raise ServiceClosed("compile service is shut down")
            if self._draining:
                raise ServiceShuttingDown(
                    "compile service is draining for shutdown"
                )
            self.requests_total += 1
            self.metrics.count("requests")
            entry = None if answer is not None else self._inflight.get(key)
            if answer is not None:
                self.answered_total += 1
                self.metrics.count("answered")
            elif entry is not None:
                self.coalesced_total += 1
                self.metrics.count("coalesced")
                # the joiner's own trace still shows where its request
                # went: a zero-duration marker pointing at the shared
                # computation
                if trace_context.current() is not None:
                    trace_context.record_span(
                        "service.coalesce", "service", 0.0,
                        attrs={"joined": entry.trace.trace_id
                               if entry.trace is not None else None},
                    )
                # a coalesced joiner must never shorten the shared
                # computation's life: keep the most permissive deadline
                if entry.deadline is not None and (
                    deadline is None or deadline > entry.deadline
                ):
                    entry.deadline = deadline
            else:
                if len(self._queue) >= self.max_queue:
                    self.shed_total += 1
                    self.metrics.count("shed")
                    raise ServiceBusy(
                        f"compile queue full ({self.max_queue} pending); "
                        "request shed"
                    )
                entry = _Inflight(dict(request), ddg, deadline=deadline)
                self._inflight[key] = entry
                self._queue.append(key)
                self._lock.notify_all()
        if answer is not None:
            future: Future = Future()
            future.set_result(answer)
            self._mark_answered(request)
        else:
            future = entry.future
        # every submitter observes its own queue-to-result latency,
        # answered, coalesced or not — that is what a client experienced
        future.add_done_callback(
            lambda _future, _started=started: self.metrics.observe(
                "request", time.perf_counter() - _started
            )
        )
        return future

    @staticmethod
    def _mark_answered(request: dict) -> None:
        """A traced memo hit's zero-duration ``service.memo`` marker, so
        the trace shows where the request went.  The trace arrives
        either as the active context (transports) or as the request's
        ``trace`` entry (in-process callers)."""
        context = trace_context.current()
        if context is None:
            context = trace_context.TraceContext.from_wire(
                request.get("trace")
            )
        if context is not None:
            trace_context.record_span(
                "service.memo", "service", 0.0, context=context.child()
            )

    def compile(
        self,
        request: dict,
        timeout: float | None = None,
        deadline_ms: float | None = None,
    ):
        """:meth:`submit` and wait: one service-shaped result (see
        :meth:`compile_many`)."""
        return self.compile_many(
            [request], timeout=timeout, deadline_ms=deadline_ms
        )[0]

    def compile_many(
        self,
        requests,
        timeout: float | None = None,
        deadline_ms: float | None = None,
    ) -> list:
        """Submit a client batch and wait; results in request order.
        Duplicates inside the batch coalesce onto one computation.

        With *deadline_ms* the wait itself is bounded too, and a missed
        deadline surfaces as :class:`ServiceTimeout`."""
        futures = [
            self.submit(request, deadline_ms=deadline_ms)
            for request in requests
        ]
        if deadline_ms is not None and deadline_ms > 0:
            wait = deadline_ms / 1000.0
            timeout = wait if timeout is None else min(timeout, wait)
        results = []
        for future in futures:
            try:
                results.append(future.result(timeout=timeout))
            except TimeoutError as error:
                if isinstance(error, ServiceTimeout) or deadline_ms is None:
                    raise
                with self._lock:
                    self.timeouts_total += 1
                self.metrics.count("timeouts")
                raise ServiceTimeout(
                    f"deadline of {deadline_ms:g} ms exceeded waiting "
                    "for result"
                ) from None
        return results

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._lock.wait()
                if not self._queue and self._closed:
                    return
            # one short window for concurrent clients to join the batch
            if self.batch_window > 0:
                time.sleep(self.batch_window)
            expired: list[tuple] = []
            with self._lock:
                keys = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self.max_batch))
                ]
                now = time.monotonic()
                batch = []
                for key in keys:
                    entry = self._inflight[key]
                    if entry.deadline is not None and now > entry.deadline:
                        self._inflight.pop(key, None)
                        self.timeouts_total += 1
                        expired.append((key, entry))
                    else:
                        batch.append((key, entry))
            for _, entry in expired:
                self.metrics.count("timeouts")
                entry.future.set_exception(
                    ServiceTimeout(
                        "deadline exceeded before compilation started"
                    )
                )
            if batch:
                self._run_batch(batch)
            self.metrics.maybe_flush()

    def _run_batch(self, batch: list[tuple]) -> None:
        started = time.perf_counter()
        requests = []
        for _, entry in batch:
            request = dict(entry.request)
            if self.jobs == 1:
                # in-process compile: reuse the graph submit() parsed
                # (pool workers keep receiving source text)
                request["loop"] = entry.ddg
            if entry.trace is not None:
                # queue wait: enqueue to batch dispatch
                trace_context.record_span(
                    "service.queue", "service",
                    (started - entry.enqueued) * 1000.0,
                    context=entry.trace.child(),
                )
                # hand the context to the (possibly pooled) compile
                request["trace"] = entry.trace.to_wire()
            requests.append(request)
        cache_before = STATS.snapshot()
        try:
            results = self.pipeline.compile_many(requests, jobs=self.jobs)
        except BaseException as error:  # pool death, store I/O, bugs
            with self._lock:
                self.errors_total += len(batch)
                for key, entry in batch:
                    self._inflight.pop(key, None)
            self.metrics.count("errors", len(batch))
            for _, entry in batch:
                entry.future.set_exception(error)
            return
        if caching_enabled():
            # before the in-flight entries go, so a repeat arriving in
            # between is answered rather than recompiled
            with _RESPONSE_LOCK:
                for (key, _), result in zip(batch, results):
                    response_memo().put(
                        self._memo_key(key), copy.deepcopy(result),
                        self.pipeline.cache,
                    )
        with self._lock:
            self.batches_total += 1
            self.compiled_total += len(batch)
            for key, _ in batch:
                self._inflight.pop(key, None)
        elapsed = time.perf_counter() - started
        for _, entry in batch:
            if entry.trace is not None:
                trace_context.record_span(
                    "service.batch", "service", elapsed * 1000.0,
                    context=entry.trace.child(),
                    attrs={"batch": len(batch)},
                )
        self.metrics.observe("batch", elapsed)
        self.metrics.count("batches")
        self.metrics.count("batch_requests", len(batch))
        self._record_cache_movement(STATS.delta(cache_before))
        for (_, entry), result in zip(batch, results):
            entry.future.set_result(result)

    def _record_cache_movement(self, delta: CacheStats) -> None:
        """One batch's parent-process CacheStats movement, as
        time-series counters (``cache_schedule_hits``-style names)."""
        self.metrics.count_many({
            f"cache_{name}": value
            for name, value in delta.as_dict().items()
        })

    # ------------------------------------------------------------------
    # routed experiment-engine cells (``repro sweep --connect``)
    def evaluate_cells(self, cell_documents: list) -> tuple[list, dict]:
        """Evaluate a batch of experiment-engine cells (wire mappings —
        see :func:`repro.eval.engine.cell_to_wire`) against this
        daemon's warm store/memos.

        Returns ``(results, cache)``: one deterministic cell-data dict
        per input cell, **in input order**, plus the batch's
        parent-process CacheStats movement.  The data dicts are exactly
        what a local :func:`repro.eval.engine.evaluate_cell` produces,
        so a sweep routed through a cluster is byte-identical to a
        local one.  One cell batch runs at a time (cell evaluation
        shares the process-wide memos).
        """
        from repro.eval.engine import cell_from_wire, run_cells

        cells = [cell_from_wire(document) for document in cell_documents]
        with self._lock:
            if self._closed:
                raise ServiceClosed("compile service is shut down")
            self.cells_total += len(cells)
            self.cell_batches_total += 1
            self.metrics.count("cells", len(cells))
            self.metrics.count("cell_batches")
        started = time.perf_counter()
        context = (
            sched_store.using(self.pipeline.cache)
            if self.pipeline.cache is not None
            else contextlib.nullcontext()
        )
        with self._cells_lock, context:
            cache_before = STATS.snapshot()
            run = run_cells(cells, jobs=self.jobs)
            delta = STATS.delta(cache_before)
        if trace_context.current() is not None:
            trace_context.record_span(
                "service.cells", "service",
                (time.perf_counter() - started) * 1000.0,
                attrs={"cells": len(cells)},
            )
        self.metrics.observe("cells_batch", time.perf_counter() - started)
        self._record_cache_movement(delta)
        # a daemon serving only routed cells has no dispatch loop turning
        self.metrics.maybe_flush()
        by_cell = {result.cell: result.data for result in run.results}
        return [by_cell[cell] for cell in cells], delta.as_dict()

    # ------------------------------------------------------------------
    # telemetry
    def healthz(self) -> dict:
        """Liveness document for ``/healthz`` (volatile fields are fine
        here — health is operational, never byte-compared)."""
        with self._lock:
            queued = len(self._queue)
            inflight = len(self._inflight)
        if self._closed:
            status = "closed"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        return {
            "schema": HEALTH_SCHEMA,
            "status": status,
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.jobs,
            "queued": queued,
            "inflight": inflight,
        }

    def stats(self) -> dict:
        """The ``/stats`` document: service counters, cache/work counter
        movement since the service started (parent process **and** the
        aggregated pool workers), store/pool telemetry and the metrics
        digest."""
        store = self.pipeline.cache
        if store is None:
            store = sched_store.active_store()
        with self._lock:
            counters = {
                "requests": self.requests_total,
                "answered": self.answered_total,
                "coalesced": self.coalesced_total,
                "batches": self.batches_total,
                "compiled": self.compiled_total,
                "errors": self.errors_total,
                "cells": self.cells_total,
                "cell_batches": self.cell_batches_total,
                "shed": self.shed_total,
                "timeouts": self.timeouts_total,
                "max_queue": self.max_queue,
                "queued": len(self._queue),
                "inflight": len(self._inflight),
            }
        workers = self._aggregate_workers()
        cache = STATS.delta(self._cache_base).as_dict()
        cache_total = dict(cache)
        for name, value in workers["cache"].items():
            cache_total[name] = cache_total.get(name, 0) + value
        self.metrics.maybe_flush()
        return {
            "schema": STATS_SCHEMA,
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.jobs,
            "service": counters,
            "cache": cache,
            "workers": workers,
            "cache_total": cache_total,
            "work": WORK.delta(self._work_base).as_dict(),
            "store": store.stats() if store is not None else None,
            "pool": worker_pool_mod.pool_stats(),
            "metrics": self.metrics.summary(),
        }

    def prometheus(self) -> str:
        """The ``/metrics`` exposition document (text format 0.0.4):
        the recorder's lifetime counters and latency histograms plus a
        few instantaneous service gauges."""
        with self._lock:
            gauges = {
                "queued": float(len(self._queue)),
                "inflight": float(len(self._inflight)),
                "jobs": float(self.jobs),
            }
        gauges["uptime_seconds"] = time.time() - self.started_at
        return render_prometheus(
            {
                **self.metrics.counter_snapshot(),
                "trace_spans_dropped": trace_context.dropped_count(),
            },
            gauges,
            self.metrics.histogram_snapshot(),
        )

    def _aggregate_workers(self) -> dict:
        """The pool workers' summed cache/work counters (only probed
        when this service actually fans out, i.e. ``jobs > 1``).  The
        movement since the last probe is also fed into the metrics
        recorder (``worker_cache_*`` time series), so warm-pool hits
        reach the persistent layer too."""
        if self.jobs <= 1:
            return {"processes": 0, "cache": {}, "work": {}}
        workers = worker_pool_mod.worker_stats()
        movement = {}
        for name, value in workers["cache"].items():
            delta = value - self._worker_counters_last.get(name, 0)
            if delta > 0:
                movement[f"worker_cache_{name}"] = delta
            self._worker_counters_last[name] = value
        self.metrics.count_many(movement)
        return workers
