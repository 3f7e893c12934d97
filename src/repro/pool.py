"""The shared persistent worker pool.

Both fan-out surfaces — the experiment engine's cell evaluation and the
:meth:`repro.api.Pipeline.compile_many` batch service — need the same
thing: a ``ProcessPoolExecutor`` that outlives one batch (so the
workers' in-memory memos stay warm from call to call) and whose workers
are initialized with the parent's persistent
:mod:`repro.sched.store`.  This module owns that pool so the mechanism
exists once.

The pool is keyed by ``(jobs, active store root)``: asking for a
different width *or* changing the active store retires the old pool —
stale workers must never keep writing into a store the parent has moved
away from.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.faults import plan as faults
from repro.sched import store as sched_store
from repro.trace import context as trace_context

_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple | None = None

#: Fault *generation* of the current pool.  A respawn after a worker
#: crash bumps it, and fault rules gated with ``gen=0`` stop firing in
#: the replacement workers — the retried work cannot be re-killed.
_GENERATION = 0

#: Process-lifetime resilience counters, surfaced via :func:`pool_stats`
#: (and therefore the daemon's ``/stats``).
RESILIENCE = {"worker_restarts": 0, "tasks_retried": 0}


def reset_resilience() -> None:
    """Zero the resilience counters (test isolation helper)."""
    for name in RESILIENCE:
        RESILIENCE[name] = 0


def _init_worker(token: str | None, generation: int) -> None:
    """Pool-worker initializer: inherit the parent's persistent store
    and enter fault-worker context (re-reading ``REPRO_FAULTS`` so each
    worker gets fresh, deterministic per-process fault counters).  A
    forked worker also inherits the parent's buffered spans; they are
    the parent's to write, so the worker discards its copy."""
    sched_store.worker_initializer(token)
    trace_context.drain_spans()
    faults.set_worker_context(generation)
    faults.reload_from_env()


def _ensure_pool(jobs: int, token: str | None) -> ProcessPoolExecutor:
    global _POOL, _POOL_KEY
    key = (jobs, token)
    if _POOL is None or _POOL_KEY != key:
        shutdown_pool()
        _POOL = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(token, _GENERATION),
        )
        _POOL_KEY = key
    return _POOL


def worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent pool for *jobs* workers, created (or re-created)
    on demand.  Workers inherit the currently active persistent store
    through :func:`repro.sched.store.worker_initializer`."""
    return _ensure_pool(jobs, sched_store.store_token())


def _run_chunk(fn, chunk: list) -> tuple[list, list[dict], int]:
    """Runs inside one pool worker: apply *fn* to one chunk of items.
    The results travel with the spans the worker finished meanwhile and
    the count its span buffer dropped, so the parent's buffer sees every
    worker span (or its drop) with the work it describes."""
    dropped = trace_context.dropped_count()
    results = [fn(item) for item in chunk]
    spans = trace_context.drain_spans()
    return results, spans, trace_context.dropped_count() - dropped


def imap_resilient(fn, items, jobs: int, chunksize: int = 1):
    """Map *fn* over *items* on the persistent pool, in order, surviving
    one pool crash.

    Work is submitted as explicit chunk futures (unlike
    ``Executor.map``, whose iterator cannot tell which inputs a dead
    worker took with it).  When a worker dies — OOM kill, SIGKILL, a
    fault-injected ``pool.kill_*`` seam — every unfinished chunk fails
    with :class:`BrokenProcessPool`; the pool is respawned once (bumping
    the fault generation so ``gen=0`` kill rules stay quiet) and exactly
    the lost chunks are retried.  A second crash propagates: one retry,
    then the failure is real.  Ordinary task exceptions are *not*
    retried — determinism bugs must not be masked by resubmission.
    Each chunk's trace spans and span drops join the parent's buffer
    (:func:`repro.trace.context.add_spans`) as its results are taken.

    Returns an iterator over results in input order; submission happens
    eagerly (before the first ``next()``), so the active store captured
    here is the one a surrounding ``using(...)`` block holds.
    """
    global _GENERATION
    token = sched_store.store_token()
    sequence = list(items)
    chunks = [
        sequence[start : start + chunksize]
        for start in range(0, len(sequence), chunksize)
    ]
    pool = _ensure_pool(jobs, token)
    futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]

    def _drain():
        global _GENERATION
        retried = False
        for index in range(len(chunks)):
            try:
                done = futures[index].result()
            except BrokenProcessPool:
                if retried:
                    raise
                retried = True
                RESILIENCE["worker_restarts"] += 1
                _GENERATION += 1
                shutdown_pool()
                replacement = _ensure_pool(jobs, token)
                lost = 0
                for later in range(index, len(chunks)):
                    future = futures[later]
                    if future.done() and future.exception() is None:
                        continue
                    futures[later] = replacement.submit(
                        _run_chunk, fn, chunks[later]
                    )
                    lost += len(chunks[later])
                RESILIENCE["tasks_retried"] += lost
                done = futures[index].result()
            results, spans, dropped = done
            if spans or dropped:
                trace_context.add_spans(spans, dropped)
            yield from results

    return _drain()


def warm_pool(jobs: int) -> None:
    """Spin the persistent pool up ahead of traffic (``repro serve``
    does this at startup so the first batch does not pay worker
    creation): an executor starts its workers on its first tasks, so
    each worker gets a no-op.  ``jobs <= 1`` means in-process
    compilation: no pool."""
    if jobs > 1:
        pool = worker_pool(jobs)
        for future in [pool.submit(int) for _ in range(jobs)]:
            future.result()


def _probe_worker(delay: float) -> tuple:
    """Runs inside one pool worker: its pid plus its process-lifetime
    cache/work counters.  The tiny sleep keeps one fast worker from
    draining every probe before its siblings pick one up."""
    import os
    import time

    from repro.graph.index import WORK
    from repro.sched import store as worker_store
    from repro.sched.cache import STATS

    time.sleep(delay)
    store = worker_store.active_store()
    store_health = {
        "degraded": 1 if store is not None and store.degraded else 0,
        "write_errors": store.write_errors if store is not None else 0,
    }
    return os.getpid(), STATS.as_dict(), WORK.as_dict(), store_health


def worker_stats(timeout: float = 10.0) -> dict:
    """Aggregate per-worker cache/work counters across the persistent
    pool: ``{"processes": N, "cache": {...summed...}, "work": {...}}``.

    With ``jobs > 1`` the schedule computations happen in pool workers,
    so the parent's :data:`repro.sched.cache.STATS` never sees them —
    this is how the daemon's ``/stats`` makes warm-pool hits visible.
    Collection submits probe tasks until every live worker pid has
    answered (bounded rounds), so the sum covers the whole pool; with
    no pool alive the blocks are empty.
    """
    if _POOL is None or _POOL_KEY is None or _POOL_KEY[0] <= 1:
        return {"processes": 0, "cache": {}, "work": {}}
    jobs = _POOL_KEY[0]
    try:  # the executor's live worker pids, when the version exposes them
        expected = set(_POOL._processes or {})
    except AttributeError:  # pragma: no cover - stdlib internals moved
        expected = set()
    seen: dict[int, tuple[dict, dict, dict]] = {}
    for _ in range(5):
        futures = [_POOL.submit(_probe_worker, 0.02) for _ in range(jobs)]
        for future in futures:
            try:
                pid, cache, work, store_health = future.result(timeout=timeout)
            except Exception:  # a dying worker must not break /stats
                continue
            seen[pid] = (cache, work, store_health)
        if not expected or expected <= set(seen):
            break
    cache_total: dict[str, int] = {}
    work_total: dict[str, int] = {}
    store_total = {"degraded_processes": 0, "write_errors": 0}
    for cache, work, store_health in seen.values():
        for name, value in cache.items():
            cache_total[name] = cache_total.get(name, 0) + value
        for name, value in work.items():
            work_total[name] = work_total.get(name, 0) + value
        store_total["degraded_processes"] += store_health.get("degraded", 0)
        store_total["write_errors"] += store_health.get("write_errors", 0)
    return {
        "processes": len(seen),
        "cache": cache_total,
        "work": work_total,
        "store": store_total,
    }


def pool_stats() -> dict:
    """Telemetry snapshot of the persistent pool (the server's
    ``/stats`` endpoint): whether one is alive, its width, and the
    store its workers were initialized with."""
    return {
        "alive": _POOL is not None,
        "jobs": _POOL_KEY[0] if _POOL_KEY is not None else 0,
        "store": _POOL_KEY[1] if _POOL_KEY is not None else None,
        "worker_restarts": RESILIENCE["worker_restarts"],
        "tasks_retried": RESILIENCE["tasks_retried"],
    }


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (harmless if none exists)."""
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_KEY = None


atexit.register(shutdown_pool)
