"""In-memory metrics accumulation: counters + latency histograms.

:class:`MetricsRecorder` is the hot-path half of the metrics layer:
``count()`` and ``observe()`` are a dict update under one lock, cheap
enough to sit on every service request.  Interval deltas flush to a
:class:`repro.metrics.db.MetricsDB` (when one is attached) either
explicitly or whenever :meth:`maybe_flush` notices the flush interval
has elapsed — the daemon calls it from its dispatch loop, so an idle
daemon writes nothing.

Latencies accumulate into fixed log-spaced millisecond buckets
(:data:`BUCKET_BOUNDS_MS`), so histograms from different shards, flush
intervals or daemon lifetimes merge by plain addition — which is how
``repro cluster top`` and the cluster-aggregated stats combine them.

Trace spans ride the same flush cadence but keep no copy here: a
recorder with a database drains :mod:`repro.trace.context`'s bounded
buffer into the ``spans`` table when it flushes.  A failed flush — disk
trouble, a locked database, or the ``metrics.put_io`` /
``metrics.db_locked`` fault seams — never propagates: the unwritten
counters fold back into the pending state, the unwritten spans go back
into that one buffer (whose drop counter counts any overflow), and the
recorder marks itself *degraded* until a later flush succeeds, so a
metrics outage costs telemetry, not compile requests.
"""

from __future__ import annotations

import sqlite3
import threading
import time

from repro.metrics.db import MetricsDB, percentile
from repro.trace import context as trace_context

#: Histogram bucket upper bounds, in milliseconds (log-spaced, with an
#: open-ended overflow bucket).  Shared by every recorder so histograms
#: are mergeable across processes and restarts.
BUCKET_BOUNDS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, float("inf"),
)


class LatencyHistogram:
    """Counts per fixed bucket plus sum/max, mergeable by addition."""

    __slots__ = ("buckets", "count", "sum_ms", "max_ms")

    def __init__(self) -> None:
        self.buckets = [0] * len(BUCKET_BOUNDS_MS)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe_ms(self, ms: float) -> None:
        for index, bound in enumerate(BUCKET_BOUNDS_MS):
            if ms <= bound:
                self.buckets[index] += 1
                break
        self.count += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)

    def merge(self, other: "LatencyHistogram") -> None:
        for index, value in enumerate(other.buckets):
            self.buckets[index] += value
        self.count += other.count
        self.sum_ms += other.sum_ms
        self.max_ms = max(self.max_ms, other.max_ms)

    def as_bounds_dict(self) -> dict[float, int]:
        """``{upper_bound_ms: count}`` — the DB/merge wire shape."""
        return {
            bound: value
            for bound, value in zip(BUCKET_BOUNDS_MS, self.buckets)
        }

    def percentile(self, p: float) -> float:
        return percentile(self.as_bounds_dict(), p, max_ms=self.max_ms)

    def summary(self) -> dict:
        """JSON-safe digest (no infinities): count, mean and the
        operator percentiles."""
        mean = self.sum_ms / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": round(mean, 3),
            "p50_ms": round(self.percentile(50), 3),
            "p90_ms": round(self.percentile(90), 3),
            "p99_ms": round(self.percentile(99), 3),
            "max_ms": round(self.max_ms, 3),
        }


class MetricsRecorder:
    """Thread-safe counters + histograms with optional persistence.

    Two accumulation levels: *lifetime* totals (what :meth:`summary`
    reports — the ``/stats`` metrics block) and the *pending interval*
    (what the next :meth:`flush` writes to the database as one
    time-series row per counter / histogram bucket).  Without a *db*
    the recorder is purely in-memory — every service gets one, so the
    telemetry surface never depends on whether persistence is on.
    """

    def __init__(self, db: "MetricsDB | str | None" = None,
                 flush_interval: float = 10.0) -> None:
        if db is None or isinstance(db, MetricsDB):
            self.db = db
        else:  # a path
            self.db = MetricsDB(db)
        self.flush_interval = flush_interval
        self._lock = threading.Lock()
        self._totals: dict[str, int] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._pending_counters: dict[str, int] = {}
        self._pending_histograms: dict[str, LatencyHistogram] = {}
        self._last_flush = time.time()
        self._closed = False
        self.degraded = False
        self.write_errors = 0

    # ------------------------------------------------------------------
    # the hot path
    def count(self, name: str, value: int = 1) -> None:
        if not value:
            return
        with self._lock:
            self._totals[name] = self._totals.get(name, 0) + value
            self._pending_counters[name] = (
                self._pending_counters.get(name, 0) + value
            )

    def count_many(self, counters: dict[str, int]) -> None:
        for name, value in counters.items():
            self.count(name, value)

    def observe(self, op: str, seconds: float) -> None:
        ms = seconds * 1000.0
        with self._lock:
            for table in (self._histograms, self._pending_histograms):
                histogram = table.get(op)
                if histogram is None:
                    histogram = table[op] = LatencyHistogram()
                histogram.observe_ms(ms)

    # ------------------------------------------------------------------
    # persistence
    def flush(self) -> None:
        """Write the pending interval and every buffered trace span to
        the database (without one the pending state is still cleared,
        keeping memory flat, and the span buffer is left alone).

        A database failure degrades instead of raising: the unwritten
        portion goes back for a later retry."""
        with self._lock:
            counters = self._pending_counters
            histograms = self._pending_histograms
            self._pending_counters = {}
            self._pending_histograms = {}
            self._last_flush = time.time()
        if self.db is None:
            return
        spans = trace_context.drain_spans()
        try:
            if counters or histograms:
                self.db.record(
                    counters,
                    {op: h.as_bounds_dict()
                     for op, h in histograms.items()},
                )
            counters = histograms = None  # written (or empty)
            self.db.record_spans(spans)
        except (sqlite3.Error, OSError):
            # Hand back whatever did not make it to disk; compile
            # requests must never fail on a metrics outage.
            with self._lock:
                self.write_errors += 1
                self.degraded = True
                if counters:
                    for name, value in counters.items():
                        self._pending_counters[name] = (
                            self._pending_counters.get(name, 0) + value
                        )
                if histograms:
                    for op, histogram in histograms.items():
                        pending = self._pending_histograms.get(op)
                        if pending is None:
                            self._pending_histograms[op] = histogram
                        else:
                            pending.merge(histogram)
            trace_context.add_spans(spans, front=True)
        else:
            with self._lock:
                self.degraded = False

    def maybe_flush(self) -> None:
        """Flush if the interval has elapsed (the dispatch-loop hook)."""
        if time.time() - self._last_flush >= self.flush_interval:
            self.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self.db is not None:
            self.db.close()

    # ------------------------------------------------------------------
    # reporting
    def summary(self) -> dict:
        """Lifetime totals + latency digests (the ``/stats`` block).
        JSON-safe and cheap — no database access."""
        with self._lock:
            return {
                "persisted": self.db is not None,
                "degraded": self.degraded,
                "write_errors": self.write_errors,
                "counters": dict(sorted(self._totals.items())),
                "latency": {
                    op: histogram.summary()
                    for op, histogram in sorted(self._histograms.items())
                },
                "spans": {
                    "pending": trace_context.span_count(),
                    "dropped": trace_context.dropped_count(),
                },
            }

    def counter_snapshot(self) -> dict[str, int]:
        """Lifetime counter totals (the ``/metrics`` exporter's view)."""
        with self._lock:
            return dict(self._totals)

    def histogram_snapshot(self) -> dict[str, dict]:
        """Per-op lifetime histograms as plain data:
        ``{op: {"buckets": {bound_ms: count}, "sum_ms": ..., "count": ...}}``."""
        with self._lock:
            return {
                op: {
                    "buckets": histogram.as_bounds_dict(),
                    "sum_ms": histogram.sum_ms,
                    "count": histogram.count,
                }
                for op, histogram in self._histograms.items()
            }
