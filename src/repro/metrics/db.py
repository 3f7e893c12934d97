"""SQLite persistence for service metrics (schema ``repro.metrics/2``).

Three append-only tables:

* ``counters(ts, name, value)`` — *value* is the counter's movement in
  the interval that ended at *ts* (a time series of deltas; totals are
  ``SUM(value)``);
* ``latencies(ts, op, le_ms, count)`` — a histogram slice: *count*
  observations of operation *op* fell into the bucket whose upper bound
  is *le_ms* milliseconds during that interval.  Bucket bounds are
  :data:`repro.metrics.recorder.BUCKET_BOUNDS_MS`; the open-ended last
  bucket is stored with an infinite bound (SQLite round-trips it);
* ``spans(ts, trace_id, span_id, parent_id, name, layer, dur_ms,
  attrs)`` — finished trace spans from :mod:`repro.trace`, one row per
  span, ``attrs`` as sorted compact JSON.

Schema /2 is a strict superset of /1: opening a /1 file creates the
``spans`` table in place and stamps the new version, and every /1
reader keeps working (``repro cluster top`` only reads counters and
latencies).  The writer is one daemon's :class:`~repro.metrics.recorder
.MetricsRecorder`; readers (``repro cluster top``, ``repro trace``,
dashboards) open the same file independently.  WAL mode keeps a reader
from blocking the daemon's flushes.

The write paths carry the ``metrics.put_io`` / ``metrics.db_locked``
fault seams (:mod:`repro.faults`); the recorder degrades to a bounded
in-memory buffer when they fire, so a metrics outage never fails a
compile request.
"""

from __future__ import annotations

import errno
import json
import pathlib
import sqlite3
import threading
import time

from repro.faults import plan as faults

SCHEMA = "repro.metrics/2"

#: Database filename under a cache directory (see :func:`metrics_path`).
DB_FILENAME = "metrics.sqlite"

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    ts REAL NOT NULL,
    name TEXT NOT NULL,
    value INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS counters_name_ts ON counters (name, ts);
CREATE TABLE IF NOT EXISTS latencies (
    ts REAL NOT NULL,
    op TEXT NOT NULL,
    le_ms REAL NOT NULL,
    count INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS latencies_op_ts ON latencies (op, ts);
CREATE TABLE IF NOT EXISTS spans (
    ts REAL NOT NULL,
    trace_id TEXT NOT NULL,
    span_id TEXT NOT NULL,
    parent_id TEXT,
    name TEXT NOT NULL,
    layer TEXT NOT NULL,
    dur_ms REAL NOT NULL,
    attrs TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS spans_trace_ts ON spans (trace_id, ts);
CREATE INDEX IF NOT EXISTS spans_layer_ts ON spans (layer, ts);
"""


def _check_faults() -> None:
    """The metrics-layer fault seams, shared by every write path."""
    if not faults.enabled():
        return
    faults.maybe_errno("metrics.put_io", errno.EIO)
    if faults.fire("metrics.db_locked") is not None:
        raise sqlite3.OperationalError("database is locked (fault-injected)")


def metrics_path(cache_dir) -> pathlib.Path:
    """The conventional database location under a store/cache
    directory: ``<cache_dir>/metrics.sqlite``."""
    return pathlib.Path(cache_dir) / DB_FILENAME


def percentile(histogram: dict[float, int], p: float,
               max_ms: float | None = None) -> float:
    """Estimate the *p*-th percentile (``0 < p <= 100``) from a
    ``{upper_bound_ms: count}`` histogram: the upper bound of the first
    bucket the cumulative count reaches.  For the open-ended last
    bucket the recorded maximum (*max_ms*) stands in when given."""
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    rank = total * (p / 100.0)
    cumulative = 0
    for bound in sorted(histogram):
        cumulative += histogram[bound]
        if cumulative >= rank:
            if bound == float("inf"):
                return max_ms if max_ms is not None else bound
            return bound
    return max_ms if max_ms is not None else 0.0


class MetricsDB:
    """One metrics database file.  All methods are thread-safe (one
    connection guarded by a lock; writes are single short
    transactions)."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        with self._lock, self._conn:
            self._conn.executescript(_TABLES)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema", SCHEMA),
            )

    # ------------------------------------------------------------------
    # writing (the recorder's flush path)
    def record(
        self,
        counters: dict[str, int],
        histograms: dict[str, dict[float, int]],
        ts: float | None = None,
    ) -> None:
        """Append one interval: counter deltas and per-op histogram
        slices, all stamped with *ts* (default: now).  Zero-valued
        entries are skipped — an idle interval writes nothing."""
        ts = time.time() if ts is None else ts
        counter_rows = [
            (ts, name, int(value))
            for name, value in sorted(counters.items())
            if value
        ]
        latency_rows = [
            (ts, op, float(bound), int(count))
            for op, buckets in sorted(histograms.items())
            for bound, count in sorted(buckets.items())
            if count
        ]
        if not counter_rows and not latency_rows:
            return
        _check_faults()
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT INTO counters (ts, name, value) VALUES (?, ?, ?)",
                counter_rows,
            )
            self._conn.executemany(
                "INSERT INTO latencies (ts, op, le_ms, count)"
                " VALUES (?, ?, ?, ?)",
                latency_rows,
            )

    def record_spans(self, spans) -> None:
        """Append finished trace spans (the :mod:`repro.trace` buffer
        shape: dicts with ts/trace_id/span_id/parent_id/name/layer/
        dur_ms/attrs)."""
        rows = [
            (
                float(span["ts"]),
                str(span["trace_id"]),
                str(span["span_id"]),
                span.get("parent_id"),
                str(span["name"]),
                str(span["layer"]),
                float(span["dur_ms"]),
                json.dumps(
                    span.get("attrs") or {},
                    sort_keys=True,
                    separators=(",", ":"),
                ),
            )
            for span in spans
        ]
        if not rows:
            return
        _check_faults()
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT INTO spans (ts, trace_id, span_id, parent_id,"
                " name, layer, dur_ms, attrs)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    # ------------------------------------------------------------------
    # reading (``repro cluster top``, dashboards, tests)
    def counter_total(self, name: str) -> int:
        with self._lock:
            (total,) = self._conn.execute(
                "SELECT COALESCE(SUM(value), 0) FROM counters WHERE name = ?",
                (name,),
            ).fetchone()
        return int(total)

    def counter_totals(self) -> dict[str, int]:
        """Every counter's lifetime total (``SUM`` over the series)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, SUM(value) FROM counters GROUP BY name"
            ).fetchall()
        return {name: int(total) for name, total in rows}

    def counter_series(self, name: str, limit: int = 1000) -> list[tuple]:
        """The newest *limit* ``(ts, value)`` points, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT ts, value FROM counters WHERE name = ?"
                " ORDER BY ts DESC LIMIT ?",
                (name, limit),
            ).fetchall()
        return list(reversed(rows))

    def latency_ops(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT op FROM latencies ORDER BY op"
            ).fetchall()
        return [op for (op,) in rows]

    def histogram(self, op: str) -> dict[float, int]:
        """The merged lifetime histogram of *op*:
        ``{upper_bound_ms: count}``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT le_ms, SUM(count) FROM latencies WHERE op = ?"
                " GROUP BY le_ms",
                (op,),
            ).fetchall()
        return {float(bound): int(count) for bound, count in rows}

    def spans(
        self,
        trace_id: str | None = None,
        layer: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Stored spans (oldest first), optionally filtered by trace or
        layer; *limit* keeps the **newest** rows."""
        clauses, params = [], []
        if trace_id is not None:
            clauses.append("trace_id = ?")
            params.append(trace_id)
        if layer is not None:
            clauses.append("layer = ?")
            params.append(layer)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        query = (
            "SELECT ts, trace_id, span_id, parent_id, name, layer,"
            f" dur_ms, attrs FROM spans{where} ORDER BY ts DESC, span_id"
        )
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        spans = [
            {
                "ts": ts,
                "trace_id": trace,
                "span_id": span,
                "parent_id": parent,
                "name": name,
                "layer": layer_name,
                "dur_ms": dur_ms,
                "attrs": json.loads(attrs or "{}"),
            }
            for ts, trace, span, parent, name, layer_name, dur_ms, attrs
            in rows
        ]
        spans.reverse()
        return spans

    def span_layers(self) -> dict[str, int]:
        """Span counts per layer (the trace-smoke coverage check)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT layer, COUNT(*) FROM spans GROUP BY layer"
            ).fetchall()
        return {layer: int(count) for layer, count in rows}

    def trace_ids(self, limit: int = 100) -> list[str]:
        """The newest *limit* distinct trace ids, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT trace_id, MIN(ts) AS started FROM spans"
                " GROUP BY trace_id ORDER BY started DESC LIMIT ?",
                (limit,),
            ).fetchall()
        return [trace_id for trace_id, _ in reversed(rows)]

    # ------------------------------------------------------------------
    # retention (``repro cluster stats --prune-older-than``)
    def prune_older_than(
        self, cutoff_ts: float, dry_run: bool = False
    ) -> dict[str, int]:
        """Delete (or with *dry_run* just count) every row older than
        *cutoff_ts* across the append-only tables.  Returns per-table
        victim counts."""
        victims: dict[str, int] = {}
        with self._lock, self._conn:
            for table in ("counters", "latencies", "spans"):
                (count,) = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE ts < ?",
                    (cutoff_ts,),
                ).fetchone()
                victims[table] = int(count)
                if not dry_run and count:
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE ts < ?", (cutoff_ts,)
                    )
        if not dry_run and any(victims.values()):
            with self._lock:
                self._conn.execute("VACUUM")
        return victims

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "MetricsDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
