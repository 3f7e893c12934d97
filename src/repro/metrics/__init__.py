"""Persistent service metrics: time-series counters, latency
histograms, and trace spans in SQLite.

The layer has three pieces, mirroring the monitoring/metrics + db split
this repo's ROADMAP cites:

* :mod:`repro.metrics.db` — :class:`MetricsDB`, the SQLite access layer
  (schema ``repro.metrics/2``): append-only ``counters``, ``latencies``
  and ``spans`` tables, one row per flushed interval / finished span,
  safe for many readers while one daemon writes;
* :mod:`repro.metrics.recorder` — :class:`MetricsRecorder` and
  :class:`LatencyHistogram`, the in-memory accumulation side: cheap
  thread-safe ``count()``/``observe()`` on the hot path, periodic
  flushes of interval deltas and of :mod:`repro.trace`'s span buffer
  into the database, and degradation when the database write fails
  (the ``metrics.put_io`` / ``metrics.db_locked`` fault seams);
* :mod:`repro.metrics.prom` — the Prometheus text exposition behind the
  daemon's ``/metrics`` endpoint, plus the strict parser the tests and
  CI use to validate it.

``repro serve`` wires a recorder into every
:class:`repro.server.service.CompileService`; with ``--cache-dir`` the
database lives at ``<cache-dir>/metrics.sqlite`` (see
:func:`metrics_path`), so the same directory that holds a shard's
schedule store also holds its observability history.  ``repro cluster
top`` reads the database back; ``repro trace`` reads the spans;
``repro cluster stats --prune-older-than`` ages all three tables out.
"""

from repro.metrics.db import DB_FILENAME, MetricsDB, metrics_path, percentile
from repro.metrics.prom import parse_text, render_prometheus
from repro.metrics.recorder import (
    BUCKET_BOUNDS_MS,
    LatencyHistogram,
    MetricsRecorder,
)

__all__ = [
    "BUCKET_BOUNDS_MS",
    "DB_FILENAME",
    "LatencyHistogram",
    "MetricsDB",
    "MetricsRecorder",
    "metrics_path",
    "parse_text",
    "percentile",
    "render_prometheus",
]
