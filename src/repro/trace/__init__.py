"""End-to-end tracing + per-phase compile profiling.

Three pieces, strictly out-of-band of result bytes:

* :mod:`repro.trace.context` — :class:`TraceContext` propagation
  (client → cluster → server → service → pool worker) and the bounded
  process-local span buffer;
* :mod:`repro.trace.profile` — the exclusive-time
  :class:`PhaseProfile` behind every ``compile`` span (index build,
  MII, scheduling, lifetimes, allocation, spill, verify);
* :mod:`repro.trace.report` — queries/rendering over the ``spans``
  table of ``repro.metrics/2`` databases and the ``repro.trace/2``
  JSON export.

Enable with ``REPRO_TRACE=1`` (or :func:`enable`); daemons additionally
record spans for any request that arrives carrying a trace context,
whatever their own environment says.  See ``docs/OBSERVABILITY.md``.
"""

from repro.trace.context import (
    ENV_VAR,
    LAYERS,
    SPAN_BUFFER_CAP,
    TRACED_OPS,
    TraceContext,
    activate,
    add_spans,
    client_scope,
    current,
    drain_spans,
    dropped_count,
    enable,
    enabled,
    new_trace,
    record_span,
    reset,
    server_scope,
    span,
    span_count,
    tracing_enabled,
)
from repro.trace.profile import (
    PHASES,
    ROOT_PHASE,
    PhaseProfile,
    active_profile,
    phase,
    profiled_span,
    profiling,
)
from repro.trace.report import TRACE_SCHEMA

__all__ = [
    "ENV_VAR",
    "LAYERS",
    "PHASES",
    "ROOT_PHASE",
    "SPAN_BUFFER_CAP",
    "TRACED_OPS",
    "TRACE_SCHEMA",
    "PhaseProfile",
    "TraceContext",
    "activate",
    "active_profile",
    "add_spans",
    "client_scope",
    "current",
    "drain_spans",
    "dropped_count",
    "enable",
    "enabled",
    "new_trace",
    "phase",
    "profiled_span",
    "profiling",
    "record_span",
    "reset",
    "server_scope",
    "span",
    "span_count",
    "tracing_enabled",
]
