"""Trace queries and rendering (``repro trace show|top|slow``).

Spans persist in the ``spans`` table of one or more ``repro.metrics/2``
databases (one per shard, plus the client's own ``--trace`` database in
a routed sweep).  This module merges them back into whole traces: the
distributed tree of one logical request — client send, server receive,
service queue/batch, worker compile with its ``phases`` breakdown —
keyed by the shared ``trace_id``.

The JSON export (schema ``repro.trace/2``) is deterministic for a given
span set: spans are ordered by ``(trace start, trace_id, ts, span_id)``
so the document is stable however many databases contributed.
"""

from __future__ import annotations

import json

TRACE_SCHEMA = "repro.trace/2"


def load_spans(paths) -> list[dict]:
    """Every span from the named metrics databases, merged and
    deterministically ordered."""
    from repro.metrics.db import MetricsDB

    spans: list[dict] = []
    for path in paths:
        with MetricsDB(path) as db:
            spans.extend(db.spans())
    return sort_spans(spans)


def sort_spans(spans) -> list[dict]:
    return sorted(
        spans,
        key=lambda s: (s["ts"], s["trace_id"], s.get("span_id") or ""),
    )


def group_traces(spans) -> dict[str, list[dict]]:
    """Spans grouped by ``trace_id``, each group in sorted order."""
    groups: dict[str, list[dict]] = {}
    for span in sort_spans(spans):
        groups.setdefault(span["trace_id"], []).append(span)
    return groups


def trace_summaries(spans) -> list[dict]:
    """One digest per trace, oldest first: start time, total duration
    (the longest span — the outermost scope of whatever this process
    set observed), span count, and the layers touched."""
    summaries = []
    for trace_id, group in group_traces(spans).items():
        longest = max(group, key=lambda s: s["dur_ms"])
        summaries.append({
            "trace_id": trace_id,
            "started": min(span["ts"] for span in group),
            "duration_ms": longest["dur_ms"],
            "root": longest["name"],
            "spans": len(group),
            "layers": sorted({span["layer"] for span in group}),
        })
    summaries.sort(key=lambda s: (s["started"], s["trace_id"]))
    return summaries


def _phases(span) -> dict | None:
    return (span.get("attrs") or {}).get("phases")


def phase_breakdown(spans) -> dict[str, dict]:
    """Aggregate every span's ``phases`` attribute by phase name:
    ``{name: {count, total_ms, mean_ms, max_ms}}``."""
    totals: dict[str, dict] = {}
    for span in spans:
        for name, ms in (_phases(span) or {}).items():
            entry = totals.setdefault(
                name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            entry["count"] += 1
            entry["total_ms"] += ms
            entry["max_ms"] = max(entry["max_ms"], ms)
    for entry in totals.values():
        entry["total_ms"] = round(entry["total_ms"], 3)
        entry["mean_ms"] = round(entry["total_ms"] / entry["count"], 3)
        entry["max_ms"] = round(entry["max_ms"], 3)
    return dict(sorted(totals.items()))


def layer_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in spans:
        counts[span["layer"]] = counts.get(span["layer"], 0) + 1
    return dict(sorted(counts.items()))


def phase_consistency(spans, min_ms: float = 0.0) -> list[dict]:
    """For every profiled span (one carrying a ``phases`` attribute):
    how its phase sum (``phase_ms``) reconciles with its own duration.
    The acceptance bar is ``ratio`` within 10% of 1.0 — for spans above
    *min_ms*; under ~1ms (a memo-served cell) the fixed bookkeeping
    cost of recording the spans themselves dominates the measurement,
    so reconciliation is only meaningful above that noise floor."""
    rows = []
    for span in sort_spans(spans):
        phases = _phases(span)
        duration = span["dur_ms"]
        if phases is None or duration < min_ms:
            continue
        phase_ms = round(sum(phases.values()), 3)
        rows.append({
            "trace_id": span["trace_id"],
            "span_id": span["span_id"],
            "name": span["name"],
            "dur_ms": duration,
            "phase_ms": phase_ms,
            "ratio": round(phase_ms / duration, 4) if duration else 1.0,
        })
    return rows


def slowest_spans(spans, limit: int = 10, layer: str | None = None) -> list[dict]:
    pool = [s for s in spans if layer is None or s["layer"] == layer]
    pool.sort(key=lambda s: (-s["dur_ms"], s["trace_id"], s["span_id"]))
    return pool[:limit]


# ----------------------------------------------------------------------
# rendering
def _render_span_line(span: dict, depth: int) -> str:
    attrs = span.get("attrs") or {}
    extras = " ".join(
        f"{key}={value}" for key, value in sorted(attrs.items())
        if key != "phases"
    )
    indent = "  " * depth
    line = (
        f"{indent}{span['name']} [{span['layer']}]"
        f" {span['dur_ms']:.3f}ms"
    )
    if extras:
        line += f"  ({extras})"
    for name, ms in sorted((_phases(span) or {}).items()):
        line += f"\n{indent}  {name} [phase] {ms:.3f}ms"
    return line


def render_trace(trace_id: str, group: list[dict]) -> str:
    """One trace as an indented span tree (orphans — spans whose parent
    lives in a database that was not loaded — surface at the root)."""
    by_id = {span["span_id"]: span for span in group}
    children: dict[str | None, list[dict]] = {}
    for span in group:
        parent = span.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # orphan: its parent span was not loaded
        children.setdefault(parent, []).append(span)

    lines = [f"trace {trace_id}"]

    def walk(parent_id, depth):
        for span in children.get(parent_id, ()):  # already sorted
            lines.append(_render_span_line(span, depth))
            walk(span["span_id"], depth + 1)

    walk(None, 1)
    return "\n".join(lines)


def render_show(spans, trace_id: str | None = None,
                limit: int = 10) -> str:
    """``repro trace show``: the span trees of the newest *limit*
    traces (or of one named trace)."""
    groups = group_traces(spans)
    if trace_id is not None:
        matches = [
            full for full in groups
            if full == trace_id or full.startswith(trace_id)
        ]
        if not matches:
            return f"no spans recorded for trace {trace_id!r}"
        if len(matches) > 1:
            return (
                f"trace prefix {trace_id!r} is ambiguous:"
                f" {', '.join(sorted(matches))}"
            )
        return render_trace(matches[0], groups[matches[0]])
    summaries = trace_summaries(spans)
    if not summaries:
        return "no spans recorded"
    chosen = summaries[-limit:]
    blocks = [
        render_trace(summary["trace_id"], groups[summary["trace_id"]])
        for summary in chosen
    ]
    blocks.append(
        f"{len(summaries)} trace(s), {len(spans)} span(s),"
        f" layers: {', '.join(sorted(layer_counts(spans)))}"
    )
    return "\n\n".join(blocks)


def render_top(spans) -> str:
    """``repro trace top``: the aggregate phase breakdown plus per-layer
    span counts."""
    if not spans:
        return "no spans recorded"
    lines = [
        f"{'phase':<14} {'count':>7} {'total ms':>12}"
        f" {'mean ms':>10} {'max ms':>10}"
    ]
    breakdown = phase_breakdown(spans)
    for name, entry in sorted(
        breakdown.items(), key=lambda item: -item[1]["total_ms"]
    ):
        lines.append(
            f"{name:<14} {entry['count']:>7} {entry['total_ms']:>12.3f}"
            f" {entry['mean_ms']:>10.3f} {entry['max_ms']:>10.3f}"
        )
    if not breakdown:
        lines = ["no phases recorded"]
    counts = layer_counts(spans)
    lines.append(
        "layers: "
        + ", ".join(f"{layer}={count}" for layer, count in counts.items())
    )
    lines.append(f"traces: {len(group_traces(spans))}")
    return "\n".join(lines)


def render_slow(spans, limit: int = 10, layer: str | None = None) -> str:
    """``repro trace slow``: the slowest spans, optionally of one
    layer."""
    rows = slowest_spans(spans, limit=limit, layer=layer)
    if not rows:
        return "no spans recorded"
    lines = [
        f"{'dur ms':>12}  {'layer':<8} {'name':<20} trace"
    ]
    for span in rows:
        lines.append(
            f"{span['dur_ms']:>12.3f}  {span['layer']:<8}"
            f" {span['name']:<20} {span['trace_id']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the JSON export
def export_document(spans) -> dict:
    """The ``repro.trace/2`` document: every trace with its ordered
    spans — deterministic for a given span set."""
    traces = []
    for summary in trace_summaries(spans):
        trace_id = summary["trace_id"]
        group = group_traces(spans)[trace_id]
        traces.append({
            "trace_id": trace_id,
            "duration_ms": summary["duration_ms"],
            "layers": summary["layers"],
            "spans": group,
        })
    return {
        "schema": TRACE_SCHEMA,
        "traces": traces,
        "phases": phase_breakdown(spans),
        "layers": layer_counts(spans),
    }


def export_text(spans) -> str:
    return json.dumps(export_document(spans), indent=2, sort_keys=True)
