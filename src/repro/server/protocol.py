"""The line-delimited JSON wire protocol (schema ``repro.server/1``).

One request per line, one response line per request — the same envelope
over stdio, a unix socket, TCP, or any stream transport:

    → {"op": "compile", "id": 1, "request": {"loop": "x[i] = y[i]+a"}}
    ← {"id": 1, "ok": true, "result": {"schema": "repro.compile/1", ...}}

Operations:

=============  ========================================================
op             meaning
=============  ========================================================
compile        ``request`` is one compile-request mapping (the
               :meth:`repro.api.Pipeline.compile_many` shape); the
               response carries one ``repro.compile/1`` document
compile_many   ``requests`` is a list of mappings; the response carries
               ``results`` in request order (duplicates coalesce onto
               one computation server-side)
cells          ``cells`` is a list of experiment-engine cell mappings
               (:func:`repro.eval.engine.cell_to_wire`); the response
               carries ``results`` — one deterministic cell-data dict
               per cell, in request order — plus the batch's ``cache``
               counter movement (how ``repro sweep --connect`` routes
               engine cells through a shard)
stats          the service's ``/stats`` telemetry document
health         the service's ``/healthz`` liveness document
shutdown       acknowledge, then stop the daemon
=============  ========================================================

Every transport runs an op through :func:`dispatch`, the one place its
fields are validated.  :func:`handle_line` adds the line framing; the
HTTP transport frames the same ops through :data:`HTTP_ROUTES` (the
body goes under the op's field, the ``X-Repro-Deadline-Ms`` and
``X-Repro-Trace`` headers become ``deadline_ms`` and ``trace``), and
the HTTP client reads the same table to reach an op.

**Authentication.**  A daemon started with a shared token (``repro
serve --token`` / ``$REPRO_TOKEN``) rejects, at this layer, every
operation whose line does not carry a matching ``"token"`` field —
before any request material is parsed or compiled.  Comparison is
constant-time (:func:`check_token`), so the token cannot be recovered
through timing.  The stdio transport stays unauthenticated (it *is*
the operator's own pipe); socket, TCP and HTTP transports all enforce.

Error responses are ``{"id": ..., "ok": false, "error": "message"}``;
a line that is not valid JSON gets an ``id: null`` error response.
Result documents are serialized with sorted keys, so a response line is
byte-stable and safe to compare across transports, job counts and
server restarts.
"""

from __future__ import annotations

import hmac
import json
import threading

from repro.trace import context as trace_context

PROTOCOL_SCHEMA = "repro.server/1"

#: Operations a protocol line may carry.
OPS = ("compile", "compile_many", "cells", "stats", "health", "shutdown")

#: The HTTP framing of the ops: ``(method, path) → (op, body field,
#: response field)``.  The request body travels under the body field;
#: a response field names the one payload entry sent unwrapped
#: (``POST /compile`` answers the bare ``repro.compile/1`` document).
HTTP_ROUTES = {
    ("POST", "/compile"): ("compile", "request", "result"),
    ("POST", "/compile_many"): ("compile_many", "requests", None),
    ("POST", "/cells"): ("cells", "cells", None),
    ("GET", "/stats"): ("stats", None, "stats"),
    ("GET", "/healthz"): ("health", None, "health"),
    ("POST", "/shutdown"): ("shutdown", None, None),
}

#: :data:`HTTP_ROUTES` by op: ``op → (method, path, body field,
#: response field)``.
HTTP_OPS = {
    op: (method, path, body, unwrap)
    for (method, path), (op, body, unwrap) in HTTP_ROUTES.items()
}

#: The error message every unauthenticated request gets (transports
#: match on it to map auth failures to their own status codes).
UNAUTHORIZED = "unauthorized: missing or invalid token"

#: The longest ``deadline_ms`` a request may carry: the longest wait a
#: thread can block for.
MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1000.0


def check_token(provided, expected: "str | None") -> bool:
    """Whether *provided* authenticates against *expected*.

    ``expected=None`` means the daemon runs without authentication and
    everything passes.  Otherwise the comparison is constant-time
    (``hmac.compare_digest``) over the UTF-8 bytes, and a missing or
    non-string *provided* fails without shortcutting.
    """
    if expected is None:
        return True
    candidate = provided if isinstance(provided, str) else ""
    return hmac.compare_digest(
        candidate.encode("utf-8"), expected.encode("utf-8")
    )


def encode(document: dict) -> bytes:
    """One wire line: compact JSON with sorted keys plus newline."""
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def error_response(request_id, message: str, kind: "str | None" = None) -> dict:
    """An ``ok: false`` response.  Generic failures keep the exact
    legacy shape; typed failures (*kind* of ``timeout`` / ``busy`` /
    ``shutting_down``) additionally carry a ``"kind"`` field so clients
    can react without parsing the message text."""
    document = {"id": request_id, "ok": False, "error": str(message)}
    if kind is not None:
        document["kind"] = kind
    return document


def error_kind(error: BaseException) -> "str | None":
    """The protocol ``kind`` tag for a typed service failure (None for
    every generic error)."""
    from repro.server.service import (
        ServiceBusy,
        ServiceClosed,
        ServiceTimeout,
    )

    if isinstance(error, ServiceTimeout):
        return "timeout"
    if isinstance(error, ServiceBusy):
        return "busy"
    if isinstance(error, ServiceClosed):
        # covers ServiceShuttingDown too: a daemon whose service is
        # closed or draining should be routed away from, so both states
        # surface as the transient "shutting_down" kind
        return "shutting_down"
    return None


def parse_deadline_ms(message: dict) -> "float | None":
    """The optional ``deadline_ms`` field of a protocol message (a
    positive number of milliseconds, finite and no longer than a thread
    can wait — ``threading.TIMEOUT_MAX``), validated."""
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is None:
        return None
    if not isinstance(deadline_ms, (int, float)) or isinstance(
        deadline_ms, bool
    ) or deadline_ms <= 0:
        raise ValueError("'deadline_ms' must be a positive number")
    if not deadline_ms <= MAX_DEADLINE_MS:  # also catches nan
        raise ValueError(
            f"'deadline_ms' must be finite and at most {MAX_DEADLINE_MS:g}"
        )
    return float(deadline_ms)


def _mappings(message: dict, field: str, op: str) -> list:
    """The ``list`` of mappings under *field*, validated."""
    value = message.get(field)
    if not isinstance(value, list) or not all(
        isinstance(item, dict) for item in value
    ):
        raise ValueError(f"{op!r} needs a {field!r} list of mappings")
    return value


def dispatch(service, op, message: dict, shutdown=None) -> dict:
    """Validate *message*'s fields for *op*, run the op against
    *service* and return the ok-payload (the response fields besides
    ``id``/``ok``).  Every transport goes through here; a malformed
    field raises :class:`ValueError`, a failed op raises whatever the
    service raised.  *shutdown* is called (if given) for a ``shutdown``
    op, which the transport acknowledges before acting on it."""
    # The optional out-of-band "trace" field: requests arriving with a
    # (valid) propagated trace context are recorded under a server.<op>
    # span whatever this daemon's own tracing switch says.  Response
    # bytes are unaffected — server_scope is a nullcontext when the
    # field is absent or malformed.
    trace = message.get("trace")
    if op == "compile":
        request = message.get("request")
        if not isinstance(request, dict):
            raise ValueError("'compile' needs a 'request' mapping")
        deadline_ms = parse_deadline_ms(message)
        with trace_context.server_scope(trace, op):
            result = service.compile(request, deadline_ms=deadline_ms)
        return {"result": result.to_json()}
    if op == "compile_many":
        requests = _mappings(message, "requests", op)
        deadline_ms = parse_deadline_ms(message)
        with trace_context.server_scope(trace, op):
            results = service.compile_many(requests, deadline_ms=deadline_ms)
        return {"results": [result.to_json() for result in results]}
    if op == "cells":
        cells = _mappings(message, "cells", op)
        with trace_context.server_scope(trace, op):
            results, cache = service.evaluate_cells(cells)
        return {"results": results, "cache": cache}
    if op == "stats":
        return {"stats": service.stats()}
    if op == "health":
        return {"health": service.healthz()}
    if op == "shutdown":
        if shutdown is not None:
            shutdown()
        return {"shutdown": True}
    raise ValueError(f"unknown op {op!r} (expected one of: {', '.join(OPS)})")


def handle_line(
    service, line: "str | bytes", shutdown=None, token: "str | None" = None
) -> dict:
    """Answer one protocol line against *service* with its response
    document.  Never raises: every failure mode — bad JSON, an unknown
    op, a malformed request, a compile-time error — becomes an
    ``ok: false`` response so one poisoned line cannot kill a
    connection.  *shutdown* is passed to :func:`dispatch`.  With
    *token* set, any line whose ``"token"`` field does not match is
    rejected before its op is looked at.
    """
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        return error_response(None, f"invalid JSON: {error}")
    if not isinstance(message, dict):
        return error_response(None, "protocol line must be a JSON object")
    request_id = message.get("id")
    if not check_token(message.get("token"), token):
        return error_response(request_id, UNAUTHORIZED)
    try:
        payload = dispatch(service, message.get("op"), message, shutdown)
    except Exception as error:
        return error_response(request_id, error, kind=error_kind(error))
    return {"id": request_id, "ok": True, **payload}


def parse_tcp_address(value) -> tuple[str, int]:
    """``"[HOST:]PORT"`` (or a bare int, or a ``(host, port)`` pair) →
    ``(host, port)``; the host defaults to ``127.0.0.1``."""
    if isinstance(value, tuple):
        host, port = value
        return str(host), int(port)
    if isinstance(value, int):
        return "127.0.0.1", value
    host, _, port_text = str(value).rpartition(":")
    try:
        return host or "127.0.0.1", int(port_text)
    except ValueError:
        raise ValueError(f"bad TCP address {value!r}") from None
