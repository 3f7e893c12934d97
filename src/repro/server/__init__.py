"""The long-lived compilation service (``repro serve``).

A daemon that keeps one warm :class:`repro.api.Pipeline` — shared
worker pool, shared persistent :mod:`repro.sched.store`, warm in-memory
memos — across many clients, so a client invocation pays none of the
process-startup, pool-spin-up or store-open cost of a cold
``repro compile``.

Layers:

* :mod:`repro.server.service` — :class:`CompileService`: the request
  queue, batch dispatcher and in-flight request coalescing;
* :mod:`repro.server.protocol` — the line-delimited JSON wire protocol
  (schema ``repro.server/1``);
* :mod:`repro.server.daemon` — stdio/socket/TCP/HTTP transports and
  the :func:`serve` loop (TCP + ``--token`` is the sharded-cluster
  transport — see :mod:`repro.cluster`).

Clients connect through :mod:`repro.client` (``connect()``), or any
HTTP client against ``POST /compile``.  See ``docs/SERVER.md``.
"""

from repro.server.daemon import (
    CompileHTTPServer,
    LineSocketServer,
    LineTCPServer,
    serve,
    serve_stdio,
)
from repro.server.protocol import (
    PROTOCOL_SCHEMA,
    UNAUTHORIZED,
    check_token,
    dispatch,
    handle_line,
    parse_tcp_address,
)
from repro.server.service import CompileService, ServiceClosed

__all__ = [
    "CompileHTTPServer",
    "CompileService",
    "LineSocketServer",
    "LineTCPServer",
    "PROTOCOL_SCHEMA",
    "ServiceClosed",
    "UNAUTHORIZED",
    "check_token",
    "dispatch",
    "handle_line",
    "parse_tcp_address",
    "serve",
    "serve_stdio",
]
