"""Daemon transports: stdio, unix-socket, TCP and HTTP front ends.

All four speak to one shared :class:`repro.server.service.CompileService`
— one warm pool, one store, one coalescing queue — and differ only in
framing:

* **stdio** — the line protocol of :mod:`repro.server.protocol` on
  stdin/stdout (the default for ``repro serve``; embed the daemon as a
  subprocess and pipe requests);
* **unix socket** (``repro serve --socket PATH``) — the same line
  protocol, many concurrent connections, one handler thread each;
* **TCP** (``repro serve --tcp [HOST:]PORT``) — the same line protocol
  on an INET socket: the cluster transport.  Combine with ``--token``
  (or ``$REPRO_TOKEN``) so every request line must carry the shared
  token — unauthenticated lines are rejected at the protocol layer
  with a constant-time comparison;
* **HTTP** (``repro serve --http PORT``) — a minimal standard-library
  framing of the same ops: :data:`repro.server.protocol.HTTP_ROUTES`
  maps ``POST /compile``, ``/compile_many``, ``/cells``, ``/shutdown``
  and ``GET /healthz``, ``/stats`` onto them, and each runs through
  :func:`repro.server.protocol.dispatch` like a protocol line; ``GET
  /metrics`` (HTTP only) serves the Prometheus text exposition.  With
  a token configured, every
  endpoint except ``GET /healthz`` (liveness probes stay cheap and
  credential-free) requires ``Authorization: Bearer <token>``.
  Compile requests may carry a propagated trace context in an
  ``X-Repro-Trace`` header (the JSON of
  :meth:`repro.trace.TraceContext.to_wire`); the line protocol's
  equivalent is the ``"trace"`` envelope field.

:func:`serve` wires any combination to one service, prints one
``listening on ...`` line per transport to stderr (stdout belongs to
the stdio protocol), and runs until EOF/SIGTERM/SIGINT or a
``shutdown`` request.  Responses are byte-identical across transports:
they all serialize the same ``repro.compile/1`` documents with sorted
keys.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socketserver
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.faults import plan as faults
from repro.server import protocol
from repro.server.service import CompileService


# ----------------------------------------------------------------------
# line-protocol stream transports (unix socket + TCP)
class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one connection, many lines
        for line in self.rfile:
            if not line.strip():
                continue
            # the shutdown op is acknowledged first, acted on after the
            # ack is flushed — the client must never lose the response
            # to daemon teardown
            pending_shutdown = []
            response = protocol.handle_line(
                self.server.service, line,
                shutdown=lambda: pending_shutdown.append(True),
                token=self.server.token,
            )
            encoded = protocol.encode(response)
            if faults.enabled():
                if faults.fire("server.drop_connection") is not None:
                    return  # simulate a server dying before responding
                rule = faults.fire("server.slow_response")
                if rule is not None:
                    time.sleep(rule.ms / 1000.0)
                if faults.fire("server.truncate_response") is not None:
                    with contextlib.suppress(OSError):
                        self.wfile.write(encoded[: max(1, len(encoded) // 2)])
                        self.wfile.flush()
                    return  # half a line, then EOF — a torn response
            try:
                self.wfile.write(encoded)
                self.wfile.flush()
            except OSError:
                return  # client went away mid-response
            if pending_shutdown:
                self.server.stop_daemon()
                return


class _DaemonServer:
    """What every socket transport holds: the shared *service*, the
    expected *token* and the daemon's *stop* callback."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, service: CompileService, stop,
                 token: "str | None") -> None:
        self.service = service
        self.token = token
        self._stop = stop
        super().__init__(address, handler)

    @property
    def port(self) -> "int | None":
        """The bound INET port (``None`` on a unix socket)."""
        address = self.server_address
        return address[1] if isinstance(address, tuple) else None

    def stop_daemon(self) -> None:
        if self._stop is not None:
            self._stop()


class LineSocketServer(_DaemonServer, socketserver.ThreadingUnixStreamServer):
    """The line protocol on a unix domain socket (one thread per
    connection; all threads feed the one shared service queue)."""

    def __init__(self, path: str, service: CompileService, stop=None,
                 token: "str | None" = None):
        self.path = path
        with contextlib.suppress(OSError):
            os.unlink(path)  # a stale socket from a dead daemon
        super().__init__(path, _LineHandler, service, stop, token)

    def server_close(self) -> None:
        super().server_close()
        with contextlib.suppress(OSError):
            os.unlink(self.path)


class LineTCPServer(_DaemonServer, socketserver.ThreadingTCPServer):
    """The line protocol on a TCP socket — the cluster transport.

    Identical framing and semantics to :class:`LineSocketServer`; the
    only differences are the address family and that a shared *token*
    is the expected deployment (the socket is reachable beyond the
    local filesystem's permission checks).  Pass ``port=0`` to bind an
    ephemeral port and read it back from :attr:`port`.
    """

    def __init__(self, host: str, port: int, service: CompileService,
                 stop=None, token: "str | None" = None):
        super().__init__((host, port), _LineHandler, service, stop, token)

    @property
    def host(self) -> str:
        return self.server_address[0]


# ----------------------------------------------------------------------
# HTTP transport
#: Typed error kinds → HTTP status (any other failure is a 500).
_KIND_STATUS = {"timeout": 504, "busy": 503, "shutting_down": 503}


class _HTTPHandler(BaseHTTPRequestHandler):
    """The HTTP framing of the protocol ops (see
    :data:`repro.server.protocol.HTTP_ROUTES`)."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # stderr, never stdout
        sys.stderr.write(
            f"repro serve: {self.address_string()} {format % args}\n"
        )

    def _send(self, status: int, document: "dict | bytes",
              content_type: str = "application/json") -> None:
        body = (
            document if isinstance(document, bytes)
            else protocol.encode(document)
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            self.close_connection = True  # where the body ends is unknown
            raise ValueError("Content-Length must not be negative")
        return json.loads(self.rfile.read(length) or b"null")

    def _authorized(self) -> bool:
        """Bearer-token check; ``/healthz`` stays open so liveness
        probes never need credentials."""
        if self.path == "/healthz":
            return True
        header = self.headers.get("Authorization") or ""
        provided = (
            header[len("Bearer "):] if header.startswith("Bearer ") else None
        )
        if protocol.check_token(provided, self.server.token):
            return True
        self._send(401, {"error": protocol.UNAUTHORIZED})
        return False

    def _message(self, field) -> dict:
        """The protocol message for this request: the body under
        *field*, the deadline and trace headers as their fields."""
        message = {}
        # per-request deadline rides in a header so the JSON body stays
        # exactly the request material
        deadline = self.headers.get("X-Repro-Deadline-Ms")
        if deadline:
            try:
                message["deadline_ms"] = float(deadline)
            except ValueError:
                raise ValueError(
                    "X-Repro-Deadline-Ms must be a number"
                ) from None
        trace = self.headers.get("X-Repro-Trace")
        if trace is not None:
            message["trace"] = trace
        if field is not None:
            message[field] = self._body()
        return message

    def _route(self, method: str) -> None:
        service = self.server.service
        if not self._authorized():
            return
        if method == "GET" and self.path == "/metrics":
            self._send(
                200, service.prometheus().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        route = protocol.HTTP_ROUTES.get((method, self.path))
        if route is None:
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        op, field, unwrap = route
        # like the line transports: acknowledge a shutdown, then act
        pending_shutdown = []
        try:
            payload = protocol.dispatch(
                service, op, self._message(field),
                shutdown=lambda: pending_shutdown.append(True),
            )
        except ValueError as error:
            self._send(400, {"error": str(error)})
            return
        except Exception as error:  # compile failures must not kill HTTP
            kind = protocol.error_kind(error)
            document = {"error": str(error)}
            if kind is not None:
                document["kind"] = kind
            self._send(_KIND_STATUS.get(kind, 500), document)
            return
        self._send(200, payload[unwrap] if unwrap else payload)
        if pending_shutdown:
            self.server.stop_daemon()

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")


class CompileHTTPServer(_DaemonServer, ThreadingHTTPServer):
    """The protocol ops as ``POST /compile|/compile_many|/cells|/shutdown``
    and ``GET /healthz|/stats``, plus ``GET /metrics``."""

    def __init__(self, port: int, service: CompileService, stop=None,
                 host: str = "127.0.0.1", token: "str | None" = None):
        super().__init__((host, port), _HTTPHandler, service, stop, token)


# ----------------------------------------------------------------------
# stdio transport
def serve_stdio(service: CompileService, stdin=None, stdout=None,
                stop=None) -> None:
    """The line protocol on stdin/stdout; returns on EOF or after a
    ``shutdown`` op."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    stopping = []

    def stop_daemon():
        stopping.append(True)
        if stop is not None:
            stop()

    for line in stdin:
        if not line.strip():
            continue
        response = protocol.handle_line(service, line, shutdown=stop_daemon)
        stdout.write(protocol.encode(response))
        stdout.flush()
        if stopping:
            return


def _interruptible_lines(stop_event: threading.Event):
    """Line iterator over the process's real stdin that polls
    *stop_event* between reads.

    The stdio transport runs in a daemon thread; a thread parked inside
    ``BufferedReader.readline`` holds the stream's lock and aborts the
    interpreter at finalization (``_enter_buffered_busy``).  Reading the
    raw fd through a selector means the thread is never blocked longer
    than one poll tick and exits promptly when the daemon stops.  Falls
    back to plain iteration when stdin has no selectable fd (tests pass
    in-memory streams).
    """
    import selectors

    stream = sys.stdin.buffer
    try:
        fd = stream.fileno()
        selector = selectors.DefaultSelector()
        selector.register(fd, selectors.EVENT_READ)
    except (AttributeError, OSError, ValueError):
        yield from stream
        return
    buffered = b""
    try:
        while not stop_event.is_set():
            if not selector.select(timeout=0.2):
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                return  # EOF
            buffered += chunk
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                yield line + b"\n"
    finally:
        selector.close()


# ----------------------------------------------------------------------
def serve(
    service: CompileService,
    http_port: int | None = None,
    socket_path: str | None = None,
    stdio: bool = False,
    tcp=None,
    token: str | None = None,
    log=None,
    drain_timeout: float = 30.0,
) -> int:
    """Run the daemon until EOF (stdio), SIGTERM/SIGINT, or a
    ``shutdown`` request on any transport.  Starts whatever transports
    are requested; with none requested, stdio is implied.  *tcp* is a
    ``"[HOST:]PORT"`` string / port / ``(host, port)`` pair; *token*
    makes the socket, TCP and HTTP transports demand the shared token
    on every request (stdio is exempt — it is the operator's own
    pipe).  Returns the process exit code (0 on a clean shutdown).

    Shutdown is a graceful drain: on SIGTERM/SIGINT the service first
    stops accepting new requests (they get a typed ``shutting_down``
    error), already-accepted work is finished and its responses are
    flushed (bounded by *drain_timeout* seconds), and only then are the
    transports torn down."""
    log = log if log is not None else (
        lambda message: print(message, file=sys.stderr, flush=True)
    )
    if http_port is None and socket_path is None and tcp is None:
        stdio = True
    if tcp is not None and token is None:
        log("repro serve: warning: TCP transport without --token — "
            "any process that can reach the port can submit work")
    stop_event = threading.Event()
    servers = []
    threads = []
    # handlers go in before any transport is announced: an operator (or
    # CI) may signal the moment a "listening on" line appears
    previous = {}
    def _signal(signum, frame):
        stop_event.set()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(ValueError):  # non-main thread
            previous[signum] = signal.signal(signum, _signal)
    try:
        if http_port is not None:
            http_server = CompileHTTPServer(
                http_port, service, stop=stop_event.set, token=token
            )
            servers.append(http_server)
            threads.append(threading.Thread(
                target=http_server.serve_forever, daemon=True,
                name="repro-serve-http",
            ))
            log(f"repro serve: listening on http://127.0.0.1:"
                f"{http_server.port}")
        if socket_path is not None:
            line_server = LineSocketServer(
                socket_path, service, stop=stop_event.set, token=token
            )
            servers.append(line_server)
            threads.append(threading.Thread(
                target=line_server.serve_forever, daemon=True,
                name="repro-serve-socket",
            ))
            log(f"repro serve: listening on socket {socket_path}")
        if tcp is not None:
            host, port = protocol.parse_tcp_address(tcp)
            tcp_server = LineTCPServer(
                host, port, service, stop=stop_event.set, token=token
            )
            servers.append(tcp_server)
            threads.append(threading.Thread(
                target=tcp_server.serve_forever, daemon=True,
                name="repro-serve-tcp",
            ))
            log(f"repro serve: listening on tcp://{tcp_server.host}:"
                f"{tcp_server.port}")
        if stdio:
            # stdio runs in its own thread like every other transport,
            # so the main thread always waits on stop_event — a signal
            # or a shutdown request on *any* transport stops the daemon
            # even while stdin is blocked on a read
            def stdio_loop():
                try:
                    serve_stdio(
                        service, stdin=_interruptible_lines(stop_event)
                    )
                finally:
                    stop_event.set()  # EOF (or shutdown op) stops cleanly
            threads.append(threading.Thread(
                target=stdio_loop, daemon=True, name="repro-serve-stdio",
            ))
            log("repro serve: line protocol on stdio")
        for thread in threads:
            thread.start()
        try:
            # poll rather than wait(): a signal handler that sets the
            # event is then guaranteed to be noticed on the next tick,
            # whatever the platform does to interrupted lock waits
            while not stop_event.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            stop_event.set()
    finally:
        for signum, handler in previous.items():
            with contextlib.suppress(ValueError):
                signal.signal(signum, handler)
        # graceful drain: reject new submissions, let in-flight batches
        # finish and their handler threads flush responses, then tear
        # the transports down
        service.drain()
        if not service.wait_idle(timeout=drain_timeout):
            log("repro serve: drain timed out; dropping remaining work")
        for server in servers:
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=5)
        service.close()
        log("repro serve: shut down cleanly")
    return 0
