"""Tests for the compilation service: repro.server + repro.client.

The contracts under test, in the order the ISSUE states them:

* responses are byte-identical to direct in-process
  ``Pipeline.compile_many`` output (the deterministic service shape),
  for any number of concurrent clients and any transport;
* a daemon restarted on a warm ``--cache-dir`` serves from the store;
* duplicate in-flight requests coalesce onto one schedule computation
  (asserted via the schedule-compute counters);
* a repeated request set causes zero new schedule computations,
  verified through the ``/stats`` CacheStats block;
* a request answered once is answered again from the ``response``
  memo before it queues, with a caller-owned, byte-identical document;
* the client falls back to in-process compilation when no server is
  reachable — with byte-identical results;
* the socket, TCP and HTTP transports answer every op with the same
  documents and reject every bad request with the same client error.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading

import pytest

from repro.api import Pipeline
from repro.client import (
    ClientError,
    HTTPClient,
    LocalClient,
    ServerBusy,
    ServerShuttingDown,
    ServerTimeout,
    SocketClient,
    client_for,
    connect,
)
from repro.eval.engine import cell_to_wire, run_cells, workload_cells
from repro.machine.specs import resolve_machine
from repro.sched import cache as sched_cache
from repro.sched import store as sched_store
from repro.server import (
    CompileHTTPServer,
    CompileService,
    LineSocketServer,
    LineTCPServer,
    ServiceClosed,
    handle_line,
    serve_stdio,
)
from repro.server.service import (
    ServiceBusy,
    ServiceShuttingDown,
    ServiceTimeout,
)
from repro.workloads.suite import perfect_club_like_suite

FIG2 = "x[i] = y[i]*a + y[i-3]"
DOT = "s = s + x[i]*y[i]"
TRIAD = "z[i] = x[i] + y[i]*b"

#: A varied request set: machines, budgets, schedulers, strategies.
REQUEST_SET = [
    {"loop": FIG2, "name": "fig2", "registers": 16},
    {"loop": FIG2, "name": "fig2", "machine": "generic:4:2",
     "registers": 6, "strategy": "spill"},
    {"loop": DOT, "name": "dot", "machine": "P1L4",
     "scheduler": "swing", "strategy": "none", "registers": None},
    {"loop": TRIAD, "name": "triad", "registers": 8,
     "strategy": "increase"},
]

_unique = itertools.count()


def fresh_loop() -> str:
    """A loop no other test has compiled: unique array names give a
    unique fingerprint, so memo/store warmth cannot mask computation."""
    n = next(_unique)
    return f"q{n}[i] = r{n}[i]*a + q{n}[i-3]"


def direct_documents(requests) -> list[str]:
    """The in-process ground truth: service-shaped JSON text."""
    return [
        result.to_json_text()
        for result in Pipeline().compile_many(list(requests))
    ]


@pytest.fixture
def service():
    with CompileService(batch_window=0.0) as svc:
        yield svc


# ======================================================================
class TestCompileService:
    def test_single_request_matches_direct_output(self, service):
        for request, expected in zip(REQUEST_SET,
                                     direct_documents(REQUEST_SET)):
            assert service.compile(request).to_json_text() == expected

    def test_batch_in_request_order(self, service):
        results = service.compile_many(REQUEST_SET)
        assert [r.to_json_text() for r in results] == \
            direct_documents(REQUEST_SET)

    def test_volatile_fields_are_zeroed(self, service):
        result = service.compile({"loop": FIG2, "registers": 16})
        assert result.wall_seconds == 0.0
        assert result.relaxations == 0
        assert result.mrt_probes == 0
        assert result.lifetime_visits == 0
        assert result.alloc_probes == 0
        assert result.schedule is None and result.ddg is None

    def test_malformed_requests_rejected_at_submit(self, service):
        with pytest.raises(ValueError, match="loop"):
            service.submit({})
        with pytest.raises(ValueError, match="unknown request key"):
            service.submit({"loop": FIG2, "budget": 16})
        with pytest.raises(ValueError, match="strategy"):
            service.submit({"loop": FIG2, "strategy": "bogus"})
        # rejected requests never reach the queue or the counters
        assert service.healthz()["queued"] == 0
        assert service.requests_total == 0

    def test_submit_after_close_raises(self):
        svc = CompileService()
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit({"loop": FIG2})

    def test_close_finishes_queued_work(self):
        svc = CompileService(start=False)
        futures = [svc.submit({"loop": FIG2, "registers": b})
                   for b in (32, 16)]
        svc.start()
        svc.close()
        assert all(f.result(timeout=0).converged for f in futures)


class TestCoalescing:
    def test_duplicates_coalesce_onto_one_computation(self):
        loop = fresh_loop()
        request = {"loop": loop, "registers": 16}
        svc = CompileService(start=False)
        before = sched_cache.STATS.snapshot()
        futures = [svc.submit(dict(request)) for _ in range(6)]
        assert len({id(f) for f in futures}) == 1
        assert svc.requests_total == 6
        assert svc.coalesced_total == 5
        svc.start()
        result = futures[0].result(timeout=120)
        svc.close()
        assert result.converged is not None
        coalesced_delta = sched_cache.STATS.delta(before)
        assert svc.compiled_total == 1

        # ground truth: the same loop compiled once from cold memos
        # performs the same number of schedule computations — six
        # coalesced requests did exactly one request's work
        sched_cache.clear()
        before = sched_cache.STATS.snapshot()
        Pipeline().compile_many([dict(request)])
        single_delta = sched_cache.STATS.delta(before)
        assert coalesced_delta.schedule_misses == \
            single_delta.schedule_misses
        assert single_delta.schedule_misses > 0

    def test_duplicates_inside_one_client_batch(self, service):
        request = {"loop": fresh_loop(), "registers": 16}
        results = service.compile_many([dict(request)] * 4)
        texts = {r.to_json_text() for r in results}
        assert len(texts) == 1
        assert service.coalesced_total >= 3

    def test_distinct_requests_do_not_coalesce(self, service):
        service.compile_many([
            {"loop": FIG2, "registers": 16},
            {"loop": FIG2, "registers": 8},      # different budget
            {"loop": FIG2, "name": "other", "registers": 16},  # name
        ])
        assert service.coalesced_total == 0

    def test_repeat_request_set_zero_new_schedule_computations(
        self, service
    ):
        service.compile_many(REQUEST_SET)
        misses_before = service.stats()["cache"]["schedule_misses"]
        repeat = service.compile_many(REQUEST_SET)
        stats = service.stats()
        assert stats["cache"]["schedule_misses"] == misses_before
        assert [r.to_json_text() for r in repeat] == \
            direct_documents(REQUEST_SET)


# ======================================================================
class TestProtocol:
    def test_compile_round_trip(self, service):
        response = handle_line(service, json.dumps({
            "op": "compile", "id": 7,
            "request": {"loop": FIG2, "registers": 16},
        }))
        assert response["ok"] and response["id"] == 7
        assert response["result"]["schema"] == "repro.compile/1"

    def test_compile_many_order(self, service):
        response = handle_line(service, json.dumps({
            "op": "compile_many", "id": 1, "requests": REQUEST_SET,
        }))
        documents = [
            json.dumps(doc, indent=2, sort_keys=True)
            for doc in response["results"]
        ]
        assert documents == direct_documents(REQUEST_SET)

    def test_bad_lines_become_error_responses(self, service):
        assert handle_line(service, "not json")["ok"] is False
        assert handle_line(service, "[1, 2]")["ok"] is False
        response = handle_line(
            service, json.dumps({"op": "teleport", "id": 3})
        )
        assert response == {
            "id": 3, "ok": False,
            "error": response["error"],
        }
        assert "unknown op" in response["error"]

    def test_malformed_request_keeps_id(self, service):
        response = handle_line(service, json.dumps({
            "op": "compile", "id": 9,
            "request": {"loop": FIG2, "machine": "VAX"},
        }))
        assert response["id"] == 9 and response["ok"] is False
        assert "machine" in response["error"]

    def test_health_and_stats_ops(self, service):
        health = handle_line(service, '{"op": "health", "id": 1}')
        assert health["health"]["status"] == "ok"
        stats = handle_line(service, '{"op": "stats", "id": 2}')
        assert stats["stats"]["schema"] == "repro.server-stats/2"

    def test_stdio_transport(self, service):
        import io

        lines = b"".join(
            json.dumps({"op": "compile", "id": i, "request": request})
            .encode() + b"\n"
            for i, request in enumerate(REQUEST_SET)
        ) + b'{"op": "shutdown", "id": 99}\n'
        out = io.BytesIO()
        serve_stdio(service, stdin=io.BytesIO(lines), stdout=out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [0, 1, 2, 3, 99]
        documents = [
            json.dumps(r["result"], indent=2, sort_keys=True)
            for r in responses[:-1]
        ]
        assert documents == direct_documents(REQUEST_SET)
        assert responses[-1]["shutdown"] is True


# ======================================================================
@pytest.fixture
def socket_daemon(tmp_path):
    service = CompileService()
    server = LineSocketServer(str(tmp_path / "repro.sock"), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def http_daemon():
    service = CompileService()
    server = CompileHTTPServer(0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


class TestSocketDaemon:
    def test_eight_concurrent_clients_byte_identical(self, socket_daemon):
        expected = direct_documents(REQUEST_SET)
        outcomes: dict[int, list[str] | Exception] = {}

        def one_client(index: int) -> None:
            try:
                with SocketClient(socket_daemon.path) as client:
                    outcomes[index] = [
                        client.compile_request(dict(request)).to_json_text()
                        for request in REQUEST_SET
                    ]
            except Exception as error:  # surfaced below
                outcomes[index] = error

        threads = [
            threading.Thread(target=one_client, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert len(outcomes) == 8
        for index in range(8):
            assert outcomes[index] == expected, outcomes[index]

    def test_health_stats_and_errors_over_socket(self, socket_daemon):
        with SocketClient(socket_daemon.path) as client:
            assert client.healthz()["status"] == "ok"
            client.compile(FIG2, registers=16)
            stats = client.stats()
            assert stats["service"]["requests"] >= 1
            # the pool block reports process-wide pool state (other
            # tests may have left one warm); only its shape is ours
            assert set(stats["pool"]) == {"alive", "jobs", "store", "worker_restarts", "tasks_retried"}
            with pytest.raises(ClientError, match="unknown strategy"):
                client.compile(FIG2, strategy="bogus")
            # the connection survives the error response
            assert client.healthz()["status"] == "ok"

    def test_client_batch_over_socket(self, socket_daemon):
        with SocketClient(socket_daemon.path) as client:
            results = client.compile_many(REQUEST_SET)
        assert [r.to_json_text() for r in results] == \
            direct_documents(REQUEST_SET)


class TestHTTPDaemon:
    def test_compile_and_batch(self, http_daemon):
        url = f"http://127.0.0.1:{http_daemon.port}"
        with HTTPClient(url) as client:
            assert client.healthz()["status"] == "ok"
            expected = direct_documents(REQUEST_SET)
            assert [
                client.compile_request(dict(r)).to_json_text()
                for r in REQUEST_SET
            ] == expected
            assert [
                r.to_json_text() for r in client.compile_many(REQUEST_SET)
            ] == expected
            stats = client.stats()
            assert stats["schema"] == "repro.server-stats/2"

    def test_http_error_codes(self, http_daemon):
        import urllib.error
        import urllib.request

        url = f"http://127.0.0.1:{http_daemon.port}"
        with pytest.raises(ClientError, match="unknown"):
            HTTPClient(url).compile(FIG2, machine="VAX")
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{url}/nope", timeout=10)


class TestHTTPFraming:
    def test_negative_content_length_is_a_400(self, http_daemon):
        import socket

        with socket.create_connection(
            ("127.0.0.1", http_daemon.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /compile HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            # the daemon answers and closes the connection, rather than
            # waiting for a body of unknown length
            response = b"".join(iter(lambda: sock.recv(4096), b""))
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length must not be negative" in response

    @pytest.mark.parametrize("header", ["-5", "0", "inf", "nan", "1e300"])
    def test_out_of_range_deadline_header_is_a_400(self, http_daemon, header):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"http://127.0.0.1:{http_daemon.port}/compile",
            data=json.dumps({"loop": fresh_loop()}).encode(),
            headers={"X-Repro-Deadline-Ms": header},
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=30)
        assert error.value.code == 400
        document = json.loads(error.value.read())
        assert document["error"].startswith("'deadline_ms' must be")
        assert http_daemon.service.requests_total == 0


# ======================================================================
TOKEN = "secret"


@pytest.fixture(params=["socket", "tcp", "http"])
def wire_daemon(request, tmp_path):
    """One token-authenticated daemon per transport: yields its client
    address, its service and the event its shutdown sets."""
    service = CompileService(batch_window=0.0)
    stopped = threading.Event()
    options = dict(stop=stopped.set, token=TOKEN)
    if request.param == "socket":
        address = str(tmp_path / "repro.sock")
        server = LineSocketServer(address, service, **options)
    elif request.param == "tcp":
        server = LineTCPServer("127.0.0.1", 0, service, **options)
        address = f"tcp://127.0.0.1:{server.port}"
    else:
        server = CompileHTTPServer(0, service, **options)
        address = f"http://127.0.0.1:{server.port}"
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    ).start()
    yield address, service, stopped
    server.shutdown()
    server.server_close()
    service.close()


#: Requests every transport must reject with a plain ClientError whose
#: message matches.
REJECTIONS = {
    "unknown_strategy": (
        lambda client: client.compile(FIG2, strategy="bogus"),
        "unknown strategy",
    ),
    "non_mapping_items": (
        lambda client: client._call("compile_many", requests=[1, 2]),
        "'requests' list of mappings",
    ),
    "negative_deadline": (
        lambda client: client.compile_request(
            {"loop": FIG2}, deadline_ms=-5
        ),
        "'deadline_ms' must be a positive number",
    ),
    "infinite_deadline": (
        lambda client: client.compile_request(
            {"loop": FIG2}, deadline_ms=float("inf")
        ),
        "'deadline_ms' must be finite",
    ),
}


class TestTransportParity:
    """The same op gives the same answer on every transport: documents
    byte-identical to in-process results, failures the same client
    exception type."""

    def test_compile_and_compile_many(self, wire_daemon):
        address, _, _ = wire_daemon
        expected = direct_documents(REQUEST_SET)
        with client_for(address, token=TOKEN) as client:
            assert [
                client.compile_request(dict(r)).to_json_text()
                for r in REQUEST_SET
            ] == expected
            assert [
                r.to_json_text() for r in client.compile_many(REQUEST_SET)
            ] == expected

    def test_cells(self, wire_daemon):
        address, _, _ = wire_daemon
        cells = workload_cells(
            "ideal", perfect_club_like_suite(size=3),
            resolve_machine("P2L4"), budget=32,
        )
        local = {r.cell: r.data for r in run_cells(cells).results}
        with client_for(address, token=TOKEN) as client:
            results, cache = client.evaluate_cells(
                [cell_to_wire(cell) for cell in cells]
            )
        assert json.dumps(results, sort_keys=True) == json.dumps(
            [local[cell] for cell in cells], sort_keys=True
        )
        assert set(cache) == set(sched_cache.STATS.as_dict())

    def test_health_and_stats(self, wire_daemon):
        address, service, _ = wire_daemon
        with client_for(address, token=TOKEN) as client:
            client.compile(FIG2, registers=16)
            health = client.healthz()
            stats = client.stats()
        # uptime moves between two reads; every other field must match
        assert health == dict(
            service.healthz(), uptime_seconds=health["uptime_seconds"]
        )
        assert stats["schema"] == "repro.server-stats/2"
        assert set(stats) == set(service.stats())
        assert stats["service"] == service.stats()["service"]

    def test_shutdown_is_acknowledged_then_stops(self, wire_daemon):
        address, _, stopped = wire_daemon
        with client_for(address, token=TOKEN) as client:
            assert client.shutdown() is None
        assert stopped.wait(timeout=10)

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rejections(self, wire_daemon, case):
        address, service, _ = wire_daemon
        call, message = REJECTIONS[case]
        with client_for(address, token=TOKEN) as client:
            with pytest.raises(ClientError, match=message) as error:
                call(client)
            assert type(error.value) is ClientError
            # the connection survives the error response
            assert client.healthz()["status"] == "ok"
        assert service.requests_total == 0

    def test_wrong_token(self, wire_daemon):
        address, _, _ = wire_daemon
        with client_for(address, token="wrong") as client:
            with pytest.raises(ClientError, match="unauthorized") as error:
                client.stats()
        assert type(error.value) is ClientError

    @pytest.mark.parametrize("failure, expected", [
        (ServiceBusy("queue full"), ServerBusy),
        (ServiceShuttingDown("draining"), ServerShuttingDown),
        (ServiceTimeout("too slow"), ServerTimeout),
    ])
    def test_typed_failures(self, wire_daemon, monkeypatch, failure,
                            expected):
        address, service, _ = wire_daemon

        def submit(request, deadline_ms=None):
            raise failure

        monkeypatch.setattr(service, "submit", submit)
        with client_for(address, token=TOKEN) as client:
            with pytest.raises(expected, match=str(failure)) as error:
                client.compile(FIG2)
        assert type(error.value) is expected


# ======================================================================
class TestWarmRestart:
    def test_restarted_daemon_is_store_served(self, tmp_path):
        store_dir = str(tmp_path / "cache")
        loop = fresh_loop()
        requests = [
            {"loop": loop, "registers": 16},
            {"loop": loop, "registers": 8, "strategy": "spill",
             "machine": "generic:4:2"},
        ]
        with CompileService(cache=store_dir) as first:
            first_documents = [
                r.to_json_text() for r in first.compile_many(requests)
            ]
            assert first.stats()["cache"]["schedule_misses"] > 0

        # simulate a process restart: in-memory memos die, disk survives
        sched_cache.clear()
        with CompileService(cache=store_dir) as second:
            second_documents = [
                r.to_json_text() for r in second.compile_many(requests)
            ]
            stats = second.stats()
        assert second_documents == first_documents
        assert stats["cache"]["store_hits"] > 0
        assert stats["cache"]["schedule_misses"] == 0
        assert stats["store"]["entries"] > 0

    def test_stats_reports_store_telemetry(self, tmp_path):
        with CompileService(cache=str(tmp_path / "cache")) as svc:
            svc.compile({"loop": FIG2, "registers": 16})
            block = svc.stats()["store"]
        assert block["root"].endswith("cache")
        assert block["entries"] > 0
        assert block["max_bytes"] == 512 * 1024 * 1024


# ======================================================================
class TestClientFallback:
    def test_unreachable_server_falls_back_to_identical_local(
        self, tmp_path
    ):
        client = connect(str(tmp_path / "nothing.sock"))
        assert isinstance(client, LocalClient)
        assert client.transport == "local"
        documents = [
            client.compile_request(dict(r)).to_json_text()
            for r in REQUEST_SET
        ]
        assert documents == direct_documents(REQUEST_SET)

    def test_no_fallback_raises(self, tmp_path, monkeypatch):
        with pytest.raises(OSError):
            connect(str(tmp_path / "nothing.sock"), fallback=False)
        monkeypatch.delenv("REPRO_SERVER", raising=False)
        with pytest.raises(ValueError, match="REPRO_SERVER"):
            connect(fallback=False)

    def test_env_address_is_used(self, socket_daemon, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER", socket_daemon.path)
        client = connect(fallback=False)
        try:
            assert client.transport == "socket"
            assert client.healthz()["status"] == "ok"
        finally:
            client.close()

    def test_local_client_accepts_ddg(self):
        from repro.graph.builder import ddg_from_source

        ddg = ddg_from_source(FIG2, name="fig2")
        result = LocalClient().compile(ddg, name="fig2", registers=16)
        assert result.loop == "fig2"

    def test_remote_client_rejects_ddg(self, socket_daemon):
        from repro.graph.builder import ddg_from_source

        ddg = ddg_from_source(FIG2, name="fig2")
        with SocketClient(socket_daemon.path) as client:
            with pytest.raises(ValueError, match="source text"):
                client.compile(ddg)

    def test_connect_defaults_identical_remote_and_local(
        self, socket_daemon, tmp_path
    ):
        # the same connect() kwargs must compile identically whether a
        # daemon serves the request or the local fallback does
        defaults = dict(strategy="spill", machine="generic:4:2",
                        registers=6)
        remote = connect(socket_daemon.path, **defaults)
        local = connect(str(tmp_path / "nothing.sock"), **defaults)
        try:
            assert remote.transport == "socket"
            assert local.transport == "local"
            assert remote.compile(FIG2).to_json_text() == \
                local.compile(FIG2).to_json_text()
            assert remote.compile(FIG2).strategy == "spill"
            # per-call arguments still beat the connect() defaults
            assert remote.compile(FIG2, strategy="increase",
                                  registers=16).strategy == "increase"
        finally:
            remote.close()

    def test_connect_rejects_unknown_defaults(self, tmp_path):
        with pytest.raises(ValueError, match="unknown connect"):
            connect(str(tmp_path / "no.sock"), budget=16)


class TestDaemonLifecycle:
    def test_sigterm_stops_a_stdio_daemon(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            cwd=os.path.dirname(os.path.dirname(__file__)),
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                line = process.stderr.readline()
                if "stdio" in line:
                    break
            else:  # pragma: no cover
                pytest.fail("daemon never announced the stdio transport")
            # stdin stays open: only the signal can stop the daemon
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover
                process.kill()


# ======================================================================
def _memo_hits() -> int:
    return sched_cache.STATS.response_hits


class TestResponseMemo:
    """A request the process has answered is answered again from the
    ``response`` memo before it queues."""

    def test_hit_never_queues(self):
        request = {"loop": fresh_loop(), "registers": 16}
        with CompileService(batch_window=0.0) as first:
            expected = first.compile(dict(request)).to_json_text()
        svc = CompileService(start=False)  # no dispatcher at all
        try:
            hits = _memo_hits()
            future = svc.submit(dict(request))
            assert future.done()
            assert future.result(timeout=0).to_json_text() == expected
            assert _memo_hits() == hits + 1
            counters = svc.stats()["service"]
            assert counters["batches"] == 0 and counters["queued"] == 0
            assert counters["requests"] == 1 and counters["answered"] == 1
            # a hit still observes the client-experienced latency
            assert svc.metrics.summary()["latency"]["request"]["count"] == 1
        finally:
            svc.close()

    @pytest.mark.parametrize("scheduler", ["hrms", "ims", "swing"])
    @pytest.mark.parametrize("strategy", ["spill", "increase", "combined"])
    def test_hit_is_byte_identical_to_pipeline(
        self, service, scheduler, strategy
    ):
        request = {"loop": fresh_loop(), "machine": "generic:4:2",
                   "registers": 6, "scheduler": scheduler,
                   "strategy": strategy}
        (expected,) = direct_documents([request])
        assert service.compile(dict(request)).to_json_text() == expected
        batches, hits = service.batches_total, _memo_hits()
        assert service.compile(dict(request)).to_json_text() == expected
        assert (service.batches_total, _memo_hits()) == (batches, hits + 1)

    def test_restarted_service_answers_from_its_store(self, tmp_path):
        store_dir = str(tmp_path / "cache")
        request = {"loop": fresh_loop(), "registers": 16}
        with CompileService(cache=store_dir, batch_window=0.0) as first:
            expected = first.compile(dict(request)).to_json_text()
        sched_cache.clear()  # a process restart: memory gone, disk kept
        # the pipeline's store is read through without being activated
        assert sched_store.active_store() is None
        with CompileService(cache=store_dir, start=False) as second:
            future = second.submit(dict(request))
            assert future.done()
            assert future.result(timeout=0).to_json_text() == expected
            stats = second.stats()
        assert stats["service"]["answered"] == 1
        assert stats["cache"]["store_hits"] == 1

    def test_verify_and_plain_pipelines_never_share(self):
        request = {"loop": fresh_loop(), "registers": 16}
        with CompileService(batch_window=0.0) as plain, CompileService(
            Pipeline(verify=True), batch_window=0.0
        ) as verifying:
            assert plain.compile(dict(request)).verified is None
            assert verifying.compile(dict(request)).verified is True
            assert verifying.batches_total == 1  # not served plain's
            assert plain.compile(dict(request)).verified is None
            assert verifying.compile(dict(request)).verified is True
            assert (plain.answered_total, verifying.answered_total) == (1, 1)

    def test_clear_empties_and_disabled_recompiles(self, service):
        request = {"loop": fresh_loop(), "registers": 16}
        service.compile(dict(request))
        service.compile(dict(request))
        assert (service.batches_total, service.answered_total) == (1, 1)
        sched_cache.clear()
        assert not sched_cache.response_memo()._entries
        service.compile(dict(request))
        assert (service.batches_total, service.answered_total) == (2, 1)
        with sched_cache.disabled():
            service.compile(dict(request))  # the memo holds it: ignored
            service.compile(dict(request))
        assert (service.batches_total, service.answered_total) == (4, 1)

    def test_mutating_a_result_leaves_the_next_hit_unchanged(self, service):
        request = {"loop": fresh_loop(), "machine": "generic:4:2",
                   "registers": 6, "strategy": "spill"}
        (expected,) = direct_documents([request])
        for _ in range(3):  # the computed result, then two hits
            result = service.compile(dict(request))
            assert result.to_json_text() == expected
            assert result.trace, "the spill strategy records rounds"
            result.details["policy"] = "mutated"
            result.trace[0]["spilled"].append("mutated")
            result.trace[0]["ii"] = -1
        assert service.answered_total == 2

    def test_closed_or_draining_service_refuses_a_memoized_key(self):
        from repro.server.service import ServiceShuttingDown

        request = {"loop": fresh_loop(), "registers": 16}
        svc = CompileService(batch_window=0.0)
        svc.compile(dict(request))
        svc.drain()
        with pytest.raises(ServiceShuttingDown):
            svc.submit(dict(request))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(dict(request))
        assert (svc.requests_total, svc.answered_total) == (1, 0)

    def test_failures_store_nothing(self, service, monkeypatch):
        request = {"loop": fresh_loop(), "registers": 16}

        def broken(requests, jobs=1):
            raise RuntimeError("batch failed")

        monkeypatch.setattr(service.pipeline, "compile_many", broken)
        with pytest.raises(RuntimeError, match="batch failed"):
            service.compile(dict(request))
        expired = {"loop": fresh_loop(), "registers": 16}
        stopped = CompileService(start=False)
        future = stopped.submit(dict(expired), deadline_ms=1)
        threading.Event().wait(0.01)
        stopped.start()
        with pytest.raises(TimeoutError):
            future.result(timeout=30)
        stopped.close()
        monkeypatch.undo()
        service.compile(dict(request))
        service.compile(dict(expired))
        assert service.errors_total == 1
        assert service.answered_total == 0  # both recompiled

    def test_miss_compiles_the_graph_submit_parsed(self, service,
                                                   monkeypatch):
        import repro.api
        import repro.graph.builder

        parses = []
        real = repro.api.ddg_from_source

        def counting(*args, **kwargs):
            parses.append(args)
            return real(*args, **kwargs)

        # every module binding of the parser: the batch parses through
        # repro.api, Pipeline.ddg through the shared cache in the builder
        for module in (repro.api, repro.graph.builder):
            monkeypatch.setattr(module, "ddg_from_source", counting)
        request = {"loop": fresh_loop(), "registers": 16}
        (expected,) = direct_documents([request])
        parses.clear()
        assert service.compile(dict(request)).to_json_text() == expected
        assert len(parses) == 1  # the key's parse; the batch reused it

    def test_concurrent_clients_under_constant_eviction(self, monkeypatch):
        # transport threads read the process-wide memo while the
        # dispatcher fills it; with a 4-entry bound most puts evict
        monkeypatch.setattr(sched_cache, "_MAX_ENTRIES", 4)
        sched_cache.response_memo().clear()
        requests = [{"loop": fresh_loop(), "registers": 16}
                    for _ in range(8)]
        expected = direct_documents(requests)
        outcomes: dict[int, list[str] | Exception] = {}
        before = sched_cache.STATS.snapshot()

        def one_client(index: int) -> None:
            try:
                outcomes[index] = [
                    svc.compile(dict(requests[(index + step) % 8]),
                                timeout=60).to_json_text()
                    for step in range(24)
                ]
            except Exception as error:  # surfaced below
                outcomes[index] = error

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        svc = CompileService(batch_window=0.0)
        try:
            threads = [threading.Thread(target=one_client, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        for index in range(8):
            assert outcomes[index] == [
                expected[(index + step) % 8] for step in range(24)
            ], outcomes[index]
        delta = sched_cache.STATS.delta(before)
        assert svc.requests_total == 8 * 24
        assert svc.requests_total == (
            svc.answered_total + svc.coalesced_total + svc.compiled_total
        )
        assert delta.response_hits + delta.response_misses == 8 * 24
        assert delta.response_hits == svc.answered_total
        assert len(sched_cache.response_memo()._entries) <= 4

    def test_answered_counter_in_stats_and_prometheus(self, service):
        from repro.metrics import parse_text

        request = {"loop": fresh_loop(), "registers": 16}
        for _ in range(3):
            service.compile(dict(request))
        assert service.stats()["service"]["answered"] == 2
        samples = parse_text(service.prometheus())
        assert samples["repro_answered_total"] == 2.0
        assert samples["repro_requests_total"] == 3.0
