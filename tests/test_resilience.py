"""Tests for the self-healing layers driven through fault injection.

Each instrumented layer is exercised with its own faults and must obey
the PR's core contract — degradation is visible in stats/metrics only,
never in results:

* the persistent store survives ENOSPC/EROFS/torn/corrupt writes, flips
  to memory-only degraded mode after repeated I/O failures, and still
  answers gets;
* a pool worker SIGKILLed mid-``run_cells`` costs one respawn and one
  retried chunk, and the sweep data stays byte-identical to serial;
* the service sheds load past its bounded queue, expires requests whose
  deadline passed before dispatch, and drains gracefully;
* the protocol tags typed failures (``timeout``/``busy``/
  ``shutting_down``) with a machine-readable ``kind``;
* ``connect()`` bounds total retry wall time and distinguishes
  ``RetriesExhausted`` from transient errors;
* the cluster client skips a dead shard for ``down_ttl`` seconds, then
  re-probes and routes to it again (counted as a recovery);
* server-side connection faults (drop / truncate / slow) surface as
  transient client errors or deadline timeouts.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.client import (
    ClientError,
    RetriesExhausted,
    ServerBusy,
    ServerShuttingDown,
    ServerTimeout,
    connect,
    is_transient_error,
)
from repro.cluster import ClusterClient
from repro.eval.engine import run_cells, workload_cells
from repro.faults import plan as faults
from repro.machine.specs import resolve_machine
from repro.sched.cache import response_memo
from repro.sched.store import ScheduleStore
from repro.server import CompileService, LineTCPServer
from repro.server.protocol import handle_line
from repro.server.service import (
    ServiceBusy,
    ServiceShuttingDown,
    ServiceTimeout,
)
from repro.workloads.suite import perfect_club_like_suite

FIG2 = "x[i] = y[i]*a + y[i-3]"


def _explode(item):
    """Module-level so pool workers can unpickle it."""
    raise ValueError(f"bad item {item}")


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.install(None)
    faults.set_worker_context(0, in_worker=False)
    yield
    faults.install(None)
    faults.set_worker_context(0, in_worker=False)


def start_tcp_daemon(token=None, **service_kwargs):
    service = CompileService(batch_window=0.0, **service_kwargs)
    server = LineTCPServer("127.0.0.1", 0, service, token=token)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return service, server, f"127.0.0.1:{server.port}"


def stop_tcp_daemon(service, server):
    server.shutdown()
    server.server_close()
    service.close()


# ---------------------------------------------------------------------------
# store degradation
class TestStoreDegradation:
    def test_degrades_after_consecutive_write_failures(self, tmp_path):
        store = ScheduleStore(tmp_path / "cache")
        faults.install("store.enospc:every=1")
        # two plain failures, then the third flips the store into
        # degraded mode and that very put already lands in memory
        assert store.put("ns", ("k0",), 0) is False
        assert store.put("ns", ("k1",), 1) is False
        assert not store.degraded
        assert store.put("ns", ("k2",), 2) is True
        assert store.degraded
        assert store.get("ns", ("k2",)) == 2
        assert store.put("ns", ("k3",), "value") is True
        assert store.get("ns", ("k3",)) == "value"
        stats = store.stats()
        assert stats["degraded"] is True
        assert stats["write_errors"] == 3
        assert stats["memory_entries"] == 2

    def test_one_success_resets_the_failure_streak(self, tmp_path):
        store = ScheduleStore(tmp_path / "cache")
        # the enospc raise in put #1 means the erofs seam is only hit
        # from put #2 on, so nth=2 fires on put #3
        faults.install("store.enospc:nth=1;store.erofs:nth=2")
        assert store.put("ns", ("a",), 1) is False
        assert store.put("ns", ("b",), 2) is True  # streak back to zero
        assert store.put("ns", ("c",), 3) is False
        assert not store.degraded
        assert store.write_errors == 2

    def test_torn_write_loads_as_miss(self, tmp_path):
        store = ScheduleStore(tmp_path / "cache")
        faults.install("store.torn_write:nth=1")
        assert store.put("ns", ("torn",), {"x": 1}) is True
        assert store.get("ns", ("torn",)) is None
        # the recompute-and-rewrite path heals the entry
        assert store.put("ns", ("torn",), {"x": 1}) is True
        assert store.get("ns", ("torn",)) == {"x": 1}

    def test_corrupt_write_loads_as_miss(self, tmp_path):
        store = ScheduleStore(tmp_path / "cache")
        faults.install("store.corrupt:nth=1")
        assert store.put("ns", ("bad",), [1, 2, 3]) is True
        assert store.get("ns", ("bad",)) is None

    def test_readonly_root_degrades_at_construction(self, tmp_path,
                                                    monkeypatch):
        import pathlib

        def readonly_mkdir(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(pathlib.Path, "mkdir", readonly_mkdir)
        store = ScheduleStore(tmp_path / "sealed")
        assert store.degraded
        assert store.put("ns", ("k",), "v") is True
        assert store.get("ns", ("k",)) == "v"

    def test_configuration_errors_still_raise(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            ScheduleStore(blocker / "cache")

    def test_memory_capped_fifo(self, tmp_path):
        from repro.sched import store as store_mod

        store = ScheduleStore(tmp_path / "cache")
        store._degraded = True
        cap = store_mod._MEMORY_CAP
        for index in range(cap + 10):
            store.put("ns", (index,), index)
        assert len(store._memory) == cap
        assert store.get("ns", (0,)) is None  # oldest evicted
        assert store.get("ns", (cap + 9,)) == cap + 9


# ---------------------------------------------------------------------------
# pool crash recovery (the ISSUE's satellite test)
class TestWorkerCrashRecovery:
    def test_sigkilled_worker_respawns_and_sweep_is_identical(
        self, monkeypatch
    ):
        from repro import pool

        suite = perfect_club_like_suite(size=4)
        machine = resolve_machine("P2L4")
        cells = workload_cells("ideal", suite, machine)

        baseline = run_cells(cells, jobs=1)
        baseline_data = [result.data for result in baseline.results]

        # SIGKILL one worker before its 2nd cell; gen=0 keeps the
        # respawned pool from re-killing the retried work
        monkeypatch.setenv(
            faults.ENV_VAR, "pool.kill_before_cell:nth=2:gen=0"
        )
        pool.shutdown_pool()
        pool.reset_resilience()
        try:
            run = run_cells(cells, jobs=2)
        finally:
            pool.shutdown_pool()
        assert [result.data for result in run.results] == baseline_data
        assert pool.RESILIENCE["worker_restarts"] == 1
        assert pool.RESILIENCE["tasks_retried"] >= 1
        stats = pool.pool_stats()
        assert stats["worker_restarts"] == 1
        pool.reset_resilience()

    def test_second_pool_break_propagates(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro import pool

        # every worker generation kills on its first cell: the retry
        # dies too, and the second break must be surfaced, not hidden
        monkeypatch.setenv(faults.ENV_VAR, "pool.kill_before_cell")
        pool.shutdown_pool()
        pool.reset_resilience()
        suite = perfect_club_like_suite(size=2)
        cells = workload_cells("ideal", suite, resolve_machine("P2L4"))
        try:
            with pytest.raises(BrokenProcessPool):
                run_cells(cells, jobs=2)
        finally:
            pool.shutdown_pool()
            pool.reset_resilience()

    def test_task_exceptions_are_not_retried(self):
        from repro import pool

        pool.shutdown_pool()
        pool.reset_resilience()
        try:
            with pytest.raises(ValueError, match="bad item"):
                list(pool.imap_resilient(_explode, [1, 2], jobs=2))
        finally:
            pool.shutdown_pool()
        assert pool.RESILIENCE["worker_restarts"] == 0
        assert pool.RESILIENCE["tasks_retried"] == 0


# ---------------------------------------------------------------------------
# service: bounded queue, deadlines, drain
class TestServiceBackpressure:
    @pytest.fixture(autouse=True)
    def _unanswered(self):
        # a request the response memo holds never queues; these tests
        # are about the queue
        response_memo().clear()

    def test_full_queue_sheds_with_busy(self):
        service = CompileService(start=False, max_queue=1,
                                 batch_window=0.0)
        try:
            service.submit({"loop": FIG2, "registers": 16})
            with pytest.raises(ServiceBusy):
                service.submit({"loop": FIG2, "registers": 8})
            assert service.stats()["service"]["shed"] == 1
        finally:
            service.close()

    def test_coalesced_requests_never_shed(self):
        service = CompileService(start=False, max_queue=1,
                                 batch_window=0.0)
        try:
            first = service.submit({"loop": FIG2, "registers": 16})
            second = service.submit({"loop": FIG2, "registers": 16})
            assert first is second  # joined the inflight entry
            assert service.stats()["service"]["shed"] == 0
        finally:
            service.close()

    def test_deadline_expired_before_dispatch_times_out(self):
        service = CompileService(start=False, batch_window=0.0)
        try:
            future = service.submit({"loop": FIG2, "registers": 16},
                                    deadline_ms=1)
            time.sleep(0.05)
            service.start()
            with pytest.raises(ServiceTimeout):
                future.result(timeout=10)
            assert service.stats()["service"]["timeouts"] == 1
        finally:
            service.close()

    def test_compile_without_deadline_unaffected(self):
        with CompileService(batch_window=0.0) as service:
            result = service.compile({"loop": FIG2, "registers": 16})
            assert result.ii >= 1

    def test_coalescing_keeps_most_permissive_deadline(self):
        service = CompileService(start=False, batch_window=0.0)
        try:
            request = {"loop": FIG2, "registers": 16}
            service.submit(request, deadline_ms=1)
            key = next(iter(service._inflight))
            service.submit(request)  # no deadline: most permissive
            assert service._inflight[key].deadline is None
        finally:
            service.close()

    def test_drain_rejects_new_work_and_finishes_queued(self):
        service = CompileService(start=False, batch_window=0.0)
        try:
            future = service.submit({"loop": FIG2, "registers": 16})
            service.drain()
            with pytest.raises(ServiceShuttingDown):
                service.submit({"loop": FIG2, "registers": 8})
            assert service.healthz()["status"] == "draining"
            service.start()
            assert future.result(timeout=30).ii >= 1
            assert service.wait_idle(timeout=10)
        finally:
            service.close()


# ---------------------------------------------------------------------------
# protocol: typed error kinds
class TestProtocolKinds:
    class _StubService:
        def __init__(self, error: Exception) -> None:
            self.error = error

        def compile(self, request, deadline_ms=None):
            raise self.error

    @pytest.mark.parametrize(
        "error, kind",
        [
            (ServiceTimeout("too slow"), "timeout"),
            (ServiceBusy("queue full"), "busy"),
            (ServiceShuttingDown("draining"), "shutting_down"),
        ],
    )
    def test_typed_errors_carry_kind(self, error, kind):
        line = (
            '{"id": 1, "op": "compile",'
            f' "request": {{"loop": "{FIG2}"}}}}'
        )
        response = handle_line(self._StubService(error), line)
        assert response["ok"] is False
        assert response["kind"] == kind

    def test_generic_errors_keep_legacy_shape(self):
        line = (
            '{"id": 2, "op": "compile",'
            f' "request": {{"loop": "{FIG2}"}}}}'
        )
        response = handle_line(
            self._StubService(ValueError("boom")), line
        )
        assert set(response) == {"id", "ok", "error"}

    @pytest.mark.parametrize(
        "deadline", ["-5", "0", "Infinity", "NaN", "1e300"]
    )
    def test_bad_deadline_rejected(self, deadline):
        with CompileService(batch_window=0.0) as service:
            line = (
                f'{{"id": 3, "op": "compile", "deadline_ms": {deadline},'
                f' "request": {{"loop": "{FIG2}"}}}}'
            )
            response = handle_line(service, line)
            assert response["ok"] is False
            assert "deadline_ms" in response["error"]
            assert "kind" not in response
            # rejected before the request reached the queue
            assert service.requests_total == 0


# ---------------------------------------------------------------------------
# client: typed errors, transient classification, bounded connect
class TestClientResilience:
    def test_kind_maps_to_typed_exceptions(self):
        from repro.client import raise_for_kind

        with pytest.raises(ServerTimeout):
            raise_for_kind("too slow", "timeout")
        with pytest.raises(ServerBusy):
            raise_for_kind("queue full", "busy")
        with pytest.raises(ServerShuttingDown):
            raise_for_kind("bye", "shutting_down")
        with pytest.raises(ClientError):
            raise_for_kind("plain", None)

    def test_transient_classification(self):
        assert is_transient_error(ServerBusy("full"))
        assert is_transient_error(ServerShuttingDown("bye"))
        assert not is_transient_error(ServerTimeout("deadline"))
        assert not is_transient_error(RetriesExhausted("gave up"))
        assert is_transient_error(ClientError("truncated response"))

    def test_retries_exhausted_is_an_oserror(self):
        # historical callers catch OSError on fail-fast connects; the
        # typed exhaustion must keep satisfying them
        assert issubclass(RetriesExhausted, OSError)
        assert issubclass(ServerTimeout, TimeoutError)

    def test_connect_deadline_bounds_total_retry_time(self):
        started = time.monotonic()
        with pytest.raises(RetriesExhausted) as excinfo:
            connect(
                "127.0.0.1:1",  # nothing listens on port 1
                fallback=False,
                retries=50,
                backoff=0.2,
                deadline=0.5,
            )
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        assert "retries exhausted" in str(excinfo.value)
        assert "127.0.0.1:1" in str(excinfo.value)


# ---------------------------------------------------------------------------
# cluster: down-set TTL + recovery, deadline propagation
class TestClusterRecovery:
    def test_dead_shard_reprobed_after_ttl_and_recovered(self):
        daemons = [start_tcp_daemon(token="secret") for _ in range(2)]
        addresses = [address for _, _, address in daemons]
        cluster = ClusterClient(
            addresses, token="secret", retries=0, down_ttl=0.3
        )
        request = {"loop": FIG2, "registers": 16}
        try:
            primary = cluster.ring.node_for(cluster.shard_key(request))
            victim = addresses.index(primary)
            reference = cluster.compile_request(request)

            # kill the shard that owns this key; the call must fail over
            service, server, _ = daemons[victim]
            port = server.port
            stop_tcp_daemon(service, server)
            failed_over = cluster.compile_request(request)
            assert failed_over.to_json() == reference.to_json()
            assert cluster.failovers >= 1
            assert primary in cluster.stats()["routing"]["down"]

            # inside the TTL the corpse is skipped without a probe
            routed_before = dict(cluster.routed)
            cluster.compile_request(request)
            assert cluster.routed[primary] == routed_before[primary]

            # rebirth on the same port; after the TTL the next call
            # re-probes and the shard rejoins the ring
            new_service = CompileService(batch_window=0.0)
            new_server = LineTCPServer(
                "127.0.0.1", port, new_service, token="secret"
            )
            daemons[victim] = (new_service, new_server, primary)
            threading.Thread(
                target=new_server.serve_forever, daemon=True
            ).start()
            time.sleep(0.35)
            recovered = cluster.compile_request(request)
            assert recovered.to_json() == reference.to_json()
            assert cluster.recoveries >= 1
            assert primary not in cluster.stats()["routing"]["down"]
        finally:
            cluster.close()
            for service, server, _ in daemons:
                stop_tcp_daemon(service, server)

    def test_cluster_deadline_exhaustion_is_a_timeout(self):
        service, server, address = start_tcp_daemon(token="secret")
        cluster = ClusterClient([address], token="secret", retries=0)
        try:
            with pytest.raises(ServerTimeout, match="cluster deadline"):
                cluster.compile_request(
                    {"loop": FIG2, "registers": 16},
                    deadline_ms=0.000001,
                )
        finally:
            cluster.close()
            stop_tcp_daemon(service, server)

    def test_injected_shard_fault_fails_over(self):
        daemons = [start_tcp_daemon(token="secret") for _ in range(2)]
        addresses = [address for _, _, address in daemons]
        cluster = ClusterClient(
            addresses, token="secret", retries=0, down_ttl=60.0
        )
        try:
            faults.install("cluster.shard_error:nth=1")
            result = cluster.compile_request(
                {"loop": FIG2, "registers": 16}
            )
            assert result.ii >= 1
            assert cluster.failovers == 1
        finally:
            faults.install(None)
            cluster.close()
            for service, server, _ in daemons:
                stop_tcp_daemon(service, server)


# ---------------------------------------------------------------------------
# server connection faults (the daemon threads share this process's
# fault plan, so installing one reaches their handler)
class TestServerConnectionFaults:
    def test_dropped_connection_is_transient(self):
        service, server, address = start_tcp_daemon()
        client = connect(address, fallback=False, retries=0)
        try:
            faults.install("server.drop_connection:nth=1")
            with pytest.raises(ClientError) as excinfo:
                client.compile_request({"loop": FIG2, "registers": 16})
            faults.install(None)
            assert is_transient_error(excinfo.value)
            # a line client is one stream: after the drop this one is
            # done, and a fresh connection succeeds
            client.close()
            client = connect(address, fallback=False, retries=0)
            assert client.compile_request(
                {"loop": FIG2, "registers": 16}
            ).ii >= 1
        finally:
            client.close()
            stop_tcp_daemon(service, server)

    def test_truncated_response_is_transient(self):
        service, server, address = start_tcp_daemon()
        client = connect(address, fallback=False, retries=0)
        try:
            faults.install("server.truncate_response:nth=1")
            with pytest.raises(ClientError, match="truncated response"):
                client.compile_request({"loop": FIG2, "registers": 16})
            faults.install(None)
        finally:
            client.close()
            stop_tcp_daemon(service, server)

    def test_slow_response_trips_client_deadline(self):
        service, server, address = start_tcp_daemon()
        client = connect(address, fallback=False, retries=0)
        try:
            faults.install("server.slow_response:ms=500")
            with pytest.raises(ServerTimeout):
                client.compile_request(
                    {"loop": FIG2, "registers": 16}, deadline_ms=100
                )
            faults.install(None)
        finally:
            client.close()
            stop_tcp_daemon(service, server)

    def test_auth_flap_surfaces_as_auth_error(self):
        service, server, address = start_tcp_daemon(token="secret")
        client = connect(
            address, token="secret", fallback=False, retries=0
        )
        try:
            faults.install("cluster.auth_flap:nth=1")
            with pytest.raises(ClientError) as excinfo:
                client.compile_request({"loop": FIG2, "registers": 16})
            faults.install(None)
            assert not is_transient_error(excinfo.value)
        finally:
            client.close()
            stop_tcp_daemon(service, server)
