"""Tests for the observability stack: repro.trace (context propagation
+ phase profiling), span persistence (repro.metrics/2), the Prometheus
exporter, recorder degradation under metrics faults, and the trace CLI.

The contracts under test, in the order the ISSUE states them:

* a trace context minted client-side survives the wire (line protocol
  ``trace`` field / ``X-Repro-Trace`` header) and every layer of the
  service records spans under the same ``trace_id``;
* per-phase profiling is exclusive-time and its sum reconciles with
  the profiled span's wall time (within 10%);
* tracing never changes a single output byte — a traced compilation's
  JSON document equals the untraced one exactly;
* the ``/metrics`` endpoint emits valid Prometheus text exposition;
* metrics-layer fault seams (``metrics.put_io``/``metrics.db_locked``)
  degrade the recorder to a bounded in-memory buffer instead of
  failing requests, and a later flush recovers;
* ``drain()`` flushes the final interval, so a SIGTERM'd shard keeps
  its last spans;
* a routed request that fails over keeps ONE trace_id, with the
  fail-over hop recorded;
* retention: ``prune_older_than`` deletes old rows (dry-run counts
  without deleting).
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import urllib.request

import pytest

from repro import trace
from repro.api import Pipeline, compile_loop
from repro.client import TCPClient
from repro.cluster import ClusterClient
from repro.faults import plan as faults
from repro.metrics import (
    MetricsDB,
    MetricsRecorder,
    parse_text,
    render_prometheus,
)
from repro.sched.cache import response_memo
from repro.server import CompileService, LineTCPServer, handle_line
from repro.server.daemon import CompileHTTPServer
from repro.trace import report as trace_report
from repro.trace.context import SPAN_BUFFER_CAP

FIG2 = "x[i] = y[i]*a + y[i-3]"


def _record_spans(count):
    """Runs inside a pool worker: record *count* spans of one trace."""
    context = trace.new_trace()
    for index in range(count):
        trace.record_span(f"s{index}", "worker", 0.0, context=context.child())
    return count


@pytest.fixture(autouse=True)
def clean_trace_state(monkeypatch):
    monkeypatch.delenv(trace.ENV_VAR, raising=False)
    trace.reset()
    faults.install(None)
    yield
    trace.reset()
    faults.install(None)


def start_tcp_daemon(**service_kwargs):
    service = CompileService(batch_window=0.0, **service_kwargs)
    server = LineTCPServer("127.0.0.1", 0, service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return service, server, f"127.0.0.1:{server.port}"


def stop_tcp_daemon(service, server):
    server.shutdown()
    server.server_close()
    service.close()


# ======================================================================
class TestTraceContext:
    def test_wire_round_trip(self):
        context = trace.new_trace()
        restored = trace.TraceContext.from_wire(context.to_wire())
        assert restored == context

    def test_malformed_wire_is_none_not_an_error(self):
        for wire in (None, 42, "junk", [], {"trace_id": 7},
                     {"span_id": "x"}, {"trace_id": "", "span_id": "s"}):
            assert trace.TraceContext.from_wire(wire) is None

    def test_child_links_and_hop(self):
        root = trace.new_trace()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        assert root.with_hop(2).hop == 2

    def test_orphan_span_is_dropped(self):
        assert trace.record_span("x", "client", 1.0) is None
        assert trace.drain_spans() == []

    def test_buffer_caps_drop_oldest(self):
        context = trace.new_trace()
        for index in range(SPAN_BUFFER_CAP + 5):
            trace.record_span(f"s{index}", "client", 0.0, context=context.child())
        assert trace.dropped_count() == 5
        spans = trace.drain_spans()
        assert len(spans) == SPAN_BUFFER_CAP
        assert spans[0]["name"] == "s5"  # the oldest five went

    def test_added_spans_share_the_cap_and_the_counter(self):
        context = trace.new_trace()
        for index in range(SPAN_BUFFER_CAP):
            trace.record_span(f"s{index}", "client", 0.0, context=context.child())
        trace.add_spans([{"name": "old"}], dropped=2, front=True)
        assert trace.dropped_count() == 3  # the worker's 2, then "old"
        trace.add_spans([{"name": "new"}])
        assert trace.dropped_count() == 4
        spans = trace.drain_spans()
        assert len(spans) == SPAN_BUFFER_CAP
        assert spans[0]["name"] == "s1" and spans[-1]["name"] == "new"

    def test_enabled_by_env_or_context(self, monkeypatch):
        assert not trace.enabled()
        with trace.activate(trace.new_trace()):
            assert trace.enabled()
        assert not trace.enabled()
        trace.enable(True)
        assert trace.enabled()
        trace.reset()
        monkeypatch.setenv(trace.ENV_VAR, "1")
        assert trace.enabled()

    def test_span_nesting_links_parents(self):
        trace.enable(True)
        with trace.span("outer", "client"):
            with trace.span("inner", "client"):
                pass
        inner, outer = trace.drain_spans()  # inner finishes first
        assert inner["name"] == "inner"
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]

    def test_server_scope_records_regardless_of_env(self):
        wire = trace.new_trace().to_wire()
        with trace.server_scope(wire, "compile"):
            pass
        (span,) = trace.drain_spans()
        assert span["name"] == "server.compile"
        assert span["layer"] == "server"
        assert span["trace_id"] == wire["trace_id"]

    def test_server_scope_null_without_wire(self):
        with trace.server_scope(None, "compile"):
            pass
        with trace.server_scope("garbage", "compile"):
            pass
        assert trace.drain_spans() == []


# ======================================================================
class TestPhaseProfile:
    def test_phase_is_noop_when_inactive(self):
        with trace.phase("schedule"):
            pass  # must not raise, must not record
        assert trace.drain_spans() == []

    def test_exclusive_time_sums_to_wall(self):
        with trace.profiling() as profile:
            with trace.phase("schedule"):
                time.sleep(0.01)
            with trace.phase("allocation"):
                time.sleep(0.005)
        millis = profile.as_millis()
        assert set(millis) >= {"schedule", "allocation", "drive"}
        assert millis["schedule"] >= 8.0
        assert millis["allocation"] >= 3.0

    def test_nested_profiling_accrues_to_outer(self):
        with trace.profiling() as outer:
            with trace.profiling() as inner:
                assert inner is None
                with trace.phase("mii"):
                    pass
        assert "mii" in outer.as_millis()

    def test_profiled_span_reconciles_phase_sum(self):
        trace.enable(True)
        with trace.profiled_span("compile", "worker"):
            with trace.phase("schedule"):
                time.sleep(0.01)
        (main,) = trace.drain_spans()  # one span; phases ride on it
        assert main["name"] == "compile"
        phases = main["attrs"]["phases"]
        assert set(phases) >= {"schedule", "drive"}
        assert phases["schedule"] >= 8.0
        ratio = sum(phases.values()) / main["dur_ms"]
        assert 0.9 <= ratio <= 1.1
        (row,) = trace_report.phase_consistency([main])
        assert row["phase_ms"] == pytest.approx(
            sum(phases.values()), abs=0.001
        )


# ======================================================================
class TestByteIdentity:
    def test_traced_compile_is_byte_identical(self):
        # wall_seconds is volatile run to run with or without tracing;
        # everything else — including the key set, which is where trace
        # data would leak — must match exactly
        compile_loop(FIG2, registers=16)  # warm process-level memos
        untraced = json.loads(
            compile_loop(FIG2, registers=16).to_json_text()
        )
        trace.enable(True)
        with trace.activate(trace.new_trace()):
            traced = json.loads(
                compile_loop(FIG2, registers=16).to_json_text()
            )
        assert trace.span_count() > 0
        untraced["wall_seconds"] = traced["wall_seconds"] = 0.0
        assert traced == untraced

    def test_traced_pipeline_results_identical(self):
        requests = [
            {"loop": FIG2, "registers": 16},
            {"loop": "s = s + x[i]*y[i]", "registers": 12},
        ]
        untraced = [
            r.to_json_text()
            for r in Pipeline().compile_many([dict(r) for r in requests])
        ]
        trace.enable(True)
        with trace.activate(trace.new_trace()):
            traced = [
                r.to_json_text()
                for r in Pipeline().compile_many(
                    [dict(r) for r in requests]
                )
            ]
        assert traced == untraced


# ======================================================================
class TestServiceSpans:
    @pytest.fixture(autouse=True)
    def _unanswered(self):
        # a request the response memo holds never queues or compiles;
        # these tests follow a request that does both
        response_memo().clear()

    def test_propagated_trace_spans_every_layer(self, tmp_path):
        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(jobs=1, metrics=db_path)
        context = trace.new_trace()
        line = json.dumps({
            "op": "compile", "id": 1,
            "request": {"loop": FIG2, "registers": 16},
            "trace": context.to_wire(),
        })
        response = handle_line(service, line)
        assert response["ok"]
        service.close()
        with MetricsDB(db_path) as db:
            spans = db.spans()
            layers = db.span_layers()
        assert {s["trace_id"] for s in spans} == {context.trace_id}
        assert set(layers) == {"server", "service", "worker"}
        names = {s["name"] for s in spans}
        assert {"server.compile", "service.queue", "service.batch",
                "compile"} <= names
        # the server span carries the op, the batch span the batch size
        batch = next(s for s in spans if s["name"] == "service.batch")
        assert batch["attrs"]["batch"] == 1
        # the worker compile span carries its phase breakdown
        compiled = next(s for s in spans if s["name"] == "compile")
        assert "drive" in compiled["attrs"]["phases"]

    def test_coalesced_request_records_join_span(self, tmp_path):
        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(
            jobs=1, metrics=db_path, batch_window=0.05, start=False
        )
        request = {"loop": FIG2, "registers": 16}
        with trace.activate(trace.new_trace()):
            service.submit(dict(request))
        with trace.activate(trace.new_trace()):
            service.submit(dict(request))  # coalesces onto the first
        service.start()
        service.drain()
        service.close()
        with MetricsDB(db_path) as db:
            names = [s["name"] for s in db.spans()]
        assert "service.coalesce" in names

    def test_memo_hit_records_marker_span(self, tmp_path):
        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(jobs=1, metrics=db_path)
        request = {"loop": FIG2, "registers": 16}
        service.compile(dict(request))  # computed: fills the memo
        # a hit traced through the transport (the active context) ...
        context = trace.new_trace()
        assert handle_line(service, json.dumps({
            "op": "compile", "id": 1, "request": request,
            "trace": context.to_wire(),
        }))["ok"]
        # ... and one carrying its context in the request mapping
        wired = trace.new_trace()
        service.compile({**request, "trace": wired.to_wire()})
        service.close()
        with MetricsDB(db_path) as db:
            spans = db.spans(trace_id=context.trace_id)
            wired_spans = db.spans(trace_id=wired.trace_id)
        assert service.stats()["service"]["answered"] == 2
        names = {s["name"] for s in spans}
        assert "service.memo" in names and "server.compile" in names
        # the hit never queued, batched or compiled
        assert not names & {"service.queue", "service.batch", "compile"}
        (marker,) = [s for s in spans if s["name"] == "service.memo"]
        assert marker["dur_ms"] == 0.0 and marker["layer"] == "service"
        assert [s["name"] for s in wired_spans] == ["service.memo"]
        assert wired_spans[0]["parent_id"] == wired.span_id

    def test_untraced_requests_record_nothing(self, tmp_path):
        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(jobs=1, metrics=db_path)
        result = service.compile({"loop": FIG2, "registers": 16})
        assert result.converged
        service.close()
        with MetricsDB(db_path) as db:
            assert db.spans() == []

    def test_drain_flushes_final_interval(self, tmp_path):
        # satellite (b): a SIGTERM'd shard keeps its last spans because
        # drain() flushes metrics + spans before the pool dies
        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(jobs=1, metrics=db_path)
        context = trace.new_trace()
        request = {"loop": FIG2, "registers": 16,
                   "trace": context.to_wire()}
        service.compile(request)
        service.drain()  # what the SIGTERM handler runs — no close yet
        with MetricsDB(db_path) as db:
            spans = db.spans()
        assert spans and {s["trace_id"] for s in spans} == {
            context.trace_id
        }
        service.close()


    def test_routed_cells_flush_before_shutdown(self, tmp_path):
        # a daemon serving only ``sweep --connect`` cells has no compile
        # dispatch turning; each cell batch gives the recorder its chance
        from repro.eval.engine import cell_to_wire, workload_cells
        from repro.machine.specs import resolve_machine
        from repro.workloads import perfect_club_like_suite

        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(
            jobs=1, metrics=MetricsRecorder(db=db_path, flush_interval=0.0)
        )
        cells = workload_cells(
            "ideal", perfect_club_like_suite(size=2),
            resolve_machine("P2L4"), budget=32,
        )
        context = trace.new_trace()
        with trace.activate(context):
            service.evaluate_cells([cell_to_wire(cell) for cell in cells])
        try:
            with MetricsDB(db_path) as db:
                names = {s["name"] for s in db.spans()}
            assert "service.cells" in names
        finally:
            service.close()


# ======================================================================
class TestHTTPTransport:
    @pytest.fixture
    def http_daemon(self, tmp_path):
        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(jobs=1, metrics=db_path)
        server = CompileHTTPServer(0, service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            yield service, f"http://127.0.0.1:{server.port}", db_path
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_metrics_endpoint_is_valid_prometheus(self, http_daemon):
        service, base, _ = http_daemon
        service.compile({"loop": FIG2, "registers": 16})
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
            assert r.status == 200
            assert r.headers["Content-Type"].startswith("text/plain")
            body = r.read().decode("utf-8")
        samples = parse_text(body)
        assert samples["repro_requests_total"] >= 1.0
        assert "repro_jobs" in samples
        assert any(
            key.startswith("repro_latency_milliseconds_bucket{")
            for key in samples
        )

    def test_worker_span_drops_are_exported(self, http_daemon):
        # a pool worker whose buffer overflows returns its drop count
        # with its results; /metrics and /stats report that one counter
        from repro import pool

        service, base, _ = http_daemon
        pool.shutdown_pool()  # fresh workers that can import this module
        try:
            assert list(pool.imap_resilient(
                _record_spans, [SPAN_BUFFER_CAP + 7], jobs=2
            )) == [SPAN_BUFFER_CAP + 7]
        finally:
            pool.shutdown_pool()
        assert trace.dropped_count() == 7
        assert trace.span_count() == SPAN_BUFFER_CAP
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
            samples = parse_text(r.read().decode("utf-8"))
        assert samples["repro_trace_spans_dropped_total"] == 7.0
        with urllib.request.urlopen(f"{base}/stats", timeout=10) as r:
            stats = json.loads(r.read().decode("utf-8"))
        assert stats["metrics"]["spans"]["dropped"] == 7

    def test_trace_header_propagates(self, http_daemon):
        service, base, db_path = http_daemon
        context = trace.new_trace()
        payload = json.dumps(
            {"loop": FIG2, "registers": 16}
        ).encode("utf-8")
        request = urllib.request.Request(
            f"{base}/compile", data=payload,
            headers={
                "Content-Type": "application/json",
                "X-Repro-Trace": json.dumps(context.to_wire()),
            },
        )
        with urllib.request.urlopen(request, timeout=30) as r:
            assert r.status == 200
        service.drain()
        with MetricsDB(db_path) as db:
            spans = db.spans(trace_id=context.trace_id)
        assert any(s["name"] == "server.compile" for s in spans)


# ======================================================================
class TestPrometheusText:
    def test_render_and_parse_round_trip(self):
        text = render_prometheus(
            {"requests": 3, "errors": 0},
            gauges={"queued": 1.5},
            histograms={"compile": {
                "buckets": {1.0: 2, 5.0: 1, float("inf"): 0},
                "sum_ms": 6.5, "count": 3,
            }},
        )
        samples = parse_text(text)
        assert samples["repro_requests_total"] == 3.0
        assert samples["repro_errors_total"] == 0.0
        assert samples["repro_queued"] == 1.5
        buckets = {
            key: value for key, value in samples.items()
            if key.startswith("repro_latency_milliseconds_bucket")
        }
        # cumulative: the +Inf bucket equals the count
        assert [v for k, v in buckets.items() if 'le="+Inf"' in k] == [3.0]
        assert 3.0 in buckets.values() and 2.0 in buckets.values()
        count_key = next(
            key for key in samples
            if key.startswith("repro_latency_milliseconds_count")
        )
        assert 'op="compile"' in count_key
        assert samples[count_key] == 3.0

    def test_parse_rejects_malformed(self):
        for bad in (
            "no_prefix 1\nrepro_x banana\n",
            "repro_x{le=1} 2\n",          # unquoted label value
            "repro_x 1\nrepro_x 2\n",      # duplicate sample
        ):
            with pytest.raises(ValueError):
                parse_text(bad)

    def test_metric_names_sanitized(self):
        text = render_prometheus({"cache.hits": 2})
        assert parse_text(text) == {"repro_cache_hits_total": 2.0}


# ======================================================================
class TestMetricsDBv2:
    def test_span_round_trip_preserves_attrs(self, tmp_path):
        path = str(tmp_path / "m.sqlite")
        context = trace.new_trace()
        span = {
            "ts": 123.0, "trace_id": context.trace_id,
            "span_id": "abc", "parent_id": None,
            "name": "compile", "layer": "worker", "dur_ms": 1.5,
            "attrs": {"loop": "x", "phases": {"schedule": 1.4}},
        }
        with MetricsDB(path) as db:
            db.record_spans([span])
            (loaded,) = db.spans()
        assert loaded == span

    def test_span_queries(self, tmp_path):
        path = str(tmp_path / "m.sqlite")
        with MetricsDB(path) as db:
            db.record_spans([
                {"ts": float(index), "trace_id": f"t{index % 2}",
                 "span_id": f"s{index}", "parent_id": None,
                 "name": "x", "layer": "worker" if index % 2 else "phase",
                 "dur_ms": 0.0, "attrs": {}}
                for index in range(6)
            ])
            assert db.span_layers() == {"phase": 3, "worker": 3}
            assert db.trace_ids() == ["t0", "t1"]
            assert len(db.spans(trace_id="t0")) == 3
            assert len(db.spans(layer="phase")) == 3
            assert len(db.spans(limit=2)) == 2

    def test_v1_file_migrates_in_place(self, tmp_path):
        path = str(tmp_path / "m.sqlite")
        connection = sqlite3.connect(path)
        connection.executescript("""
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE counters (ts REAL, name TEXT, value INTEGER);
            CREATE TABLE latencies (ts REAL, op TEXT, le_ms REAL,
                                    count INTEGER);
            INSERT INTO meta VALUES ('schema', 'repro.metrics/1');
            INSERT INTO counters VALUES (1.0, 'requests', 7);
        """)
        connection.commit()
        connection.close()
        with MetricsDB(path) as db:
            assert db.counter_totals() == {"requests": 7}  # kept
            db.record_spans([
                {"ts": 2.0, "trace_id": "t", "span_id": "s",
                 "parent_id": None, "name": "x", "layer": "client",
                 "dur_ms": 0.0, "attrs": {}}
            ])
            assert len(db.spans()) == 1
        connection = sqlite3.connect(path)
        (stamp,) = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()
        connection.close()
        assert stamp == "repro.metrics/2"

    def test_prune_older_than(self, tmp_path):
        path = str(tmp_path / "m.sqlite")
        with MetricsDB(path) as db:
            db.record({"requests": 1}, {})
            db.record_spans([
                {"ts": time.time() - 10 * 86400, "trace_id": "old",
                 "span_id": "s1", "parent_id": None, "name": "x",
                 "layer": "client", "dur_ms": 0.0, "attrs": {}},
                {"ts": time.time(), "trace_id": "new", "span_id": "s2",
                 "parent_id": None, "name": "x", "layer": "client",
                 "dur_ms": 0.0, "attrs": {}},
            ])
            cutoff = time.time() - 7 * 86400
            preview = db.prune_older_than(cutoff, dry_run=True)
            assert preview["spans"] == 1
            assert len(db.spans()) == 2  # dry run deleted nothing
            victims = db.prune_older_than(cutoff)
            assert victims["spans"] == 1
            remaining = db.spans()
            assert [s["trace_id"] for s in remaining] == ["new"]
            assert db.counter_totals() == {"requests": 1}


# ======================================================================
class TestRecorderDegradation:
    def _span(self, index=0):
        return {"ts": float(index), "trace_id": "t", "span_id": f"s{index}",
                "parent_id": None, "name": "x", "layer": "client",
                "dur_ms": 0.0, "attrs": {}}

    def test_put_io_fault_degrades_then_recovers(self, tmp_path):
        recorder = MetricsRecorder(str(tmp_path / "m.sqlite"))
        recorder.count("requests", 2)
        recorder.observe("compile", 0.001)
        trace.add_spans([self._span()])
        faults.install("metrics.put_io")
        recorder.flush()  # swallowed: degrade, don't raise
        assert recorder.degraded
        assert recorder.write_errors == 1
        summary = recorder.summary()
        assert summary["spans"]["pending"] == 1
        faults.install(None)
        recorder.flush()
        assert not recorder.degraded
        assert recorder.db.counter_totals()["requests"] == 2
        assert len(recorder.db.spans()) == 1
        recorder.close()

    def test_db_locked_fault_degrades(self, tmp_path):
        recorder = MetricsRecorder(str(tmp_path / "m.sqlite"))
        recorder.count("requests", 1)
        faults.install("metrics.db_locked")
        recorder.flush()
        assert recorder.degraded
        faults.install(None)
        recorder.flush()
        assert recorder.db.counter_totals()["requests"] == 1
        recorder.close()

    def test_degraded_service_still_serves(self, tmp_path):
        # the ISSUE's headline guarantee: a metrics outage costs
        # telemetry, not compile requests
        db_path = str(tmp_path / "metrics.sqlite")
        service = CompileService(jobs=1, metrics=db_path)
        faults.install("metrics.put_io:every=1")
        result = service.compile({"loop": FIG2, "registers": 16})
        assert result.converged
        service.metrics.flush()
        assert service.metrics.degraded
        faults.install(None)
        service.close()  # final flush now succeeds
        with MetricsDB(db_path) as db:
            assert db.counter_totals().get("requests") == 1



# ======================================================================
class TestClusterFailoverTrace:
    def test_failover_keeps_one_trace_id(self, tmp_path):
        # satellite (d): a routed request that fails over appears as
        # ONE trace with the fail-over hop recorded
        shards = [
            start_tcp_daemon(metrics=str(tmp_path / f"shard{i}.sqlite"))
            for i in range(2)
        ]
        addresses = [address for _, _, address in shards]
        cluster = ClusterClient(addresses, retries=0)
        trace.enable(True)
        try:
            # find a request whose primary is shard 0, then kill shard 0
            request = None
            for index in range(200):
                candidate = {
                    "loop": f"f{index}[i] = g{index}[i]*a + f{index}[i-2]",
                    "registers": 12,
                }
                primary = cluster.ring.node_for(
                    cluster.shard_key(candidate)
                )
                if primary == addresses[0]:
                    request = candidate
                    break
            assert request is not None
            stop_tcp_daemon(shards[0][0], shards[0][1])
            result = cluster.compile_many([request])[0]
            assert result.converged
            assert cluster.failovers == 1
        finally:
            cluster.close()
            stop_tcp_daemon(shards[1][0], shards[1][1])
        # both shards run in THIS process, so the surviving shard's
        # periodic span flush may have persisted client-side spans from
        # the shared buffer — merge what's left locally with both DBs
        spans = trace.drain_spans()
        for index in range(2):
            with MetricsDB(str(tmp_path / f"shard{index}.sqlite")) as db:
                spans.extend(db.spans())
        client_spans = [s for s in spans if s["layer"] == "client"]
        trace_ids = {span["trace_id"] for span in client_spans}
        assert len(trace_ids) == 1  # one logical request, one trace
        failover = next(
            s for s in client_spans if s["name"] == "cluster.failover"
        )
        route = next(
            s for s in client_spans if s["name"] == "cluster.route"
        )
        assert failover["attrs"]["shard"] == addresses[0]
        assert failover["attrs"]["hop"] == 0
        assert route["attrs"]["shard"] == addresses[1]
        assert route["attrs"]["hops"] == 1
        # the surviving shard recorded server-side spans of the SAME trace
        (trace_id,) = trace_ids
        assert any(
            s["name"] == "server.compile_many"
            and s["trace_id"] == trace_id
            for s in spans
        )

    def test_routed_trace_results_byte_identical(self, tmp_path):
        service, server, address = start_tcp_daemon(
            metrics=str(tmp_path / "shard.sqlite")
        )
        try:
            with TCPClient("127.0.0.1", server.port) as client:
                untraced = client.compile(FIG2, registers=16)
                trace.enable(True)
                traced = client.compile(FIG2, registers=16)
        finally:
            stop_tcp_daemon(service, server)
        assert traced.to_json_text() == untraced.to_json_text()


# ======================================================================
class TestTraceReport:
    def _spans(self):
        root = trace.new_trace()
        child = root.child()
        return [
            {"ts": 1.0, "trace_id": root.trace_id,
             "span_id": root.span_id, "parent_id": None,
             "name": "client.compile", "layer": "client",
             "dur_ms": 10.0, "attrs": {}},
            {"ts": 1.1, "trace_id": child.trace_id,
             "span_id": child.span_id, "parent_id": child.parent_id,
             "name": "compile", "layer": "worker", "dur_ms": 8.0,
             "attrs": {"phases": {"drive": 0.3, "schedule": 7.5}}},
        ]

    def test_render_show_tree_and_prefix(self):
        spans = self._spans()
        text = trace_report.render_show(spans)
        assert "client.compile" in text
        assert "  compile" in text  # nested under the client span
        # each phase is a line nested under its span
        assert "\n      schedule [phase] 7.500ms" in text
        assert "phases=" not in text
        prefix = spans[0]["trace_id"][:6]
        assert "client.compile" in trace_report.render_show(
            spans, trace_id=prefix
        )
        assert "no spans recorded" in trace_report.render_show(
            spans, trace_id="zzzzzz"
        )

    def test_phase_consistency_within_10_percent(self):
        rows = trace_report.phase_consistency(self._spans())
        assert len(rows) == 1
        assert rows[0]["phase_ms"] == 7.8
        assert abs(rows[0]["ratio"] - 1.0) <= 0.1

    def test_phase_breakdown_aggregates_the_attribute(self):
        breakdown = trace_report.phase_breakdown(self._spans())
        assert breakdown["schedule"] == {
            "count": 1, "total_ms": 7.5, "mean_ms": 7.5, "max_ms": 7.5,
        }
        assert set(breakdown) == {"drive", "schedule"}

    def test_export_schema_and_determinism(self):
        spans = self._spans()
        document = trace_report.export_document(spans)
        assert document["schema"] == "repro.trace/2"
        assert len(document["traces"]) == 1
        assert trace_report.export_text(
            list(reversed(spans))
        ) == trace_report.export_text(spans)


# ======================================================================
class TestTraceCLI:
    def _seed_db(self, tmp_path):
        from repro.cli import main

        db_path = str(tmp_path / "trace.sqlite")
        response_memo().clear()  # an answered request would not queue
        service = CompileService(jobs=1, metrics=db_path)
        context = trace.new_trace()
        line = json.dumps({
            "op": "compile", "id": 1,
            "request": {"loop": FIG2, "registers": 16},
            "trace": context.to_wire(),
        })
        assert handle_line(service, line)["ok"]
        service.close()
        return main, db_path

    def test_show_top_slow_and_json(self, tmp_path, capsys):
        main, db_path = self._seed_db(tmp_path)
        assert main(["trace", "show", "--metrics", db_path]) == 0
        shown = capsys.readouterr().out
        assert "service.queue" in shown and "[phase]" in shown
        assert main(["trace", "top", "--metrics", db_path]) == 0
        top = capsys.readouterr().out
        # process-level memos may serve the schedule, but the "drive"
        # root phase always accounts for the compile's wall time
        assert "drive" in top and "layers:" in top
        assert main(["trace", "slow", "--metrics", db_path,
                     "--layer", "worker", "--limit", "3"]) == 0
        assert main(["trace", "show", "--metrics", db_path,
                     "--json"]) == 0
        capsys.readouterr()  # drop the slow output
        # re-run json alone to capture it cleanly
        assert main(["trace", "top", "--metrics", db_path,
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.trace/2"
        assert set(document["layers"]) == {"server", "service", "worker"}
        assert "drive" in document["phases"]

    def test_missing_database_is_an_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no metrics database"):
            main(["trace", "top", "--metrics",
                  str(tmp_path / "absent.sqlite")])
        with pytest.raises(SystemExit, match="pass --metrics"):
            main(["trace", "top"])

    def test_cluster_stats_prune_cli(self, tmp_path, capsys, monkeypatch):
        import time

        main, db_path = self._seed_db(tmp_path)
        assert main(["cluster", "stats", "--prune-older-than", "7",
                     "--dry-run", "--metrics", db_path]) == 0
        assert "dry run" in capsys.readouterr().out
        # The 0.0000001-day cutoff is 8.64 ms: advance the clock the CLI
        # reads by a minute so every span just written is older than it.
        later = time.time() + 60.0
        with monkeypatch.context() as patch:
            patch.setattr(time, "time", lambda: later)
            assert main(["cluster", "stats", "--prune-older-than",
                         "0.0000001", "--metrics", db_path]) == 0
        assert "pruned" in capsys.readouterr().out
        with MetricsDB(db_path) as db:
            assert db.spans() == []

    def test_sweep_trace_flag_byte_identity(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.cli import main

        untraced = tmp_path / "untraced.json"
        traced = tmp_path / "traced.json"
        trace_db = tmp_path / "trace.sqlite"
        base = ["sweep", "--size", "2", "--budgets", "32",
                "--artifacts", "table1", "--machines", "P2L4"]
        assert main(base + ["--json-out", str(untraced)]) == 0
        assert main(base + ["--json-out", str(traced),
                            "--trace", str(trace_db)]) == 0
        capsys.readouterr()
        assert traced.read_bytes() == untraced.read_bytes()
        with MetricsDB(str(trace_db)) as db:
            layers = db.span_layers()
        assert set(layers) == {"worker"}

    def test_sweep_trace_is_lossless_and_jobs_invariant(self, tmp_path,
                                                        capsys):
        # one span per cell and per compile, each cell carrying its
        # phases, none dropped; pool workers return theirs with their
        # results, so --jobs 2 records the same spans as --jobs 1
        from collections import Counter

        from repro.cli import main

        counts = []
        for jobs in (1, 2):
            trace.reset()
            trace_db = tmp_path / f"trace{jobs}.sqlite"
            sweep_json = tmp_path / f"sweep{jobs}.json"
            assert main([
                "sweep", "--size", "10", "--machines", "P2L4",
                "--budgets", "32", "--artifacts", "table1", "fig8",
                "--jobs", str(jobs), "--trace", str(trace_db),
                "--json-out", str(sweep_json),
            ]) == 0
            assert trace.dropped_count() == 0
            cells = len(json.loads(sweep_json.read_text())["cells"])
            with MetricsDB(str(trace_db)) as db:
                spans = db.spans()
            count = Counter((s["layer"], s["name"]) for s in spans)
            assert count[("worker", "cell")] == cells
            assert len(spans) == cells + count[("worker", "compile")]
            assert all(
                "phases" in s["attrs"] for s in spans if s["name"] == "cell"
            )
            counts.append(count)
        capsys.readouterr()
        assert counts[0] == counts[1]

    def test_sweep_trace_reports_dropped_spans(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main
        from repro.trace import context as trace_context

        monkeypatch.setenv(trace.ENV_VAR, "0")  # restored after the test
        monkeypatch.setattr(trace_context, "SPAN_BUFFER_CAP", 2)
        trace_db = tmp_path / "trace.sqlite"
        assert main(["sweep", "--size", "2", "--budgets", "32",
                     "--artifacts", "table1", "--machines", "P2L4",
                     "--trace", str(trace_db)]) == 0
        dropped = trace.dropped_count()
        assert dropped > 0
        captured = capsys.readouterr()
        assert (f"the 2-span buffer dropped {dropped} span(s)"
                in captured.err)
        assert "dropped" not in captured.out
        with MetricsDB(str(trace_db)) as db:
            assert len(db.spans()) == 2
