"""The sharded-cluster client: consistent-hash routing + fail-over.

:class:`ClusterClient` fronts N ``repro serve`` daemons (the TCP line
protocol, usually token-authenticated) as one compilation service:

* every compile request is routed by its **cache identity** — the
  :meth:`repro.api.Pipeline.request_key` the daemons coalesce and
  memoize on — so one key range always lands on one shard
  and that shard's warm pool, in-memory memos and persistent store stay
  hot for it;
* experiment-engine cells route by their ``(loop, machine, scheduler)``
  identity instead of the full key: every budget and variant of one
  loop shares the ideal-schedule memo, so keeping them on one shard is
  worth more than spreading them (a deliberate deviation from the
  per-request key);
* when a shard is unreachable the request fails over to the next node
  in ring order (:meth:`repro.cluster.ring.HashRing.route`) — the same
  successor every client computes — and the dead shard is skipped for
  ``down_ttl`` seconds, after which the next routed request re-probes
  it (fail-fast, no retries) and a recovered shard rejoins the ring
  without a client restart;
* a per-call ``deadline_ms`` propagates across fail-over hops: each hop
  gets only the remaining budget, and an exhausted budget surfaces as
  :class:`repro.client.ServerTimeout` instead of another hop.

Results are byte-identical to in-process compilation: daemons serve the
deterministic service shape, and cell payloads are JSON-exact scalars.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import CompilationResult, Pipeline
from repro.client import (
    ClientError,
    RetriesExhausted,
    ServerTimeout,
    _BaseClient,
    connect,
    is_transient_error,
)
from repro.faults import plan as faults
from repro.cluster.ring import HashRing
from repro.sched.cache import CacheStats
from repro.trace import context as trace_context

__all__ = ["ClusterClient", "parse_addresses"]


def parse_addresses(value) -> list[str]:
    """``"a:1,b:2"`` (or an iterable) → the endpoint list."""
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",")]
    else:
        parts = [str(part).strip() for part in value]
    addresses = [part for part in parts if part]
    if not addresses:
        raise ValueError("no cluster addresses given")
    return addresses


class ClusterClient(_BaseClient):
    """One logical compilation service over N sharded daemons."""

    transport = "cluster"

    def __init__(
        self,
        addresses,
        token: str | None = None,
        timeout: float = 120.0,
        retries: int = 3,
        replicas: int = 64,
        down_ttl: float = 10.0,
    ) -> None:
        super().__init__()
        self.ring = HashRing(parse_addresses(addresses), replicas=replicas)
        self.token = token
        self.timeout = timeout
        self.retries = retries
        self.down_ttl = down_ttl
        # routing keys are the daemons' own Pipeline.request_key
        # (default pipeline, no cache side effects beyond parsing)
        self._pipeline = Pipeline()
        self._lock = threading.Lock()
        self._clients: dict[str, object] = {}
        self._client_locks = {
            address: threading.Lock() for address in self.ring.nodes
        }
        # address → monotonic timestamp of the down verdict; an entry
        # older than down_ttl makes the shard a re-probe candidate
        self._down: dict[str, float] = {}
        self.routed = {address: 0 for address in self.ring.nodes}
        self.failovers = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # routing keys
    def shard_key(self, request: dict) -> str:
        """The routing key of one compile-request mapping: its full
        cache identity (what the shard's memo/store/coalescing key on),
        so equal requests always meet on the same shard."""
        key, _ = self._pipeline.request_key(request)
        return "|".join(str(part) for part in key)

    @staticmethod
    def cell_key(cell) -> str:
        """The routing key of one engine cell: loop + machine +
        scheduler only — every budget/variant of a loop shares its
        shard's ideal-schedule memo."""
        return f"{cell.workload}|{cell.machine}|{cell.scheduler}"

    # ------------------------------------------------------------------
    # connections + fail-over
    def _client(self, address: str, probe: bool = False):
        with self._lock:
            client = self._clients.get(address)
        if client is not None:
            return client
        client = connect(
            address, fallback=False, timeout=self.timeout,
            retries=0 if probe else self.retries, token=self.token,
        )
        with self._lock:
            existing = self._clients.setdefault(address, client)
        if existing is not client:
            client.close()
        return existing

    def _drop(self, address: str) -> None:
        with self._lock:
            client = self._clients.pop(address, None)
            self._down[address] = time.monotonic()
            if len(self._down) >= len(self.ring):
                # the whole ring looks dead: forget the verdicts and let
                # the next request probe everything again
                self._down.clear()
        if client is not None:
            client.close()

    def _failover_eligible(self, error: BaseException) -> bool:
        """Transient errors fail over; so does an exhausted connect
        retry budget (the shard is down — a sibling may not be).
        Deterministic failures (auth, protocol, compile errors, missed
        deadlines) propagate."""
        return is_transient_error(error) or isinstance(
            error, RetriesExhausted
        )

    def _call_routed(self, key: str, call):
        """Run ``call(client)`` on *key*'s primary shard, failing over
        along the ring on transient errors.  Deterministic failures
        (auth, protocol, compile errors) propagate immediately.

        A shard marked down is skipped until its verdict is
        :attr:`down_ttl` seconds old; then it becomes a candidate again
        and is re-probed fail-fast (``retries=0``) — success counts as
        a recovery and clears the verdict."""
        route = self.ring.route(key)
        now = time.monotonic()
        candidates: list[str] = []
        probes: set[str] = set()
        for address in route:
            stamp = self._down.get(address)
            if stamp is None:
                candidates.append(address)
            elif now - stamp >= self.down_ttl:
                candidates.append(address)
                probes.add(address)
        if not candidates:
            candidates = list(route)
        # One trace for the whole routed call, however many fail-over
        # hops it takes: every hop activates the same root context with
        # its hop index stamped in, so the shard-side server spans (and
        # everything under them) share one trace_id and record which
        # hop served them.
        root = None
        if trace_context.enabled():
            parent = trace_context.current()
            root = (
                parent.child() if parent is not None
                else trace_context.new_trace()
            )
        started = time.perf_counter()
        last_error: Exception | None = None
        for position, address in enumerate(candidates):
            try:
                if faults.enabled() and faults.fire(
                    "cluster.shard_error"
                ) is not None:
                    raise ClientError(
                        "server unreachable: injected shard fault"
                    )
                client = self._client(address, probe=address in probes)
                with self._client_locks[address]:
                    if root is not None:
                        with trace_context.activate(
                            root.with_hop(position)
                        ):
                            result = call(client)
                    else:
                        result = call(client)
            except Exception as error:
                if not self._failover_eligible(error):
                    raise
                last_error = error
                if root is not None:
                    trace_context.record_span(
                        "cluster.failover", "client", 0.0,
                        context=root.with_hop(position).child(),
                        attrs={"shard": address, "hop": position},
                    )
                self._drop(address)
                continue
            with self._lock:
                self.routed[address] += 1
                if position > 0:
                    self.failovers += 1
                if address in self._down:
                    del self._down[address]
                    self.recoveries += 1
            if root is not None:
                trace_context.record_span(
                    "cluster.route", "client",
                    (time.perf_counter() - started) * 1000.0,
                    context=root.with_hop(position),
                    attrs={"shard": address, "hops": position},
                )
            return result
        raise ClientError(
            f"no cluster shard reachable for key {key[:40]!r}..."
        ) from last_error

    # ------------------------------------------------------------------
    # the compile surface
    @staticmethod
    def _deadline_limit(deadline_ms: float | None) -> float | None:
        """The absolute monotonic deadline for one routed call, fixed
        once so every fail-over hop spends from the same budget."""
        if deadline_ms is None or deadline_ms <= 0:
            return None
        return time.monotonic() + deadline_ms / 1000.0

    @staticmethod
    def _remaining_ms(limit: float | None, address: str) -> float | None:
        if limit is None:
            return None
        remaining = (limit - time.monotonic()) * 1000.0
        if remaining <= 0:
            raise ServerTimeout(
                "cluster deadline exhausted before dispatch to "
                f"{address}"
            )
        return remaining

    def compile_request(
        self, request: dict, deadline_ms: float | None = None
    ) -> CompilationResult:
        key = self.shard_key(request)
        limit = self._deadline_limit(deadline_ms)

        def call(client):
            return client.compile_request(
                request,
                deadline_ms=self._remaining_ms(
                    limit, getattr(client, "address", "shard")
                ),
            )

        return self._call_routed(key, call)

    def compile_many(
        self, requests, deadline_ms: float | None = None
    ) -> list[CompilationResult]:
        """Scatter a batch across the shards (grouped by routing key),
        gather back in request order.  *deadline_ms* bounds each
        routed group call, fail-over hops included."""
        requests = list(requests)
        limit = self._deadline_limit(deadline_ms)
        keys = [self.shard_key(request) for request in requests]
        groups: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(self.ring.node_for(key), []).append(index)
        results: list = [None] * len(requests)

        def run_group(indexes: list[int]):
            batch = [requests[i] for i in indexes]
            return self._call_routed(
                keys[indexes[0]],
                lambda client: client.compile_many(
                    batch,
                    deadline_ms=self._remaining_ms(
                        limit, getattr(client, "address", "shard")
                    ),
                ),
            )

        with ThreadPoolExecutor(max_workers=max(1, len(groups))) as pool:
            futures = {
                pool.submit(run_group, indexes): indexes
                for indexes in groups.values()
            }
            for future, indexes in futures.items():
                for index, result in zip(indexes, future.result()):
                    results[index] = result
        return results

    # ------------------------------------------------------------------
    # the engine surface
    def run_cells(self, cells) -> tuple[list, "CacheStats"]:
        """Evaluate engine cells across the shards: grouped by
        :meth:`cell_key`, scattered in parallel, gathered as
        :class:`repro.eval.engine.CellResult` objects in the engine's
        deterministic order, plus the summed remote cache movement."""
        from repro.eval.engine import Cell, CellResult, cell_to_wire

        ordered = sorted(cells, key=Cell.sort_key)
        groups: dict[str, list] = {}
        for cell in ordered:
            shard = self.ring.node_for(self.cell_key(cell))
            groups.setdefault(shard, []).append(cell)

        def run_group(group_cells):
            documents = [cell_to_wire(cell) for cell in group_cells]
            key = self.cell_key(group_cells[0])
            data_list, cache = self._call_routed(
                key,
                lambda client: client.evaluate_cells(documents),
            )
            return group_cells, data_list, cache

        by_cell: dict = {}
        total = CacheStats()
        with ThreadPoolExecutor(max_workers=max(1, len(groups))) as pool:
            outcomes = pool.map(run_group, groups.values())
            for group_cells, data_list, cache in outcomes:
                for cell, data in zip(group_cells, data_list):
                    by_cell[cell] = data
                total.add(CacheStats(**cache))
        results = [
            CellResult(cell=cell, data=by_cell[cell]) for cell in ordered
        ]
        return results, total

    # ------------------------------------------------------------------
    # telemetry + lifecycle
    def stats(self) -> dict:
        """Per-shard ``/stats`` documents plus a cluster aggregate
        (summed service counters + client-side routing telemetry)."""
        shards: dict[str, dict] = {}
        totals: dict[str, int] = {}
        for address in self.ring.nodes:
            try:
                document = self._client(address).stats()
            except Exception as error:
                shards[address] = {"error": str(error)}
                continue
            shards[address] = document
            for name, value in (document.get("service") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    totals[name] = totals.get(name, 0) + value
        with self._lock:
            now = time.monotonic()
            routing = {
                "routed": dict(self.routed),
                "failovers": self.failovers,
                "recoveries": self.recoveries,
                "down": sorted(self._down),
                "down_ttl": self.down_ttl,
                "probing": sorted(
                    address
                    for address, stamp in self._down.items()
                    if now - stamp >= self.down_ttl
                ),
            }
        return {
            "schema": "repro.cluster-stats/1",
            "nodes": list(self.ring.nodes),
            "shards": shards,
            "cluster": {"service": dict(sorted(totals.items()))},
            "routing": routing,
        }

    def healthz(self) -> dict:
        """Liveness of every shard (never raises)."""
        health = {}
        for address in self.ring.nodes:
            try:
                health[address] = self._client(address).healthz()
            except Exception as error:
                health[address] = {"status": "unreachable",
                                   "error": str(error)}
        return health

    def shutdown(self) -> None:
        """Stop every shard daemon."""
        for address in self.ring.nodes:
            try:
                self._client(address).shutdown()
            except Exception:
                pass

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()
