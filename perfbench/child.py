"""The measured processes of the benchmark.

``run.py`` starts each of these as a fresh process, so in-process memos
start empty and set-up time is measured from process start.  Every mode
prints one JSON result line on stdout.

    child.py sweep  — one ``run_sweep`` pass over the grid (optionally
                      against a warm ``ScheduleStore``), or set-up only
    child.py serve  — two ``repro serve`` daemons, a ``ClusterClient``
                      and a closed loop of one caller, or set-up only
    child.py daemon — ``repro serve`` with the layer tracer installed
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from tracer import Tracer  # noqa: E402

CHILD = os.path.abspath(__file__)
_LISTENING = re.compile(r"listening on tcp://([\d.]+):(\d+)")
#: Wall seconds between two samples of :class:`SpeedProbe`.
PROBE_INTERVAL_S = 0.05


def emit(document: dict) -> None:
    """This process's result: one JSON line on stdout."""
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work() -> int:
    """A fixed slice of interpreter work, ~0.3 ms: the speed probe."""
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        table[i & 63] = i
        total += table.get((i * 7) & 63, 0)
    return total


class SpeedProbe:
    """Times :func:`reference_work` every :data:`PROBE_INTERVAL_S` of
    wall time (on ``SIGALRM``) while the block runs.

    The shared host runs this process up to ~1.6x faster or slower from
    one second to the next, for minutes at a time; the probe's mean
    duration is how slowly the host ran the block."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_work()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(20):  # let the interpreter specialise the loop
            reference_work()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(
            signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.durations:  # a block shorter than one interval
            self._sample()

    @property
    def mean_s(self) -> float:
        return sum(self.durations) / len(self.durations)


def _tracer(path: str | None) -> Tracer | None:
    if not path:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


# ----------------------------------------------------------------------
# sweep
def _computed(cache) -> bool:
    """Whether a cell needed more than the in-process memos: it computed
    something, or read the persistent store."""
    return bool(
        cache.schedule_misses or cache.mii_misses or cache.spill_misses
        or cache.alloc_misses or cache.store_hits or cache.store_misses
    )


def cmd_sweep(args) -> None:
    tracer = _tracer(args.trace_out)
    from repro.eval.engine import run_sweep
    from repro.graph.index import WORK
    from repro.machine.specs import resolve_machine
    from repro.sched.cache import STATS
    from repro.sched.registry import create_scheduler
    from repro.sched.store import ScheduleStore
    from repro.workloads import perfect_club_like_suite

    grid = common.grid(args.size)
    suite = perfect_club_like_suite(size=grid["size"], seed=grid["seed"])
    if args.loops:
        suite = [suite[int(index)] for index in args.loops.split(",")]
    machines = [resolve_machine(spec) for spec in grid["machines"]]
    store = ScheduleStore(args.store) if args.store else None
    ready = time.monotonic()
    if args.setup_only:
        emit({"setup_s": ready - args.spawned})
        return
    work, cache = WORK.snapshot(), STATS.snapshot()
    with SpeedProbe() as probe:
        started = time.perf_counter()
        report = run_sweep(
            suite=suite,
            machines=machines,
            budgets=tuple(grid["budgets"]),
            artifacts=tuple(grid["artifacts"]),
            jobs=1,
            scheduler=create_scheduler(grid["scheduler"]),
            suite_info={"kind": "club", "seed": grid["seed"]},
            cache_dir=store,
            verify=args.verify,
        )
        wall = time.perf_counter() - started
    counts = dict(WORK.delta(work).as_dict(), **STATS.delta(cache).as_dict())
    text = report.to_json_text() + "\n"
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(text)
    rows = report.to_json()["artifacts"]["fig8"]["rows"]
    if tracer is not None:
        tracer.write(args.trace_out)
    emit({
        "setup_s": ready - args.spawned,
        "wall_s": wall,
        "cells": len(report.run.results),
        # per cell, in the engine's deterministic result order
        "cell_ms": [r.seconds * 1000.0 for r in report.run.results],
        "cell_cold": [_computed(r.cache) for r in report.run.results],
        "peak_rss_mb": _peak_rss_mb(),
        "probe_s": probe.mean_s,
        "kernel_cycles": sum(row["cycles"] for row in rows),
        "mem_traffic": sum(row["traffic"] for row in rows),
        "json_sha": hashlib.sha256(text.encode()).hexdigest(),
        "counts": counts,
    })


# ----------------------------------------------------------------------
# serve
def _spawn_daemon(index: int, args) -> tuple[subprocess.Popen, str]:
    log = os.path.join(args.work, f"daemon{index}.log")
    serve_args = ["serve", "--tcp", "127.0.0.1:0", "--token", common.TOKEN]
    if args.trace_daemons:
        spans = os.path.join(args.work, f"daemon{index}.spans")
        command = [sys.executable, CHILD, "daemon", "--trace-out", spans,
                   "--", *serve_args]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    with open(log, "w") as handle:
        process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=handle,
        )
    return process, log


def _await_address(process: subprocess.Popen, log: str) -> str:
    limit = time.monotonic() + 120.0
    while time.monotonic() < limit:
        with open(log) as handle:
            match = _LISTENING.search(handle.read())
        if match:
            return f"{match.group(1)}:{match.group(2)}"
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited early ({process.returncode})")
        time.sleep(0.005)
    raise RuntimeError("daemon did not start listening within 120 s")


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _stop(daemons) -> list[int | None]:
    """SIGTERM every daemon and wait; a daemon that does not drain in
    time is killed and reported with exit code ``None``."""
    codes = []
    for process, _ in daemons:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process, _ in daemons:
        try:
            codes.append(process.wait(timeout=60))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            codes.append(None)
    return codes


def cmd_serve(args) -> None:
    tracer = _tracer(args.trace_out)
    daemons = [_spawn_daemon(i, args) for i in range(common.SERVE["shards"])]
    try:
        result = _serve_session(args, daemons)
        # the sum: the ring hashes ephemeral ports, so the split of keys
        # (and of memory) between the two daemons changes per session
        result["peak_rss_mb"] = sum(
            _vm_hwm_mb(process.pid) for process, _ in daemons
        )
    finally:
        codes = _stop(daemons)
    result["daemon_exit"] = codes
    if tracer is not None:
        tracer.write(args.trace_out)
    emit(result)


def _serve_session(args, daemons) -> dict:
    from repro.cluster import ClusterClient
    from repro.workloads import perfect_club_like_suite

    suite = perfect_club_like_suite(
        size=common.serve_suite_size(args.size),
        seed=common.SERVE["suite_seed"],
    )
    addresses = [_await_address(process, log) for process, log in daemons]
    cluster = ClusterClient(addresses, token=common.TOKEN)
    try:
        health = cluster.healthz()
        unhealthy = [a for a, h in health.items() if h.get("status") != "ok"]
        if unhealthy:
            raise RuntimeError(f"daemons not healthy: {unhealthy}")
        ready = time.monotonic()
        if args.setup_only:
            return {"setup_s": ready - args.spawned}
        return dict(
            _closed_loop(args, cluster, suite),
            setup_s=ready - args.spawned,
            stats=list(cluster.stats()["shards"].values()),
            failovers=cluster.failovers,
        )
    finally:
        cluster.close()


def _closed_loop(args, cluster, suite) -> dict:
    """One caller: each request is sent when the previous one returned."""
    stream = common.request_stream(
        args.seed, [(w.name, w.source) for w in suite], args.requests
    )
    seen: dict[tuple, dict] = {}
    warm, cold, errors = [], [], []
    inconsistent = 0

    def record(request, result) -> None:
        nonlocal inconsistent
        text = result.to_json_text()
        entry = seen.get(common.request_key(request))
        if entry is None:
            seen[common.request_key(request)] = {
                "request": request, "doc": text, "count": 1,
            }
        else:
            entry["count"] += 1
            inconsistent += entry["doc"] != text

    keys_sent: set[tuple] = set()
    served = []
    started = time.perf_counter()
    for request in stream:
        key = common.request_key(request)
        first = key not in keys_sent
        keys_sent.add(key)
        began = time.perf_counter()
        try:
            result = cluster.compile_request(dict(request))
        except Exception as error:  # counted as a failed request
            errors.append(f"{type(error).__name__}: {error}")
            continue
        elapsed_ms = (time.perf_counter() - began) * 1000.0
        (cold if first else warm).append(elapsed_ms)
        served.append((request, result))
    wall = time.perf_counter() - started
    for request, result in served:
        record(request, result)

    # the schedule quality of served code: every loop of the suite at
    # the probe budget, through the same cluster (untimed)
    kernel_cycles = mem_traffic = 0
    for workload in suite:
        request = {
            "loop": workload.source,
            "name": workload.name,
            "registers": common.SERVE["probe_registers"],
            "scheduler": common.SERVE["probe_scheduler"],
        }
        try:
            result = cluster.compile_request(dict(request))
        except Exception as error:
            errors.append(f"probe {type(error).__name__}: {error}")
            continue
        record(request, result)
        if result.ii is not None:
            kernel_cycles += (
                (workload.weight + result.stage_count - 1) * result.ii
            )
        mem_traffic += result.memory_ops * workload.weight
    with open(args.docs_out, "w") as handle:
        for entry in seen.values():
            handle.write(json.dumps(entry) + "\n")
    return {
        "wall_s": wall,
        "requests": len(stream),
        "probes": len(suite),
        "errors": errors,
        "inconsistent": inconsistent,
        "warm_ms": warm,
        "cold_ms": cold,
        "kernel_cycles": kernel_cycles,
        "mem_traffic": mem_traffic,
    }


# ----------------------------------------------------------------------
# traced daemon
def cmd_daemon(args) -> int:
    tracer = _tracer(args.trace_out)
    from repro.cli import main

    code = main(args.serve_args[1:] if args.serve_args[:1] == ["--"]
                else args.serve_args)
    tracer.write(args.trace_out)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    sweep = sub.add_parser("sweep")
    sweep.add_argument("--size", default="full")
    sweep.add_argument("--spawned", type=float, required=True)
    sweep.add_argument("--store", default="")
    sweep.add_argument("--json-out", default="")
    sweep.add_argument("--trace-out", default="")
    sweep.add_argument("--loops", default="")
    sweep.add_argument("--verify", action="store_true")
    sweep.add_argument("--setup-only", action="store_true")

    serve = sub.add_parser("serve")
    serve.add_argument("--size", default="full")
    serve.add_argument("--spawned", type=float, required=True)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--requests", type=int, default=0)
    serve.add_argument("--work", required=True)
    serve.add_argument("--docs-out", default=os.devnull)
    serve.add_argument("--trace-out", default="")
    serve.add_argument("--trace-daemons", action="store_true")
    serve.add_argument("--setup-only", action="store_true")

    daemon = sub.add_parser("daemon")
    daemon.add_argument("--trace-out", required=True)
    daemon.add_argument("serve_args", nargs=argparse.REMAINDER)

    args = parser.parse_args()
    if args.mode == "sweep":
        cmd_sweep(args)
    elif args.mode == "serve":
        cmd_serve(args)
    else:
        return cmd_daemon(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
