"""End-to-end and per-layer benchmark of the compiler and its service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``sweep_cold`` — the default ``repro sweep`` grid in a fresh process
  with empty memos and no store;
* ``sweep_warm`` — the same grid in a fresh process, served from a
  ``ScheduleStore`` populated once per checkout outside the timed region;
* ``serve_zipf`` — one caller in a closed loop through a
  ``ClusterClient`` over two ``repro serve`` daemons, with a seeded Zipf
  request stream.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (plus the tracing overhead against an
untraced run of the same work).  Every run checks its outputs; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  State shared by the runs of one checkout
(the reference sweep JSON, the warm store, the deterministic counts)
lives under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracer as tracer_mod  # noqa: E402

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORKLOADS = ("sweep_cold", "sweep_warm", "serve_zipf")

#: Fresh processes that only set up, per run, on top of the measured ones.
SETUP_PROBES = {"sweep_cold": 4, "sweep_warm": 3, "serve_zipf": 4}
#: Untraced sweep passes per run, at least (see the per-cell minimum).
MIN_PASSES = 2
#: Loops of the grid re-run under the ``repro.verify`` oracle per run.
VERIFY_LOOPS = {"full": 6, "tiny": 2}
#: Served results re-verified by ``verify_result`` per run.
VERIFY_SERVED = {"full": 12, "tiny": 4}
#: No child may outlive this many seconds after the run started.
RUN_LIMIT_S = 170.0

#: Traced counts that must repeat exactly between runs of one code.
TRACED_COUNTS = ("sched.attempts", "sched.attempts_ok", "sched.placements")


class ChildFailed(RuntimeError):
    """A measured process exited non-zero or timed out."""


class Run:
    """One benchmark invocation: its checkout, scratch space, deadline
    and the outcome of every check."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.args = args
        self.size = args.size
        self.started = time.monotonic()
        self.env = common.child_env(root)
        self.state_dir = os.path.join(root, common.WORK_DIR)
        self.work = os.path.join(self.state_dir, f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.digest = _code_digest(root)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # ------------------------------------------------------------------
    def child(self, *arguments: str) -> dict:
        """Run ``child.py`` with *arguments*; its JSON result line."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise ChildFailed("run time limit reached before a child start")
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, CHILD, *arguments, "--spawned", repr(spawned)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise ChildFailed(f"child {arguments[0]} timed out")
        if process.returncode != 0:
            raise ChildFailed(
                f"child {arguments[0]} exited"
                f" {process.returncode}:\n{err[-4000:]}"
            )
        return json.loads(out.strip().splitlines()[-1])

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def fail(self, message: str, operations: int = 1) -> None:
        self.problems.append(message)
        self.failed += operations

    # ------------------------------------------------------------------
    # state shared by the runs of one checkout
    def _session_path(self) -> str:
        return os.path.join(self.state_dir, "session.json")

    def session(self) -> dict:
        try:
            with open(self._session_path()) as handle:
                sessions = json.load(handle)
        except (OSError, ValueError):
            sessions = {}
        return sessions.get(f"{self.digest}|{self.size}", {})

    def save_session(self, record: dict) -> None:
        path = self._session_path()
        try:
            with open(path) as handle:
                sessions = json.load(handle)
        except (OSError, ValueError):
            sessions = {}
        sessions[f"{self.digest}|{self.size}"] = record
        with open(path + ".tmp", "w") as handle:
            json.dump(sessions, handle, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)

    def reference_json(self) -> str:
        return os.path.join(
            self.state_dir, f"reference-{self.digest}-{self.size}.json"
        )

    def check_counts(self, label: str, kind: str, counts: dict) -> None:
        """*counts* must equal what the first run of this code recorded
        under *label*; the first run records them."""
        record = self.session()
        known = record.setdefault(kind, {}).get(label)
        if known is None:
            record[kind][label] = counts
            self.save_session(record)
            return
        differing = sorted(
            name for name in set(known) | set(counts)
            if known.get(name) != counts.get(name)
        )
        for name in differing:
            self.fail(
                f"{label}: count {name} is {counts.get(name)} here but"
                f" {known.get(name)} in an earlier run of this code"
            )


def _code_digest(root: str) -> str:
    """Digest of the program and benchmark sources: session state is
    only shared between runs of identical code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".pyc", ".pyo")):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# sweep workloads
def _cells(path: str) -> list:
    with open(path) as handle:
        return json.load(handle)["cells"]


def _check_sweep_json(run: Run, result: dict, json_path: str) -> None:
    """The pass's sweep JSON must equal the checkout's reference bytes
    (the first pass of this code, cold or warm, sets the reference)."""
    run.attempted += result["cells"]
    reference = run.reference_json()
    record = run.session()
    if "sweep_sha" not in record:
        shutil.copyfile(json_path, reference)
        record["sweep_sha"] = result["json_sha"]
        run.save_session(record)
        return
    if result["json_sha"] == record["sweep_sha"]:
        return
    expected = {_cell_id(c): c for c in _cells(reference)}
    wrong = sum(
        1 for cell in _cells(json_path) if expected.get(_cell_id(cell)) != cell
    )
    run.fail(
        f"sweep JSON differs from the reference ({wrong} cells)",
        max(wrong, 1),
    )


def _cell_id(cell: dict) -> tuple:
    return tuple(
        cell[key] for key in
        ("kind", "workload", "machine", "budget", "variant", "scheduler")
    )


def _verify_sample(run: Run, json_path: str) -> None:
    """Re-run a seeded sample of loops with the ``repro.verify`` oracle
    on every schedule; each cell must equal the measured pass's cell."""
    size = common.grid(run.size)["size"]
    count = min(VERIFY_LOOPS[run.size], size)
    loops = sorted(random.Random(run.args.seed).sample(range(size), count))
    verify_json = run.path("verify.json")
    arguments = ["sweep", "--size", run.size, "--verify",
                 "--loops", ",".join(map(str, loops)),
                 "--json-out", verify_json]
    try:
        run.child(*arguments)
    except ChildFailed as error:
        run.fail(f"oracle sweep failed: {error}", 1)
        return
    measured = {_cell_id(c): c for c in _cells(json_path)}
    verified = _cells(verify_json)
    run.attempted += len(verified)
    wrong = sum(1 for cell in verified if measured.get(_cell_id(cell)) != cell)
    if wrong:
        run.fail(f"{wrong} oracle-verified cells differ from the sweep", wrong)


def _check_anchors(run: Run, result: dict) -> None:
    if run.size != "full":
        return
    for name, anchor in common.ANCHORS.items():
        if result[name] != anchor:
            print(
                f"note: {name} = {result[name]}, anchor {anchor}:"
                " the grid's schedules changed", file=sys.stderr,
            )


def _ensure_store(run: Run) -> str:
    """The checkout's warm store for this code, populated by one
    untimed sweep the first time it is needed."""
    store = os.path.join(run.state_dir, f"store-{run.digest}-{run.size}")
    if os.path.isdir(store):
        return store
    partial = store + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    json_path = run.path("populate.json")
    result = run.child("sweep", "--size", run.size, "--store", partial,
                       "--json-out", json_path)
    _check_sweep_json(run, result, json_path)
    os.replace(partial, store)
    return store


def _sweep_pass(run: Run, index: int, store: str | None,
                traced: bool = False) -> tuple[dict, str]:
    json_path = run.path(f"pass{index}.json")
    arguments = ["sweep", "--size", run.size, "--json-out", json_path]
    if store:
        arguments += ["--store", store]
    if traced:
        arguments += ["--trace-out", run.path(f"pass{index}.spans")]
    result = run.child(*arguments)
    _check_sweep_json(run, result, json_path)
    return result, json_path


def _setup_probes(run: Run, store: str | None) -> list[float]:
    arguments = ["sweep", "--size", run.size, "--setup-only"]
    if store:
        arguments += ["--store", store]
    return [
        run.child(*arguments)["setup_s"]
        for _ in range(SETUP_PROBES[run.args.workload])
    ]


def sweep_workload(run: Run, warm: bool) -> dict:
    label = run.args.workload
    store = _ensure_store(run) if warm else None
    setups = [] if run.args.trace else _setup_probes(run, store)
    passes: list[tuple[dict, str]] = []
    traced: list[dict] = []
    measure_start = time.monotonic()
    while True:
        index = len(passes) + len(traced)
        if run.args.trace and len(passes) > len(traced):
            result, _ = _sweep_pass(run, index, store, traced=True)
            result["summary"] = tracer_mod.read_summary(
                run.path(f"pass{index}.spans")
            )
            traced.append(result)
        else:
            passes.append(_sweep_pass(run, index, store))
            result = passes[-1][0]
        setups.append(result["setup_s"])
        # every WORK and CacheStats count must repeat exactly
        run.check_counts(label, "counts", result["counts"])
        spent = time.monotonic() - measure_start
        last = result["setup_s"] + result["wall_s"]
        enough = traced if run.args.trace else len(passes) >= MIN_PASSES
        if enough and spent + last > run.args.seconds:
            break
    first, first_json = passes[0]
    _verify_sample(run, first_json)
    _check_anchors(run, first)
    if run.args.trace:
        summary = traced[0]["summary"]
        run.check_counts(
            label, "traced",
            {name: summary["counts"].get(name, 0) for name in TRACED_COUNTS},
        )
        overhead = 100.0 * (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r, _ in passes) - 1.0
        )
        return layer_metrics(summary, traced[0]["counts"], overhead)
    results = [result for result, _ in passes]
    if any(r["cell_cold"] != first["cell_cold"] for r in results):
        run.fail(f"{label}: cells split into cold and warm differently")
    # A pass's times are scaled to the reference host speed by its speed
    # probe: the shared host runs a pass up to ~1.6x slower or faster,
    # for minutes at a time, and every timing of the pass moves with it.
    scales = [common.PROBE_REFERENCE_S / r["probe_s"] for r in results]
    # Each cell's time is its median over the passes: collector pauses
    # land in different cells from pass to pass (one cell's time varies
    # 0.5-1.9x) and would otherwise decide the tail.  The pauses still
    # count in ops_per_s.
    cell_ms = [
        statistics.median(times)
        for times in zip(*(
            [ms * scale for ms in r["cell_ms"]]
            for r, scale in zip(results, scales)
        ))
    ]
    warm_ms = [ms for ms, cold in zip(cell_ms, first["cell_cold"]) if not cold]
    cold_ms = [ms for ms, cold in zip(cell_ms, first["cell_cold"]) if cold]
    return end_to_end(
        setups,
        statistics.median(
            r["cells"] / (r["wall_s"] * scale)
            for r, scale in zip(results, scales)
        ),
        warm_ms, cold_ms,
        statistics.median(r["peak_rss_mb"] for r in results),
        first["kernel_cycles"], first["mem_traffic"],
    )


# ----------------------------------------------------------------------
# serve workload
def _serve_session(run: Run, name: str, traced: bool = False) -> dict:
    if run.size == "tiny":
        requests = common.TINY["serve_requests"]
    else:
        requests = round(run.args.seconds * common.SERVE["requests_per_second"])
    arguments = ["serve", "--size", run.size, "--seed", str(run.args.seed),
                 "--requests", str(requests), "--work", run.work,
                 "--docs-out", run.path(f"{name}.docs")]
    if traced:
        arguments += ["--trace-out", run.path(f"{name}.spans"),
                      "--trace-daemons"]
    result = run.child(*arguments)
    run.attempted += result["requests"] + result["probes"]
    for error in result["errors"]:
        run.fail(f"{name}: request failed: {error}")
    if result["inconsistent"]:
        run.fail(
            f"{name}: {result['inconsistent']} served documents differ"
            " from an earlier answer to the same request",
            result["inconsistent"],
        )
    for shard, code in enumerate(result["daemon_exit"]):
        run.attempted += 1
        if code != 0:
            run.fail(f"{name}: daemon {shard} exited {code} on SIGTERM")
    if traced:
        result["summary"] = tracer_mod.merge(
            tracer_mod.read_summary(path) for path in
            [run.path(f"{name}.spans")]
            + [run.path(f"daemon{i}.spans")
               for i in range(common.SERVE["shards"])]
        )
    return result


def _docs(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _check_served(run: Run, docs_path: str) -> None:
    """Every served document must equal the in-process
    ``Pipeline.compile_many`` document for the same request, and a
    seeded sample must pass the independent ``verify_result`` oracle."""
    from repro.api import CompilationResult, Pipeline
    from repro.verify import verify_result

    entries = _docs(docs_path)
    local = Pipeline().compile_many([dict(e["request"]) for e in entries])
    for entry, result in zip(entries, local):
        if result.to_json_text() != entry["doc"]:
            run.fail(
                f"served {common.request_key(entry['request'])} differs"
                " from in-process compilation", entry["count"],
            )
    sample = random.Random(run.args.seed).sample(
        entries, min(VERIFY_SERVED[run.size], len(entries))
    )
    for entry in sample:
        run.attempted += 1
        served = CompilationResult.from_json(json.loads(entry["doc"]))
        report = verify_result(served, loop=entry["request"]["loop"])
        if not report.ok:
            run.fail(
                f"served {common.request_key(entry['request'])} fails the"
                f" oracle: {report.violations[:2]}"
            )


def _server_counts(result: dict) -> dict:
    totals: dict[str, int] = {}
    for document in result["stats"]:
        for group in ("cache", "work"):
            for name, value in document[group].items():
                totals[name] = totals.get(name, 0) + value
    return totals


def serve_workload(run: Run) -> dict:
    if not run.args.trace:
        setups = [
            run.child("serve", "--size", run.size, "--work", run.work,
                      "--setup-only")["setup_s"]
            for _ in range(SETUP_PROBES["serve_zipf"])
        ]
        session = _serve_session(run, "session")
        _check_served(run, run.path("session.docs"))
        setups.append(session["setup_s"])
        return end_to_end(
            setups, session["requests"] / session["wall_s"],
            session["warm_ms"], session["cold_ms"], session["peak_rss_mb"],
            session["kernel_cycles"], session["mem_traffic"],
        )
    plain = _serve_session(run, "plain")
    traced = _serve_session(run, "traced", traced=True)
    _check_served(run, run.path("plain.docs"))
    if _docs(run.path("plain.docs")) != _docs(run.path("traced.docs")):
        run.fail("traced session served different documents")
    # Work counts are not compared between the two sessions: the ring
    # hashes the daemons' ephemeral ports, so which shard's memo serves
    # a loop's other budgets differs from session to session.
    overhead = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    return layer_metrics(
        traced["summary"], _server_counts(traced), overhead,
        stats=traced["stats"], failovers=traced["failovers"],
    )


# ----------------------------------------------------------------------
# metrics
def end_to_end(setups, ops_per_s, warm_ms, cold_ms, rss_mb, cycles,
               traffic) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "warm_ms_p50": percentile(warm_ms, 50),
        "warm_ms_p90": percentile(warm_ms, 90),
        "cold_ms_p50": percentile(cold_ms, 50),
        "cold_ms_p95": percentile(cold_ms, 95),
        "peak_rss_mb": rss_mb,
        "kernel_cycles": cycles,
        "mem_traffic": traffic,
    }


def percentile(values, p: float) -> float:
    """Linear-interpolated *p*-th percentile of *values* (non-empty)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, counts: dict, overhead_pct: float,
                  stats: list | None = None, failovers: int = 0) -> dict:
    """Per-layer self times (seconds, net of nested layers), counts and
    ratios from one traced run; see README.md for what each should move."""
    self_s, total_s = summary["self_s"], summary["total_s"]
    calls, traced = summary["calls"], summary["counts"]

    def hit_ratio(kind: str) -> float:
        hits = counts.get(f"{kind}_hits", 0)
        return _ratio(hits, hits + counts.get(f"{kind}_misses", 0))

    server = {"request_ms_p50": 0.0, "batches": 0, "batch_size_mean": 0.0,
              "coalesced": 0, "shed": 0, "timeouts": 0}
    server_mean_ms = 0.0
    if stats:
        requests = [d["metrics"]["latency"].get("request", {}) for d in stats]
        served = sum(r.get("count", 0) for r in requests)
        server["request_ms_p50"] = _ratio(
            sum(r.get("p50_ms", 0.0) * r.get("count", 0) for r in requests),
            served,
        )
        server_mean_ms = _ratio(
            sum(r.get("mean_ms", 0.0) * r.get("count", 0) for r in requests),
            served,
        )
        for name in ("batches", "coalesced", "shed", "timeouts"):
            server[name] = sum(d["service"][name] for d in stats)
        server["batch_size_mean"] = _ratio(
            sum(d["service"]["compiled"] for d in stats), server["batches"]
        )
    shard_calls = calls.get("client.shard", 0)
    metrics = {
        "graph.build_s": self_s.get("graph.build", 0.0),
        "graph.index_s": self_s.get("graph.index", 0.0),
        "graph.index_builds": counts.get("index_builds", 0),
        "graph.relax_visits": counts.get("relax_visits", 0),
        "sched.hrms.schedule_s": self_s.get("sched.hrms.schedule", 0.0),
        "sched.ims.schedule_s": self_s.get("sched.ims.schedule", 0.0),
        "sched.swing.schedule_s": self_s.get("sched.swing.schedule", 0.0),
        "sched.mii_s": self_s.get("sched.mii", 0.0),
        "sched.attempts": traced.get("sched.attempts", 0),
        "sched.placements": traced.get("sched.placements", 0),
        "sched.mrt_probes": counts.get("mrt_probes", 0),
        "sched.attempt_yield": _ratio(
            traced.get("sched.attempts_ok", 0), traced.get("sched.attempts", 0)
        ),
        "lifetimes.requirements_s": self_s.get("lifetimes.requirements", 0.0),
        "lifetimes.visits": counts.get("lifetime_visits", 0),
        "lifetimes.alloc_probes": counts.get("alloc_probes", 0),
        "core.driver_s": self_s.get("core.driver", 0.0),
        "core.spill_s": self_s.get("core.spill", 0.0),
        "core.spill_rounds": calls.get("core.spill", 0),
        "cache.lookup_s": self_s.get("cache.lookup", 0.0),
        "cache.schedule_hit_ratio": hit_ratio("schedule"),
        "cache.mii_hit_ratio": hit_ratio("mii"),
        "cache.spill_hit_ratio": hit_ratio("spill"),
        "cache.alloc_hit_ratio": hit_ratio("alloc"),
        "store.get_s": self_s.get("store.get", 0.0),
        "store.put_s": self_s.get("store.put", 0.0),
        "store.gets": calls.get("store.get", 0),
        "store.hit_ratio": hit_ratio("store"),
        "engine.cell_s": self_s.get("engine.cell", 0.0),
        "engine.cells": calls.get("engine.cell", 0),
        "api.compile_s": self_s.get("api.compile", 0.0),
        "cluster.route_ms_mean": 1000.0 * _ratio(
            total_s.get("cluster.route", 0.0) - total_s.get("client.shard", 0.0),
            calls.get("cluster.route", 0),
        ),
        "client.wire_ms_mean": (
            1000.0 * _ratio(total_s.get("client.shard", 0.0), shard_calls)
            - server_mean_ms if shard_calls else 0.0
        ),
        "cluster.failovers": failovers,
        "trace.overhead_pct": overhead_pct,
    }
    metrics.update({f"server.{name}": value for name, value in server.items()})
    return metrics


# ----------------------------------------------------------------------
def _metadata(root: str, args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "hash_seed": common.HASH_SEED,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _specs(root: str, trace: int) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    return document["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's handful of loops")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro)",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != common.HASH_SEED:
        # this process compares against in-process compilation, so it
        # needs the same hash seed as every process it starts
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  common.child_env(root))
    sys.path.insert(0, os.path.join(root, "src"))
    specs = _specs(root, args.trace)

    run = Run(root, args)
    try:
        if args.workload == "serve_zipf":
            metrics = serve_workload(run)
        else:
            metrics = sweep_workload(run, warm=args.workload == "sweep_warm")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    names = [spec["name"] for spec in specs]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}"
        )

    metadata = _metadata(root, args)
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    width = max(len(name) for name in names)
    for spec in specs:
        print(f"{spec['name']:<{width}}  {metrics[spec['name']]:.6g}"
              f" {spec['unit']}")
    error_rate = _ratio(run.failed, run.attempted)
    print(f"{'error_rate':<{width}}  {error_rate:.6g}"
          f" ({run.failed} of {run.attempted} operations)")
    print("meta " + json.dumps(metadata, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }
    with open(os.path.join(run.state_dir, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(dict(result, meta=metadata)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
