"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` with timers.  A wrapper replaces every module attribute bound
to the original function, so call sites that did ``from ... import f``
are covered too; methods are replaced on their class.  Spans stay in
memory (one list per thread) and are written out once, at the end.

A span's self time is its duration minus the durations of the spans
nested directly inside it on the same thread, so the self times of all
layers add up to the traced wall time without double counting.

The in-program ``repro.trace`` stays off: nothing here turns it on.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter

# (layer, module, attribute) — module-level functions.  Every module
# attribute bound to the function is replaced.
FUNCTIONS = (
    ("graph.build", "repro.graph.builder", "ddg_from_source"),
    ("graph.index", "repro.graph.index", "get_index"),
    ("sched.mii", "repro.sched.mii", "compute_mii"),
    ("lifetimes.requirements", "repro.lifetimes.requirements",
     "register_requirements"),
    ("core.spill", "repro.core.spill", "apply_spill"),
    ("engine.cell", "repro.eval.engine", "evaluate_cell"),
    ("api.compile", "repro.api", "compile_loop"),
)

# (layer, module, class, method) — methods, replaced on the class.
METHODS = (
    ("cache.lookup", "repro.sched.cache", "ScheduleMemo", "schedule"),
    ("cache.lookup", "repro.sched.cache", "ScheduleMemo", "try_at"),
    ("cache.lookup", "repro.sched.cache", "DriverMemo", "get"),
    ("cache.lookup", "repro.sched.cache", "AllocMemo", "get"),
    ("store.get", "repro.sched.store", "ScheduleStore", "get"),
    ("store.put", "repro.sched.store", "ScheduleStore", "put"),
    ("api.compile", "repro.api", "Pipeline", "compile_many"),
    ("cluster.route", "repro.cluster.client", "ClusterClient",
     "compile_request"),
    ("client.shard", "repro.client", "TCPClient", "compile_request"),
)

# Register-pressure strategies that count as the core driver layer.
DRIVER_STRATEGIES = ("spill", "increase", "combined")

# Scheduler classes whose single-II attempt is counted (Swing inherits
# the HRMS attempt, so counting on HRMSScheduler covers it).
ATTEMPT_CLASSES = (
    ("repro.sched.hrms", "HRMSScheduler"),
    ("repro.sched.ims", "IMSScheduler"),
)


def _scheduler_layer(scheduler) -> str:
    return f"sched.{scheduler.name.lower()}.schedule"


class Tracer:
    """Records nested layer spans per thread; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    def _records(self) -> list:
        records = getattr(self._local, "records", None)
        if records is None:
            records = self._local.records = []
            self._local.stack = []
            with self._lock:
                self._threads.append(records)
        return records

    def wrap(self, layer, fn):
        """*fn* timed as a span of *layer* (a name, or a callable that
        maps the first argument to a name)."""
        local = self._local
        records_for = self._records
        clock = time.perf_counter

        def traced(*args, **kwargs):
            records = records_for()
            stack = local.stack
            frame = [0.0]  # time spent in nested spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                name = layer(args[0]) if callable(layer) else layer
                records.append((name, start, end, duration - frame[0]))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_attempts(self, fn):
        counts = self.counts
        lock = self._lock

        def counted(scheduler, ddg, machine, ii, effort):
            before = effort.placements
            times = fn(scheduler, ddg, machine, ii, effort)
            with lock:
                counts["sched.attempts"] += 1
                counts["sched.placements"] += effort.placements - before
                if times is not None:
                    counts["sched.attempts_ok"] += 1
            return times

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed entry point (imports the modules first)."""
        import importlib

        for module_name in {entry[1] for entry in FUNCTIONS + METHODS}:
            importlib.import_module(module_name)
        for layer, module_name, attribute in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            self._rebind(original, self.wrap(layer, original))
        for layer, module_name, class_name, method in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            setattr(cls, method, self.wrap(layer, getattr(cls, method)))
        from repro.sched.base import ModuloScheduler

        for method in ("schedule", "try_schedule_at"):
            setattr(
                ModuloScheduler, method,
                self.wrap(_scheduler_layer, getattr(ModuloScheduler, method)),
            )
        for module_name, class_name in ATTEMPT_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, "_attempt", self._count_attempts(cls._attempt))
        from repro.core import registry

        for name in DRIVER_STRATEGIES:
            registry._STRATEGIES[name] = self.wrap(
                "core.driver", registry._STRATEGIES[name]
            )

    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)

    # ------------------------------------------------------------------
    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        return [record for records in threads for record in records]

    def summary(self) -> dict:
        """Per-layer self seconds, total seconds and call counts, plus
        the counted scheduler attempts."""
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, own in self.spans():
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
        }

    def write(self, path: str) -> None:
        """Write every span (one JSON line each) after the summary line."""
        with open(path, "w") as handle:
            handle.write(json.dumps(self.summary()) + "\n")
            for name, start, end, own in self.spans():
                handle.write(
                    json.dumps([name, round(start, 7), round(end, 7),
                                round(own, 7)]) + "\n"
                )


def read_summary(path: str) -> dict:
    """The summary line of a file written by :meth:`Tracer.write`."""
    with open(path) as handle:
        return json.loads(handle.readline())


def merge(summaries) -> dict:
    """Sum several process summaries (client + daemons)."""
    merged = {"self_s": Counter(), "total_s": Counter(), "calls": Counter(),
              "counts": Counter()}
    for summary in summaries:
        for key in merged:
            merged[key].update(summary.get(key, {}))
    return {key: dict(value) for key, value in merged.items()}
