"""Memoization of MII and schedule results.

The evaluation sweeps the same loops across machine configurations,
register budgets and heuristic variants, and the spilling driver needs
the MII of the (mutating) working graph on every round.  Both are pure
functions of graph content, so this module caches them:

* **fingerprint** — a content hash of a :class:`~repro.graph.ddg.DDG`
  (nodes, edges, invariants, live-outs; the graph *name* is excluded so
  equal graphs share cache entries).  The hash itself is cached on the
  instance and recomputed only when ``ddg.revision`` changed.
* **MII cache** — ``(fingerprint, machine)`` → MII.  Combined with the
  revision-guarded fingerprint this makes MII computation happen at most
  once per graph mutation, however many times a round asks for it.
* **schedule memo** — ``(fingerprint, machine, scheduler, min_ii,
  max_ii)`` → the scheduled result.  Failed searches are cached too and
  re-raise the original :class:`~repro.sched.base.ScheduleError`.  A hit
  may return a :class:`~repro.sched.schedule.Schedule` built on a
  *different* (content-identical) DDG instance; entries are revalidated
  against the stored graph's current fingerprint, so a mutated graph can
  never leak a stale schedule.
* **driver memo** — ``(fingerprint, machine, scheduler, budget,
  options)`` → a whole spilling-driver run.  ``fig9`` and the combined
  method run the identical spilling driver back to back; the second run
  is a copy-out instead of a recomputation.
* **allocation memo** — ``(schedule fingerprint, machine, exact)`` →
  the lifetime/MaxLive/allocation measurement
  (:class:`~repro.lifetimes.requirements.RegisterReport`).  The spill
  and II-increase drivers re-measure the same schedule content across
  II restarts and register budgets; a report is a pure function of
  (schedule, machine), so restarts stop recomputing unchanged analyses.

The in-process memos are per-process, but every memo miss reads through
(and every computation writes through) the optional **persistent
store** of :mod:`repro.sched.store` — a disk directory shared by every
process pointed at it, so engine workers and repeated sweeps reuse each
other's schedules.  :func:`disabled` bypasses everything, memos and
store alike — the benchmark harness uses that to time the uncached seed
behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, replace

from repro.graph import index as _graph_index
from repro.graph.ddg import DDG
from repro.machine.machine import MachineConfig
from repro.sched import store as _store_mod
from repro.sched.mii import compute_mii
from repro.trace.profile import phase

_MAX_ENTRIES = 4096


@dataclass
class CacheStats:
    """Hit/miss accounting, reported by the experiment engine.

    ``store_hits``/``store_misses`` count *disk* lookups against the
    persistent :mod:`repro.sched.store` layer; they only move when a
    store is active, and only on in-memory memo misses (an in-memory hit
    never consults the disk).

    ``alloc_hits``/``alloc_misses`` count the lifetime/allocation memo
    of :func:`repro.lifetimes.requirements.register_requirements`: a hit
    is served from the schedule-instance memo, the process-wide
    :class:`AllocMemo` or the persistent store; a miss runs the full
    lifetime analysis + rotating-file allocation.
    """

    mii_hits: int = 0
    mii_misses: int = 0
    schedule_hits: int = 0
    schedule_misses: int = 0
    spill_hits: int = 0
    spill_misses: int = 0
    alloc_hits: int = 0
    alloc_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters."""
        return CacheStats(
            self.mii_hits, self.mii_misses,
            self.schedule_hits, self.schedule_misses,
            self.spill_hits, self.spill_misses,
            self.alloc_hits, self.alloc_misses,
            self.store_hits, self.store_misses,
        )

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Counter movement since the *before* snapshot."""
        return CacheStats(
            self.mii_hits - before.mii_hits,
            self.mii_misses - before.mii_misses,
            self.schedule_hits - before.schedule_hits,
            self.schedule_misses - before.schedule_misses,
            self.spill_hits - before.spill_hits,
            self.spill_misses - before.spill_misses,
            self.alloc_hits - before.alloc_hits,
            self.alloc_misses - before.alloc_misses,
            self.store_hits - before.store_hits,
            self.store_misses - before.store_misses,
        )

    def add(self, other: "CacheStats") -> None:
        """Accumulate *other* into this instance (engine aggregation)."""
        self.mii_hits += other.mii_hits
        self.mii_misses += other.mii_misses
        self.schedule_hits += other.schedule_hits
        self.schedule_misses += other.schedule_misses
        self.spill_hits += other.spill_hits
        self.spill_misses += other.spill_misses
        self.alloc_hits += other.alloc_hits
        self.alloc_misses += other.alloc_misses
        self.store_hits += other.store_hits
        self.store_misses += other.store_misses

    def as_dict(self) -> dict:
        """The counters as a plain dict (telemetry output)."""
        return {
            "mii_hits": self.mii_hits,
            "mii_misses": self.mii_misses,
            "schedule_hits": self.schedule_hits,
            "schedule_misses": self.schedule_misses,
            "spill_hits": self.spill_hits,
            "spill_misses": self.spill_misses,
            "alloc_hits": self.alloc_hits,
            "alloc_misses": self.alloc_misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
        }


STATS = CacheStats()

_enabled = True
_mii_cache: dict[tuple[str, str], int] = {}


def caching_enabled() -> bool:
    """Whether the memos (and the persistent store behind them) are on;
    ``False`` only inside a :func:`disabled` block."""
    return _enabled


def _persistent_store():
    """The active :class:`repro.sched.store.ScheduleStore`, or ``None``
    (no store configured, or caching disabled)."""
    if not _enabled:
        return None
    return _store_mod.active_store()


def _store_get(namespace: str, key: tuple):
    """Read-through lookup against the persistent store; counts a
    store hit/miss only when a store is active."""
    store = _persistent_store()
    if store is None:
        return None
    value = store.get(namespace, key)
    if value is None:
        STATS.store_misses += 1
    else:
        STATS.store_hits += 1
    return value


def _store_put(namespace: str, key: tuple, value) -> None:
    """Write-through to the persistent store, if one is active."""
    store = _persistent_store()
    if store is not None:
        store.put(namespace, key, value)


@contextlib.contextmanager
def disabled():
    """Bypass every cache inside the block (seed-behaviour baseline).

    The flag is **process-local**: it does not reach experiment-engine
    worker processes.  ``run_cells`` therefore refuses the worker pool
    and evaluates serially while caching is disabled, so an "uncached"
    timing never silently measures cached (or pool-frozen) behaviour.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def clear() -> None:
    """Drop all *in-memory* entries and reset the hit/miss counters.
    The persistent store (if any) keeps its files — use
    :meth:`repro.sched.store.ScheduleStore.clear` for that."""
    _mii_cache.clear()
    _SCHEDULE_MEMO.clear()
    _SPILL_MEMO.clear()
    _ALLOC_MEMO.clear()
    _graph_index.clear_cache()
    STATS.mii_hits = STATS.mii_misses = 0
    STATS.schedule_hits = STATS.schedule_misses = 0
    STATS.spill_hits = STATS.spill_misses = 0
    STATS.alloc_hits = STATS.alloc_misses = 0
    STATS.store_hits = STATS.store_misses = 0


# ----------------------------------------------------------------------
# fingerprints
def ddg_fingerprint(ddg: DDG) -> str:
    """Stable content hash of *ddg*, cached per revision."""
    cached = getattr(ddg, "_fingerprint", None)
    if cached is not None and cached[0] == ddg.revision:
        return cached[1]
    digest = hashlib.sha1()
    for name in sorted(ddg.nodes):
        node = ddg.nodes[name]
        digest.update(
            f"N{name}|{node.opcode.name}|{','.join(node.operands)}"
            f"|{node.mem!r}\n".encode()
        )
    for edge in sorted(
        ddg.edges,
        key=lambda e: (e.src, e.dst, e.kind.value, e.dep.value, e.distance),
    ):
        digest.update(
            f"E{edge.src}>{edge.dst}|{edge.kind.value}|{edge.dep.value}"
            f"|{edge.distance}|{edge.spillable:d}{edge.fused:d}\n".encode()
        )
    for name in sorted(ddg.invariants):
        invariant = ddg.invariants[name]
        digest.update(
            f"I{name}|{','.join(sorted(invariant.consumers))}"
            f"|{invariant.spillable:d}\n".encode()
        )
    digest.update(f"L{','.join(sorted(ddg.live_out))}".encode())
    fingerprint = digest.hexdigest()
    ddg._fingerprint = (ddg.revision, fingerprint)
    return fingerprint


def schedule_fingerprint(schedule) -> str:
    """Stable content hash of a *schedule* — its graph's fingerprint
    plus the II and the (name-sorted) start times — cached on the
    schedule instance and recomputed when the graph's revision moves.
    Two content-identical schedules of content-identical graphs share
    lifetime/MaxLive/allocation results, which is what the
    :class:`AllocMemo` keys on."""
    cached = getattr(schedule, "_fingerprint", None)
    revision = schedule.ddg.revision
    if cached is not None and cached[0] == revision:
        return cached[1]
    digest = hashlib.sha1()
    digest.update(ddg_fingerprint(schedule.ddg).encode())
    digest.update(f"|ii={schedule.ii}".encode())
    times = schedule.times
    for name in sorted(times):
        digest.update(f"|{name}={times[name]}".encode())
    fingerprint = digest.hexdigest()
    schedule._fingerprint = (revision, fingerprint)
    return fingerprint


def scheduler_config(scheduler) -> dict:
    """A scheduler's configuration: public instance attributes only.
    Underscore attributes are per-run scratch (e.g. Swing's ``_times``)
    and must not leak into identity."""
    return {
        name: value
        for name, value in vars(scheduler).items()
        if not name.startswith("_")
    }


def scheduler_key(scheduler) -> str:
    """Cache key of a scheduler: its name plus any constructor state
    (e.g. ``IMSScheduler(budget_ratio=...)``), so differently-configured
    instances never share entries."""
    config = ",".join(
        f"{name}={value!r}"
        for name, value in sorted(scheduler_config(scheduler).items())
    )
    return f"{scheduler.name}|{config}"


def machine_key(machine: MachineConfig) -> str:
    """Cache key of a machine configuration (content, not just the name,
    so two different ``generic:U:L`` instances never collide).  Machines
    are frozen, so the key is computed once per instance."""
    cached = getattr(machine, "_cache_key", None)
    if cached is not None:
        return cached
    counts = ",".join(
        f"{fu.value}={machine.fu_counts[fu]}"
        for fu in sorted(machine.fu_counts, key=lambda f: f.value)
    )
    latencies = ",".join(
        f"{op.name}={machine.latencies[op]}"
        for op in sorted(machine.latencies, key=lambda o: o.name)
    )
    non_pipelined = ",".join(
        sorted(fu.value for fu in machine.non_pipelined)
    )
    key = (
        f"{machine.name}|{counts}|{latencies}|{non_pipelined}"
        f"|{machine.generic:d}"
    )
    object.__setattr__(machine, "_cache_key", key)
    return key


def compile_request_key(
    ddg: DDG,
    machine: MachineConfig,
    scheduler,
    strategy: str,
    registers: int | None,
    options: dict | None,
) -> tuple:
    """The identity of one whole compile request — the same key material
    the memo/store layers use (graph content fingerprint, machine,
    scheduler configuration), extended with the strategy, budget and
    options that select the driver.  Two requests with equal keys are
    guaranteed the same :class:`~repro.api.CompilationResult` document,
    which is what the server's in-flight request coalescing relies on
    (the loop *name* is part of the result, so callers that care about
    it must key on it separately — fingerprints ignore names)."""
    return (
        ddg_fingerprint(ddg),
        machine_key(machine),
        scheduler_key(scheduler),
        str(strategy).lower(),
        registers,
        repr(sorted((options or {}).items())),
    )


def owned_schedule(schedule):
    """A caller-owned copy of a possibly memo-shared schedule.

    Entry points that may return a memo entry (the spilling driver, the
    II-increase driver, the combined method) must hand out copies:
    results are caller-mutable, memo entries are not, and the staleness
    guard only watches the graph, not ``times``.
    """
    if schedule is None:
        return None
    return replace(
        schedule, ddg=schedule.ddg.copy(), times=dict(schedule.times)
    )


# ----------------------------------------------------------------------
# MII
def cached_mii(ddg: DDG, machine: MachineConfig) -> int:
    """``compute_mii`` memoized on ``(graph content, machine)``, read
    through the persistent store when one is active."""
    if not _enabled:
        with phase("mii"):
            return compute_mii(ddg, machine)
    key = (ddg_fingerprint(ddg), machine_key(machine))
    hit = _mii_cache.get(key)
    if hit is not None:
        STATS.mii_hits += 1
        return hit
    stored = _store_get("mii", key)
    if isinstance(stored, int):
        STATS.mii_hits += 1
        mii = stored
    else:
        STATS.mii_misses += 1
        with phase("mii"):
            mii = compute_mii(ddg, machine)
        _store_put("mii", key, mii)
    if len(_mii_cache) >= _MAX_ENTRIES:
        _mii_cache.pop(next(iter(_mii_cache)))
    _mii_cache[key] = mii
    return mii


# ----------------------------------------------------------------------
# schedules
@dataclass
class _MemoEntry:
    ddg: DDG
    fingerprint: str
    schedule: object | None  # Schedule on success
    error: str | None        # ScheduleError message on failure


class ScheduleMemo:
    """Memo for full II searches (``ModuloScheduler.schedule``)."""

    def __init__(self) -> None:
        self._entries: dict[tuple, _MemoEntry] = {}
        #: This memo's own accounting; the module-wide :data:`STATS`
        #: totals are updated as well.
        self.stats = CacheStats()

    def clear(self) -> None:
        """Drop every in-memory entry (persistent-store files stay)."""
        self._entries.clear()

    def schedule(
        self,
        scheduler,
        ddg: DDG,
        machine: MachineConfig,
        min_ii: int | None = None,
        max_ii: int | None = None,
    ):
        """Like ``scheduler.schedule(...)`` but memoized.  On a hit the
        returned schedule may be built on a different, content-identical
        DDG instance."""
        from repro.sched.base import ScheduleError

        if not _enabled:
            with phase("schedule"):
                return scheduler.schedule(
                    ddg, machine, min_ii=min_ii, max_ii=max_ii
                )
        key = (
            ddg_fingerprint(ddg),
            machine_key(machine),
            scheduler_key(scheduler),
            min_ii,
            max_ii,
        )
        entry = self._entries.get(key)
        if entry is not None and ddg_fingerprint(entry.ddg) == key[0]:
            self.stats.schedule_hits += 1
            STATS.schedule_hits += 1
            if entry.error is not None:
                raise ScheduleError(entry.error)
            return entry.schedule
        stored = _store_get("schedule", key)
        if isinstance(stored, _MemoEntry):
            # A disk entry is a fresh unpickled object: its graph cannot
            # have been mutated by anyone, so no revalidation is needed.
            self.stats.schedule_hits += 1
            STATS.schedule_hits += 1
            self._remember(key, stored, persist=False)
            if stored.error is not None:
                raise ScheduleError(stored.error)
            return stored.schedule
        self.stats.schedule_misses += 1
        STATS.schedule_misses += 1
        try:
            with phase("schedule"):
                schedule = scheduler.schedule(
                    ddg, machine, min_ii=min_ii, max_ii=max_ii
                )
        except ScheduleError as error:
            self._remember(key, _MemoEntry(ddg, key[0], None, str(error)))
            raise
        self._remember(key, _MemoEntry(ddg, key[0], schedule, None))
        return schedule

    def try_at(
        self,
        scheduler,
        ddg: DDG,
        machine: MachineConfig,
        ii: int,
    ):
        """Like ``scheduler.try_schedule_at(ddg, machine, ii)`` but
        memoized; failed attempts cache ``None``.  The II-increase driver
        and the combined method's binary search probe the same
        ``(graph, machine, II)`` points for every register budget — the
        attempt outcome does not depend on the budget, so they share."""
        if not _enabled:
            with phase("schedule"):
                return scheduler.try_schedule_at(ddg, machine, ii)
        key = (
            ddg_fingerprint(ddg),
            machine_key(machine),
            scheduler_key(scheduler),
            "at",
            ii,
        )
        entry = self._entries.get(key)
        if entry is not None and ddg_fingerprint(entry.ddg) == key[0]:
            self.stats.schedule_hits += 1
            STATS.schedule_hits += 1
            return entry.schedule
        stored = _store_get("schedule", key)
        if isinstance(stored, _MemoEntry):
            self.stats.schedule_hits += 1
            STATS.schedule_hits += 1
            self._remember(key, stored, persist=False)
            return stored.schedule
        self.stats.schedule_misses += 1
        STATS.schedule_misses += 1
        with phase("schedule"):
            schedule = scheduler.try_schedule_at(ddg, machine, ii)
        self._remember(key, _MemoEntry(ddg, key[0], schedule, None))
        return schedule

    def _remember(
        self, key: tuple, entry: _MemoEntry, persist: bool = True
    ) -> None:
        if len(self._entries) >= _MAX_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = entry
        if persist:
            # Pickling snapshots the graph/schedule content as of now —
            # later caller-side mutation cannot reach the disk entry.
            _store_put("schedule", key, entry)


_SCHEDULE_MEMO = ScheduleMemo()


def schedule_memo() -> ScheduleMemo:
    """The process-wide schedule memo (one per engine worker)."""
    return _SCHEDULE_MEMO


# ----------------------------------------------------------------------
# driver runs (whole spilling-driver outcomes)
class DriverMemo:
    """Memo for whole driver runs, keyed like the schedule memo.

    The combined method re-runs the identical spilling driver the plain
    ``fig9`` cell just ran; memoizing at the driver level removes that
    back-to-back recomputation.  Unlike :class:`ScheduleMemo`, entries
    here are *privately owned copies* stored by the driver (callers can
    never mutate them), and keys start with the input graph's content
    fingerprint — so entries cannot go stale and need no revalidation.

    The stored value is the spilling driver's
    :class:`~repro.core.registry.StrategyOutcome`; the driver supplies a
    ``copy`` callable when reading so every hit hands out a fresh,
    caller-owned outcome.  An entry the persistent store cannot unpickle
    (one written by a driver with another result type) reads as a miss.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, object] = {}

    def clear(self) -> None:
        """Drop every in-memory entry (persistent-store files stay)."""
        self._entries.clear()

    def get(self, key: tuple, copy):
        """The memoized run for *key* (copied via *copy*), or None.
        In-memory misses read through the persistent store."""
        entry = self._entries.get(key)
        if entry is None:
            entry = _store_get("spill", key)
            if entry is None:
                return None
            self._install(key, entry)
        STATS.spill_hits += 1
        return copy(entry)

    def put(self, key: tuple, value) -> None:
        """Record a freshly computed run (a private copy the caller can
        never reach) in memory and in the persistent store."""
        STATS.spill_misses += 1
        self._install(key, value)
        _store_put("spill", key, value)

    def _install(self, key: tuple, value) -> None:
        if len(self._entries) >= _MAX_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value


_SPILL_MEMO = DriverMemo()


def spill_memo() -> DriverMemo:
    """The process-wide spilling-driver memo (one per engine worker)."""
    return _SPILL_MEMO


# ----------------------------------------------------------------------
# register-requirement measurements (lifetimes + MaxLive + allocation)
class AllocMemo:
    """Memo for :class:`~repro.lifetimes.requirements.RegisterReport`
    measurements, keyed by ``(schedule fingerprint, machine, exact)``.

    The spilling and II-increase drivers re-measure the same schedules
    across II restarts, register budgets and back-to-back strategies
    (``combined`` after ``fig9``); a report is a pure function of
    schedule content, so the measurement is shared process-wide and —
    through the ``"alloc"`` store namespace — across processes.  Reports
    are frozen dataclasses: hits hand out the entry itself, no copy."""

    def __init__(self) -> None:
        self._entries: dict[tuple, object] = {}

    def clear(self) -> None:
        """Drop every in-memory entry (persistent-store files stay)."""
        self._entries.clear()

    def get(self, key: tuple):
        """The memoized report for *key*, or None (counted as a miss).
        In-memory misses read through the persistent store."""
        entry = self._entries.get(key)
        if entry is None:
            entry = _store_get("alloc", key)
            if entry is None:
                STATS.alloc_misses += 1
                return None
            self._install(key, entry)
        STATS.alloc_hits += 1
        return entry

    def put(self, key: tuple, report) -> None:
        """Record a freshly measured report in memory and in the
        persistent store."""
        self._install(key, report)
        _store_put("alloc", key, report)

    def _install(self, key: tuple, value) -> None:
        if len(self._entries) >= _MAX_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value


_ALLOC_MEMO = AllocMemo()


def alloc_memo() -> AllocMemo:
    """The process-wide register-requirement memo (one per worker)."""
    return _ALLOC_MEMO
