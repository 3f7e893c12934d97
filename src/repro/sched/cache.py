"""Memoization of MII, schedules, spill runs and register reports.

The evaluation sweeps the same loops across machine configurations,
register budgets and heuristic variants, and the spilling driver needs
the MII of the (mutating) working graph on every round.  All of these
are pure functions of content, so this module caches them.  Keys start
from content hashes: :func:`ddg_fingerprint` (the graph *name* is
excluded, so equal graphs share entries; cached per ``ddg.revision``),
:func:`machine_key` and :func:`scheduler_key`.

One :class:`Memo` class does the caching, one instance per store
namespace:

* ``mii`` — ``(fingerprint, machine)`` → MII, so MII is computed at
  most once per graph mutation however many times a round asks.
* ``schedule`` (:class:`ScheduleMemo`) — ``(fingerprint, machine,
  scheduler, min_ii, max_ii)`` or ``(..., "at", ii)`` → a search or
  single-II attempt.  Failed searches re-raise their
  :class:`~repro.sched.base.ScheduleError`.  In-memory entries are
  revalidated against their graph's current fingerprint, so a mutated
  graph can never leak a stale schedule.
* ``spill`` (:class:`DriverMemo`) — ``(fingerprint, machine, scheduler,
  budget, options)`` → a whole spilling-driver run, copied out on every
  hit: ``fig9`` and the combined method run that driver back to back.
* ``alloc`` (:class:`AllocMemo`) — ``(schedule fingerprint, machine,
  exact)`` → the :class:`~repro.lifetimes.requirements.RegisterReport`
  the drivers re-measure across II restarts and register budgets.
* ``response`` (a :class:`DriverMemo`) — ``(loop name,
  *compile_request_key, verify)`` → a service-shaped
  :class:`~repro.api.CompilationResult`, so the compile service answers
  a repeated request without queueing it.

Memory is per process; every miss reads through (and every computation
writes through) the optional **persistent store** of
:mod:`repro.sched.store`, a directory shared by every process pointed
at it.  :func:`disabled` bypasses memos and store alike — the benchmark
harness uses that to time the uncached seed behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import operator
from dataclasses import dataclass, fields, replace

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

    ``<namespace>_hits``/``_misses`` count :meth:`Memo.get` lookups;
    ``alloc_hits`` also counts hits of the schedule-instance memo in
    :func:`repro.lifetimes.requirements.register_requirements`.
    ``store_hits``/``store_misses`` count *disk* lookups against the
    persistent :mod:`repro.sched.store` layer; they only move when a
    store is active, and only on in-memory memo misses.
    """

    mii_hits: int = 0
    mii_misses: int = 0
    schedule_hits: int = 0
    schedule_misses: int = 0
    spill_hits: int = 0
    spill_misses: int = 0
    alloc_hits: int = 0
    alloc_misses: int = 0
    response_hits: int = 0
    response_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters."""
        return CacheStats(*_counts(self))

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Counter movement since the *before* snapshot."""
        return CacheStats(*map(operator.sub, _counts(self), _counts(before)))

    def add(self, other: "CacheStats") -> None:
        """Accumulate *other* into this instance (engine aggregation)."""
        totals = map(operator.add, _counts(self), _counts(other))
        for name, total in zip(_COUNTERS, totals):
            setattr(self, name, total)

    def as_dict(self) -> dict:
        """The counters as a plain dict (telemetry output)."""
        return dict(zip(_COUNTERS, _counts(self)))


_COUNTERS = tuple(counter.name for counter in fields(CacheStats))
_counts = operator.attrgetter(*_COUNTERS)

STATS = CacheStats()

_enabled = True


def caching_enabled() -> bool:
    """Whether the memos (and the persistent store behind them) are on;
    ``False`` only inside a :func:`disabled` block."""
    return _enabled


def _persistent_store(store=None):
    """*store*, else the active :class:`repro.sched.store.ScheduleStore`;
    ``None`` when there is neither or caching is disabled."""
    if not _enabled:
        return None
    return store if store is not None else _store_mod.active_store()


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
    for memo in _MEMOS:
        memo.clear()
    _graph_index.clear_cache()
    for name in _COUNTERS:
        setattr(STATS, name, 0)


# ----------------------------------------------------------------------
# the memo
class Memo:
    """A bounded in-process memo over one persistent-store namespace.

    :meth:`get` checks memory, reads through the active store on a miss
    and installs what it finds there; :meth:`put` installs in memory and
    writes through to the store.  Memory holds at most
    :data:`_MAX_ENTRIES` entries and evicts the oldest first.  Every
    :meth:`get` counts ``STATS.<namespace>_hits`` or ``_misses`` once.

    A store value that is not a *kind* reads as a miss, and an in-memory
    entry :meth:`_fresh` rejects is looked up in the store again.
    ``None`` is never a value: it means absent.

    Both methods take an optional *store* that replaces the active one
    for this call: the compile service reads through its pipeline's
    store from transport threads, where swapping the process-wide
    active store would race the dispatcher.
    """

    def __init__(self, namespace: str, kind: type = object):
        self.namespace = namespace
        self._kind = kind
        self._hits = f"{namespace}_hits"
        self._misses = f"{namespace}_misses"
        self._entries: dict[tuple, object] = {}

    def clear(self) -> None:
        """Drop every in-memory entry (persistent-store files stay)."""
        self._entries.clear()

    def _fresh(self, key: tuple, value) -> bool:
        """Whether an in-memory *value* may still be served."""
        return True

    def get(self, key: tuple, store=None):
        """The value for *key*, or None (counted as a miss)."""
        value = self._entries.get(key)
        if value is None or not self._fresh(key, value):
            value = None
            store = _persistent_store(store)
            if store is not None:
                value = store.get(self.namespace, key)
                if value is None:
                    STATS.store_misses += 1
                else:
                    STATS.store_hits += 1
            if value is None or not isinstance(value, self._kind):
                setattr(STATS, self._misses, getattr(STATS, self._misses) + 1)
                return None
            self._install(key, value)
        setattr(STATS, self._hits, getattr(STATS, self._hits) + 1)
        return value

    def put(self, key: tuple, value, store=None) -> None:
        """Record a freshly computed *value* in memory and in the store."""
        self._install(key, value)
        store = _persistent_store(store)
        if store is not None:
            store.put(self.namespace, key, value)

    def _install(self, key: tuple, value) -> None:
        if len(self._entries) >= _MAX_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value


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
_MII_MEMO = Memo("mii", kind=int)


def cached_mii(ddg: DDG, machine: MachineConfig) -> int:
    """``compute_mii`` memoized on ``(graph content, machine)``, read
    through the persistent store when one is active."""
    if not _enabled:
        with phase("mii"):
            return compute_mii(ddg, machine)
    key = (ddg_fingerprint(ddg), machine_key(machine))
    mii = _MII_MEMO.get(key)
    if mii is None:
        with phase("mii"):
            mii = compute_mii(ddg, machine)
        _MII_MEMO.put(key, mii)
    return mii


# ----------------------------------------------------------------------
# schedules
@dataclass
class _MemoEntry:
    ddg: DDG
    fingerprint: str
    schedule: object | None  # Schedule on success
    error: str | None        # ScheduleError message on failure


class ScheduleMemo(Memo):
    """Memo for II searches (``ModuloScheduler.schedule``) and single-II
    attempts (``try_schedule_at``) in the ``schedule`` namespace."""

    def __init__(self) -> None:
        super().__init__("schedule", kind=_MemoEntry)

    def _fresh(self, key: tuple, entry: _MemoEntry) -> bool:
        """Whether an in-memory entry's graph still has the content
        *key* names.  Store entries skip this: they are freshly
        unpickled objects no caller has ever held."""
        return ddg_fingerprint(entry.ddg) == key[0]

    def schedule(
        self,
        scheduler,
        ddg: DDG,
        machine: MachineConfig,
        min_ii: int | None = None,
        max_ii: int | None = None,
    ):
        """Like ``scheduler.schedule(...)`` but memoized; failed searches
        re-raise their :class:`~repro.sched.base.ScheduleError`.  On a
        hit the returned schedule may be built on a different,
        content-identical DDG instance."""
        return self._lookup(
            scheduler, ddg, machine, (min_ii, max_ii),
            lambda: scheduler.schedule(
                ddg, machine, min_ii=min_ii, max_ii=max_ii
            ),
        )

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
        return self._lookup(
            scheduler, ddg, machine, ("at", ii),
            lambda: scheduler.try_schedule_at(ddg, machine, ii),
        )

    def _lookup(self, scheduler, ddg: DDG, machine: MachineConfig,
                tail: tuple, compute):
        if not _enabled:
            with phase("schedule"):
                return compute()
        key = (
            ddg_fingerprint(ddg),
            machine_key(machine),
            scheduler_key(scheduler),
            *tail,
        )
        entry = self.get(key)
        if entry is None:
            # Imported off the hit path: repro.sched.base imports this
            # module, and an import statement costs on every call.
            from repro.sched.base import ScheduleError

            try:
                with phase("schedule"):
                    schedule = compute()
            except ScheduleError as error:
                self.put(key, _MemoEntry(ddg, key[0], None, str(error)))
                raise
            # Pickling snapshots the graph/schedule content as of now —
            # later caller-side mutation cannot reach the disk entry.
            self.put(key, _MemoEntry(ddg, key[0], schedule, None))
            return schedule
        if entry.error is not None:
            from repro.sched.base import ScheduleError

            raise ScheduleError(entry.error)
        return entry.schedule


_SCHEDULE_MEMO = ScheduleMemo()


def schedule_memo() -> ScheduleMemo:
    """The process-wide schedule memo (one per engine worker)."""
    return _SCHEDULE_MEMO


# ----------------------------------------------------------------------
# driver runs (whole spilling-driver outcomes)
class DriverMemo(Memo):
    """Copy-out memo for whole driver runs (the ``spill`` namespace) and
    whole served responses (the ``response`` namespace).

    The combined method re-runs the identical spilling driver the plain
    ``fig9`` cell just ran; memoizing at the driver level removes that
    back-to-back recomputation.  Unlike :class:`ScheduleMemo`, entries
    here are *privately owned copies* stored by the caller (callers can
    never mutate them), and keys hold the input graph's content
    fingerprint — so entries cannot go stale and need no revalidation.

    The stored value is the spilling driver's
    :class:`~repro.core.registry.StrategyOutcome` or the compile
    service's :class:`~repro.api.CompilationResult`; the caller supplies
    a ``copy`` callable when reading so every hit hands out a fresh,
    caller-owned value.  An entry the persistent store cannot unpickle
    (one written by a driver with another result type) reads as a miss.
    """

    def get(self, key: tuple, copy, store=None):
        """The memoized value for *key* (copied via *copy*), or None."""
        entry = super().get(key, store)
        return None if entry is None else copy(entry)


_SPILL_MEMO = DriverMemo("spill")


def spill_memo() -> DriverMemo:
    """The process-wide spilling-driver memo (one per engine worker)."""
    return _SPILL_MEMO


_RESPONSE_MEMO = DriverMemo("response")


def response_memo() -> DriverMemo:
    """The process-wide served-response memo, filled and read by
    :class:`repro.server.service.CompileService` (never by
    :class:`repro.api.Pipeline`, which stays the un-memoized reference
    served documents are compared against)."""
    return _RESPONSE_MEMO


# ----------------------------------------------------------------------
# register-requirement measurements (lifetimes + MaxLive + allocation)
class AllocMemo(Memo):
    """Memo for :class:`~repro.lifetimes.requirements.RegisterReport`
    measurements in the ``alloc`` namespace, keyed by ``(schedule
    fingerprint, machine, exact)``.

    The spilling and II-increase drivers re-measure the same schedules
    across II restarts, register budgets and back-to-back strategies
    (``combined`` after ``fig9``); a report is a pure function of
    schedule content, so the measurement is shared process-wide and —
    through the store — across processes.  Reports are frozen
    dataclasses: hits hand out the entry itself, no copy."""


_ALLOC_MEMO = AllocMemo("alloc")


def alloc_memo() -> AllocMemo:
    """The process-wide register-requirement memo (one per worker)."""
    return _ALLOC_MEMO


_MEMOS = (
    _MII_MEMO, _SCHEDULE_MEMO, _SPILL_MEMO, _ALLOC_MEMO, _RESPONSE_MEMO,
)
