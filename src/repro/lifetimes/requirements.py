"""Register requirement of a schedule — the quantity every driver in
:mod:`repro.core` compares against the machine's register file.

Two measures, as in the paper:

* ``MaxLive + invariants`` — the fast lower-bound estimate used inside the
  examples and the spill-quantity estimation (Section 4.5);
* the actual rotating-file allocation plus one static register per
  invariant — what Section 5 measures ("we measure the actual register
  requirements after register allocation").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lifetimes.allocator import allocate_arrays
from repro.lifetimes.maxlive import _pattern_from
from repro.sched.schedule import Schedule
from repro.trace.profile import phase


@dataclass(frozen=True)
class RegisterReport:
    """Register demand of one schedule."""

    max_live: int
    allocated: int
    invariants: int
    exact: bool

    @property
    def total(self) -> int:
        """Registers the loop needs on the target machine."""
        return self.allocated + self.invariants

    @property
    def estimate(self) -> int:
        """MaxLive-based lower bound (variants + invariants)."""
        return self.max_live + self.invariants

    def fits(self, available: int) -> bool:
        return self.total <= available


def register_requirements(schedule: Schedule, exact: bool = True) -> RegisterReport:
    """Measure *schedule*'s register demand.

    ``exact=True`` runs the end-fit allocator (the paper's Section 5
    methodology); ``exact=False`` returns the MaxLive approximation in both
    fields (the paper's examples, and much faster).

    Memoized when :func:`~repro.sched.cache.caching_enabled`, counted as
    ``alloc_hits``/``alloc_misses``: first on the schedule instance
    (revision-guarded — the experiment engine hands the same memoized
    schedules to several budgets/artifacts), then in the process-wide
    :class:`~repro.sched.cache.AllocMemo` keyed by schedule content and
    backed by the persistent store.  The instance memo stays because the
    ``AllocMemo`` is a bounded FIFO: it evicts entries live schedules
    still ask for (without it a ``--size 1258`` sweep's alloc misses
    rise from 6141 to 6369, with identical output).
    """
    from repro.sched import cache as sched_cache

    if not sched_cache.caching_enabled():
        return _measure(schedule, exact)

    revision = schedule.ddg.revision
    memo = getattr(schedule, "_requirements_memo", None)
    if memo is not None:
        entry = memo.get(exact)
        if entry is not None and entry[0] == revision:
            sched_cache.STATS.alloc_hits += 1
            return entry[1]
    key = (
        sched_cache.schedule_fingerprint(schedule),
        sched_cache.machine_key(schedule.machine),
        exact,
    )
    report = sched_cache.alloc_memo().get(key)
    if report is None:
        report = _measure(schedule, exact)
        sched_cache.alloc_memo().put(key, report)
    if memo is None:
        memo = {}
        schedule._requirements_memo = memo
    memo[exact] = (revision, report)
    return report


def _measure(schedule: Schedule, exact: bool) -> RegisterReport:
    with phase("lifetimes"):
        return _measure_impl(schedule, exact)


def _measure_impl(schedule: Schedule, exact: bool) -> RegisterReport:
    from repro.lifetimes.index import variant_arrays

    varr = variant_arrays(schedule)
    ii = schedule.ii
    pattern = _pattern_from(varr.starts, varr.lengths, ii)
    live_bound = max(pattern) if pattern else 0
    invariants = len(schedule.ddg.invariants)
    if not exact:
        return RegisterReport(
            max_live=live_bound,
            allocated=live_bound,
            invariants=invariants,
            exact=False,
        )
    names = varr.li.index.names
    prod = varr.li.prod
    live = [j for j in range(len(prod)) if varr.lengths[j] > 0]
    allocation = allocate_arrays(
        schedule.ddg.name,
        ii,
        [names[prod[j]] for j in live],
        [varr.starts[j] for j in live],
        [varr.lengths[j] for j in live],
        live_bound,
    )
    return RegisterReport(
        max_live=live_bound,
        allocated=allocation.registers,
        invariants=invariants,
        exact=True,
    )
