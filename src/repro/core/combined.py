"""The combined "best of all" method (paper Section 5, Figure 9).

For a few loops, increasing the II beats spilling.  The paper proposes
getting the best of both at almost no compile-time cost:

1. schedule by adding spill code until a valid schedule is found
   (``II_spill``);
2. schedule the *original* loop once at ``II_spill``: if that fits the
   register file, a schedule at least as good exists without spilling —
   binary-search the plain schedules between MII (lower bound) and
   ``II_spill`` (upper bound) for the smallest fitting II;
3. keep whichever loop executes faster (smaller II; ties favour the plain
   loop, which has no extra memory traffic).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.driver import schedule_with_spilling
from repro.core.registry import StrategyOutcome
from repro.core.select import SelectionPolicy
from repro.graph.ddg import DDG
from repro.lifetimes.requirements import RegisterReport, register_requirements
from repro.machine.machine import MachineConfig
from repro.sched.base import Effort, ModuloScheduler
from repro.sched.cache import cached_mii, owned_schedule, schedule_memo
from repro.sched.hrms import HRMSScheduler
from repro.sched.schedule import Schedule


def schedule_best_of_both(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler | None = None,
    policy: SelectionPolicy = SelectionPolicy.MAX_LT_TRAF,
    exact: bool = True,
) -> StrategyOutcome:
    """Spill-first, then try to do better without spilling (see module
    docstring).

    The outcome keeps the spilling run's ``trace``; ``details`` names the
    kept loop (``method``: ``"spill"`` or ``"increase_ii"``) and records
    the spilling run's II (``spill_ii``) and spill count
    (``spill_count``).
    """
    scheduler = scheduler or HRMSScheduler()
    spill = schedule_with_spilling(
        ddg, machine, available, scheduler=scheduler, policy=policy, exact=exact
    )
    effort = Effort()
    effort.add(spill.effort)
    plain = None
    if spill.converged and spill.schedule is not None:
        plain = _winning_plain(
            ddg, machine, available, scheduler, spill.schedule, effort, exact
        )
    details = {
        "method": "spill" if plain is None else "increase_ii",
        "spill_ii": spill.schedule.ii if spill.schedule else None,
        "spill_count": len(spill.spilled),
    }
    if plain is None:
        return replace(spill, effort=effort, details=details)
    # the plain schedule may be a shared memo entry: hand out a copy
    schedule = owned_schedule(plain[0])
    return replace(
        spill, schedule=schedule, report=plain[1], ddg=schedule.ddg,
        spilled=(), effort=effort, details=details,
    )


def _winning_plain(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler,
    spill_schedule: Schedule,
    effort: Effort,
    exact: bool,
) -> tuple[Schedule, RegisterReport] | None:
    """The plain (unspilled) schedule that beats *spill_schedule*, or
    None when the spilled loop should be kept."""
    ii_spill = spill_schedule.ii
    probe = _plain_attempt(
        ddg, machine, available, scheduler, ii_spill, effort, exact
    )
    if probe is None:
        # Even at the spill II the plain loop does not fit: keep the spill.
        return None

    # Binary search the smallest fitting plain II in [MII, ii_spill].  The
    # paper proposes this search even though fit-vs-II is not strictly
    # monotone; it converges to *a* fitting II at worst equal to ii_spill.
    best_plain = probe
    low, high = cached_mii(ddg, machine), ii_spill
    while low < high:
        mid = (low + high) // 2
        candidate = _plain_attempt(
            ddg, machine, available, scheduler, mid, effort, exact
        )
        if candidate is not None:
            best_plain = candidate
            high = mid
        else:
            low = mid + 1

    plain_schedule = best_plain[0]
    # Prefer the plain loop on a strict II win; on ties, the steady state
    # is identical, so compare ramp-up (stage count) and fall back to the
    # spill-free loop only when it is not longer to fill and drain.
    plain_wins = plain_schedule.ii < ii_spill or (
        plain_schedule.ii == ii_spill
        and plain_schedule.stage_count <= spill_schedule.stage_count
    )
    return best_plain if plain_wins else None


def _plain_attempt(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler,
    ii: int,
    effort: Effort,
    exact: bool,
) -> tuple[Schedule, RegisterReport] | None:
    """Schedule the unspilled loop at exactly *ii*; None unless it both
    schedules and fits the register file."""
    schedule = schedule_memo().try_at(scheduler, ddg, machine, ii)
    if schedule is None:
        effort.attempts += 1
        return None
    effort.attempts += schedule.effort_attempts
    effort.placements += schedule.effort_placements
    report = register_requirements(schedule, exact=exact)
    if not report.fits(available):
        return None
    return schedule, report
