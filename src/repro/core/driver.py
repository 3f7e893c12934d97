"""The iterative spilling driver (paper Figure 1b and Sections 4-4.5).

Schedule → allocate → if the loop does not fit, select lifetime(s), insert
spill code, and reschedule — the added loads/stores change the dependence
graph, so a fresh schedule is required each round.  Convergence is
guaranteed by the non-spillable marking and the complex-operation fusion
performed in :mod:`repro.core.spill`.

Accelerations (Section 4.5), both on by default:

* ``multiple`` — spill several lifetimes per round, chosen with the
  optimistic MaxLive-based estimate, instead of one per reschedule;
* ``last_ii`` — start each round's II search at
  ``max(MII, previous round's II)``: the II almost never decreases when
  spill code is added, so lower IIs are wasted attempts.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.registry import StrategyOutcome
from repro.core.select import SelectionPolicy, select_lifetimes
from repro.core.spill import apply_spill
from repro.graph.ddg import DDG
from repro.lifetimes.requirements import RegisterReport, register_requirements
from repro.machine.machine import MachineConfig
from repro.sched.base import Effort, ModuloScheduler, ScheduleError
from repro.sched.cache import (
    cached_mii,
    caching_enabled,
    ddg_fingerprint,
    machine_key,
    owned_schedule,
    schedule_memo,
    scheduler_key,
    spill_memo,
)
from repro.sched.hrms import HRMSScheduler
from repro.sched.schedule import Schedule


def schedule_with_spilling(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler | None = None,
    policy: SelectionPolicy = SelectionPolicy.MAX_LT_TRAF,
    multiple: bool = True,
    last_ii: bool = True,
    exact: bool = True,
    max_rounds: int = 200,
    fuse: bool = True,
    mark_non_spillable: bool = True,
) -> StrategyOutcome:
    """Run Figure 1b's flow until the loop fits in *available* registers.

    ``ddg`` of the outcome is the final (transformed) graph the final
    schedule runs on; ``trace`` holds one row per schedule→measure→spill
    round (a point of Figure 7): ``ii``, ``mii``, ``registers``,
    ``max_live``, ``memory_ops`` and the values that round ``spilled``;
    ``details`` records the ``policy`` and the number of ``rounds``.

    ``fuse`` / ``mark_non_spillable`` weaken the convergence safeguards for
    the ablation studies; leave them on for the paper's algorithm.

    Whole runs are memoized in :func:`repro.sched.cache.spill_memo`,
    keyed by graph content, machine, scheduler, budget and every option:
    ``fig9`` and the combined method run this identical driver back to
    back, and repeated sweeps re-run it per budget.  Hits hand out
    caller-owned copies, so results stay freely mutable.
    """
    scheduler = scheduler or HRMSScheduler()
    memo_key = None
    if caching_enabled():
        memo_key = (
            ddg_fingerprint(ddg),
            machine_key(machine),
            scheduler_key(scheduler),
            available,
            policy.value,
            multiple,
            last_ii,
            exact,
            max_rounds,
            fuse,
            mark_non_spillable,
        )
        hit = spill_memo().get(memo_key, _owned_outcome)
        if hit is not None:
            return hit
    outcome = _run_spilling(
        ddg, machine, available, scheduler, policy, multiple, last_ii,
        exact, max_rounds, fuse, mark_non_spillable,
    )
    if memo_key is not None:
        # Store a private copy: the returned outcome is caller-mutable,
        # memo entries must never be.
        spill_memo().put(memo_key, _owned_outcome(outcome))
    return outcome


def _run_spilling(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler,
    policy: SelectionPolicy,
    multiple: bool,
    last_ii: bool,
    exact: bool,
    max_rounds: int,
    fuse: bool,
    mark_non_spillable: bool,
) -> StrategyOutcome:
    work = ddg.copy()
    effort = Effort()
    trace: list[dict] = []
    spilled: list[str] = []
    min_ii: int | None = None
    last_schedule: Schedule | None = None
    last_report: RegisterReport | None = None

    def outcome(converged, reason, schedule, report, final_ddg):
        return StrategyOutcome(
            converged=converged,
            reason=reason,
            schedule=schedule,
            report=report,
            ddg=final_ddg,
            spilled=tuple(spilled),
            trace=tuple(trace),
            effort=effort,
            details={"policy": policy.value, "rounds": len(trace)},
        )

    for _ in range(max_rounds):
        round_mii = cached_mii(work, machine)
        try:
            # The memoized search lets heuristic variants share rounds
            # that reach the same graph (all of Figure 8's variants
            # schedule the identical round-1 graph, for instance).
            schedule = schedule_memo().schedule(
                scheduler, work, machine, min_ii=min_ii
            )
        except ScheduleError as error:
            return outcome(
                False, str(error), _owned(last_schedule), last_report, work
            )
        effort.attempts += schedule.effort_attempts
        effort.placements += schedule.effort_placements
        report = register_requirements(schedule, exact=exact)
        last_schedule, last_report = schedule, report

        candidates = []
        if not report.fits(available):
            candidates = select_lifetimes(
                schedule, report, available, policy=policy, multiple=multiple
            )
        trace.append({
            "ii": schedule.ii,
            "mii": round_mii,
            "registers": report.total,
            "max_live": report.estimate,
            "memory_ops": work.memory_node_count(),
            "spilled": [c.lifetime.value for c in candidates],
        })
        if report.fits(available):
            schedule = _owned(schedule)
            return outcome(True, "fits", schedule, report, schedule.ddg)
        if not candidates:
            return outcome(
                False, "no spillable lifetimes remain", _owned(schedule),
                report, work,
            )
        # Spill into a fresh copy: the graph just scheduled may now be a
        # schedule-memo entry, and memo entries must never mutate.
        work = work.copy()
        for candidate in candidates:
            apply_spill(
                work,
                candidate.lifetime,
                fuse=fuse,
                mark_non_spillable=mark_non_spillable,
            )
            spilled.append(candidate.lifetime.value)
        if last_ii:
            # Section 4.5: restart at max(MII, previous II).  The MII is
            # that of the *mutated* graph — the spill code's memory edges
            # lengthen dependence cycles, so RecMII can rise above the II
            # just scheduled.  (This also warms the MII cache for the next
            # round's schedule call.)
            min_ii = max(schedule.ii, cached_mii(work, machine))
    return outcome(
        False, f"gave up after {max_rounds} rounds", _owned(last_schedule),
        last_report, work,
    )


#: Schedules out of the memoized search are shared process-wide; results
#: must not alias them, or one caller mutating its result (its times, or
#: its graph via further spilling) would corrupt every other caller's.
_owned = owned_schedule


def _owned_outcome(outcome: StrategyOutcome) -> StrategyOutcome:
    """A caller-owned copy of a (possibly memo-stored) driver outcome.

    The schedule and graph are deep-copied (callers mutate both), and so
    are the trace rows, effort and details; the report is treated as
    read-only and shared.  When the outcome's graph *is* the schedule's
    graph (the converged case) that aliasing is preserved in the copy.
    """
    schedule = owned_schedule(outcome.schedule)
    if outcome.ddg is None:
        ddg = None
    elif outcome.schedule is not None and outcome.ddg is outcome.schedule.ddg:
        ddg = schedule.ddg
    else:
        ddg = outcome.ddg.copy()
    return replace(
        outcome,
        schedule=schedule,
        ddg=ddg,
        trace=tuple(
            {**row, "spilled": list(row["spilled"])} for row in outcome.trace
        ),
        effort=Effort(
            placements=outcome.effort.placements,
            attempts=outcome.effort.attempts,
        ),
        details=dict(outcome.details),
    )
