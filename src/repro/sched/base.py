"""Scheduler interface and the II search loop shared by all schedulers.

Modulo scheduling tries candidate IIs starting at the MII and increasing
until one works (paper Figure 1).  Concrete schedulers implement a single
attempt at a fixed II; this base class owns the search, the effort
accounting that Figure 8c reports (scheduling time is dominated by failed
attempts), and the ``min_ii`` hook the *last-II-tried* acceleration of
Section 4.5 uses to skip doomed IIs.  What an attempt needs that does not
depend on II (latencies, fused units, each unit's external dependences)
is planned once per search and handed to every attempt.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.graph.ddg import DDG
from repro.machine.machine import MachineConfig
from repro.sched.cache import cached_mii
from repro.sched.groups import Plan, plan_units
from repro.sched.schedule import Schedule


class ScheduleError(RuntimeError):
    """No valid schedule was found within the II search window."""


@dataclass
class Effort:
    """Scheduler work counters — the machine-independent proxy for the
    paper's compilation-time measurements.

    ``placements`` counts slot probes (each cycle tried for each unit);
    ``attempts`` counts full scheduling attempts (one per candidate II).
    """

    placements: int = 0
    attempts: int = 0

    def add(self, other: "Effort") -> None:
        self.placements += other.placements
        self.attempts += other.attempts


@dataclass
class SearchEffort(Effort):
    """What one II search hands each of its attempts: the search's
    effort counters and its :class:`~repro.sched.groups.Plan`.  Created
    per :meth:`ModuloScheduler.schedule` / ``try_schedule_at`` call, so
    the plan ends with the search."""

    plan: Plan | None = None


class ModuloScheduler(abc.ABC):
    """Base class: II search + effort accounting."""

    name = "abstract"

    @abc.abstractmethod
    def _attempt(
        self, ddg: DDG, machine: MachineConfig, ii: int, effort: SearchEffort
    ) -> dict[str, int] | None:
        """Try to build a schedule at exactly *ii* from the search's
        ``effort.plan``; return start times or ``None`` on failure."""

    def _plan(self, ddg: DDG, machine: MachineConfig) -> Plan:
        """The II-independent facts every attempt of one search shares."""
        return plan_units(ddg, machine.latencies_for(ddg))

    # ------------------------------------------------------------------
    def try_schedule_at(
        self, ddg: DDG, machine: MachineConfig, ii: int
    ) -> Schedule | None:
        """One attempt at a fixed II (used by the II-increase driver and
        the combined method's binary search)."""
        effort = SearchEffort(attempts=1, plan=self._plan(ddg, machine))
        times = self._attempt(ddg, machine, ii, effort)
        if times is None:
            return None
        schedule = Schedule(
            ddg=ddg,
            machine=machine,
            ii=ii,
            times=times,
            scheduler=self.name,
            effort_placements=effort.placements,
            effort_attempts=effort.attempts,
        )
        return schedule

    def schedule(
        self,
        ddg: DDG,
        machine: MachineConfig,
        min_ii: int | None = None,
        max_ii: int | None = None,
    ) -> Schedule:
        """Search upward from ``max(MII, min_ii)`` until an II works.

        ``min_ii`` implements the last-II-tried acceleration: the paper
        observes the II almost never decreases between spill iterations,
        so restarting at the previous II skips futile attempts.
        """
        mii = cached_mii(ddg, machine)
        start = max(mii, min_ii or 1)
        if max_ii is None:
            max_ii = start + _search_window(ddg, machine)
        effort = SearchEffort(plan=self._plan(ddg, machine))
        for ii in range(start, max_ii + 1):
            effort.attempts += 1
            times = self._attempt(ddg, machine, ii, effort)
            if times is not None:
                return Schedule(
                    ddg=ddg,
                    machine=machine,
                    ii=ii,
                    times=times,
                    scheduler=self.name,
                    effort_placements=effort.placements,
                    effort_attempts=effort.attempts,
                )
        raise ScheduleError(
            f"{self.name}: no schedule for {ddg.name} with II in"
            f" [{start}, {max_ii}]"
        )


def _search_window(ddg: DDG, machine: MachineConfig) -> int:
    """An II that always admits a schedule exists (a fully sequential
    iteration); searching this far past the start guarantees termination."""
    return sum(
        (machine.occupancy(opcode) + machine.latency(opcode)) * count
        for opcode, count in ddg.opcode_counts().items()
    ) + len(ddg.nodes) + 4
