"""Iterative Modulo Scheduling (Rau, MICRO-27 1994).

The classic register-*insensitive* modulo scheduler, included as the
baseline the paper contrasts register-sensitive techniques against, and to
demonstrate that the spilling framework of :mod:`repro.core` is
scheduler-agnostic.

Operations are scheduled highest-first by height-based priority.  Each
operation scans II slots from its earliest start; if none is free it is
*forced* into a slot, evicting the operations that conflict on resources
and any successor whose dependence the forced placement violates.  Evicted
operations return to the queue.  A budget bounds total placements; when it
runs out the attempt fails and the II is bumped.
"""

from __future__ import annotations

import heapq

from repro.graph.analysis import edge_latency, longest_path_lengths
from repro.graph.ddg import DDG
from repro.machine.machine import MachineConfig
from repro.machine.mrt import ModuloReservationTable
from repro.sched.base import Effort, ModuloScheduler
from repro.sched.groups import (
    Unit,
    build_units,
    earliest_start,
    remove_unit,
    try_place_unit,
    unit_internally_schedulable,
)


class IMSScheduler(ModuloScheduler):
    """Rau's iterative modulo scheduling with a placement budget."""

    name = "IMS"

    def __init__(self, budget_ratio: int = 5) -> None:
        self.budget_ratio = budget_ratio

    def _attempt(
        self, ddg: DDG, machine: MachineConfig, ii: int, effort: Effort
    ) -> dict[str, int] | None:
        if not ddg.nodes:
            return {}
        latencies = machine.latencies_for(ddg)
        try:
            height = longest_path_lengths(ddg, latencies, ii, reverse=True)
        except ValueError:
            return None  # ii below RecMII
        try:
            units = build_units(ddg, latencies)
        except ValueError:
            return None

        distinct: dict[str, Unit] = {}
        for unit in units.values():
            distinct[unit.leader] = unit
        for unit in distinct.values():
            if not unit_internally_schedulable(unit, ddg, latencies, ii):
                return None

        def priority(unit: Unit) -> int:
            return max(height[m] for m in unit.members)

        counter = 0
        queue: list[tuple[int, int, str]] = []
        for unit in distinct.values():
            heapq.heappush(queue, (-priority(unit), counter, unit.leader))
            counter += 1

        mrt = ModuloReservationTable(machine, ii)
        times: dict[str, int] = {}
        last_forced: dict[str, int] = {}
        budget = self.budget_ratio * len(distinct)

        while queue:
            if budget <= 0:
                return None
            budget -= 1
            _, _, leader = heapq.heappop(queue)
            unit = distinct[leader]
            est = earliest_start(unit, ddg, latencies, ii, times)
            est = max(est if est is not None else 0, 0)

            slot = self._scan(mrt, ddg, unit, est, ii, effort)
            if slot is None:
                slot = max(est, last_forced.get(leader, est - 1) + 1)
                evicted = self._force(mrt, ddg, unit, slot, times, distinct, units)
                if evicted is None:
                    return None
                for other in evicted:
                    heapq.heappush(
                        queue, (-priority(distinct[other]), counter, other)
                    )
                    counter += 1
            for member, offset in unit:
                times[member] = slot + offset
            last_forced[leader] = slot

            violated = self._violated_successors(ddg, latencies, ii, unit, times)
            for other in sorted(violated):
                other_unit = distinct[units[other].leader]
                remove_unit(mrt, other_unit)
                for member, _ in other_unit:
                    times.pop(member, None)
                heapq.heappush(
                    queue,
                    (-priority(other_unit), counter, other_unit.leader),
                )
                counter += 1
        return times

    # ------------------------------------------------------------------
    def _scan(
        self,
        mrt: ModuloReservationTable,
        ddg: DDG,
        unit: Unit,
        est: int,
        ii: int,
        effort: Effort,
    ) -> int | None:
        for candidate in range(est, est + ii):
            effort.placements += 1
            if try_place_unit(mrt, ddg, unit, candidate):
                return candidate
        return None

    def _force(
        self,
        mrt: ModuloReservationTable,
        ddg: DDG,
        unit: Unit,
        slot: int,
        times: dict[str, int],
        distinct: dict[str, Unit],
        units: dict[str, Unit],
    ) -> list[str] | None:
        """Evict whatever blocks *unit* at *slot*; return evicted leaders
        (or ``None`` if the unit can never fit, e.g. occupancy > II)."""
        evicted: list[str] = []
        for _ in range(len(ddg.nodes) + 1):
            if try_place_unit(mrt, ddg, unit, slot):
                remove_unit(mrt, unit)  # caller re-places via times loop
                if not try_place_unit(mrt, ddg, unit, slot):
                    raise AssertionError("placement not reproducible")
                return evicted
            blockers: set[str] = set()
            for member, offset in unit:
                opcode = ddg.nodes[member].opcode
                blockers |= mrt.conflicting(opcode, slot + offset)
            blockers -= set(unit.members)
            if not blockers:
                return None
            for name in sorted(blockers):
                victim = distinct[units[name].leader]
                if victim.leader in evicted:
                    continue
                remove_unit(mrt, victim)
                for member, _ in victim:
                    times.pop(member, None)
                evicted.append(victim.leader)
        return None

    def _violated_successors(
        self,
        ddg: DDG,
        latencies: dict[str, int],
        ii: int,
        unit: Unit,
        times: dict[str, int],
    ) -> set[str]:
        violated: set[str] = set()
        for member in unit.members:
            for edge in ddg.iter_out_edges(member):
                if edge.dst in unit.members or edge.dst not in times:
                    continue
                slack = (
                    times[edge.dst]
                    + ii * edge.distance
                    - times[edge.src]
                    - edge_latency(edge, latencies)
                )
                if slack < 0:
                    violated.add(edge.dst)
        return violated
