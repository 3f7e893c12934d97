"""Hypernode Reduction Modulo Scheduling (HRMS) — the paper's core
scheduler [Llosa et al., MICRO-28 1995].

HRMS is a fast, register-sensitive, non-backtracking modulo scheduler:

* the pre-ordering (:mod:`repro.sched.ordering`) guarantees each node is
  scheduled with already-placed neighbours on one side only;
* placement then scans exactly II candidate cycles *toward* those
  neighbours — upward from the earliest start when predecessors are placed,
  downward from the latest start when successors are — keeping lifetimes
  short;
* nodes closing a recurrence face constraints on both sides and scan the
  (possibly empty) intersection window;
* any failure bumps the II and restarts (handled by the base class).

Complex-operation groups are placed atomically at their fixed internal
offsets, as Section 4.3 of the register-constraint paper requires.
"""

from __future__ import annotations

from repro.graph.analysis import asap_alap
from repro.graph.ddg import DDG
from repro.machine.machine import MachineConfig
from repro.machine.mrt import ModuloReservationTable
from repro.sched.base import ModuloScheduler, SearchEffort
from repro.sched.groups import (
    Plan,
    Unit,
    earliest_start,
    latest_start,
    try_place_unit,
)
from repro.sched.ordering import order_nodes, plan_order


class HRMSScheduler(ModuloScheduler):
    """HRMS: ordering + directional slot scan."""

    name = "HRMS"

    def _plan(self, ddg: DDG, machine: MachineConfig) -> Plan:
        plan = super()._plan(ddg, machine)
        plan.ordering = plan_order(ddg, plan.latencies)
        return plan

    def _attempt(
        self, ddg: DDG, machine: MachineConfig, ii: int, effort: SearchEffort
    ) -> dict[str, int] | None:
        if not ddg.nodes:
            return {}
        plan = effort.plan
        latencies = plan.latencies
        try:
            depth, alap = asap_alap(ddg, latencies, ii)
        except ValueError:
            return None  # ii below RecMII
        if plan.min_ii is None or ii < plan.min_ii:
            return None  # fused offsets violate an internal dependence

        order = order_nodes(ddg, latencies, ii, depth, alap, plan.ordering)
        mrt = ModuloReservationTable(machine, ii)
        units = plan.units
        times: dict[str, int] = {}
        done: set[str] = set()

        for name in order:
            unit = units[name]
            if unit.leader in done:
                continue
            window = self._window(unit, plan, ii, times, depth)
            placed_at = self._scan(mrt, ddg, unit, window, times, effort)
            if placed_at is None:
                return None
            for member, offset in unit:
                times[member] = placed_at + offset
            done.add(unit.leader)
        return times

    # ------------------------------------------------------------------
    def _window(
        self,
        unit: Unit,
        plan: Plan,
        ii: int,
        times: dict[str, int],
        depth: dict[str, int],
    ) -> range:
        """Candidate leader cycles, ordered toward the placed neighbours."""
        est = earliest_start(plan, unit, ii, times)
        lst = latest_start(plan, unit, ii, times)
        if est is not None and lst is not None:
            return range(est, min(lst, est + ii - 1) + 1)
        if est is not None:
            return range(est, est + ii)
        if lst is not None:
            return range(lst, lst - ii, -1)
        start = depth[unit.leader]
        return range(start, start + ii)

    def _scan(
        self,
        mrt: ModuloReservationTable,
        ddg: DDG,
        unit: Unit,
        window: range,
        times: dict[str, int],
        effort: SearchEffort,
    ) -> int | None:
        """Place *unit* at the first free slot of *window*.  *times*, the
        starts placed so far, is for subclasses that weigh the slots."""
        for candidate in window:
            effort.placements += 1
            if try_place_unit(mrt, ddg, unit, candidate):
                return candidate
        return None
