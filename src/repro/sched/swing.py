"""Swing modulo scheduling variant.

The register-constrained-pipelining paper's line of work culminated in
Swing Modulo Scheduling (Llosa et al.), which keeps HRMS's ordering but
chooses, within a node's feasible window, the slot that stretches the
already-placed neighbours' lifetimes least, instead of first-fit from the
dependence-tight end.  It is included as the "future work" scheduler and
to demonstrate the register-constraint framework is scheduler-agnostic.

The cost of a leader start ``t`` is the total stretch of the lifetimes
between the unit and its scheduled neighbours outside it::

    Σ max(0, t + o + II·d − times[src]) + Σ max(0, times[dst] + II·d − t − o)

over the unit's external input and output edges ``(node, o, d)``
(``o`` the member's offset, ``d`` the edge distance), which the plan
holds per leader.  Each term is convex in ``t``, so the sum is convex
along the window, which is a run of consecutive cycles in either
direction.  The winner is the feasible slot with the lowest ``(cost,
index)``, so the scan walks the window in order and stops at the first
slot after a feasible one that costs no less than the best: a convex
sequence that has risen back to an earlier value never falls again, so
no later slot can win.  Only slots before that point are probed against
the reservation table, and only the winner is committed.
``placements`` still counts the whole window, as the effort figures
always have.
"""

from __future__ import annotations

from repro.graph.ddg import DDG
from repro.machine.machine import MachineConfig
from repro.machine.mrt import ModuloReservationTable
from repro.sched.base import SearchEffort
from repro.sched.groups import Deps, Plan, Unit, commit_unit, fit_unit
from repro.sched.hrms import HRMSScheduler


class SwingScheduler(HRMSScheduler):
    """HRMS ordering + lifetime-cost slot selection."""

    name = "Swing"

    def _plan(self, ddg: DDG, machine: MachineConfig) -> Plan:
        plan = super()._plan(ddg, machine)
        plan.neighbours = {
            leader: _neighbours(ddg, unit)
            for leader, unit in plan.leaders.items()
        }
        return plan

    def _scan(
        self,
        mrt: ModuloReservationTable,
        ddg: DDG,
        unit: Unit,
        window: range,
        times: dict[str, int],
        effort: SearchEffort,
    ) -> int | None:
        effort.placements += len(window)
        inputs, outputs = effort.plan.neighbours[unit.leader]
        ii = mrt.ii
        # cost(t) = Σ max(0, t - low) + Σ max(0, high - t)
        lows = [
            times[node] - offset - ii * distance
            for node, offset, distance in inputs
            if node in times
        ]
        highs = [
            times[node] + ii * distance - offset
            for node, offset, distance in outputs
            if node in times
        ]
        best_cost = 0
        best_slot: int | None = None
        best_fits = None
        for candidate in window:
            cost = 0
            for low in lows:
                if candidate > low:
                    cost += candidate - low
            for high in highs:
                if high > candidate:
                    cost += high - candidate
            if best_fits is not None and cost >= best_cost:
                break  # convex: no later slot costs less than this one
            fits = fit_unit(mrt, ddg, unit, candidate)
            if fits is not None:
                best_cost, best_slot, best_fits = cost, candidate, fits
        if best_fits is None:
            return None
        commit_unit(mrt, unit, best_fits)
        return best_slot


def _neighbours(ddg: DDG, unit: Unit) -> tuple[Deps, Deps]:
    """*unit*'s external ``(node, offset, distance)`` inputs and outputs."""
    members = unit.members
    inputs = tuple(
        (edge.src, offset, edge.distance)
        for member, offset in unit
        for edge in ddg.iter_in_edges(member)
        if edge.src not in members
    )
    outputs = tuple(
        (edge.dst, offset, edge.distance)
        for member, offset in unit
        for edge in ddg.iter_out_edges(member)
        if edge.dst not in members
    )
    return inputs, outputs
