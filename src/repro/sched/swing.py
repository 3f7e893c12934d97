"""Swing modulo scheduling variant.

The register-constrained-pipelining paper's line of work culminated in
Swing Modulo Scheduling (Llosa et al.), which keeps HRMS's ordering but
chooses, within a node's feasible window, the slot that stretches the
already-placed neighbours' lifetimes least, instead of first-fit from the
dependence-tight end.  It is included as the "future work" scheduler and
to demonstrate the register-constraint framework is scheduler-agnostic.
"""

from __future__ import annotations

from repro.graph.ddg import DDG
from repro.machine.mrt import ModuloReservationTable
from repro.sched.base import Effort
from repro.sched.groups import Unit, try_place_unit
from repro.sched.hrms import HRMSScheduler


class SwingScheduler(HRMSScheduler):
    """HRMS ordering + lifetime-cost slot selection."""

    name = "Swing"

    def _scan(
        self,
        mrt: ModuloReservationTable,
        ddg: DDG,
        unit: Unit,
        window: range,
        effort: Effort,
    ) -> int | None:
        # The window is ordered toward the placed neighbours; evaluate every
        # feasible slot and keep the one with the lowest lifetime cost,
        # breaking ties toward the window's preferred (near) end.
        best: tuple[int, int] | None = None  # (cost, index)
        best_slot: int | None = None
        for index, candidate in enumerate(window):
            effort.placements += 1
            if not try_place_unit(mrt, ddg, unit, candidate):
                continue
            # placed tentatively; measure and undo
            cost = self._lifetime_cost(ddg, unit, candidate)
            for member, _ in unit:
                mrt.remove(member)
            key = (cost, index)
            if best is None or key < best:
                best, best_slot = key, candidate
        if best_slot is None:
            return None
        if not try_place_unit(mrt, ddg, unit, best_slot):
            raise AssertionError("slot vanished between probe and placement")
        return best_slot

    # ------------------------------------------------------------------
    def _window(self, unit, plan, ii, times, depth):
        self._ii = ii
        self._times = times
        return super()._window(unit, plan, ii, times, depth)

    def _lifetime_cost(self, ddg: DDG, unit: Unit, leader_time: int) -> int:
        """Total stretch of register lifetimes between the unit and its
        already-scheduled neighbours if placed at *leader_time*."""
        cost = 0
        times = self._times
        ii = self._ii
        for member, offset in unit:
            start = leader_time + offset
            for edge in ddg.iter_in_edges(member):
                if edge.src in times and edge.src not in unit.members:
                    cost += max(
                        0, start + ii * edge.distance - times[edge.src]
                    )
            for edge in ddg.iter_out_edges(member):
                if edge.dst in times and edge.dst not in unit.members:
                    cost += max(
                        0, times[edge.dst] + ii * edge.distance - start
                    )
        return cost
