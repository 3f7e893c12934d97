"""The place/measure/remove Swing slot scan, kept as a test oracle.

For every slot of the window it places the unit, measures the lifetime
stretch by walking the graph's edges, and removes the unit again; then
it places the lowest ``(cost, index)`` feasible slot.  The scheduler's
own scan must choose the same slot, count the same placements and leave
the same table.
"""

from repro.graph.ddg import DDG
from repro.machine.mrt import ModuloReservationTable
from repro.sched.base import Effort
from repro.sched.groups import Unit, try_place_unit


def lifetime_cost(
    ddg: DDG, unit: Unit, leader_time: int, ii: int, times: dict[str, int]
) -> int:
    """Total stretch of register lifetimes between the unit and its
    already-scheduled neighbours if placed at *leader_time*."""
    cost = 0
    for member, offset in unit:
        start = leader_time + offset
        for edge in ddg.iter_in_edges(member):
            if edge.src in times and edge.src not in unit.members:
                cost += max(0, start + ii * edge.distance - times[edge.src])
        for edge in ddg.iter_out_edges(member):
            if edge.dst in times and edge.dst not in unit.members:
                cost += max(0, times[edge.dst] + ii * edge.distance - start)
    return cost


def swing_scan_reference(
    mrt: ModuloReservationTable,
    ddg: DDG,
    unit: Unit,
    window: range,
    times: dict[str, int],
    effort: Effort,
) -> int | None:
    """Place *unit* at its lowest ``(cost, index)`` feasible window slot
    and return that slot, or return ``None`` and leave *mrt* as it was."""
    best: tuple[int, int] | None = None
    best_slot: int | None = None
    for index, candidate in enumerate(window):
        effort.placements += 1
        if not try_place_unit(mrt, ddg, unit, candidate):
            continue
        cost = lifetime_cost(ddg, unit, candidate, mrt.ii, times)
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
