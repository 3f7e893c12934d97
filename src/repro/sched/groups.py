"""Complex-operation ("fused group") support, paper Section 4.3.

Spill loads/stores must be scheduled at a fixed distance from the operation
they serve — "operations connected by a non-spillable edge are forced to be
simultaneously scheduled as a single complex operation".  Otherwise the
scheduler could stretch the new spill-created lifetimes further apart than
the lifetime that was spilled, and the iterative process would diverge.

A :class:`Unit` is the schedulers' planning granule: either a single node,
or a fused group with fixed member offsets.  Offsets derive from the fused
edges: the destination starts exactly ``latency(src)`` cycles after the
source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.analysis import edge_latency
from repro.graph.ddg import DDG
from repro.machine.mrt import Fit, ModuloReservationTable


@dataclass
class Unit:
    """A schedulable unit.  ``members`` maps node name → cycle offset from
    the unit's leader (the earliest member, offset 0)."""

    leader: str
    members: dict[str, int] = field(default_factory=dict)

    @property
    def is_group(self) -> bool:
        return len(self.members) > 1

    def __iter__(self):
        return iter(self.members.items())


def build_units(ddg: DDG, latencies: dict[str, int]) -> dict[str, Unit]:
    """Partition the graph into units; returns node name → its unit.

    Offsets must be consistent: two fused paths reaching the same node with
    different offsets make the graph unschedulable and raise ``ValueError``.
    """
    units: dict[str, Unit] = {}
    for group in ddg.fused_groups():
        offsets = _group_offsets(ddg, group, latencies)
        leader = min(offsets, key=lambda n: (offsets[n], n))
        base = offsets[leader]
        unit = Unit(leader, {n: off - base for n, off in offsets.items()})
        for member in group:
            units[member] = unit
    for name in ddg.nodes:
        if name not in units:
            units[name] = Unit(name, {name: 0})
    return units


def _group_offsets(
    ddg: DDG, group: set[str], latencies: dict[str, int]
) -> dict[str, int]:
    start = next(iter(group))
    offsets = {start: 0}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        neighbours: list[tuple[str, int]] = []
        for edge in ddg.out_edges(current):
            if edge.fused and edge.dst in group:
                neighbours.append(
                    (edge.dst, offsets[current] + edge_latency(edge, latencies))
                )
        for edge in ddg.in_edges(current):
            if edge.fused and edge.src in group:
                neighbours.append(
                    (edge.src, offsets[current] - edge_latency(edge, latencies))
                )
        for name, offset in neighbours:
            if name in offsets:
                if offsets[name] != offset:
                    raise ValueError(
                        f"inconsistent fused offsets for {name} in group"
                        f" {sorted(group)}"
                    )
            else:
                offsets[name] = offset
                frontier.append(name)
    if set(offsets) != group:
        raise ValueError(f"fused group {sorted(group)} is not connected")
    return offsets


# ----------------------------------------------------------------------
def unit_internally_schedulable(
    unit: Unit, ddg: DDG, latencies: dict[str, int], ii: int
) -> bool:
    """Check the dependences *between* members against the fixed offsets.

    Fused edges hold by construction; other intra-unit edges (e.g. the
    original producer→store edge kept by the consumer-is-store
    optimization) must also be satisfied at this II.
    """
    for member in unit.members:
        for edge in ddg.iter_out_edges(member):
            if edge.dst not in unit.members or edge.fused:
                continue
            slack = (
                unit.members[edge.dst]
                + ii * edge.distance
                - unit.members[edge.src]
                - edge_latency(edge, latencies)
            )
            if slack < 0:
                return False
    return True


def earliest_start(
    unit: Unit,
    ddg: DDG,
    latencies: dict[str, int],
    ii: int,
    times: dict[str, int],
) -> int | None:
    """Earliest leader start allowed by already-scheduled predecessors
    outside the unit; ``None`` when no external predecessor is scheduled."""
    bound: int | None = None
    for member, offset in unit:
        for edge in ddg.iter_in_edges(member):
            if edge.src not in times or edge.src in unit.members:
                continue
            candidate = (
                times[edge.src]
                + edge_latency(edge, latencies)
                - ii * edge.distance
                - offset
            )
            if bound is None or candidate > bound:
                bound = candidate
    return bound


def latest_start(
    unit: Unit,
    ddg: DDG,
    latencies: dict[str, int],
    ii: int,
    times: dict[str, int],
) -> int | None:
    """Latest leader start allowed by already-scheduled successors outside
    the unit; ``None`` when no external successor is scheduled."""
    bound: int | None = None
    for member, offset in unit:
        for edge in ddg.iter_out_edges(member):
            if edge.dst not in times or edge.dst in unit.members:
                continue
            candidate = (
                times[edge.dst]
                - edge_latency(edge, latencies)
                + ii * edge.distance
                - offset
            )
            if bound is None or candidate < bound:
                bound = candidate
    return bound


def try_place_unit(
    mrt: ModuloReservationTable, ddg: DDG, unit: Unit, leader_time: int
) -> bool:
    """Place every member at its offset, or nothing: all members are fitted
    (each against the table plus the members fitted before it) before any
    is committed, so a resource conflict leaves the table untouched."""
    if len(unit.members) == 1:
        fit = mrt.fit(ddg.nodes[unit.leader].opcode, leader_time)
        if fit is None:
            return False
        mrt.commit(unit.leader, fit)
        return True
    fits: list[Fit] = []
    for member, offset in unit:
        fit = mrt.fit(ddg.nodes[member].opcode, leader_time + offset, fits)
        if fit is None:
            return False
        fits.append(fit)
    for member, fit in zip(unit.members, fits):
        mrt.commit(member, fit)
    return True


def remove_unit(mrt: ModuloReservationTable, unit: Unit) -> None:
    for member, _ in unit:
        if mrt.is_placed(member):
            mrt.remove(member)
