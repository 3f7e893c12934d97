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
from repro.sched.ordering import OrderPlan


@dataclass
class Unit:
    """A schedulable unit.  ``members`` maps node name → cycle offset from
    the unit's leader (the earliest member, offset 0)."""

    leader: str
    members: dict[str, int] = field(default_factory=dict)

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
    ddg: DDG, group: tuple[str, ...], latencies: dict[str, int]
) -> dict[str, int]:
    """Each member's offset from ``group[0]``, walking the fused edges
    from it (a group is connected by them)."""
    start = group[0]
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
    return offsets


# ----------------------------------------------------------------------
#: A unit's external dependences: ``(node, lag or offset, distance)``.
Deps = tuple[tuple[str, int, int], ...]


@dataclass
class Plan:
    """The II-independent facts one II search needs, computed once per
    :meth:`~repro.sched.base.ModuloScheduler.schedule` (or
    ``try_schedule_at``) call and passed to every attempt.

    ``inputs``/``outputs`` hold each unit's external dependences, keyed
    by leader, as ``(node, lag, distance)``: a leader start ``t`` needs
    ``t >= times[node] + lag - II * distance`` for an input (``lag`` is
    the edge latency minus the member's offset) and ``t <= times[node]
    - lag + II * distance`` for an output (latency plus offset).
    ``min_ii`` is the smallest II at which every unit's internal
    non-fused dependences (e.g. the producer→store edge the
    consumer-is-store optimization keeps) hold at the fixed offsets,
    ``None`` when none does (a violated distance-0 edge, or inconsistent
    fused offsets).

    A plan lives for one search only: it travels in the search's
    :class:`~repro.sched.base.SearchEffort`, never attached to the
    graph, its index or a latency view.
    """

    latencies: dict[str, int]
    units: dict[str, Unit]
    leaders: dict[str, Unit]
    min_ii: int | None
    inputs: dict[str, Deps]
    outputs: dict[str, Deps]
    #: HRMS-family schedulers add the ordering's inputs.
    ordering: OrderPlan | None = None
    #: Swing adds each unit's external dependences keyed by leader as
    #: ``(inputs, outputs)`` of ``(node, offset, distance)``, where
    #: ``offset`` is the member's: what a lifetime's stretch needs.
    neighbours: dict[str, tuple[Deps, Deps]] | None = None


def plan_units(ddg: DDG, latencies: dict[str, int]) -> Plan:
    """Build the :class:`Plan` of *ddg* under *latencies*."""
    try:
        units = build_units(ddg, latencies)
    except ValueError:
        return Plan(latencies, {}, {}, None, {}, {})
    leaders: dict[str, Unit] = {}
    for unit in units.values():
        leaders[unit.leader] = unit
    min_ii: int | None = 1
    inputs: dict[str, Deps] = {}
    outputs: dict[str, Deps] = {}
    for leader, unit in leaders.items():
        members = unit.members
        unit_in: list[tuple[str, int, int]] = []
        unit_out: list[tuple[str, int, int]] = []
        for member, offset in unit:
            for edge in ddg.iter_in_edges(member):
                if edge.src not in members:
                    unit_in.append((
                        edge.src,
                        edge_latency(edge, latencies) - offset,
                        edge.distance,
                    ))
            for edge in ddg.iter_out_edges(member):
                latency = edge_latency(edge, latencies)
                if edge.dst not in members:
                    unit_out.append((edge.dst, latency + offset, edge.distance))
                    continue
                if edge.fused or min_ii is None:
                    continue
                # An internal edge needs members[dst] + II * distance
                # - offset - latency >= 0 (fused edges hold by
                # construction).
                excess = latency + offset - members[edge.dst]
                if edge.distance:
                    min_ii = max(min_ii, -(-excess // edge.distance))
                elif excess > 0:
                    min_ii = None
        inputs[leader] = tuple(unit_in)
        outputs[leader] = tuple(unit_out)
    return Plan(latencies, units, leaders, min_ii, inputs, outputs)


def earliest_start(
    plan: Plan, unit: Unit, ii: int, times: dict[str, int]
) -> int | None:
    """Earliest leader start allowed by already-scheduled predecessors
    outside the unit; ``None`` when no external predecessor is scheduled."""
    bound: int | None = None
    for node, lag, distance in plan.inputs[unit.leader]:
        if node in times:
            candidate = times[node] + lag - ii * distance
            if bound is None or candidate > bound:
                bound = candidate
    return bound


def latest_start(
    plan: Plan, unit: Unit, ii: int, times: dict[str, int]
) -> int | None:
    """Latest leader start allowed by already-scheduled successors outside
    the unit; ``None`` when no external successor is scheduled."""
    bound: int | None = None
    for node, lag, distance in plan.outputs[unit.leader]:
        if node in times:
            candidate = times[node] - lag + ii * distance
            if bound is None or candidate < bound:
                bound = candidate
    return bound


def fit_unit(
    mrt: ModuloReservationTable, ddg: DDG, unit: Unit, leader_time: int
) -> list[Fit] | None:
    """Where every member fits at its offset from *leader_time* — each
    against the table plus the members fitted before it — or ``None``.
    Does not change the table."""
    fits: list[Fit] = []
    nodes = ddg.nodes
    for member, offset in unit.members.items():
        fit = mrt.fit(nodes[member].opcode, leader_time + offset, fits)
        if fit is None:
            return None
        fits.append(fit)
    return fits


def commit_unit(
    mrt: ModuloReservationTable, unit: Unit, fits: list[Fit]
) -> None:
    """Reserve the slots :func:`fit_unit` found for *unit*."""
    for member, fit in zip(unit.members, fits):
        mrt.commit(member, fit)


def try_place_unit(
    mrt: ModuloReservationTable, ddg: DDG, unit: Unit, leader_time: int
) -> bool:
    """Place every member at its offset, or nothing: a resource conflict
    leaves the table untouched."""
    if len(unit.members) == 1:  # the common case, without a fit list
        fit = mrt.fit(ddg.nodes[unit.leader].opcode, leader_time)
        if fit is None:
            return False
        mrt.commit(unit.leader, fit)
        return True
    fits = fit_unit(mrt, ddg, unit, leader_time)
    if fits is None:
        return False
    commit_unit(mrt, unit, fits)
    return True


def remove_unit(mrt: ModuloReservationTable, unit: Unit) -> None:
    for member, _ in unit:
        if mrt.is_placed(member):
            mrt.remove(member)
