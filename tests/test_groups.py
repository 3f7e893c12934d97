"""Unit tests for complex-operation (fused group) handling."""

import pytest

from repro.graph.ddg import DDG, Edge, EdgeKind, Node
from repro.ir.operations import Opcode
from repro.machine import ModuloReservationTable, generic_machine, p1l4
from repro.sched.groups import (
    build_units,
    earliest_start,
    latest_start,
    plan_units,
    remove_unit,
    try_place_unit,
)


def spill_shaped_graph():
    """Ls -> use (fused), plus an independent producer feeding `use`."""
    ddg = DDG("g")
    ddg.add_node(Node("prod", Opcode.MUL))
    ddg.add_node(Node("ls", Opcode.SPILL_LOAD))
    ddg.add_node(Node("use", Opcode.ADD, operands=["ls", "prod"]))
    ddg.add_edge(Edge("prod", "use", EdgeKind.REG))
    ddg.add_edge(Edge("ls", "use", EdgeKind.REG, spillable=False, fused=True))
    return ddg


LATENCIES = {"prod": 4, "ls": 2, "use": 4}


class TestBuildUnits:
    def test_singletons_for_plain_nodes(self):
        ddg = spill_shaped_graph()
        units = build_units(ddg, LATENCIES)
        assert units["prod"].members == {"prod": 0}

    def test_fused_pair_offsets(self):
        ddg = spill_shaped_graph()
        units = build_units(ddg, LATENCIES)
        unit = units["ls"]
        assert unit is units["use"]
        assert unit.leader == "ls"
        assert unit.members == {"ls": 0, "use": 2}  # latency of the load

    def test_chain_offsets_accumulate(self):
        ddg = DDG()
        for name, opcode in (
            ("a", Opcode.MUL), ("ss", Opcode.SPILL_STORE),
        ):
            ddg.add_node(Node(name, opcode))
        ddg.add_edge(Edge("a", "ss", EdgeKind.REG, fused=True))
        units = build_units(ddg, {"a": 4, "ss": 1})
        assert units["a"].members == {"a": 0, "ss": 4}

    def test_inconsistent_offsets_rejected(self):
        ddg = DDG()
        for name in ("a", "b", "c"):
            ddg.add_node(Node(name, Opcode.ADD))
        ddg.add_edge(Edge("a", "b", EdgeKind.REG, fused=True))
        ddg.add_edge(Edge("b", "c", EdgeKind.REG, fused=True))
        ddg.add_edge(Edge("a", "c", EdgeKind.REG, fused=True))
        with pytest.raises(ValueError):
            build_units(ddg, {"a": 2, "b": 2, "c": 2})
        # a->b->c implies offset 4 for c, a->c implies 2.


class TestWindows:
    def test_earliest_start_translates_offsets(self):
        ddg = spill_shaped_graph()
        plan = plan_units(ddg, LATENCIES)
        times = {"prod": 0}
        # member `use` (offset 2) must start >= 4 -> leader >= 2.
        assert earliest_start(plan, plan.units["ls"], 3, times) == 2

    def test_latest_start_translates_offsets(self):
        ddg = spill_shaped_graph()
        ddg.add_node(Node("next", Opcode.STORE, operands=["use"]))
        ddg.add_edge(Edge("use", "next", EdgeKind.REG))
        plan = plan_units(ddg, dict(LATENCIES, next=1))
        times = {"next": 10}
        # member `use` (offset 2) must start <= 10 - lat(use)=4 -> 6, so
        # the leader starts at most 4.
        assert latest_start(plan, plan.units["ls"], 3, times) == 4

    def test_no_neighbours_gives_none(self):
        ddg = spill_shaped_graph()
        plan = plan_units(ddg, LATENCIES)
        assert earliest_start(plan, plan.units["ls"], 3, {}) is None
        assert latest_start(plan, plan.units["ls"], 3, {}) is None

    def test_distance_relaxes_earliest(self):
        ddg = spill_shaped_graph()
        edge = ddg.reg_out_edges("prod")[0]
        ddg.remove_edge(edge)
        ddg.add_edge(Edge("prod", "use", EdgeKind.REG, distance=1))
        plan = plan_units(ddg, LATENCIES)
        times = {"prod": 0}
        # constraint: t_use + II >= 4 -> leader >= 4 - II - offset
        assert earliest_start(plan, plan.units["ls"], 3, times) == -1


class TestInternalConsistency:
    def test_internal_non_fused_edge_checked(self):
        from repro.graph.ddg import DepKind

        ddg = spill_shaped_graph()
        # anti edge use -> ls (latency 1) with distance 1 inside the unit:
        # constraint t_ls + II >= t_use + 1, offsets give 0 + II >= 2 + 1.
        ddg.add_edge(
            Edge("use", "ls", EdgeKind.MEM, DepKind.ANTI, distance=1)
        )
        assert plan_units(ddg, LATENCIES).min_ii == 3

    @pytest.mark.parametrize("distance, min_ii", [(2, 2), (3, 1)])
    def test_longer_distance_rounds_min_ii_up(self, distance, min_ii):
        from repro.graph.ddg import DepKind

        ddg = spill_shaped_graph()
        # d * II >= 3 needs II >= ceil(3 / d)
        ddg.add_edge(
            Edge("use", "ls", EdgeKind.MEM, DepKind.ANTI, distance=distance)
        )
        assert plan_units(ddg, LATENCIES).min_ii == min_ii

    def test_internal_distance_zero_violation_never_schedulable(self):
        from repro.graph.ddg import DepKind

        ddg = spill_shaped_graph()
        # the same anti edge at distance 0 needs t_ls >= t_use + 1, which
        # the fixed offsets (ls 0, use 2) contradict at every II.
        ddg.add_edge(Edge("use", "ls", EdgeKind.MEM, DepKind.ANTI))
        assert plan_units(ddg, LATENCIES).min_ii is None

    def test_unconstrained_units_schedule_at_any_ii(self):
        assert plan_units(spill_shaped_graph(), LATENCIES).min_ii == 1

    def test_inconsistent_offsets_never_schedulable(self):
        ddg = DDG()
        for name in ("a", "b", "c"):
            ddg.add_node(Node(name, Opcode.ADD))
        ddg.add_edge(Edge("a", "b", EdgeKind.REG, fused=True))
        ddg.add_edge(Edge("b", "c", EdgeKind.REG, fused=True))
        ddg.add_edge(Edge("a", "c", EdgeKind.REG, fused=True))
        assert plan_units(ddg, {"a": 2, "b": 2, "c": 2}).min_ii is None


class TestPlacement:
    def test_atomic_placement_and_rollback(self):
        ddg = spill_shaped_graph()
        units = build_units(ddg, LATENCIES)
        machine = p1l4()
        mrt = ModuloReservationTable(machine, ii=3)
        # occupy the adder at the cycle `use` would land on
        mrt.place("blocker", Opcode.ADD, 2)
        assert not try_place_unit(mrt, ddg, units["ls"], 0)
        # rollback must have freed the memory slot taken for `ls`
        assert mrt.can_place(Opcode.SPILL_LOAD, 0)

    def test_successful_group_placement(self):
        ddg = spill_shaped_graph()
        units = build_units(ddg, LATENCIES)
        mrt = ModuloReservationTable(p1l4(), ii=3)
        assert try_place_unit(mrt, ddg, units["ls"], 0)
        assert mrt.is_placed("ls")
        assert mrt.is_placed("use")
        remove_unit(mrt, units["ls"])
        assert not mrt.is_placed("ls")
        assert not mrt.is_placed("use")

    def test_group_members_competing_for_same_unit(self):
        # Two memory ops fused 0 cycles apart on a 1-memory-unit machine
        # can never be placed at the same cycle.
        ddg = DDG()
        ddg.add_node(Node("a", Opcode.SPILL_STORE))
        ddg.add_node(Node("b", Opcode.SPILL_LOAD))
        # contrive: fused edge with zero-latency source
        ddg.add_edge(Edge("a", "b", EdgeKind.MEM, fused=True))
        units = build_units(ddg, {"a": 0, "b": 2})
        mrt = ModuloReservationTable(p1l4(), ii=1)
        assert not try_place_unit(mrt, ddg, units["a"], 0)
        mrt2 = ModuloReservationTable(generic_machine(units=2), ii=1)
        assert try_place_unit(mrt2, ddg, units["a"], 0)
