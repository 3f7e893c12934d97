"""End-to-end reproduction of the paper's worked example, asserting the
exact numbers of Figures 2, 3, 5 and 6."""

import pytest

from repro.api import compile_loop
from repro.graph.ddg import EdgeKind
from repro.ir.operations import Opcode
from repro.lifetimes import max_live, register_requirements, variant_lifetimes
from repro.sched import HRMSScheduler, compute_mii


class TestFigure2:
    """x(i) = y(i)*a + y(i-3) on 4 GP units, latency 2, II=1."""

    def test_optimized_ddg_shape(self, fig2_loop):
        # one load, one mul, one add, one store; distance-3 reuse edge
        opcodes = sorted(n.opcode.value for n in fig2_loop.nodes.values())
        assert opcodes == ["add", "load", "mul", "store"]
        load = next(n.name for n in fig2_loop.nodes.values() if n.is_load)
        distances = sorted(
            e.distance for e in fig2_loop.reg_out_edges(load)
        )
        assert distances == [0, 3]

    def test_mii_is_one(self, fig2_loop, fig2_machine):
        assert compute_mii(fig2_loop, fig2_machine) == 1

    def test_eleven_registers_for_variants(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 1)
        assert max_live(schedule, include_invariants=False) == 11

    def test_v1_components(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 1)
        v1 = {lt.value: lt for lt in variant_lifetimes(schedule)}["Ld_y"]
        assert (v1.sched_component, v1.dist_component) == (4, 3)

    def test_stage_count_seven(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 1)
        assert schedule.stage_count == 7


class TestFigure3:
    """Same loop at II=2: 7 registers; only the scheduling component of the
    lifetimes shrank, the distance component grew from 3 to 6 cycles."""

    def test_seven_registers(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 2)
        assert max_live(schedule, include_invariants=False) == 7

    def test_distance_component_grows_with_ii(self, fig2_loop, fig2_machine):
        s1 = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 1)
        s2 = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 2)
        v1_at = lambda s: {
            lt.value: lt for lt in variant_lifetimes(s)
        }["Ld_y"]
        assert v1_at(s1).dist_component == 3
        assert v1_at(s2).dist_component == 6
        assert v1_at(s1).sched_component == v1_at(s2).sched_component == 4


class TestFigures5And6:
    """Spilling V1: producer-is-load optimization, fused spill loads,
    II=2, 5 registers for loop-variants."""

    @pytest.fixture
    def spilled(self, fig2_loop, fig2_machine):
        result = compile_loop(
            fig2_loop, fig2_machine, strategy="spill", registers=6
        )
        assert result.converged
        return result

    def test_spills_exactly_v1(self, spilled):
        assert spilled.spilled == ("Ld_y",)

    def test_fig5c_graph(self, spilled):
        # no spill store (the producer was a load); two spill loads
        opcodes = [n.opcode for n in spilled.ddg.nodes.values()]
        assert opcodes.count(Opcode.SPILL_STORE) == 0
        assert opcodes.count(Opcode.SPILL_LOAD) == 2
        assert Opcode.LOAD not in opcodes  # original load removed

    def test_complex_operations_fused(self, spilled):
        fused = [e for e in spilled.ddg.edges if e.fused]
        assert len(fused) == 2
        assert all(not e.spillable for e in fused)
        assert all(e.kind is EdgeKind.REG for e in fused)

    def test_final_ii_two(self, spilled):
        assert spilled.ii == 2  # paper: "the II of the spilled loop
        # is also 2 cycles"

    def test_five_registers_for_variants(self, spilled):
        assert max_live(spilled.schedule, include_invariants=False) == 5

    def test_spilling_beats_increasing_ii(
        self, spilled, fig2_loop, fig2_machine
    ):
        """Paper: 5 registers after spilling vs 7 when the II is increased
        to 2 — the distance component moved to memory."""
        plain = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 2)
        assert max_live(plain, include_invariants=False) == 7
        assert max_live(spilled.schedule, include_invariants=False) == 5

    def test_allocation_confirms(self, spilled):
        report = register_requirements(spilled.schedule)
        assert report.allocated == 5
        assert report.invariants == 1
