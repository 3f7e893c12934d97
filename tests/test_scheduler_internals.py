"""White-box tests for scheduler internals: IMS eviction, Swing slot
choice, and the base-class search loop."""

import pytest

from repro.graph import ddg_from_source
from repro.graph.ddg import DDG, Edge, EdgeKind, Node
from repro.ir.operations import Opcode
from repro.machine import generic_machine, p1l4, p2l4
from repro.sched import (
    Effort,
    HRMSScheduler,
    IMSScheduler,
    SwingScheduler,
    compute_mii,
)
from repro.workloads import NAMED_KERNELS


class TestIMSEviction:
    def test_contended_unit_forces_eviction_but_schedules(self):
        """Five independent memory ops on one memory unit: placement must
        evict and retry, and still produce a valid schedule at II=5+."""
        ddg = ddg_from_source(
            "z[i] = x1[i] + x2[i] + x3[i] + x4[i]"
        )
        machine = p1l4()
        schedule = IMSScheduler().schedule(ddg, machine)
        schedule.validate()
        assert schedule.ii >= compute_mii(ddg, machine)

    def test_budget_exhaustion_moves_to_next_ii(self):
        """With a tiny budget IMS gives up quickly per II but must still
        terminate with a valid (larger-II) schedule."""
        ddg = ddg_from_source(NAMED_KERNELS["fir8"], name="fir8")
        scheduler = IMSScheduler(budget_ratio=1)
        schedule = scheduler.schedule(ddg, p2l4())
        schedule.validate()

    def test_recurrence_scheduling(self):
        ddg = ddg_from_source("s = c0*s + A0[i]\nZ[i] = s")
        machine = p2l4()
        schedule = IMSScheduler().schedule(ddg, machine)
        schedule.validate()
        assert schedule.ii >= compute_mii(ddg, machine)

    def test_effort_grows_with_contention(self):
        easy = ddg_from_source("z[i] = x[i]")
        hard = ddg_from_source(NAMED_KERNELS["fir8"], name="fir8")
        machine = p1l4()
        s_easy = IMSScheduler().schedule(easy, machine)
        s_hard = IMSScheduler().schedule(hard, machine)
        assert s_hard.effort_placements > s_easy.effort_placements


class TestSwingSlotChoice:
    def test_swing_lifetime_no_worse_than_hrms_on_balanced_tree(self):
        """On a reduction tree Swing's cost-driven slot choice must not
        inflate pressure beyond HRMS by more than a whisker."""
        from repro.lifetimes import max_live

        ddg = ddg_from_source(
            "z[i] = (x1[i] + x2[i]) * (x3[i] + x4[i])"
        )
        machine = generic_machine(units=8, latency=2)
        hrms = HRMSScheduler().schedule(ddg, machine)
        swing = SwingScheduler().schedule(ddg, machine)
        assert max_live(swing) <= max_live(hrms) + 2

    def test_swing_explores_full_window(self):
        ddg = ddg_from_source(NAMED_KERNELS["stencil5"], name="stencil5")
        machine = p2l4()
        swing = SwingScheduler().schedule(ddg, machine)
        hrms = HRMSScheduler().schedule(ddg, machine)
        # Swing probes every feasible slot; HRMS stops at the first fit.
        assert swing.effort_placements >= hrms.effort_placements

    def test_swing_handles_groups(self, fig2_loop, fig2_machine):
        from repro.api import compile_loop

        result = compile_loop(
            fig2_loop, fig2_machine, scheduler=SwingScheduler(),
            strategy="spill", registers=6,
        )
        assert result.converged
        result.schedule.validate()


class TestBaseSearch:
    def test_search_window_guarantees_termination(self):
        """Any well-formed graph must find a schedule within the default
        window (a sequential iteration always exists)."""
        ddg = DDG("serial")
        previous = None
        for index in range(12):
            name = f"op{index}"
            ddg.add_node(Node(name, Opcode.DIV))  # non-pipelined, lat 17
            if previous is not None:
                ddg.add_edge(Edge(previous, name, EdgeKind.REG))
            previous = name
        schedule = HRMSScheduler().schedule(ddg, p1l4())
        schedule.validate()

    def test_effort_object_addition(self):
        total = Effort()
        total.add(Effort(placements=3, attempts=1))
        total.add(Effort(placements=4, attempts=2))
        assert total.placements == 7
        assert total.attempts == 3

    def test_schedulers_deterministic(self, any_scheduler):
        ddg = ddg_from_source(NAMED_KERNELS["pressure_update"])
        machine = p2l4()
        first = any_scheduler.schedule(ddg, machine)
        second = any_scheduler.schedule(ddg, machine)
        assert first.times == second.times
        assert first.ii == second.ii
