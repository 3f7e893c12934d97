"""Integration tests for HRMS, IMS and Swing on the kernel library."""

import pytest

from repro.graph import ddg_from_source
from repro.machine import generic_machine, p1l4, p2l4
from repro.sched import HRMSScheduler, IMSScheduler, ScheduleError, compute_mii
from repro.workloads import NAMED_KERNELS

SIMPLE_KERNELS = [
    "daxpy", "dscal", "dcopy", "triad", "dot", "asum", "stencil3",
    "prefix_product", "fir4", "horner4", "normalize", "clamp_low",
    "complex_mul", "state_space2",
]


class TestAllKernelsAllMachines:
    @pytest.mark.parametrize("kernel", sorted(NAMED_KERNELS))
    def test_valid_schedule_on_p2l4(self, kernel, any_scheduler):
        ddg = ddg_from_source(NAMED_KERNELS[kernel], name=kernel)
        schedule = any_scheduler.schedule(ddg, p2l4())
        schedule.validate()
        assert schedule.ii >= compute_mii(ddg, p2l4())

    @pytest.mark.parametrize("kernel", SIMPLE_KERNELS)
    def test_valid_schedule_on_every_paper_machine(
        self, kernel, paper_machine
    ):
        ddg = ddg_from_source(NAMED_KERNELS[kernel], name=kernel)
        schedule = HRMSScheduler().schedule(ddg, paper_machine)
        schedule.validate()


class TestOptimality:
    @pytest.mark.parametrize(
        "kernel", ["daxpy", "dscal", "dcopy", "triad", "dot", "stencil3"]
    )
    def test_hrms_achieves_mii_on_simple_kernels(self, kernel):
        ddg = ddg_from_source(NAMED_KERNELS[kernel], name=kernel)
        machine = p2l4()
        schedule = HRMSScheduler().schedule(ddg, machine)
        assert schedule.ii == compute_mii(ddg, machine)

    def test_fig2_achieves_ii_one(self, fig2_loop, fig2_machine):
        for scheduler in (HRMSScheduler(), IMSScheduler()):
            schedule = scheduler.schedule(fig2_loop, fig2_machine)
            assert schedule.ii == 1


class TestFixedII:
    def test_try_schedule_at_fails_below_resmii(self, fig2_loop):
        machine = generic_machine(units=1, latency=2)
        # 4 ops on 1 unit: II=4 minimum.
        assert HRMSScheduler().try_schedule_at(fig2_loop, machine, 3) is None
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, machine, 4)
        assert schedule is not None
        schedule.validate()

    def test_try_schedule_below_recmii_returns_none(self):
        ddg = ddg_from_source("s = s + x[i]*y[i]")
        machine = p2l4()
        assert compute_mii(ddg, machine) == 4
        assert HRMSScheduler().try_schedule_at(ddg, machine, 3) is None

    def test_larger_ii_still_schedulable(self, fig2_loop, fig2_machine):
        for ii in (1, 2, 3, 5, 8):
            schedule = HRMSScheduler().try_schedule_at(
                fig2_loop, fig2_machine, ii
            )
            assert schedule is not None
            schedule.validate()


class TestSearchWindow:
    def test_min_ii_respected(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().schedule(
            fig2_loop, fig2_machine, min_ii=3
        )
        assert schedule.ii >= 3

    def test_max_ii_exhaustion_raises(self, fig2_loop):
        machine = generic_machine(units=1, latency=2)
        with pytest.raises(ScheduleError):
            HRMSScheduler().schedule(fig2_loop, machine, max_ii=2)

    def test_effort_accounting(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().schedule(fig2_loop, fig2_machine)
        assert schedule.effort_attempts >= 1
        assert schedule.effort_placements >= len(fig2_loop.nodes)


class TestEmptyAndDegenerate:
    def test_empty_graph(self, fig2_machine):
        from repro.graph.ddg import DDG

        schedule = HRMSScheduler().schedule(DDG("empty"), fig2_machine)
        assert schedule.times == {}
        assert schedule.stage_count == 1

    def test_single_node(self, fig2_machine):
        ddg = ddg_from_source("z[i] = x[i]")
        schedule = HRMSScheduler().schedule(ddg, fig2_machine)
        schedule.validate()

    def test_divide_loop_on_p1l4(self):
        ddg = ddg_from_source(NAMED_KERNELS["normalize"])
        schedule = HRMSScheduler().schedule(ddg, p1l4())
        schedule.validate()
        assert schedule.ii >= 17  # non-pipelined divide


class TestGroupedScheduling:
    """Schedulers must handle the spiller's complex operations."""

    def _spilled_graph(self, fig2_loop, fig2_machine):
        from repro.api import compile_loop

        result = compile_loop(

            fig2_loop, fig2_machine, strategy="spill", registers=6

        )
        return result.ddg

    def test_all_schedulers_respect_fusion(
        self, fig2_loop, fig2_machine, any_scheduler
    ):
        ddg = self._spilled_graph(fig2_loop, fig2_machine)
        schedule = any_scheduler.schedule(ddg, fig2_machine)
        schedule.validate()  # validate() checks exact fused offsets

    def test_recurrence_with_groups(self, fig2_machine):
        from repro.api import compile_loop

        ddg = ddg_from_source("s = s + x[i]*y[i] + z[i]*w[i]")
        result = compile_loop(ddg, fig2_machine, strategy="spill", registers=3)
        if result.schedule is not None:
            result.schedule.validate()
