"""Unit tests for the stage-scheduling post-pass (paper reference [13])."""

import pytest

from repro.graph import ddg_from_source
from repro.lifetimes import max_live, register_requirements
from repro.machine import p2l4
from repro.sched import HRMSScheduler, IMSScheduler, reduce_stages
from repro.workloads import NAMED_KERNELS


def schedule_with(scheduler_cls, kernel):
    ddg = ddg_from_source(NAMED_KERNELS[kernel], name=kernel)
    return scheduler_cls().schedule(ddg, p2l4())


class TestInvariants:
    @pytest.mark.parametrize(
        "kernel", ["fir8", "stencil5", "pressure_update", "horner8", "dot"]
    )
    def test_result_is_valid_same_ii(self, kernel, any_scheduler):
        original = schedule_with(type(any_scheduler), kernel)
        result = reduce_stages(original)
        result.schedule.validate()
        assert result.schedule.ii == original.ii

    @pytest.mark.parametrize("kernel", ["fir8", "stencil5", "complex_mul"])
    def test_never_increases_maxlive(self, kernel):
        original = schedule_with(IMSScheduler, kernel)
        result = reduce_stages(original)
        assert result.max_live_after <= result.max_live_before
        assert result.registers_saved >= 0

    def test_reported_maxlive_matches_schedule(self):
        original = schedule_with(IMSScheduler, "fir8")
        result = reduce_stages(original)
        assert result.max_live_after == max_live(
            result.schedule, include_invariants=False
        )

    def test_rows_preserved(self):
        """Stage moves shift by multiples of II, keeping kernel rows (and
        thus resource slots) fixed — modulo a global normalization shift
        that rotates all rows together."""
        original = schedule_with(IMSScheduler, "stencil5")
        result = reduce_stages(original)
        ii = original.ii
        deltas = {
            (result.schedule.times[n] - original.times[n]) % ii
            for n in original.times
        }
        assert len(deltas) == 1  # same rotation for every operation


class TestEffectiveness:
    def test_recovers_pressure_on_insensitive_schedules(self):
        """The post-pass must close some of the gap between IMS
        (register-insensitive) and HRMS on stencil5."""
        ims = schedule_with(IMSScheduler, "stencil5")
        hrms = schedule_with(HRMSScheduler, "stencil5")
        result = reduce_stages(ims)
        assert result.registers_saved > 0
        assert result.max_live_after <= max_live(
            hrms, include_invariants=False
        ) + 2

    def test_fixed_point(self):
        original = schedule_with(IMSScheduler, "fir8")
        first = reduce_stages(original)
        second = reduce_stages(first.schedule)
        assert second.registers_saved == 0

    def test_composes_with_spilling(self, fig2_loop, fig2_machine):
        from repro.api import compile_loop

        spilled = compile_loop(

            fig2_loop, fig2_machine, strategy="spill", registers=6

        )
        result = reduce_stages(spilled.schedule)
        result.schedule.validate()
        report = register_requirements(result.schedule)
        assert report.fits(6)

    def test_cannot_beat_pressure_floor(self):
        """The paper's point about post-passes: apsi50's distance floor is
        untouchable without spilling."""
        from repro.core.increase_ii import distance_register_floor
        from repro.workloads import apsi50_like

        loop = apsi50_like()
        schedule = HRMSScheduler().schedule(loop, p2l4())
        result = reduce_stages(schedule)
        assert result.max_live_after + len(loop.invariants) >= (
            distance_register_floor(loop)
        )
