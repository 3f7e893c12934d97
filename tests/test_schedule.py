"""Unit tests for the Schedule object and kernel view."""

import pytest

from repro.graph import ddg_from_source
from repro.machine import generic_machine
from repro.sched import HRMSScheduler, Schedule
from repro.sched.schedule import kernel_rows


@pytest.fixture
def fig2_schedule(fig2_loop, fig2_machine):
    schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 1)
    assert schedule is not None
    return schedule


class TestBasics:
    def test_times_normalized_to_zero(self, fig2_loop, fig2_machine):
        schedule = Schedule(
            ddg=fig2_loop,
            machine=fig2_machine,
            ii=1,
            times={"Ld_y": 5, "mul1": 7, "add1": 9, "St1_x": 11},
        )
        assert min(schedule.times.values()) == 0

    def test_rows_and_stages(self, fig2_schedule):
        # II=1: every op in row 0, stage == start cycle.
        for name, start in fig2_schedule.times.items():
            assert fig2_schedule.row(name) == 0
            assert fig2_schedule.stage(name) == start

    def test_stage_count_fig2(self, fig2_schedule):
        assert fig2_schedule.stage_count == 7  # paper Figure 2c

    def test_span(self, fig2_schedule):
        assert fig2_schedule.span == 6

    def test_cycles_for(self, fig2_schedule):
        # (N + SC - 1) * II
        assert fig2_schedule.cycles_for(100) == 106
        assert fig2_schedule.cycles_for(0) == 0

    def test_str_mentions_ii(self, fig2_schedule):
        assert "II=1" in str(fig2_schedule)


class TestValidation:
    def test_valid_schedule_passes(self, fig2_schedule):
        fig2_schedule.validate()

    def test_dependence_violation_detected(self, fig2_loop, fig2_machine):
        schedule = Schedule(
            ddg=fig2_loop,
            machine=fig2_machine,
            ii=1,
            times={"Ld_y": 0, "mul1": 1, "add1": 4, "St1_x": 6},
        )
        with pytest.raises(AssertionError, match="dependence violated"):
            schedule.validate()  # mul1 starts 1 cycle after load (needs 2)

    def test_resource_violation_detected(self):
        ddg = ddg_from_source(
            "z[i] = x1[i] + x2[i] + x3[i] + x4[i] + x5[i]"
        )
        machine = generic_machine(units=2, latency=1)
        times = {name: 0 for name in ddg.nodes}  # everything at cycle 0
        schedule = Schedule(ddg=ddg, machine=machine, ii=4, times=times)
        with pytest.raises(AssertionError):
            schedule.validate()

    def test_broken_complex_operation_detected(self, fig2_loop, fig2_machine):
        from repro.api import compile_loop

        result = compile_loop(

            fig2_loop, fig2_machine, strategy="spill", registers=6

        )
        good = result.schedule
        # displace a fused spill load by one cycle
        broken_times = dict(good.times)
        load = next(n for n in result.ddg.nodes if n.startswith("Ls1"))
        broken_times[load] -= 1
        bad = Schedule(
            ddg=result.ddg,
            machine=good.machine,
            ii=good.ii,
            times=broken_times,
        )
        with pytest.raises(AssertionError):
            bad.validate()


class TestKernelRows:
    def test_every_op_appears_once(self, fig2_schedule):
        rows = kernel_rows(fig2_schedule)
        names = [slot.name for row in rows for slot in row]
        assert sorted(names) == sorted(fig2_schedule.times)

    def test_row_count_equals_ii(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 2)
        rows = kernel_rows(schedule)
        assert len(rows) == 2

    def test_stage_subscripts(self, fig2_schedule):
        rows = kernel_rows(fig2_schedule)
        slots = {slot.name: slot for row in rows for slot in row}
        assert slots["Ld_y"].stage == 0
        assert slots["St1_x"].stage == 6
        assert str(slots["St1_x"]) == "St1_x_6"


class TestMemoryUtilization:
    def test_fig2_generic_utilization(self, fig2_schedule):
        # 4 ops in 4 slots of the single kernel cycle -> fully busy.
        assert fig2_schedule.memory_utilization() == pytest.approx(1.0)

    def test_partial_utilization(self, fig2_loop, fig2_machine):
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, 2)
        assert 0.0 < schedule.memory_utilization() <= 1.0
