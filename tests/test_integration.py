"""Cross-module integration tests: the full pipeline (parse -> DDG ->
register-constrained schedule -> allocation -> codegen) over a suite
sample, for every scheduler and the paper's register budgets."""

import pytest

from repro.api import compile_loop
from repro.codegen import emit_loop
from repro.lifetimes import allocate_registers, register_requirements
from repro.machine import p1l4, p2l4, p2l6
from repro.sched import HRMSScheduler
from repro.workloads import perfect_club_like_suite


def run(strategy, ddg, machine, available, scheduler="hrms"):
    return compile_loop(
        ddg, machine, scheduler=scheduler, strategy=strategy,
        registers=available,
    )


@pytest.fixture(scope="module")
def sample():
    return perfect_club_like_suite(size=20)


class TestFullPipeline:
    def test_spill_pipeline_on_sample(self, sample):
        machine = p2l4()
        for workload in sample:
            result = run("spill", workload.ddg, machine, 32)
            assert result.converged, workload.name
            result.schedule.validate()
            report = register_requirements(result.schedule)
            assert report.fits(32), workload.name

    def test_combined_pipeline_on_sample(self, sample):
        machine = p2l6()
        for workload in sample:
            result = run("combined", workload.ddg, machine, 32)
            assert result.converged, workload.name
            assert result.report.fits(32), workload.name

    def test_codegen_on_constrained_schedules(self, sample):
        machine = p1l4()
        for workload in sample[:8]:
            result = run("spill", workload.ddg, machine, 32)
            assert result.converged
            code = emit_loop(result.schedule)
            assert len(code.kernel) == result.ii
            mnemonics = [m for row in code.kernel for m in row]
            assert len(mnemonics) == len(result.schedule.times)

    def test_allocation_on_constrained_schedules(self, sample):
        machine = p2l4()
        for workload in sample[:10]:
            result = run("spill", workload.ddg, machine, 32)
            allocation = allocate_registers(result.schedule)
            assert allocation.registers + len(
                result.ddg.invariants
            ) <= 32, workload.name


class TestCrossSchedulerConsistency:
    def test_all_schedulers_spill_to_budget(self, sample, any_scheduler):
        machine = p2l4()
        for workload in sample[:6]:
            result = run(
                "spill", workload.ddg, machine, 32, scheduler=any_scheduler
            )
            assert result.converged, (workload.name, any_scheduler.name)
            result.schedule.validate()


class TestBudgetMonotonicity:
    def test_smaller_budget_never_faster(self, sample):
        """Tighter register files can only cost cycles."""
        machine = p2l4()
        for workload in sample[:10]:
            generous = run("spill", workload.ddg, machine, 64)
            tight = run("spill", workload.ddg, machine, 16)
            if generous.converged and tight.converged:
                assert tight.ii >= generous.ii, workload.name

    def test_increase_ii_vs_spill_on_sample(self, sample):
        """Where both converge, the spill schedule is never worse than the
        II-increase schedule by more than the paper-observed margin (a few
        loops can favour II increase)."""
        machine = p2l4()
        better = worse = 0
        for workload in sample:
            plain = HRMSScheduler().schedule(workload.ddg, machine)
            if register_requirements(plain).fits(32):
                continue
            inc = run("increase", workload.ddg, machine, 32)
            spill = run("spill", workload.ddg, machine, 32)
            if not (inc.converged and spill.converged):
                continue
            if spill.ii <= inc.ii:
                better += 1
            else:
                worse += 1
        assert better >= worse
