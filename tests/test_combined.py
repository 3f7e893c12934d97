"""Unit tests for the combined best-of-both method (paper Section 5)."""

import pytest

from repro.api import compile_loop
from repro.machine import p2l4
from repro.workloads import apsi47_like, apsi50_like


def run(strategy, loop, machine, available, **options):
    return compile_loop(
        loop, machine, strategy=strategy, registers=available,
        options=options,
    )


class TestMethodChoice:
    def test_fitting_loop_uses_plain_schedule(self, fig2_loop, fig2_machine):
        result = run("combined", fig2_loop, fig2_machine, available=32)
        assert result.converged
        assert result.details["method"] == "increase_ii"  # no spill needed
        assert result.details["spill_count"] == 0

    def test_spill_kept_when_plain_never_fits(self):
        # the non-convergent loop: no plain II fits 32 registers
        result = run("combined", apsi50_like(), p2l4(), available=32)
        assert result.converged
        assert result.details["method"] == "spill"
        assert result.report.fits(32)

    def test_result_schedule_validates(self):
        result = run("combined", apsi50_like(), p2l4(), available=32)
        result.schedule.validate()


class TestNeverWorse:
    @pytest.mark.parametrize("available", [32, 16])
    def test_combined_at_least_as_good_as_spill(self, available):
        machine = p2l4()
        for loop_factory in (apsi47_like, apsi50_like):
            loop = loop_factory()
            spill = run("spill", loop, machine, available)
            combined = run("combined", loop, machine, available)
            assert combined.converged == spill.converged
            if spill.converged:
                assert combined.ii <= spill.ii

    def test_combined_at_least_as_good_as_increase_ii(self):
        machine = p2l4()
        loop = apsi47_like()
        increase = run("increase", loop, machine, 32, patience=30)
        combined = run("combined", loop, machine, 32)
        assert combined.converged
        if increase.converged:
            assert combined.ii <= increase.ii

    def test_combined_register_budget_respected(self):
        machine = p2l4()
        for available in (32, 16):
            result = run("combined", apsi47_like(), machine, available)
            assert result.converged
            assert result.report.fits(available)


class TestFailurePropagation:
    def test_impossible_budget_reports_failure(self, fig2_loop, fig2_machine):
        result = run("combined", fig2_loop, fig2_machine, available=1)
        assert not result.converged
        assert result.details["method"] == "spill"


class TestTrafficAccounting:
    def test_plain_choice_has_no_spill_traffic(self, fig2_loop, fig2_machine):
        result = run("combined", fig2_loop, fig2_machine, available=32)
        assert result.memory_ops == fig2_loop.memory_node_count()

    def test_spill_choice_reports_transformed_graph(self):
        loop = apsi50_like()
        result = run("combined", loop, p2l4(), available=32)
        assert result.details["method"] == "spill"
        assert result.memory_ops > loop.memory_node_count()
