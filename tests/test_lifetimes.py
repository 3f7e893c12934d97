"""Unit tests for lifetime analysis and MaxLive — anchored to the paper's
exact Figure 2/3 numbers."""

import pytest

from repro.graph import ddg_from_source
from repro.lifetimes import (
    invariant_lifetimes,
    max_live,
    pressure_pattern,
    variant_lifetimes,
)
from repro.lifetimes.maxlive import distance_component_floor, live_instances
from repro.lifetimes.lifetime import Lifetime
from repro.sched import HRMSScheduler


@pytest.fixture
def fig2_at(fig2_loop, fig2_machine):
    def make(ii):
        schedule = HRMSScheduler().try_schedule_at(fig2_loop, fig2_machine, ii)
        assert schedule is not None
        return schedule

    return make


class TestPaperNumbers:
    def test_components_at_ii1(self, fig2_at):
        schedule = fig2_at(1)
        lifetimes = {lt.value: lt for lt in variant_lifetimes(schedule)}
        v1 = lifetimes["Ld_y"]
        assert v1.sched_component == 4  # paper: LTSch_V1 = 4
        assert v1.dist_component == 3   # paper: LTDist_V1 = 3 * II = 3
        assert v1.length == 7

    def test_maxlive_11_at_ii1(self, fig2_at):
        assert max_live(fig2_at(1), include_invariants=False) == 11

    def test_components_at_ii2(self, fig2_at):
        schedule = fig2_at(2)
        v1 = {lt.value: lt for lt in variant_lifetimes(schedule)}["Ld_y"]
        # paper Figure 3: scheduling component unchanged, distance doubles.
        assert v1.sched_component == 4
        assert v1.dist_component == 6

    def test_maxlive_7_at_ii2(self, fig2_at):
        assert max_live(fig2_at(2), include_invariants=False) == 7

    def test_invariant_adds_one(self, fig2_at):
        schedule = fig2_at(1)
        assert max_live(schedule, include_invariants=True) == 12  # + 'a'


class TestLiveInstances:
    def test_short_lifetime_single_instance(self):
        lt = Lifetime("v", start=0, sched_component=2, dist_component=0,
                      consumers=("c",))
        assert live_instances(lt, 0, ii=4) == 1
        assert live_instances(lt, 1, ii=4) == 1
        assert live_instances(lt, 2, ii=4) == 0
        assert live_instances(lt, 3, ii=4) == 0

    def test_long_lifetime_overlaps_itself(self):
        lt = Lifetime("v", start=0, sched_component=7, dist_component=0,
                      consumers=("c",))
        # II=1: 7 instances live at every cycle (paper Figure 2d/2f).
        assert live_instances(lt, 0, ii=1) == 7

    def test_offset_start(self):
        lt = Lifetime("v", start=3, sched_component=2, dist_component=0,
                      consumers=("c",))
        assert live_instances(lt, 3, ii=4) == 1
        # born at 3, alive [3, 5): wraps onto kernel cycle 0
        assert live_instances(lt, 0, ii=4) == 1
        assert live_instances(lt, 1, ii=4) == 0
        assert live_instances(lt, 2, ii=4) == 0

    def test_sum_over_cycles_equals_total_length(self):
        lt = Lifetime("v", start=2, sched_component=5, dist_component=6,
                      consumers=("c",))
        for ii in (1, 2, 3, 4, 5, 11, 13):
            total = sum(live_instances(lt, cycle, ii) for cycle in range(ii))
            assert total == lt.length


class TestPatterns:
    def test_pattern_length_is_ii(self, fig2_at):
        for ii in (1, 2, 3):
            assert len(pressure_pattern(fig2_at(ii))) == ii

    def test_pattern_values_match_figure(self, fig2_at):
        assert pressure_pattern(fig2_at(2), include_invariants=False) == [7, 7]

    def test_empty_graph_pattern(self, fig2_machine):
        from repro.graph.ddg import DDG
        from repro.sched.schedule import Schedule

        schedule = Schedule(DDG(), fig2_machine, ii=1, times={})
        assert max_live(schedule) == 0


class TestSpillabilityMarking:
    def test_plain_values_spillable(self, fig2_at):
        for lifetime in variant_lifetimes(fig2_at(1)):
            assert lifetime.spillable

    def test_spill_created_values_not_spillable(
        self, fig2_loop, fig2_machine
    ):
        from repro.api import compile_loop

        result = compile_loop(

            fig2_loop, fig2_machine, strategy="spill", registers=6

        )
        lifetimes = variant_lifetimes(result.schedule)
        spill_fed = [lt for lt in lifetimes if lt.value.startswith("Ls")]
        assert spill_fed
        assert all(not lt.spillable for lt in spill_fed)

    def test_live_out_without_consumers_not_spillable(self, fig2_machine):
        ddg = ddg_from_source("live_out t\nt = x[i]*x[i]")
        schedule = HRMSScheduler().schedule(ddg, fig2_machine)
        lifetimes = {lt.value: lt for lt in variant_lifetimes(schedule)}
        trailing = [lt for lt in lifetimes.values() if not lt.consumers]
        assert trailing
        assert all(not lt.spillable for lt in trailing)


class TestInvariantLifetimes:
    def test_one_per_invariant_length_ii(self, fig2_at):
        schedule = fig2_at(2)
        invariants = invariant_lifetimes(schedule)
        assert len(invariants) == 1
        assert invariants[0].length == 2
        assert invariants[0].is_invariant

    def test_distance_floor(self, fig2_at):
        # V1 keeps delta=3 instances live forever; 'a' adds one register.
        assert distance_component_floor(fig2_at(1)) == 4
