"""Property tests for the compiled lifetime/register core.

The array paths (`repro.lifetimes.index`, the difference-array pressure
pattern, the bitmask rotating-file allocator) must be *observationally
identical* to the pure-python reference implementations kept as oracles
(``variant_lifetimes_reference``, ``pressure_pattern_reference``,
``allocate_registers_reference``) — same lifetimes, same patterns, same
placements, placement for placement — across random workloads, all
three schedulers and every spill-shaped strategy, plus the legacy
edge-scan oracles for ``static_lifetimes`` and
``distance_register_floor`` replicated verbatim in this file.
"""

import collections
import random

import pytest

from repro.api import compile_loop
from repro.core.increase_ii import distance_register_floor
from repro.core.prespill import static_lifetimes
from repro.graph import ddg_from_source
from repro.graph.analysis import longest_path_lengths
from repro.graph.index import WORK
from repro.lifetimes import (
    allocate_registers,
    allocate_registers_reference,
    invariant_lifetimes,
    max_live,
    max_live_reference,
    pressure_pattern,
    pressure_pattern_reference,
    register_requirements,
    variant_lifetimes,
    variant_lifetimes_reference,
)
from repro.lifetimes.allocator import _try_allocate, _try_allocate_reference
from repro.lifetimes.lifetime import Lifetime
from repro.lifetimes.maxlive import distance_component_floor, live_instances
from repro.machine.machine import p2l4
from repro.sched import cache as sched_cache
from repro.sched import store as sched_store
from repro.sched.hrms import HRMSScheduler
from repro.sched.ims import IMSScheduler
from repro.sched.swing import SwingScheduler
from repro.workloads import NAMED_KERNELS, random_suite

MACHINE = p2l4()
SCHEDULERS = (HRMSScheduler, IMSScheduler, SwingScheduler)
SPILL_STRATEGIES = ("spill", "increase", "prespill", "combined")


@pytest.fixture(scope="module")
def workloads():
    return random_suite(size=14, seed=20260729)


def _schedules(workloads):
    for workload in workloads:
        for scheduler_cls in SCHEDULERS:
            yield workload.name, scheduler_cls().schedule(
                workload.ddg, MACHINE
            )


def verify_no_overlap(schedule, allocation, lifetimes):
    """Independent checker: expand every arc on the circle and assert
    cell-disjointness (neither allocator's bookkeeping is trusted)."""
    circumference = allocation.registers * schedule.ii
    cells = {}
    for lifetime in lifetimes:
        slot = allocation.placement[lifetime.value]
        start = (lifetime.start + slot * schedule.ii) % circumference
        for cycle in range(lifetime.length):
            cell = (start + cycle) % circumference
            assert cell not in cells, (
                f"{lifetime.value} overlaps {cells[cell]} at cell {cell}"
            )
            cells[cell] = lifetime.value


# ----------------------------------------------------------------------
# legacy oracles replicated verbatim from the pre-index implementations
def legacy_static_lifetimes(ddg, machine, ii):
    latencies = machine.latencies_for(ddg)
    try:
        asap = longest_path_lengths(ddg, latencies, ii)
    except ValueError:
        return []
    estimates = []
    for producer in ddg.producers():
        edges = ddg.reg_out_edges(producer.name)
        if not edges:
            continue
        last = max(edges, key=lambda e: asap[e.dst] + ii * e.distance)
        sched = max(
            asap[last.dst] - asap[producer.name],
            latencies[producer.name],
        )
        spillable = (
            not producer.is_spill
            and all(edge.spillable for edge in edges)
        )
        estimates.append(
            Lifetime(
                value=producer.name,
                start=asap[producer.name],
                sched_component=sched,
                dist_component=ii * last.distance,
                consumers=tuple(sorted(e.dst for e in edges)),
                spillable=spillable,
            )
        )
    for invariant in ddg.invariants.values():
        estimates.append(
            Lifetime(
                value=invariant.name,
                start=0,
                sched_component=ii,
                dist_component=0,
                consumers=tuple(sorted(invariant.consumers)),
                spillable=invariant.spillable,
                is_invariant=True,
            )
        )
    return estimates


def legacy_distance_register_floor(ddg):
    floor = len(ddg.invariants)
    for producer in ddg.producers():
        edges = ddg.reg_out_edges(producer.name)
        if edges:
            floor += max(edge.distance for edge in edges)
    return floor


# ----------------------------------------------------------------------
class TestLifetimeParity:
    def test_variant_lifetimes_identical(self, workloads):
        for name, schedule in _schedules(workloads):
            assert variant_lifetimes(schedule) == (
                variant_lifetimes_reference(schedule)
            ), name

    def test_pressure_pattern_identical(self, workloads):
        for name, schedule in _schedules(workloads):
            for include in (True, False):
                assert pressure_pattern(schedule, include) == (
                    pressure_pattern_reference(schedule, include)
                ), name

    def test_pattern_with_explicit_lifetimes_identical(self, workloads):
        for name, schedule in _schedules(workloads):
            mixed = variant_lifetimes(schedule) + invariant_lifetimes(
                schedule
            )
            assert pressure_pattern(schedule, True, mixed) == (
                pressure_pattern_reference(schedule, True, mixed)
            ), name

    def test_max_live_identical(self, workloads):
        for name, schedule in _schedules(workloads):
            assert max_live(schedule) == max_live_reference(schedule), name
            assert max_live(schedule, False) == (
                max_live_reference(schedule, False)
            ), name

    def test_pattern_matches_per_cycle_live_instances(self, workloads):
        """The difference-array pattern equals the definitional per-cycle
        sum of ``live_instances`` (not just the reference loop)."""
        for name, schedule in _schedules(workloads):
            pattern = pressure_pattern(schedule, include_invariants=False)
            lifetimes = variant_lifetimes(schedule)
            for cycle in range(schedule.ii):
                expected = sum(
                    live_instances(lt, cycle, schedule.ii)
                    for lt in lifetimes
                )
                assert pattern[cycle] == expected, (name, cycle)

    def test_static_lifetimes_identical(self, workloads):
        for workload in workloads:
            ddg = workload.ddg
            mii = sched_cache.cached_mii(ddg, MACHINE)
            for ii in (mii, mii + 3):
                assert static_lifetimes(ddg, MACHINE, ii) == (
                    legacy_static_lifetimes(ddg, MACHINE, ii)
                ), workload.name

    def test_distance_floors_identical(self, workloads):
        for workload in workloads:
            assert distance_register_floor(workload.ddg) == (
                legacy_distance_register_floor(workload.ddg)
            ), workload.name
        for name, schedule in _schedules(workloads):
            floor = distance_component_floor(schedule)
            oracle = len(schedule.ddg.invariants) + sum(
                lt.dist_component // schedule.ii
                for lt in variant_lifetimes_reference(schedule)
            )
            assert floor == oracle, name


def _has_zero_gap_tie(ordered, placement, ii, registers):
    """Whether some value, when placed, had two or more feasible slots
    right behind an occupied cell (replaying *placement* on the circle)."""
    circumference = ii * registers
    occupied = set()
    tie = False
    for lifetime in ordered:
        zero_gap = 0
        for slot in range(registers):
            start = lifetime.start + slot * ii
            arc = {(start + c) % circumference for c in range(lifetime.length)}
            if not arc & occupied and (start - 1) % circumference in occupied:
                zero_gap += 1
        tie |= zero_gap > 1
        start = lifetime.start + placement[lifetime.value] * ii
        occupied |= {
            (start + c) % circumference for c in range(lifetime.length)
        }
    return tie


def _gap_cases(ordered, placement, ii, registers):
    """Replay *placement*: count the values that, placed on a non-empty
    circle, had no feasible slot right behind an occupied cell
    (``lifted``), with two or more slots sharing the smallest gap
    (``lifted tie``), or with a smallest-gap free run that wraps past
    cell 0 (``lifted wrap``)."""
    circumference = ii * registers
    occupied = bytearray(circumference)
    cases = collections.Counter()
    for lifetime in ordered:
        gaps = []
        for slot in range(registers):
            start = (lifetime.start + slot * ii) % circumference
            if any(
                occupied[(start + c) % circumference]
                for c in range(lifetime.length)
            ):
                continue
            gap = 0
            while gap < circumference and not occupied[
                (start - gap - 1) % circumference
            ]:
                gap += 1
            gaps.append((gap, start))
        smallest = min((gap for gap, _ in gaps), default=0)
        if 0 < smallest < circumference:
            cases["lifted"] += 1
            cases["lifted tie"] += sum(gap == smallest for gap, _ in gaps) > 1
            cases["lifted wrap"] += any(
                gap == smallest and start - gap <= 0 for gap, start in gaps
            )
        start = lifetime.start + placement[lifetime.value] * ii
        for c in range(lifetime.length):
            occupied[(start + c) % circumference] = 1
    return cases


class TestAllocatorParity:
    def test_placements_identical(self, workloads):
        for name, schedule in _schedules(workloads):
            fast = allocate_registers(schedule)
            slow = allocate_registers_reference(schedule)
            assert fast.registers == slow.registers, name
            assert fast.max_live == slow.max_live, name
            assert fast.placement == slow.placement, name

    def test_placements_disjoint_and_claim_holds(self, workloads):
        """Rau et al.'s claim on our random loops: the end-fit result is
        never below MaxLive and almost never far above it."""
        for name, schedule in _schedules(workloads):
            lifetimes = [
                lt for lt in variant_lifetimes(schedule) if lt.length > 0
            ]
            allocation = allocate_registers(schedule, lifetimes)
            verify_no_overlap(schedule, allocation, lifetimes)
            assert allocation.registers >= allocation.max_live, name
            assert allocation.excess_over_maxlive <= 2, name

    def test_named_kernels_identical(self):
        for kernel, source in NAMED_KERNELS.items():
            ddg = ddg_from_source(source, name=kernel)
            schedule = HRMSScheduler().schedule(ddg, MACHINE)
            fast = allocate_registers(schedule)
            slow = allocate_registers_reference(schedule)
            assert fast.placement == slow.placement, kernel
            assert fast.registers == slow.registers, kernel

    def test_bitmask_path_does_less_probe_work(self, workloads):
        fast = slow = 0
        for name, schedule in _schedules(workloads):
            before = WORK.snapshot()
            allocate_registers(schedule)
            middle = WORK.snapshot()
            allocate_registers_reference(schedule)
            after = WORK.snapshot()
            fast += middle.delta(before).alloc_probes
            slow += after.delta(middle).alloc_probes
        assert fast > 0 and slow > 0
        assert fast * 3 <= slow, (fast, slow)

    def test_try_allocate_matches_reference_on_random_circles(self):
        """One placement pass, both paths, on seeded random circles: the
        same placement or the same ``None`` every time."""
        rng = random.Random(1992)
        seen = collections.Counter()
        for _ in range(3000):
            ii = rng.randint(1, 6)
            registers = rng.randint(1, 8)
            circumference = ii * registers
            lifetimes = []
            for index in range(rng.randint(1, 8)):
                start = rng.randrange(0, 3 * circumference)
                if rng.random() < 0.2:
                    start -= start % circumference
                # short arcs leave room for ties; long ones overflow
                length = rng.randint(1, ii) if rng.random() < 0.5 else min(
                    rng.randint(1, circumference + 1),
                    rng.randint(1, circumference + 1),
                )
                seen["start % C == 0"] += start % circumference == 0
                seen["wraps"] += start % circumference + length > circumference
                seen["length == C"] += length == circumference
                lifetimes.append(
                    Lifetime(f"v{index}", start, length, 0, ())
                )
            ordered = list(range(len(lifetimes)))
            rng.shuffle(ordered)
            fast = _try_allocate(
                ordered,
                [lt.value for lt in lifetimes],
                [lt.start for lt in lifetimes],
                [lt.length for lt in lifetimes],
                ii,
                registers,
            )
            slow = _try_allocate_reference(
                [lifetimes[j] for j in ordered], ii, registers
            )
            assert fast == slow, (ii, registers, lifetimes, ordered)
            seen["both None"] += fast is None
            seen["zero-gap tie"] += fast is not None and _has_zero_gap_tie(
                [lifetimes[j] for j in ordered], fast, ii, registers
            )
        assert all(
            seen[case] > 0
            for case in (
                "start % C == 0", "wraps", "length == C", "both None",
                "zero-gap tie",
            )
        ), seen

    def test_try_allocate_matches_reference_without_zero_gap(self):
        """Seeded circles up to 4,096 cells (the default sweep's largest
        is 3,744) whose values mostly find no slot right behind an
        occupied cell, so the smallest gap comes from binary lifting."""
        rng = random.Random(3744)
        seen = collections.Counter()
        for trial in range(200):
            ii = rng.choice((3, 7, 16, 29, 64, 117))
            cells = 4096 if trial % 8 == 0 else 512
            registers = rng.randint(1, min(128, max(1, cells // ii)))
            circumference = ii * registers
            lifetimes = [
                Lifetime(
                    f"v{index}",
                    rng.randrange(0, 2 * circumference),
                    rng.randint(1, max(1, circumference // 6)),
                    0,
                    (),
                )
                for index in range(rng.randint(3, 10))
            ]
            ordered = list(range(len(lifetimes)))
            rng.shuffle(ordered)
            fast = _try_allocate(
                ordered,
                [lt.value for lt in lifetimes],
                [lt.start for lt in lifetimes],
                [lt.length for lt in lifetimes],
                ii,
                registers,
            )
            slow = _try_allocate_reference(
                [lifetimes[j] for j in ordered], ii, registers
            )
            assert fast == slow, (ii, registers, lifetimes, ordered)
            seen["C > 2048"] += circumference > 2048
            seen["both None"] += fast is None
            if fast is not None:
                seen += _gap_cases(
                    [lifetimes[j] for j in ordered], fast, ii, registers
                )
        assert all(
            seen[case] > 0
            for case in (
                "C > 2048", "both None", "lifted", "lifted tie",
                "lifted wrap",
            )
        ), seen

    def test_zero_gap_tie_goes_to_first_slot_in_order(self):
        """v2's slots both sit right behind an occupied cell; slot 0
        (position 3) comes first in slot order although slot 1's position
        1 is the lower cell."""
        lifetimes = [
            Lifetime("v0", 4, 1, 0, ()),
            Lifetime("v1", 0, 1, 0, ()),
            Lifetime("v2", 3, 1, 0, ()),
        ]
        expected = {"v0": 0, "v1": 1, "v2": 0}
        assert _try_allocate_reference(lifetimes, 2, 2) == expected
        assert _try_allocate(
            [0, 1, 2], ["v0", "v1", "v2"], [4, 0, 3], [1, 1, 1], 2, 2
        ) == expected


class TestStrategyParity:
    def test_final_reports_match_reference_measurement(self, workloads):
        """Every spill-shaped strategy's final schedule measures the same
        through the array path as through the pure-python oracles."""
        budget = 14
        for workload in list(workloads)[:6]:
            for scheduler in ("hrms", "ims", "swing"):
                for strategy in SPILL_STRATEGIES:
                    result = compile_loop(
                        workload.ddg.copy(),
                        machine=MACHINE,
                        scheduler=scheduler,
                        strategy=strategy,
                        registers=budget,
                        name=workload.name,
                    )
                    schedule = result.schedule
                    if schedule is None:
                        continue
                    report = result.report
                    assert report.max_live == max_live_reference(
                        schedule, include_invariants=False
                    ), (workload.name, scheduler, strategy)
                    if report.exact:
                        oracle = allocate_registers_reference(schedule)
                        assert report.allocated == oracle.registers, (
                            workload.name, scheduler, strategy
                        )


class TestAllocMemo:
    def test_instance_then_content_hits(self):
        sched_cache.clear()
        ddg = ddg_from_source(NAMED_KERNELS["fir8"], name="fir8")
        with sched_cache.disabled():
            schedule = HRMSScheduler().schedule(ddg, MACHINE)
        before = sched_cache.STATS.snapshot()
        first = register_requirements(schedule)
        delta = sched_cache.STATS.delta(before)
        assert (delta.alloc_hits, delta.alloc_misses) == (0, 1)
        second = register_requirements(schedule)  # instance memo
        delta = sched_cache.STATS.delta(before)
        assert (delta.alloc_hits, delta.alloc_misses) == (1, 1)
        assert second is first
        # a content-identical schedule on another graph instance hits the
        # process-wide memo without ever re-measuring
        with sched_cache.disabled():
            twin = HRMSScheduler().schedule(ddg.copy(), MACHINE)
        third = register_requirements(twin)
        delta = sched_cache.STATS.delta(before)
        assert (delta.alloc_hits, delta.alloc_misses) == (2, 1)
        assert third == first

    def test_exact_and_estimate_are_distinct_entries(self):
        sched_cache.clear()
        ddg = ddg_from_source(NAMED_KERNELS["stencil5"], name="stencil5")
        with sched_cache.disabled():
            schedule = HRMSScheduler().schedule(ddg, MACHINE)
        register_requirements(schedule, exact=True)
        register_requirements(schedule, exact=False)
        assert sched_cache.STATS.alloc_misses == 2

    def test_disabled_bypasses_memo(self):
        sched_cache.clear()
        ddg = ddg_from_source(NAMED_KERNELS["fir8"], name="fir8")
        with sched_cache.disabled():
            schedule = HRMSScheduler().schedule(ddg, MACHINE)
            register_requirements(schedule)
            register_requirements(schedule)
        assert sched_cache.STATS.alloc_hits == 0
        assert sched_cache.STATS.alloc_misses == 0

    def test_warm_store_serves_fresh_process_state(self, tmp_path):
        """A cleared in-memory state (a stand-in for a fresh worker)
        re-reads measurements from the persistent store's ``alloc``
        namespace."""
        store = sched_store.ScheduleStore(tmp_path)
        ddg = ddg_from_source(NAMED_KERNELS["fir8"], name="fir8")
        with sched_store.using(store):
            sched_cache.clear()
            with sched_cache.disabled():
                schedule = HRMSScheduler().schedule(ddg, MACHINE)
            first = register_requirements(schedule)
            sched_cache.clear()  # drop memos; the store keeps its files
            with sched_cache.disabled():
                twin = HRMSScheduler().schedule(ddg.copy(), MACHINE)
            before = sched_cache.STATS.snapshot()
            second = register_requirements(twin)
            delta = sched_cache.STATS.delta(before)
        assert second == first
        assert delta.alloc_hits == 1
        assert delta.store_hits >= 1

    def test_schedule_fingerprint_tracks_content(self):
        ddg = ddg_from_source(NAMED_KERNELS["fir8"], name="fir8")
        with sched_cache.disabled():
            one = HRMSScheduler().schedule(ddg, MACHINE)
            two = HRMSScheduler().schedule(ddg.copy(), MACHINE)
        assert sched_cache.schedule_fingerprint(one) == (
            sched_cache.schedule_fingerprint(two)
        )
        from dataclasses import replace

        shifted = replace(
            two, times={n: t + two.ii for n, t in two.times.items()}
        )
        # __post_init__ renormalizes to start at 0: same content
        assert sched_cache.schedule_fingerprint(shifted) == (
            sched_cache.schedule_fingerprint(one)
        )
        wider = replace(two, ii=two.ii + 1)
        assert sched_cache.schedule_fingerprint(wider) != (
            sched_cache.schedule_fingerprint(one)
        )
