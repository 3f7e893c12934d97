"""White-box tests for scheduler internals: IMS eviction, Swing slot
choice, and the base-class search loop."""

import sys
import threading

import pytest
from swing_scan_reference import lifetime_cost, swing_scan_reference

from repro.api import compile_loop
from repro.graph import ddg_from_source
from repro.graph.ddg import DDG, Edge, EdgeKind, Node
from repro.graph.index import WORK
from repro.ir.operations import Opcode
from repro.machine import generic_machine, p1l4, p2l4
from repro.machine.mrt import ModuloReservationTable
from repro.sched import (
    Effort,
    HRMSScheduler,
    IMSScheduler,
    SwingScheduler,
    compute_mii,
)
from repro.sched import cache as sched_cache
from repro.sched.groups import earliest_start, fit_unit, latest_start
from repro.workloads import NAMED_KERNELS, random_suite
from repro.workloads.suite import perfect_club_like_suite


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
        # Swing counts every window slot (it probes them up to the cost
        # minimum); HRMS stops at the first fit.
        assert swing.effort_placements >= hrms.effort_placements

    def test_swing_handles_groups(self, fig2_loop, fig2_machine):
        from repro.api import compile_loop

        result = compile_loop(
            fig2_loop, fig2_machine, scheduler=SwingScheduler(),
            strategy="spill", registers=6,
        )
        assert result.converged
        result.schedule.validate()


def _copy_table(mrt: ModuloReservationTable) -> ModuloReservationTable:
    copy = ModuloReservationTable(mrt.machine, mrt.ii)
    copy._masks = {fu: list(row) for fu, row in mrt._masks.items()}
    copy._placements = dict(mrt._placements)
    return copy


class _CheckedSwing(SwingScheduler):
    """Swing whose every scan is checked against the place/measure/remove
    reference and against a brute-force pass over the window."""

    def __init__(self):
        self.shapes: set[tuple[str, bool]] = set()
        self.probes = {"scan": 0, "window": 0}

    def _scan(self, mrt, ddg, unit, window, times, effort):
        plan, ii = effort.plan, mrt.ii
        has_inputs = earliest_start(plan, unit, ii, times) is not None
        has_outputs = latest_start(plan, unit, ii, times) is not None
        if has_inputs and has_outputs:
            shape = "intersection"
        else:
            shape = "descending" if window.step < 0 else "ascending"
        self.shapes.add((shape, len(unit.members) > 1))

        pristine = _copy_table(mrt)
        reference = _copy_table(mrt)
        reference_effort = Effort()
        expected = swing_scan_reference(
            reference, ddg, unit, window, times, reference_effort
        )

        placements = effort.placements
        probes = WORK.mrt_probes
        slot = super()._scan(mrt, ddg, unit, window, times, effort)
        self.probes["scan"] += WORK.mrt_probes - probes

        assert slot == expected
        assert effort.placements - placements == reference_effort.placements
        assert mrt._masks == reference._masks
        assert mrt._placements == reference._placements

        # brute force: no feasible window slot has a lower (cost, index)
        probes = WORK.mrt_probes
        feasible = [
            (lifetime_cost(ddg, unit, candidate, ii, times), index, candidate)
            for index, candidate in enumerate(window)
            if fit_unit(pristine, ddg, unit, candidate) is not None
        ]
        self.probes["window"] += WORK.mrt_probes - probes
        assert slot == (min(feasible)[2] if feasible else None)
        return slot


class TestSwingScanOracle:
    def test_scan_matches_place_measure_remove(self):
        """The plan-cost scan with its early exit chooses the reference's
        slot, counts its placements and leaves its table, on spilled
        graphs with fused groups, in every window shape."""
        scheduler = _CheckedSwing()
        runs = [
            (perfect_club_like_suite(size=40, seed=1996), "P2L4"),
            (random_suite(size=8, seed=7), "P1L4"),
        ]
        with sched_cache.disabled():
            for suite, machine in runs:
                for workload in suite:
                    compile_loop(
                        workload.ddg, machine, scheduler=scheduler,
                        strategy="spill", registers=8,
                    )
        assert scheduler.shapes == {
            (shape, group)
            for shape in ("ascending", "descending", "intersection")
            for group in (False, True)
        }
        # the early exit leaves part of the windows unprobed
        assert scheduler.probes["scan"] < scheduler.probes["window"]


class TestSwingSharedInstance:
    def test_schedule_leaves_no_state_on_the_instance(self):
        scheduler = SwingScheduler()
        before = dict(vars(scheduler))
        ddg = ddg_from_source(NAMED_KERNELS["stencil5"], name="stencil5")
        scheduler.schedule(ddg, p2l4())
        assert vars(scheduler) == before

    def test_threads_sharing_an_instance_match_serial(self):
        """``Pipeline(scheduler="swing")`` shares one instance between
        the threads that call ``compile``."""
        suite = perfect_club_like_suite(size=40, seed=1996)
        machine = p2l4()
        scheduler = SwingScheduler()

        def run():
            return [
                (schedule.ii, schedule.times)
                for schedule in (
                    scheduler.schedule(workload.ddg, machine)
                    for workload in suite
                )
            ]

        results: dict[int, list] = {}
        interval = sys.getswitchinterval()
        with sched_cache.disabled():
            serial = run()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(
                        target=lambda k=k: results.__setitem__(k, run())
                    )
                    for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                sys.setswitchinterval(interval)
        assert len(results) == 4
        for threaded in results.values():
            assert threaded == serial


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
