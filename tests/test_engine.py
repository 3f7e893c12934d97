"""Tests for the parallel cached experiment engine
(:mod:`repro.eval.engine`) and the seeded random-DDG generator."""

import json
import random

import pytest

from repro.eval.engine import (
    Cell,
    evaluate_cell,
    machine_spec,
    pack_options,
    resolve_machine,
    run_cells,
    run_sweep,
    workload_cells,
)
from repro.machine import generic_machine, p1l4, p2l4, p2l6
from repro.sched import HRMSScheduler, ScheduleError
from repro.sched import cache as sched_cache
from repro.workloads import (
    RandomDDGParams,
    perfect_club_like_suite,
    random_loop_source,
    random_suite,
)


@pytest.fixture(scope="module")
def tiny_suite():
    return perfect_club_like_suite(size=10)


class TestMachineSpecs:
    def test_paper_machines_round_trip(self):
        for machine in (p1l4(), p2l4(), p2l6()):
            assert resolve_machine(machine_spec(machine)).name == machine.name

    def test_generic_round_trip(self):
        machine = generic_machine(3, 5)
        resolved = resolve_machine(machine_spec(machine))
        assert resolved == machine

    def test_generic_name_form(self):
        assert resolve_machine("G4L2") == generic_machine(4, 2)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            resolve_machine("vax780")


class TestCellEvaluation:
    def test_ideal_cell(self, tiny_suite):
        cell = workload_cells("ideal", tiny_suite[:1], p2l4())[0]
        result = evaluate_cell(cell)
        data = result.data
        assert data["ii"] >= 1
        assert data["registers"] >= 1
        assert data["cycles"] > 0 and data["traffic"] > 0

    def test_spill_cell_respects_options(self, tiny_suite):
        from repro.core.select import SelectionPolicy

        workload = next(
            w for w in tiny_suite
            if evaluate_cell(
                workload_cells("ideal", [w], p2l4())[0]
            ).data["registers"] > 16
        )
        cell = workload_cells(
            "spill", [workload], p2l4(), budget=16,
            options=pack_options(
                dict(policy=SelectionPolicy.MAX_LT, max_rounds=40)
            ),
        )[0]
        result = evaluate_cell(cell)
        assert result.data["converged"]
        assert result.data["registers"] <= 16

    def test_unknown_kind_rejected(self):
        cell = Cell(
            kind="nope", workload="w", source="z[i] = x[i]",
            weight=1, machine="P2L4",
        )
        with pytest.raises(KeyError):
            evaluate_cell(cell)


class TestDeterminismAcrossJobs:
    def test_results_independent_of_job_count(self, tiny_suite):
        cells = workload_cells("fig8", tiny_suite, p2l4(), budget=32)
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=3)
        assert [r.cell for r in serial.results] == [
            r.cell for r in parallel.results
        ]
        assert [r.data for r in serial.results] == [
            r.data for r in parallel.results
        ]

    def test_sweep_json_byte_identical(self, tiny_suite):
        kwargs = dict(
            suite=tiny_suite, machines=[p2l4()],
            artifacts=("table1", "fig8"),
        )
        one = run_sweep(jobs=1, **kwargs)
        four = run_sweep(jobs=4, **kwargs)
        assert one.to_json_text() == four.to_json_text()


class TestDeterminismAcrossHashSeeds:
    def test_sweep_json_independent_of_hash_seed(self, tmp_path):
        """String hashing is salted per process: no scheduler may let
        set iteration order leak into a schedule (IMS used to evict
        blockers and re-queue violated successors in hash order)."""
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.json"
            subprocess.run(
                [sys.executable, "-m", "repro", "sweep", "--size", "4",
                 "--machines", "P2L4", "--budgets", "32",
                 "--artifacts", "fig8", "--scheduler", "hrms,ims,swing",
                 "--json-out", str(out)],
                cwd=root, check=True, stdout=subprocess.DEVNULL,
                env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                         PYTHONHASHSEED=seed),
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCacheAccounting:
    def test_repeated_batch_hits_cache(self, tiny_suite):
        sched_cache.clear()
        cells = workload_cells("ideal", tiny_suite, p2l4())
        cold = run_cells(cells, jobs=1)
        warm = run_cells(cells, jobs=1)
        assert cold.cache.schedule_misses == len(cells)
        assert warm.cache.schedule_misses == 0
        assert warm.cache.schedule_hits >= len(cells)
        assert [r.data for r in cold.results] == [r.data for r in warm.results]

    def test_artifacts_share_the_ideal_pass(self, tiny_suite):
        sched_cache.clear()
        run_cells(workload_cells("ideal", tiny_suite, p2l4()), jobs=1)
        fig8 = run_cells(
            workload_cells("fig8", tiny_suite, p2l4(), budget=64), jobs=1
        )
        # every fig8 cell's ideal schedule comes from the warmed memo
        assert fig8.cache.schedule_hits >= len(tiny_suite)

    def test_disabled_context_bypasses_caches(self, tiny_suite):
        sched_cache.clear()
        cells = workload_cells("ideal", tiny_suite[:3], p2l4())
        run_cells(cells, jobs=1)
        with sched_cache.disabled():
            again = run_cells(cells, jobs=1)
        assert again.cache.schedule_hits == 0
        assert again.cache.schedule_misses == 0


class TestSweepJson:
    def test_round_trip(self, tiny_suite):
        report = run_sweep(
            suite=tiny_suite, machines=[p2l4()], artifacts=("table1",),
        )
        document = json.loads(report.to_json_text())
        assert document == report.to_json()
        assert document["schema"] == "repro.sweep/1"
        assert document["suite"]["machines"] == ["P2L4"]
        assert len(document["cells"]) == 2 * len(tiny_suite)

    def test_json_excludes_wall_clock(self, tiny_suite):
        report = run_sweep(
            suite=tiny_suite, machines=[p2l4()],
            artifacts=("table1", "fig8"),
        )
        text = report.to_json_text()
        assert "seconds" not in text
        for row in json.loads(text)["artifacts"]["fig8"]["rows"]:
            assert "seconds" not in row

    def test_artifact_rows_match_driver_results(self, tiny_suite):
        from repro.eval import run_table1

        report = run_sweep(
            suite=tiny_suite, machines=[p2l4()], artifacts=("table1",),
        )
        direct = run_table1(tiny_suite, machines=[p2l4()])
        assert [
            tuple(row)
            for row in report.to_json()["artifacts"]["table1"]["rows"]
        ] == direct.rows

    def test_unknown_artifact_rejected(self, tiny_suite):
        with pytest.raises(ValueError):
            run_sweep(suite=tiny_suite, artifacts=("fig3",))


class TestMultiSchedulerSweep:
    def test_combined_grid_keys_and_cells(self, tiny_suite):
        report = run_sweep(
            suite=tiny_suite, machines=[p2l4()], budgets=(32,),
            artifacts=("table1",), scheduler=["hrms", "swing"],
        )
        document = report.to_json()
        assert sorted(document["artifacts"]) == [
            "table1@hrms", "table1@swing",
        ]
        assert {cell["scheduler"] for cell in document["cells"]} == {
            "hrms", "swing",
        }
        assert document["suite"]["schedulers"] == ["hrms", "swing"]
        # every cell grid is present once per scheduler
        assert len(document["cells"]) == 2 * len(tiny_suite)
        assert "[table1@hrms]" in report.render()

    def test_jobs_deterministic(self, tiny_suite):
        kwargs = dict(
            suite=tiny_suite, machines=[p2l4()], budgets=(32,),
            artifacts=("table1",), scheduler=["hrms", "swing"],
        )
        serial = run_sweep(jobs=1, **kwargs).to_json_text()
        parallel = run_sweep(jobs=2, **kwargs).to_json_text()
        assert serial == parallel

    def test_single_scheduler_keeps_plain_keys(self, tiny_suite):
        report = run_sweep(
            suite=tiny_suite, machines=[p2l4()], artifacts=("table1",),
            scheduler=["swing"],
        )
        document = report.to_json()
        assert sorted(document["artifacts"]) == ["table1"]
        assert document["suite"]["schedulers"] == ["swing"]

    def test_duplicate_schedulers_rejected(self, tiny_suite):
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(
                suite=tiny_suite, artifacts=("table1",),
                scheduler=["hrms", "hrms"],
            )


class TestSuiteFilter:
    def test_filter_restricts_cells(self, tiny_suite):
        report = run_sweep(
            suite=tiny_suite, machines=[p2l4()], budgets=(32,),
            artifacts=("table1",), suite_filter="high_pressure",
        )
        document = report.to_json()
        assert {cell["workload"] for cell in document["cells"]} == {
            "apsi47_like",
        }
        assert document["suite"]["suite_filter"] == "high_pressure"
        assert document["suite"]["size"] == 1

    def test_comma_separated_categories(self, tiny_suite):
        from repro.eval.engine import filter_suite

        filtered = filter_suite(tiny_suite, "high_pressure,nonconvergent")
        assert sorted(w.name for w in filtered) == [
            "apsi47_like", "apsi50_like",
        ]

    def test_unknown_category_rejected(self, tiny_suite):
        with pytest.raises(ValueError, match="unknown suite category"):
            run_sweep(
                suite=tiny_suite, artifacts=("table1",),
                suite_filter="bogus",
            )


class TestRandomGenerator:
    def test_deterministic_per_seed(self):
        a = [w.source for w in random_suite(size=8, seed=5)]
        b = [w.source for w in random_suite(size=8, seed=5)]
        assert a == b

    def test_seeds_differ(self):
        a = [w.source for w in random_suite(size=8, seed=5)]
        b = [w.source for w in random_suite(size=8, seed=6)]
        assert a != b

    @pytest.mark.parametrize("seed", range(6))
    def test_always_schedulable_at_finite_ii(self, seed):
        """Property: every generated DDG admits a schedule at some finite
        II (recurrences always carry distance >= 1)."""
        scheduler = HRMSScheduler()
        machine = generic_machine(4, 2)
        for workload in random_suite(
            size=4, seed=seed, ops=18, recurrence_density=0.3
        ):
            workload.ddg.validate()
            try:
                schedule = scheduler.schedule(workload.ddg, machine)
            except ScheduleError as error:  # pragma: no cover
                pytest.fail(f"{workload.name} unschedulable: {error}")
            schedule.validate()

    def test_parameters_steer_the_mix(self):
        rng = random.Random(0)
        heavy = RandomDDGParams(ops=30, recurrence_density=1.0,
                                store_mix=1.0)
        sources = [random_loop_source(rng, heavy) for _ in range(5)]
        assert all(
            "acc" in source or "[i-" in source for source in sources
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RandomDDGParams(recurrence_density=1.5).validate()
        with pytest.raises(ValueError):
            RandomDDGParams(ops=0).validate()

    def test_random_suite_sweepable(self):
        suite = random_suite(size=6, seed=2)
        report = run_sweep(
            suite=suite, machines=[generic_machine(4, 2)],
            budgets=(16, 8), artifacts=("table1",),
        )
        assert len(report.to_json()["cells"]) == 2 * len(suite)
