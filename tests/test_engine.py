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

    def test_paper_spec_resolves_to_one_shared_instance(self):
        machine = resolve_machine("p1l4")
        assert machine is resolve_machine("P1L4")
        assert machine == p1l4()
        # the memo key is built once per instance, not once per lookup
        key = sched_cache.machine_key(machine)
        assert sched_cache.machine_key(resolve_machine("P1L4")) is key


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

    def test_work_counts_independent_of_hash_seed(self):
        """The same sweep does the same work under any hash seed: a
        fused group's members used to be walked and probed in string
        hash order, which moved ``mrt_probes`` but not the bytes."""
        import json
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        counts = []
        for seed in ("1", "2"):
            completed = subprocess.run(
                [sys.executable, os.path.join(root, "tools", "work_counts.py"),
                 "--schedulers", "hrms,ims,swing", "--size", "4",
                 "--machines", "P2L4", "--budgets", "32",
                 "--artifacts", "fig8"],
                cwd=root, check=True, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                         PYTHONHASHSEED=seed),
            )
            counts.append(json.loads(completed.stdout))
        assert set(counts[0]) == {"hrms", "ims", "swing"}
        for moved in counts[0].values():
            assert set(moved) == {
                "relax_visits", "mrt_probes", "index_builds",
                "lifetime_visits", "alloc_probes",
            }
            assert moved["mrt_probes"] > 0
        assert counts[0] == counts[1]


class TestGoldenBytes:
    #: sha256 of the --json-out file of GOLDEN_SWEEP; a change means the
    #: sweep's bytes moved (re-pin only for an intended output change)
    GOLDEN_SHA256 = (
        "546b378b2494f1e5887a6c9421037ca035e50fcd28b13ed8f76ccc1018070120"
    )
    GOLDEN_SWEEP = [
        "sweep", "--size", "10", "--machines", "P2L4", "--budgets", "32",
        "--artifacts", "table1", "fig4", "fig7", "fig8", "fig9",
        "--scheduler", "hrms,ims,swing",
    ]

    def _sweep(self, out, *options):
        """Run GOLDEN_SWEEP in a fresh process; ``(sha256 of its JSON,
        its stdout)``."""
        import hashlib
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *self.GOLDEN_SWEEP, *options,
             "--json-out", str(out)],
            cwd=root, check=True, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                     PYTHONHASHSEED="0"),
        )
        return hashlib.sha256(out.read_bytes()).hexdigest(), completed.stdout

    def test_every_artifact_and_scheduler_pinned(self, tmp_path):
        """Sweep bytes are compared across commits, not only across
        seeds, job counts and transports within one."""
        digest, _ = self._sweep(tmp_path / "golden.json")
        assert digest == self.GOLDEN_SHA256

    def test_warm_store_run_is_pinned_and_computes_no_schedule(
        self, tmp_path
    ):
        """A fresh process that reads every schedule from a store filled
        by another process writes the pinned bytes."""
        import re

        cache_dir = str(tmp_path / "store")
        cold, _ = self._sweep(tmp_path / "cold.json", "--cache-dir", cache_dir)
        warm, summary = self._sweep(
            tmp_path / "warm.json", "--cache-dir", cache_dir
        )
        assert cold == warm == self.GOLDEN_SHA256
        assert re.search(r"schedule \d+/0,", summary), summary
        assert re.search(r"store \d+/0 ", summary), summary


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

    @pytest.mark.parametrize("artifact", [
        "table1", "fig4", "fig7", "fig8", "fig9",
    ])
    def test_artifact_rows_match_driver_results(self, tiny_suite, artifact):
        """The one-call sweep plan aggregates every artifact exactly as
        its stand-alone ``run_*`` driver does."""
        from repro.eval import experiments
        from repro.eval.engine import _artifact_json

        machine = p2l4()
        drivers = {
            "table1": lambda: experiments.run_table1(tiny_suite, [machine]),
            "fig4": lambda: experiments.run_fig4(machine),
            "fig7": lambda: experiments.run_fig7(machine),
            "fig8": lambda: experiments.run_fig8(tiny_suite, [machine]),
            "fig9": lambda: experiments.run_fig9(tiny_suite, [machine]),
        }
        report = run_sweep(
            suite=tiny_suite, machines=[machine],
            artifacts=("table1", "fig4", "fig7", "fig8", "fig9"),
        )
        direct = _artifact_json(artifact, drivers[artifact]())
        assert report.to_json()["artifacts"][artifact] == direct
        assert all(direct.values())  # nothing compared vacuously

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

    @pytest.mark.parametrize("axis", [
        dict(scheduler=["hrms", "hrms"]),
        dict(artifacts=("table1", "table1")),
        dict(budgets=(32, 32)),
        dict(machines=[p2l4(), resolve_machine("p2l4")]),
    ], ids=["schedulers", "artifacts", "budgets", "machines"])
    def test_duplicate_axis_rejected(self, tiny_suite, axis):
        kwargs = {"suite": tiny_suite, "artifacts": ("table1",), **axis}
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(**kwargs)


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
