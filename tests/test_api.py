"""Tests for the unified compilation pipeline API (:mod:`repro.api`),
the scheduler/strategy registries, the centralized machine-spec parser,
and the spilling-driver memo."""

import json
import sys
import threading

import pytest

from repro.api import CompilationResult, Pipeline, compile_loop
from repro.core import registry as strategy_registry
from repro.core.driver import schedule_with_spilling
from repro.core.increase_ii import schedule_increasing_ii
from repro.core.prespill import schedule_with_prescheduling_spill
from repro.machine.specs import machine_spec, resolve_machine
from repro.sched import cache as sched_cache
from repro.sched import registry as sched_registry
from repro.sched.hrms import HRMSScheduler

FIG2 = "x[i] = y[i]*a + y[i-3]"
MACHINE = "generic:4:2"


class TestCompileLoopCombos:
    @pytest.mark.parametrize("scheduler", ["hrms", "ims", "swing"])
    @pytest.mark.parametrize(
        "strategy", ["spill", "increase", "prespill", "combined", "none"]
    )
    def test_every_scheduler_strategy_combo(self, scheduler, strategy):
        result = compile_loop(
            FIG2, machine=MACHINE, scheduler=scheduler,
            strategy=strategy, registers=32,
        )
        assert result.converged, (scheduler, strategy, result.reason)
        assert result.status == "ok"
        assert result.scheduler == scheduler
        assert result.strategy == strategy
        assert result.machine == MACHINE
        assert result.ii >= result.mii >= 1
        assert result.registers_used <= 32
        assert result.schedule is not None
        result.schedule.validate()

    def test_accepts_ddg_machineconfig_and_scheduler_instance(self):
        from repro.graph import ddg_from_source
        from repro.machine import generic_machine

        loop = ddg_from_source(FIG2, name="fig2")
        result = compile_loop(
            loop, machine=generic_machine(4, 2),
            scheduler=HRMSScheduler(), strategy="spill", registers=6,
        )
        assert result.converged
        assert result.loop == "fig2"
        assert "Ld_y" in result.spilled

    def test_none_strategy_unconstrained(self):
        result = compile_loop(
            FIG2, machine=MACHINE, strategy="none", registers=None,
        )
        assert result.converged
        assert result.registers is None
        assert result.registers_used > 0

    def test_render_mentions_verdict_and_spills(self):
        result = compile_loop(
            FIG2, machine=MACHINE, strategy="spill", registers=6,
        )
        text = result.render()
        assert "ok" in text
        assert f"II={result.ii}" in text
        assert "Ld_y" in text

    def test_render_failure(self):
        result = compile_loop(
            FIG2, machine=MACHINE, strategy="spill", registers=1,
        )
        assert not result.converged
        assert "DID NOT FIT" in result.render()


class TestFacadeMatchesDrivers:
    """The facade must report exactly what the driver modules compute
    (the drivers run uncached here, so this also checks the spill memo
    is semantically transparent)."""

    def test_spill_equivalence(self):
        result = compile_loop(
            FIG2, machine=MACHINE, strategy="spill", registers=6,
        )
        with sched_cache.disabled():
            direct = schedule_with_spilling(_fig2(), _machine(), 6)
        assert result.converged == direct.converged
        assert result.ii == direct.schedule.ii
        assert result.registers_used == direct.report.total
        assert result.spilled == direct.spilled
        assert result.trace == direct.trace
        assert result.details == direct.details
        assert result.memory_ops == direct.ddg.memory_node_count()

    def test_increase_equivalence(self):
        result = compile_loop(
            FIG2, machine=MACHINE, strategy="increase", registers=8,
        )
        with sched_cache.disabled():
            direct = schedule_increasing_ii(_fig2(), _machine(), 8)
        assert result.converged == direct.converged
        assert result.ii == direct.schedule.ii
        assert result.registers_used == direct.report.total
        assert result.trace == direct.trace
        assert result.details == {"iis_tried": len(direct.trace)}

    def test_prespill_equivalence(self):
        result = compile_loop(
            FIG2, machine=MACHINE, strategy="prespill", registers=32,
        )
        with sched_cache.disabled():
            direct = schedule_with_prescheduling_spill(
                _fig2(), _machine(), 32
            )
        assert result.converged == direct.converged
        assert result.ii == direct.schedule.ii
        assert result.details == direct.details
        assert result.details["base_mii"] == result.mii

    def test_combined_equivalence(self):
        from repro.core.combined import schedule_best_of_both

        result = compile_loop(
            FIG2, machine=MACHINE, strategy="combined", registers=6,
        )
        with sched_cache.disabled():
            direct = schedule_best_of_both(_fig2(), _machine(), 6)
        assert result.converged == direct.converged
        assert result.ii == direct.schedule.ii
        assert result.details == direct.details
        assert result.details["method"] == "spill"
        assert result.details["spill_count"] == len(result.spilled)


def _fig2():
    from repro.graph import ddg_from_source

    return ddg_from_source(FIG2, name="loop")


def _machine():
    return resolve_machine(MACHINE)


class TestErrorPaths:
    def test_unknown_machine(self):
        with pytest.raises(ValueError, match="unknown machine"):
            compile_loop(FIG2, machine="VAX780")

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            compile_loop(FIG2, machine=MACHINE, scheduler="listsched")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            compile_loop(FIG2, machine=MACHINE, strategy="anneal")

    def test_unknown_option(self):
        with pytest.raises(ValueError, match="unknown option"):
            compile_loop(
                FIG2, machine=MACHINE, strategy="spill",
                options={"patience": 3},
            )

    def test_budget_required_unless_none_strategy(self):
        with pytest.raises(ValueError, match="register budget"):
            compile_loop(
                FIG2, machine=MACHINE, strategy="spill", registers=None,
            )

    def test_bad_source_type(self):
        with pytest.raises(ValueError, match="mini-language source"):
            compile_loop(42, machine=MACHINE)


class TestJsonRoundTrip:
    def test_to_json_is_json_safe_and_round_trips(self):
        result = compile_loop(
            FIG2, machine=MACHINE, strategy="spill", registers=6,
        )
        document = result.to_json()
        assert json.loads(json.dumps(document)) == document
        rebuilt = CompilationResult.from_json(document)
        assert rebuilt.to_json() == document
        assert rebuilt.converged == result.converged
        assert rebuilt.spilled == result.spilled

    def test_from_json_rejects_other_schemas(self):
        with pytest.raises(ValueError, match="schema"):
            CompilationResult.from_json({"schema": "nope/9"})


class TestRegistries:
    def test_declared_strategy_options(self):
        assert "policy" in strategy_registry.strategy_options("spill")
        assert "policy" in strategy_registry.strategy_options("combined")
        assert "policy" not in strategy_registry.strategy_options("increase")
        with pytest.raises(ValueError, match="unknown strategy"):
            strategy_registry.strategy_options("anneal")

    def test_builtin_names(self):
        assert sched_registry.scheduler_names() == ["hrms", "ims", "swing"]
        assert strategy_registry.strategy_names() == [
            "combined", "increase", "none", "prespill", "spill",
        ]

    def test_case_insensitive_lookup(self):
        assert (
            sched_registry.get_scheduler_class("HRMS")
            is sched_registry.get_scheduler_class("hrms")
        )

    def test_third_party_scheduler_registration(self):
        @sched_registry.register("hrms2")
        class HRMS2(HRMSScheduler):
            pass

        try:
            result = compile_loop(
                FIG2, machine=MACHINE, scheduler="hrms2",
                strategy="spill", registers=6,
            )
            assert result.converged
            assert result.scheduler == "hrms2"
        finally:
            sched_registry.unregister("hrms2")
        with pytest.raises(ValueError):
            sched_registry.get_scheduler_class("hrms2")

    def test_duplicate_scheduler_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            sched_registry.register("hrms")(type(
                "Imposter", (HRMSScheduler,), {}
            ))

    def test_third_party_strategy_registration(self):
        from repro.core.registry import StrategyOutcome
        from repro.sched.base import Effort

        @strategy_registry.register("giveup")
        def _giveup(ddg, machine, scheduler, registers, options):
            return StrategyOutcome(
                converged=False, reason="gave up", schedule=None,
                report=None, ddg=None, effort=Effort(),
            )

        try:
            result = compile_loop(
                FIG2, machine=MACHINE, strategy="giveup", registers=8,
            )
            assert result.status == "failed"
            assert result.reason == "gave up"
        finally:
            strategy_registry.unregister("giveup")


class TestMachineSpecs:
    def test_round_trip_and_passthrough(self):
        from repro.machine import generic_machine, p2l6

        machine = p2l6()
        assert resolve_machine(machine) is machine
        assert resolve_machine(machine_spec(machine)).name == machine.name
        generic = generic_machine(3, 5)
        assert resolve_machine(machine_spec(generic)) == generic

    def test_malformed_generic(self):
        with pytest.raises(ValueError, match="malformed"):
            resolve_machine("generic:four:2")


class TestPipeline:
    def test_repeated_compiles_share_caches(self):
        sched_cache.clear()
        pipeline = Pipeline(machine=MACHINE, strategy="spill", registers=6)
        first = pipeline.compile(FIG2)
        hits_before = sched_cache.STATS.spill_hits
        second = pipeline.compile(FIG2)
        assert sched_cache.STATS.spill_hits > hits_before
        first_doc, second_doc = first.to_json(), second.to_json()
        # wall clock and the performed-work counters are telemetry: a
        # memo-served compile does less analysis work than a cold one.
        for telemetry in (
            "wall_seconds", "relaxations", "mrt_probes",
            "lifetime_visits", "alloc_probes",
        ):
            first_doc.pop(telemetry)
            second_doc.pop(telemetry)
        assert first_doc == second_doc

    def test_per_call_overrides(self):
        pipeline = Pipeline(machine=MACHINE, registers=32)
        increase = pipeline.compile(FIG2, strategy="increase")
        assert increase.strategy == "increase"
        unconstrained = pipeline.compile(
            FIG2, strategy="none", registers=None
        )
        assert unconstrained.registers is None

    def test_compile_many(self):
        pipeline = Pipeline(machine=MACHINE, registers=32)
        results = pipeline.compile_many(
            {"a": FIG2, "b": "z[i] = x[i] + y[i]"}
        )
        assert set(results) == {"a", "b"}
        assert all(r.converged for r in results.values())

    def test_unknown_strategy_fails_fast(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Pipeline(strategy="anneal")

    def test_ddg_cache_evicts_safely_from_many_threads(self):
        # more distinct sources than the 512-entry parse cache holds,
        # parsed by several threads at once (ClusterClient.shard_key
        # does this from its fan-out pool): two threads evicting the
        # same oldest entry must both succeed
        from repro.graph.builder import cached_ddg

        pipeline = Pipeline()
        sources = [f"a{n}[i] = b{n}[i] + c" for n in range(1200)]
        errors = []

        def parse(offset: int) -> None:
            try:
                for step in range(len(sources)):
                    source = sources[(offset + step) % len(sources)]
                    assert pipeline.ddg(source, "l").name == "l"
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [
                threading.Thread(target=parse, args=(index * 97,))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        info = cached_ddg.cache_info()
        assert info.maxsize == 512
        assert info.currsize <= 512
        # one process-wide parse per source, shared with the sweep engine
        source = sources[0]
        assert pipeline.ddg(source, "l") is cached_ddg(source, "l")
        assert Pipeline().ddg(source, "l") is pipeline.ddg(source, "l")


BATCH = [
    {"loop": FIG2, "name": "l1"},
    {"loop": "s = s + x[i]*y[i]", "name": "l2", "strategy": "increase"},
    {"loop": "z[i] = x[i] + y[i]", "name": "l3", "registers": 4,
     "strategy": "spill"},
    {"loop": "q[i] = q[i-1]*b + x[i]", "name": "l4"},
]


class TestPipelineBatchService:
    def test_results_come_back_in_request_order(self):
        pipeline = Pipeline(machine=MACHINE, registers=16)
        results = pipeline.compile_many(BATCH)
        assert [r.loop for r in results] == ["l1", "l2", "l3", "l4"]
        assert [r.strategy for r in results] == [
            "combined", "increase", "spill", "combined",
        ]

    def test_jobs_do_not_change_results(self):
        pipeline = Pipeline(machine=MACHINE, registers=16)
        serial = pipeline.compile_many(BATCH, jobs=1)
        parallel = pipeline.compile_many(BATCH, jobs=4)
        assert serial == parallel
        assert [r.to_json() for r in serial] == [
            r.to_json() for r in parallel
        ]

    def test_batch_results_are_the_deterministic_service_shape(self):
        pipeline = Pipeline(machine=MACHINE, registers=16)
        result = pipeline.compile_many(BATCH[:1])[0]
        assert result.wall_seconds == 0.0
        assert result.schedule is None and result.ddg is None

    def test_serve_json_streams_schema_documents(self):
        pipeline = Pipeline(machine=MACHINE, registers=16)
        stream = pipeline.serve_json(BATCH, jobs=2)
        first = next(stream)
        assert first["schema"] == "repro.compile/1"
        assert first["loop"] == "l1"
        rest = list(stream)
        assert [doc["loop"] for doc in rest] == ["l2", "l3", "l4"]
        for doc in [first] + rest:
            json.dumps(doc)  # wire format must be JSON-safe

    def test_batch_requests_share_the_persistent_store(self, tmp_path):
        sched_cache.clear()
        pipeline = Pipeline(
            machine=MACHINE, registers=16, cache=str(tmp_path)
        )
        cold = pipeline.compile_many(BATCH)
        assert pipeline.cache.entries()
        sched_cache.clear()  # fresh process, warm directory
        warm = Pipeline(
            machine=MACHINE, registers=16, cache=str(tmp_path)
        ).compile_many(BATCH)
        assert warm == cold
        assert sched_cache.STATS.store_hits > 0
        assert sched_cache.STATS.schedule_misses == 0

    def test_request_validation(self):
        pipeline = Pipeline(machine=MACHINE)
        with pytest.raises(ValueError, match="'loop'"):
            pipeline.compile_many([{"name": "missing"}])
        with pytest.raises(ValueError, match="unknown request key"):
            pipeline.compile_many([{"loop": FIG2, "budget": 8}])
        with pytest.raises(ValueError, match="unknown strategy"):
            pipeline.compile_many([{"loop": FIG2, "strategy": "anneal"}])
        with pytest.raises(ValueError, match="overrides"):
            pipeline.compile_many([{"loop": FIG2}], strategy="spill")
        with pytest.raises(ValueError, match="named-batch"):
            pipeline.compile_many({"a": FIG2}, jobs=2)

    def test_null_request_values_mean_pipeline_default(self):
        """JSON wire requests encode "use the default" as null; that
        must not crash and must match the absent-key behaviour."""
        pipeline = Pipeline(machine=MACHINE, registers=16)
        nulled = pipeline.compile_many([{
            "loop": FIG2, "name": None, "machine": None,
            "scheduler": None, "strategy": None, "options": None,
        }])[0]
        assert nulled == pipeline.compile_many([{"loop": FIG2}])[0]
        # ... except registers, where an explicit null is unconstrained
        free = pipeline.compile_many([{
            "loop": FIG2, "strategy": "none", "registers": None,
        }])[0]
        assert free.registers is None and free.converged

    def test_interleaved_streams_leave_the_active_store_alone(self, tmp_path):
        """Result streams are lazy; suspending or interleaving them must
        never leave the process-wide active store swapped."""
        from repro.sched import store as sched_store

        sched_cache.clear()  # cold memos: computations must write through
        before = sched_store.active_store()
        one = Pipeline(machine=MACHINE, cache=str(tmp_path / "a"))
        two = Pipeline(machine=MACHINE, cache=str(tmp_path / "b"))
        stream_one = one.results(BATCH[:2])
        stream_two = two.results(BATCH[:2])
        next(stream_one)
        next(stream_two)  # interleave while stream_one is suspended
        assert sched_store.active_store() is before
        assert list(stream_one) and list(stream_two)
        assert sched_store.active_store() is before
        # the first pipeline's store was really written (the second's
        # requests were served by the now-warm in-memory memos)
        assert one.cache.entries()
        abandoned = one.results(BATCH)
        next(abandoned)
        del abandoned  # dropped mid-stream
        assert sched_store.active_store() is before


class TestSpillRunMemo:
    def test_hit_returns_equal_owned_result(self):
        sched_cache.clear()
        machine = _machine()
        ddg = _fig2()
        first = schedule_with_spilling(ddg, machine, 6)
        assert sched_cache.STATS.spill_misses == 1
        second = schedule_with_spilling(ddg, machine, 6)
        assert sched_cache.STATS.spill_hits == 1
        assert second.converged == first.converged
        assert second.schedule.ii == first.schedule.ii
        assert second.spilled == first.spilled
        assert second.trace == first.trace
        assert second.details == first.details
        # results are caller-owned: mutating one leaves the other alone
        assert second.schedule is not first.schedule
        assert second.ddg is not first.ddg
        first.schedule.times.clear()
        first.ddg.nodes.clear()
        first.trace[0]["spilled"].clear()
        first.details.clear()
        first.effort.attempts = -1
        third = schedule_with_spilling(ddg, machine, 6)
        assert third.schedule.ii == second.schedule.ii
        assert third.trace == second.trace
        assert third.details == second.details
        assert third.effort == second.effort
        third.schedule.validate()
        third.ddg.validate()

    def test_unreadable_store_entry_is_a_miss(self, tmp_path, monkeypatch):
        """A persistent-store entry whose class no longer exists (an
        older driver's result type) reads as a miss and is rewritten,
        never raised."""
        from repro.core import driver
        from repro.sched import store as sched_store

        class Retired:
            pass

        Retired.__module__ = "repro.core.driver"
        Retired.__qualname__ = "RetiredResult"
        store = sched_store.ScheduleStore(tmp_path)
        with sched_store.using(store):
            sched_cache.clear()
            ddg, machine = _fig2(), _machine()
            expected = schedule_with_spilling(ddg, machine, 6)
            assert sched_cache.STATS.spill_misses == 1
            keys = list(sched_cache.spill_memo()._entries)
            monkeypatch.setattr(
                driver, "RetiredResult", Retired, raising=False
            )
            assert store.put("spill", keys[0], Retired())
            monkeypatch.delattr(driver, "RetiredResult")
            sched_cache.clear()
            again = schedule_with_spilling(ddg, machine, 6)
        assert sched_cache.STATS.spill_misses == 1
        assert sched_cache.STATS.spill_hits == 0
        assert again.trace == expected.trace
        assert again.spilled == expected.spilled

    def test_different_options_miss(self):
        sched_cache.clear()
        machine = _machine()
        ddg = _fig2()
        schedule_with_spilling(ddg, machine, 6)
        schedule_with_spilling(ddg, machine, 6, multiple=False)
        assert sched_cache.STATS.spill_misses == 2

    def test_disabled_bypasses_memo(self):
        sched_cache.clear()
        machine = _machine()
        ddg = _fig2()
        with sched_cache.disabled():
            schedule_with_spilling(ddg, machine, 6)
            schedule_with_spilling(ddg, machine, 6)
        assert sched_cache.STATS.spill_hits == 0
        assert sched_cache.STATS.spill_misses == 0


class TestOneEntryPoint:
    @pytest.mark.parametrize("module", ["repro", "repro.core"])
    def test_no_per_driver_entry_points_exported(self, module):
        """``compile_loop`` plus the strategy registry is the one public
        way to run a driver; the packages re-export none of them."""
        import importlib

        package = importlib.import_module(module)
        exported = set(package.__all__) | set(vars(package))
        assert not {name for name in exported
                    if name.startswith("schedule_")}


class TestEngineIntegration:
    def test_fig4_through_engine_matches_legacy_shape(self):
        from repro.eval.experiments import run_fig4
        from repro.machine import p2l4

        result = run_fig4(machine=p2l4(), jobs=1)
        assert set(result.trails) == {"apsi47_like", "apsi50_like"}
        assert result.trails["apsi47_like"][0][1] > 32
        assert set(result.converged["apsi47_like"]) == {32, 16}
        # jobs must not change the curves
        again = run_fig4(machine=p2l4(), jobs=2)
        assert again.trails == result.trails
        assert again.converged == result.converged

    def test_sweep_scheduler_axis_via_cli(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--size", "4", "--machines", "P2L4",
            "--artifacts", "table1", "--scheduler", "swing",
            "--budgets", "32", "--json-out", str(path),
        ])
        assert code == 0
        document = json.loads(path.read_text())
        assert {cell["scheduler"] for cell in document["cells"]} == {"swing"}

    def test_sweep_fig4_artifact_round_trips(self):
        from repro.eval.engine import run_sweep
        from repro.machine import p2l4
        from repro.workloads import perfect_club_like_suite

        report = run_sweep(
            suite=perfect_club_like_suite(size=4),
            machines=[p2l4()],
            artifacts=("fig4",),
        )
        document = json.loads(report.to_json_text())
        assert document == report.to_json()
        trails = document["artifacts"]["fig4"]["trails"]
        assert set(trails) == {"apsi47_like", "apsi50_like"}
        assert all(trails.values())
