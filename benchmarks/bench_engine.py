"""The experiment engine vs the seed's serial drivers.

The seed regenerated Table 1 and Figure 8 with plain nested loops: one
full ideal-schedule pass per machine *per driver*, a fresh MII
computation (SCC enumeration included) on every spill round, and no
reuse between artifacts.  The engine memoizes schedules and MIIs by
graph fingerprint and shares one cache across the whole sweep — and can
additionally fan cells out over worker processes.

This benchmark times both paths on the same suite and asserts the cached
engine is faster.  The baseline reimplements the seed's exact loop
structure and runs under ``repro.sched.cache.disabled()`` so the new
caches cannot help it.

A second axis times the **persistent store** (:mod:`repro.sched.store`):
a cold sweep writing a fresh ``--cache-dir`` versus the identical sweep
re-run with the in-memory memos cleared, so every result must come off
disk — the repeated-sweep scenario the store exists for.
"""

import os
import shutil
import tempfile
import time

from repro.core.driver import schedule_with_spilling
from repro.core.increase_ii import schedule_increasing_ii
from repro.eval import run_sweep
from repro.eval.experiments import DEFAULT_BUDGETS, FIG8_VARIANTS
from repro.eval.metrics import executed_cycles, memory_traffic
from repro.lifetimes import register_requirements
from repro.machine.machine import paper_configurations
from repro.pool import shutdown_pool, warm_pool
from repro.sched import HRMSScheduler
from repro.sched import cache as sched_cache


# ----------------------------------------------------------------------
# the seed's serial drivers, loop for loop
def _seed_ideal_outcomes(suite, machine, scheduler):
    outcomes = {}
    for workload in suite:
        schedule = scheduler.schedule(workload.ddg, machine)
        report = register_requirements(schedule)
        outcomes[workload.name] = (schedule, report.total)
    return outcomes


def _seed_table1(suite, machines, budgets, scheduler):
    rows = []
    for machine in machines:
        ideal = _seed_ideal_outcomes(suite, machine, scheduler)
        total_cycles = sum(
            executed_cycles(ideal[w.name][0], w.weight) for w in suite
        )
        for budget in budgets:
            failed_cycles = failed_count = 0
            for workload in suite:
                schedule, registers = ideal[workload.name]
                if registers <= budget:
                    continue
                outcome = schedule_increasing_ii(
                    workload.ddg, machine, budget, scheduler=scheduler,
                    patience=10,
                )
                if not outcome.converged:
                    failed_count += 1
                    failed_cycles += executed_cycles(schedule, workload.weight)
            share = 100.0 * failed_cycles / total_cycles if total_cycles else 0.0
            rows.append((machine.name, budget, failed_count, share))
    return rows


def _seed_fig8(suite, machines, budgets, variants, scheduler):
    rows = []
    for machine in machines:
        ideal = _seed_ideal_outcomes(suite, machine, scheduler)
        for budget in budgets:
            for label, options in variants:
                cycles = traffic = failed = 0
                for workload in suite:
                    schedule, registers = ideal[workload.name]
                    if registers <= budget:
                        cycles += executed_cycles(schedule, workload.weight)
                        traffic += memory_traffic(workload.ddg, workload.weight)
                        continue
                    run = schedule_with_spilling(
                        workload.ddg, machine, budget, scheduler=scheduler,
                        **options,
                    )
                    if not run.converged:
                        failed += 1
                    final = run.schedule if run.schedule is not None else schedule
                    final_ddg = run.ddg if run.ddg is not None else workload.ddg
                    cycles += executed_cycles(final, workload.weight)
                    traffic += memory_traffic(final_ddg, workload.weight)
                rows.append((machine.name, budget, label, cycles, traffic, failed))
    return rows


# ----------------------------------------------------------------------
def test_engine_beats_seed_serial_drivers(benchmark, suite, record):
    machines = paper_configurations()
    scheduler = HRMSScheduler()

    started = time.perf_counter()
    with sched_cache.disabled():
        seed_rows1 = _seed_table1(suite, machines, DEFAULT_BUDGETS, scheduler)
        seed_rows8 = _seed_fig8(
            suite, machines, DEFAULT_BUDGETS, FIG8_VARIANTS, scheduler
        )
    seed_seconds = time.perf_counter() - started

    jobs = 1 if (os.cpu_count() or 1) == 1 else min(4, os.cpu_count())
    sched_cache.clear()  # cold caches: no head start over the baseline
    # Fresh workers (empty memos), started before the clock: the race
    # is the cached engine against the serial drivers, not process
    # start-up against them.
    shutdown_pool()
    warm_pool(jobs)

    def engine_pass():
        return run_sweep(
            suite=suite, machines=machines, budgets=DEFAULT_BUDGETS,
            artifacts=("table1", "fig8"), jobs=jobs, scheduler=scheduler,
        )

    report = benchmark.pedantic(engine_pass, rounds=1, iterations=1)
    engine_seconds = report.run.seconds

    # Same numbers out of both paths...
    assert [tuple(row) for row in report.artifacts["table1"].rows] == [
        tuple(row) for row in seed_rows1
    ]
    fig8_rows = {
        (row["config"], row["budget"], row["variant"]):
            (row["cycles"], row["traffic"], row["failed"])
        for row in report.artifacts["fig8"].rows
    }
    for config, budget, label, cycles, traffic, failed in seed_rows8:
        assert fig8_rows[(config, budget, label)] == (cycles, traffic, failed)

    cache = report.run.cache
    record(
        "engine_vs_seed",
        "Table 1 + Figure 8 regeneration\n"
        f"seed serial drivers:   {seed_seconds:.2f}s\n"
        f"cached engine (j={jobs}): {engine_seconds:.2f}s"
        f"  ({seed_seconds / max(engine_seconds, 1e-9):.2f}x)\n"
        f"cache: schedule {cache.schedule_hits}/{cache.schedule_misses}"
        f" hits/misses, MII {cache.mii_hits}/{cache.mii_misses}",
    )
    # ... and the cached engine regenerates them faster.
    assert engine_seconds < seed_seconds, (engine_seconds, seed_seconds)


# ----------------------------------------------------------------------
def test_warm_store_beats_cold_sweep(benchmark, suite, record):
    """Cold sweep (empty --cache-dir) vs the same sweep served from the
    now-populated store with cold in-memory memos: the warm run must be
    faster and byte-identical."""
    machines = paper_configurations()
    cache_dir = tempfile.mkdtemp(prefix="repro-store-bench-")

    def sweep():
        return run_sweep(
            suite=suite, machines=machines, budgets=DEFAULT_BUDGETS,
            artifacts=("table1", "fig8"), jobs=1, cache_dir=cache_dir,
        )

    try:
        sched_cache.clear()
        started = time.perf_counter()
        cold = sweep()
        cold_seconds = time.perf_counter() - started

        sched_cache.clear()  # warm disk, cold memory: disk must serve
        warm = benchmark.pedantic(sweep, rounds=1, iterations=1)
        warm_seconds = warm.run.seconds

        assert warm.to_json_text() == cold.to_json_text()
        cache = warm.run.cache
        lookups = cache.store_hits + cache.store_misses
        hit_pct = 100.0 * cache.store_hits / max(lookups, 1)
        record(
            "engine_store_warmup",
            "Table 1 + Figure 8, persistent store (jobs=1)\n"
            f"cold store: {cold_seconds:.2f}s\n"
            f"warm store: {warm_seconds:.2f}s"
            f"  ({cold_seconds / max(warm_seconds, 1e-9):.2f}x)\n"
            f"store: {cache.store_hits}/{cache.store_misses}"
            f" hits/misses ({hit_pct:.0f}% hits),"
            f" schedule recomputes {cache.schedule_misses}",
        )
        assert cache.schedule_misses == 0
        assert hit_pct > 90.0
        # The point of the store: repeated sweeps get measurably faster.
        assert warm_seconds < cold_seconds, (warm_seconds, cold_seconds)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
