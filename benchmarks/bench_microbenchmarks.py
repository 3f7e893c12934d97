"""Micro-benchmarks of the individual subsystems (proper multi-round
pytest-benchmark timings): scheduler throughput, MII computation, lifetime
analysis, register allocation, and one full spill pipeline — plus the
deterministic work-counter comparison of the indexed analysis core
against the legacy whole-graph oracle (the CI-gateable cold-path win).

These quantify the compile-time story behind Figure 8c — where the
scheduling time goes — and guard against performance regressions in the
substrates.
"""

import pytest

from repro import (
    HRMSScheduler,
    IMSScheduler,
    SwingScheduler,
    compile_loop,
    compute_mii,
    ddg_from_source,
    p2l4,
    register_requirements,
)
from repro.graph.analysis import (
    longest_path_lengths,
    longest_path_lengths_reference,
)
from repro.graph.index import WORK
from repro.lifetimes import allocate_registers, max_live, variant_lifetimes
from repro.workloads import (
    NAMED_KERNELS,
    apsi47_like,
    apsi50_like,
    random_suite,
)

MACHINE = p2l4()


@pytest.fixture(scope="module")
def fir8():
    return ddg_from_source(NAMED_KERNELS["fir8"], name="fir8")


@pytest.fixture(scope="module")
def big_loop():
    return apsi47_like()


@pytest.mark.parametrize(
    "scheduler_cls", [HRMSScheduler, IMSScheduler, SwingScheduler]
)
def test_scheduler_throughput(benchmark, scheduler_cls, fir8):
    scheduler = scheduler_cls()
    schedule = benchmark(lambda: scheduler.schedule(fir8, MACHINE))
    schedule.validate()


def test_mii_computation(benchmark, big_loop):
    mii = benchmark(lambda: compute_mii(big_loop, MACHINE))
    assert mii >= 1


def test_lifetime_analysis(benchmark, big_loop):
    schedule = HRMSScheduler().schedule(big_loop, MACHINE)
    lifetimes = benchmark(lambda: variant_lifetimes(schedule))
    assert lifetimes
    assert max_live(schedule) > 0


def test_register_allocation(benchmark, big_loop):
    schedule = HRMSScheduler().schedule(big_loop, MACHINE)
    allocation = benchmark(lambda: allocate_registers(schedule))
    assert allocation.registers >= allocation.max_live


def test_full_spill_pipeline(benchmark):
    loop = apsi50_like()

    def pipeline():
        return compile_loop(loop, MACHINE, strategy="spill", registers=32)

    result = benchmark.pedantic(pipeline, rounds=3, iterations=1)
    assert result.converged
    assert register_requirements(result.schedule).fits(32)


# ----------------------------------------------------------------------
# the compiled analysis core vs the legacy whole-graph oracle
def _relaxation_workloads():
    return random_suite(size=40, seed=20260728)


def test_relaxation_edge_visits_reduction(record):
    """Deterministic cold-path gate: over the synthetic suite, the
    condensation-ordered longest-path relaxation must visit at least 3x
    fewer edges than the legacy whole-graph Bellman-Ford at the same
    (graph, latencies, II) points — no wall clock involved."""
    fast = slow = 0
    for workload in _relaxation_workloads():
        ddg = workload.ddg
        latencies = MACHINE.latencies_for(ddg)
        mii = compute_mii(ddg, MACHINE)
        for ii in (mii, mii + 2):
            before = WORK.snapshot()
            longest_path_lengths(ddg, latencies, ii)
            longest_path_lengths(ddg, latencies, ii, reverse=True)
            middle = WORK.snapshot()
            longest_path_lengths_reference(ddg, latencies, ii)
            longest_path_lengths_reference(ddg, latencies, ii, reverse=True)
            after = WORK.snapshot()
            fast += middle.delta(before).relax_visits
            slow += after.delta(middle).relax_visits
    ratio = slow / max(fast, 1)
    record(
        "relaxation_edge_visits",
        "ASAP/ALAP relaxation edge-visits, synthetic suite (40 loops, 2 IIs"
        " each)\n"
        f"indexed (per-SCC, condensation order): {fast}\n"
        f"legacy whole-graph Bellman-Ford:       {slow}\n"
        f"reduction: {ratio:.2f}x",
    )
    assert fast * 3 <= slow, (fast, slow)


def test_allocation_probe_reduction(record):
    """Deterministic cold-path gate for the lifetime/register core: over
    the synthetic suite, the bitmask end-fit allocator must probe at
    least 3x fewer occupancy cells than the legacy per-cell scan on the
    same schedules — no wall clock involved."""
    from repro.lifetimes import allocate_registers_reference

    fast = slow = 0
    for workload in _relaxation_workloads():
        schedule = HRMSScheduler().schedule(workload.ddg, MACHINE)
        before = WORK.snapshot()
        allocate_registers(schedule)
        middle = WORK.snapshot()
        allocate_registers_reference(schedule)
        after = WORK.snapshot()
        fast += middle.delta(before).alloc_probes
        slow += after.delta(middle).alloc_probes
    ratio = slow / max(fast, 1)
    record(
        "allocation_probes",
        "rotating-file end-fit occupancy probes, synthetic suite (40"
        " loops)\n"
        f"feasible-slot circle (window + gap tests): {fast}\n"
        f"legacy per-cell scan:                      {slow}\n"
        f"reduction: {ratio:.2f}x",
    )
    assert fast * 3 <= slow, (fast, slow)


def test_indexed_longest_paths_throughput(benchmark, big_loop):
    latencies = MACHINE.latencies_for(big_loop)
    ii = compute_mii(big_loop, MACHINE)

    def both_directions():
        longest_path_lengths(big_loop, latencies, ii)
        return longest_path_lengths(big_loop, latencies, ii, reverse=True)

    height = benchmark(both_directions)
    assert height == longest_path_lengths_reference(
        big_loop, latencies, ii, reverse=True
    )
