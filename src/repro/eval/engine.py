"""Parallel, cached experiment engine.

The paper's evaluation is a grid: every artifact (Table 1, Figures 7-9,
the ablations) is a sum over independent ``(workload, machine, budget,
variant)`` **cells**.  This module makes that structure explicit:

* :class:`Cell` — one unit of work, fully described by picklable scalars
  (the loop *source*, a machine spec string, a scheduler name and an
  options tuple), so cells can cross process boundaries;
* :func:`run_cells` — evaluates a batch, either serially (``jobs=1``) or
  fanned out over a ``ProcessPoolExecutor``.  Results come back in a
  deterministic order and contain only deterministic data (wall-clock
  time and cache accounting ride along separately), so the output is
  byte-identical for any job count;
* per-process memoization — every worker shares one
  :mod:`repro.sched.cache`: the ideal (infinite-register) schedule of a
  loop is computed once per ``(graph, machine, scheduler)`` however many
  budgets/variants/artifacts ask for it, and the spilling driver's
  per-round MII lookups hit the fingerprint cache; with a persistent
  store active (``repro sweep --cache-dir``, ``run_sweep(cache_dir=)``
  or ``REPRO_CACHE_DIR``), all workers additionally share one on-disk
  :mod:`repro.sched.store`, so nothing is derived twice across
  processes *or* across sweeps;
* :func:`run_sweep` — the ``repro sweep`` entry point: builds the cells
  for the requested artifacts, runs them, aggregates the paper-style
  result objects and a machine-readable JSON document
  (``schema: repro.sweep/1``).

Cell kinds and their ``data`` payloads:

=========  ============================================================
kind       payload
=========  ============================================================
ideal      ii, stage_count, registers, cycles, traffic
table1     ideal_cycles, ideal_registers, needs_reduction, failed
fig4       trail: [[ii, registers], ...]
fig7       rows: [spilled, ii, mii, registers, bus_pct]
fig8       ideal_cycles, ideal_traffic, cycles, traffic, attempts,
           placements, failed, spilled
fig9       included, ideal/inc/spill/best cycles
spill      converged, ii, reschedules, registers, memory_ops, spilled
=========  ============================================================

Cell evaluation runs on the :func:`repro.api.compile_loop` facade:
machine specs resolve through :mod:`repro.machine.specs`, schedulers
through :mod:`repro.sched.registry` and register-pressure strategies
through :mod:`repro.core.registry` — the engine keeps no lookup tables
of its own, so a newly registered scheduler or strategy is immediately
sweepable.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

from repro.core.select import SelectionPolicy
from repro.faults import plan as faults
from repro.pool import imap_resilient, shutdown_pool, worker_pool
from repro.eval.metrics import executed_cycles, memory_traffic
from repro.graph.builder import ddg_from_source
from repro.graph.ddg import DDG
from repro.lifetimes.requirements import register_requirements
from repro.machine.machine import MachineConfig
from repro.machine.specs import machine_spec, resolve_machine
from repro.sched import store as sched_store
from repro.sched.base import ModuloScheduler
from repro.sched.cache import STATS, CacheStats, schedule_memo
from repro.sched.schedule import Schedule
from repro.trace import profile as trace_profile
from repro.workloads.suite import Workload

__all__ = [
    "Cell",
    "CellResult",
    "EngineRun",
    "SweepReport",
    "cell_from_wire",
    "cell_to_wire",
    "evaluate_cell",
    "machine_spec",
    "pack_options",
    "resolve_machine",
    "routed_through",
    "run_cells",
    "run_sweep",
    "scheduler_name",
    "shutdown_pool",
    "workload_cells",
]

JSON_SCHEMA = "repro.sweep/1"


# ----------------------------------------------------------------------
# scheduler specs (picklable cell fields); machine specs come from
# repro.machine.specs and are re-exported above for compatibility
def scheduler_name(scheduler: ModuloScheduler | str | None) -> str:
    """Canonical registry name a worker process can resolve back."""
    from repro.sched import registry
    from repro.sched.cache import scheduler_config

    if scheduler is None:
        return "hrms"
    if isinstance(scheduler, str):
        return registry.canonical_name(scheduler)
    name = registry.canonical_name(scheduler)
    config = scheduler_config(scheduler)
    if config != scheduler_config(registry.get_scheduler_class(name)()):
        # cells carry only the name; a worker would silently rebuild the
        # default configuration, diverging from the caller's intent
        raise ValueError(
            f"scheduler {name!r} has non-default configuration"
            f" ({config}); engine cells only support"
            " default-constructed schedulers"
        )
    return name


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One independent experiment: a loop on a machine under a budget."""

    kind: str
    workload: str
    source: str
    weight: int
    machine: str
    budget: int = 0
    variant: str = ""
    scheduler: str = "hrms"
    options: tuple[tuple[str, object], ...] = ()
    #: run the repro.verify oracle on every schedule this cell produces
    #: (an invalid one raises VerificationError and aborts the sweep);
    #: deliberately not part of sort_key or as_json — verification can
    #: only kill a run, never change its bytes
    verify: bool = False

    def sort_key(self) -> tuple:
        return (
            self.kind, self.machine, self.budget, self.variant,
            self.workload, self.scheduler,
        )

    def option(self, name: str, default=None):
        for key, value in self.options:
            if key == name:
                return value
        return default

    def spill_options(self) -> dict:
        """The ``spill`` strategy options carried by this cell's options
        tuple, typed for :func:`repro.api.compile_loop` (which checks
        them against :mod:`repro.core.registry`); unknown keys are an
        error (silently dropping one would change the run's semantics)."""
        result = {}
        for key, value in self.options:
            if key == "policy":
                result["policy"] = SelectionPolicy(value)
            elif key in ("multiple", "last_ii", "fuse",
                         "mark_non_spillable", "exact"):
                result[key] = bool(value)
            elif key == "max_rounds":
                result["max_rounds"] = int(value)
            else:
                raise ValueError(
                    f"unknown spill option {key!r} on cell"
                    f" {self.workload}/{self.variant or self.kind}"
                )
        return result


@dataclass
class CellResult:
    """Deterministic payload plus per-cell telemetry (kept out of any
    byte-compared output)."""

    cell: Cell
    data: dict
    seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)

    def as_json(self) -> dict:
        return {
            "kind": self.cell.kind,
            "workload": self.cell.workload,
            "machine": self.cell.machine,
            "budget": self.cell.budget,
            "variant": self.cell.variant,
            "scheduler": self.cell.scheduler,
            "weight": self.cell.weight,
            "data": self.data,
        }


# ----------------------------------------------------------------------
# the wire shape (the cluster's ``cells`` protocol op)
def cell_to_wire(cell: Cell) -> dict:
    """One cell as a JSON-safe mapping (options become ``[key, value]``
    pairs — cell option values are already wire scalars)."""
    return {
        "kind": cell.kind,
        "workload": cell.workload,
        "source": cell.source,
        "weight": cell.weight,
        "machine": cell.machine,
        "budget": cell.budget,
        "variant": cell.variant,
        "scheduler": cell.scheduler,
        "options": [[key, value] for key, value in cell.options],
        "verify": cell.verify,
    }


def cell_from_wire(document: dict) -> Cell:
    """The inverse of :func:`cell_to_wire` (what a shard daemon runs)."""
    document = dict(document)
    options = document.pop("options", [])
    return Cell(
        kind=str(document["kind"]),
        workload=str(document["workload"]),
        source=str(document["source"]),
        weight=int(document["weight"]),
        machine=str(document["machine"]),
        budget=int(document.get("budget", 0)),
        variant=str(document.get("variant", "")),
        scheduler=str(document.get("scheduler", "hrms")),
        options=tuple((str(key), value) for key, value in options),
        verify=bool(document.get("verify", False)),
    )


# ----------------------------------------------------------------------
# per-process state (each pool worker builds its own)
_DDG_CACHE: dict[tuple[str, str], DDG] = {}


def _cell_ddg(cell: Cell) -> DDG:
    key = (cell.workload, cell.source)
    ddg = _DDG_CACHE.get(key)
    if ddg is None:
        if len(_DDG_CACHE) >= 512:
            _DDG_CACHE.pop(next(iter(_DDG_CACHE)))
        ddg = ddg_from_source(cell.source, name=cell.workload)
        _DDG_CACHE[key] = ddg
    return ddg


def _ideal_outcome(
    ddg: DDG, machine: MachineConfig, scheduler: ModuloScheduler,
    verify: bool = False,
) -> tuple[Schedule, int]:
    """Infinite-register schedule + register demand.  Both legs are
    memoized: the schedule in the process-wide memo, the register report
    on the schedule instance itself."""
    schedule = schedule_memo().schedule(scheduler, ddg, machine)
    report = register_requirements(schedule)
    if verify:
        from repro.verify import VerificationError, verify_schedule

        oracle = verify_schedule(schedule, report=report)
        if not oracle.ok:
            raise VerificationError(ddg.name, oracle)
    return schedule, report.total


def _cell_compile(cell: Cell, strategy: str, options: dict | None = None):
    """Run one cell leg through the :func:`repro.api.compile_loop`
    facade: every strategy comes back as the same
    :class:`~repro.api.CompilationResult` shape, so the evaluators below
    contain no per-driver result-type special-casing."""
    from repro.api import compile_loop

    return compile_loop(
        _cell_ddg(cell),
        machine=cell.machine,
        scheduler=cell.scheduler,
        strategy=strategy,
        registers=cell.budget,
        options=options,
        verify=cell.verify,
    )


# ----------------------------------------------------------------------
# cell evaluation
def evaluate_cell(cell: Cell) -> CellResult:
    """Evaluate one cell (runs inside a worker process)."""
    if faults.enabled():
        faults.maybe_kill("pool.kill_before_cell")
        faults.maybe_hang("pool.hang_cell")
    before = STATS.snapshot()
    started = time.perf_counter()
    with trace_profile.profiled_span(
        "cell", "worker",
        attrs={"workload": cell.workload, "kind": cell.kind},
    ):
        data = _EVALUATORS[cell.kind](cell)
    if faults.enabled():
        faults.maybe_kill("pool.kill_after_cell")
    return CellResult(
        cell=cell,
        data=data,
        seconds=time.perf_counter() - started,
        cache=STATS.delta(before),
    )


def _cell_context(cell: Cell):
    from repro.sched.registry import create_scheduler

    return (
        _cell_ddg(cell),
        resolve_machine(cell.machine),
        create_scheduler(cell.scheduler),
    )


def _eval_ideal(cell: Cell) -> dict:
    ddg, machine, scheduler = _cell_context(cell)
    schedule, registers = _ideal_outcome(ddg, machine, scheduler, verify=cell.verify)
    return {
        "ii": schedule.ii,
        "stage_count": schedule.stage_count,
        "registers": registers,
        "cycles": executed_cycles(schedule, cell.weight),
        "traffic": memory_traffic(ddg, cell.weight),
    }


def _eval_table1(cell: Cell) -> dict:
    ddg, machine, scheduler = _cell_context(cell)
    schedule, registers = _ideal_outcome(ddg, machine, scheduler, verify=cell.verify)
    data = {
        "ideal_cycles": executed_cycles(schedule, cell.weight),
        "ideal_registers": registers,
        "needs_reduction": registers > cell.budget,
        "failed": False,
    }
    if data["needs_reduction"]:
        outcome = _cell_compile(
            cell, "increase",
            {"patience": int(cell.option("patience", 10))},
        )
        data["failed"] = not outcome.converged
    return data


def _eval_fig4(cell: Cell) -> dict:
    """One long II sweep down to an impossible budget: the whole
    registers-vs-II curve of Figure 4 in one compile."""
    run = _cell_compile(
        cell, "increase",
        {
            "patience": int(cell.option("patience", 18)),
            "max_ii": int(cell.option("max_ii", 120)),
            "stop_on_certificate": False,
        },
    )
    return {
        "trail": [[row["ii"], row["registers"]] for row in run.trace],
    }


def _eval_fig7(cell: Cell) -> dict:
    run = _cell_compile(
        cell, "spill",
        {
            "policy": cell.option("policy", "max_lt"),
            "multiple": False,
            "last_ii": False,
        },
    )
    machine = resolve_machine(cell.machine)
    buses = machine.memory_units()
    rows = []
    spilled_so_far = 0
    for entry in run.trace:
        bus = 100.0 * entry["memory_ops"] / (buses * entry["ii"])
        rows.append(
            [spilled_so_far, entry["ii"], entry["mii"],
             entry["registers"], bus]
        )
        spilled_so_far += len(entry["spilled"])
    return {"rows": rows, "converged": run.converged}


def _eval_fig8(cell: Cell) -> dict:
    ddg, machine, scheduler = _cell_context(cell)
    schedule, registers = _ideal_outcome(ddg, machine, scheduler, verify=cell.verify)
    ideal_cycles = executed_cycles(schedule, cell.weight)
    ideal_traffic = memory_traffic(ddg, cell.weight)
    data = {
        "ideal_cycles": ideal_cycles,
        "ideal_traffic": ideal_traffic,
        "ideal_registers": registers,
        "cycles": ideal_cycles,
        "traffic": ideal_traffic,
        "attempts": 0,
        "placements": 0,
        "failed": 0,
        "spilled": 0,
    }
    if registers <= cell.budget:
        return data
    run = _cell_compile(cell, "spill", dict(cell.spill_options()))
    final = run.schedule if run.schedule is not None else schedule
    final_ddg = run.ddg if run.ddg is not None else ddg
    data.update(
        cycles=executed_cycles(final, cell.weight),
        traffic=memory_traffic(final_ddg, cell.weight),
        attempts=run.attempts,
        placements=run.placements,
        failed=0 if run.converged else 1,
        spilled=len(run.spilled),
    )
    return data


def _eval_fig9(cell: Cell) -> dict:
    ddg, machine, scheduler = _cell_context(cell)
    schedule, registers = _ideal_outcome(ddg, machine, scheduler, verify=cell.verify)
    data = {
        "included": False,
        "ideal_cycles": 0,
        "inc_cycles": 0,
        "spill_cycles": 0,
        "best_cycles": 0,
    }
    if registers <= cell.budget:
        return data
    inc = _cell_compile(cell, "increase")
    if not inc.converged:
        return data  # the paper's comparison excludes these
    spill = _cell_compile(cell, "spill")
    best = _cell_compile(cell, "combined")
    spill_schedule = spill.schedule or inc.schedule
    best_schedule = best.schedule or spill_schedule
    data.update(
        included=True,
        ideal_cycles=executed_cycles(schedule, cell.weight),
        inc_cycles=executed_cycles(inc.schedule, cell.weight),
        spill_cycles=executed_cycles(spill_schedule, cell.weight),
        best_cycles=executed_cycles(best_schedule, cell.weight),
    )
    return data


def _eval_spill(cell: Cell) -> dict:
    """Generic spilling-driver cell (ablation benchmarks)."""
    run = _cell_compile(cell, "spill", dict(cell.spill_options()))
    valid = run.schedule is not None
    if valid:
        try:
            run.schedule.validate()
            run.ddg.validate()
        except AssertionError:
            valid = False
    return {
        "converged": run.converged,
        "ii": run.ii,
        "reschedules": len(run.trace),
        "registers": run.registers_used if run.schedule is not None else None,
        "memory_ops": run.memory_ops,
        "spilled": len(run.spilled),
        "attempts": run.attempts,
        "placements": run.placements,
        "valid": valid,
    }


_EVALUATORS = {
    "ideal": _eval_ideal,
    "table1": _eval_table1,
    "fig4": _eval_fig4,
    "fig7": _eval_fig7,
    "fig8": _eval_fig8,
    "fig9": _eval_fig9,
    "spill": _eval_spill,
}


# ----------------------------------------------------------------------
# execution
@dataclass
class EngineRun:
    """A batch of evaluated cells plus aggregate telemetry."""

    results: list[CellResult]
    jobs: int
    seconds: float
    cache: CacheStats

    def by_kind(self, kind: str) -> list[CellResult]:
        return [r for r in self.results if r.cell.kind == kind]


# The persistent worker pool lives in repro.pool: it is shared with the
# Pipeline batch service, keyed by (jobs, active store), and reused
# across batches so the workers' caches stay warm for a whole sweep
# (one artifact's ideal pass serves the next's).
_worker_pool = worker_pool

# When set (via routed_through), run_cells ships cells to a
# repro.cluster.ClusterClient instead of evaluating locally — the hook
# sits here so every experiment runner (run_table1, run_fig8, ...)
# routes without signature changes.
_ACTIVE_CLUSTER = None

# When set (via verified_cells / run_sweep(verify=True)), run_cells
# stamps verify=True onto every cell before evaluation — same
# no-signature-changes trick as _ACTIVE_CLUSTER, and the stamp rides the
# cell through pickling (pool workers) and the wire (cluster shards).
_VERIFY_CELLS = False


@contextlib.contextmanager
def verified_cells():
    """Oracle-check every schedule produced by :func:`run_cells` calls
    inside the block (``repro sweep --verify``).  Output bytes are
    unchanged — an invalid schedule raises
    :class:`repro.verify.VerificationError` instead."""
    global _VERIFY_CELLS
    previous = _VERIFY_CELLS
    _VERIFY_CELLS = True
    try:
        yield
    finally:
        _VERIFY_CELLS = previous


@contextlib.contextmanager
def routed_through(cluster):
    """Route every :func:`run_cells` call inside the block through
    *cluster* (a :class:`repro.cluster.ClusterClient`).  Results are
    byte-identical to local evaluation; only where the work runs (and
    whose caches warm up) changes."""
    global _ACTIVE_CLUSTER
    previous = _ACTIVE_CLUSTER
    _ACTIVE_CLUSTER = cluster
    try:
        yield cluster
    finally:
        _ACTIVE_CLUSTER = previous


def run_cells(cells: list[Cell], jobs: int = 1) -> EngineRun:
    """Evaluate *cells*; results are sorted by cell key, so the outcome
    is identical whatever *jobs* is (and whether they run locally or on
    a routed cluster)."""
    from repro.sched.cache import caching_enabled

    ordered = sorted(cells, key=Cell.sort_key)
    if _VERIFY_CELLS:
        from dataclasses import replace

        ordered = [replace(cell, verify=True) for cell in ordered]
    started = time.perf_counter()
    if _ACTIVE_CLUSTER is not None and ordered:
        results, cache = _ACTIVE_CLUSTER.run_cells(ordered)
        return EngineRun(
            results=results,
            jobs=jobs,
            seconds=time.perf_counter() - started,
            cache=cache,
        )
    # cache.disabled() is process-local: worker processes would cache
    # anyway (or inherit a frozen flag at fork time), so honour it by
    # evaluating serially in this process.
    if jobs <= 1 or len(ordered) <= 1 or not caching_enabled():
        results = [evaluate_cell(cell) for cell in ordered]
    else:
        chunk = max(1, len(ordered) // (jobs * 4))
        results = list(
            imap_resilient(evaluate_cell, ordered, jobs, chunksize=chunk)
        )
    cache = CacheStats()
    for result in results:
        cache.add(result.cache)
    return EngineRun(
        results=results,
        jobs=jobs,
        seconds=time.perf_counter() - started,
        cache=cache,
    )


def workload_cells(
    kind: str,
    suite: list[Workload],
    machine: MachineConfig,
    budget: int = 0,
    variant: str = "",
    scheduler: ModuloScheduler | None = None,
    options: dict | None = None,
) -> list[Cell]:
    """Cells of *kind* for every workload of *suite* on one machine."""
    spec = machine_spec(machine)
    name = scheduler_name(scheduler)
    packed = tuple(sorted((options or {}).items()))
    return [
        Cell(
            kind=kind,
            workload=workload.name,
            source=workload.source,
            weight=workload.weight,
            machine=spec,
            budget=budget,
            variant=variant,
            scheduler=name,
            options=packed,
        )
        for workload in suite
    ]


def pack_options(options: dict) -> dict:
    """Normalize driver options into picklable/JSON-able scalars."""
    packed = {}
    for key, value in options.items():
        packed[key] = value.value if isinstance(value, SelectionPolicy) else value
    return packed


# ----------------------------------------------------------------------
# sweep — the one-command reproduction entry point
@dataclass
class SweepReport:
    """Everything one ``repro sweep`` produced."""

    suite_info: dict
    artifacts: dict  # name -> result object with .render()
    run: EngineRun
    jobs: int

    def render(self) -> str:
        blocks = []
        for name in sorted(self.artifacts):
            rendered = self.artifacts[name].render()
            if "@" in name:
                # multi-scheduler sweeps key artifacts as name@scheduler;
                # the result objects' own titles do not carry the axis
                rendered = f"[{name}]\n{rendered}"
            blocks.append(rendered)
        blocks.append(self.summary())
        return "\n\n".join(blocks)

    def summary(self) -> str:
        """One-line wall-clock + cache telemetry (stdout only — never
        part of the byte-compared JSON)."""
        cache = self.run.cache
        line = (
            f"sweep: {len(self.run.results)} cells, jobs={self.jobs},"
            f" {self.run.seconds:.2f}s wall;"
            f" cache hits/misses: schedule {cache.schedule_hits}"
            f"/{cache.schedule_misses}, MII {cache.mii_hits}"
            f"/{cache.mii_misses}, spill runs {cache.spill_hits}"
            f"/{cache.spill_misses}, alloc {cache.alloc_hits}"
            f"/{cache.alloc_misses}"
        )
        lookups = cache.store_hits + cache.store_misses
        if lookups:
            share = 100.0 * cache.store_hits / lookups
            line += (
                f", store {cache.store_hits}/{cache.store_misses}"
                f" ({share:.0f}% hits)"
            )
        return line

    def to_json(self) -> dict:
        """Machine-readable results: deterministic for any job count
        (no wall-clock, no cache telemetry)."""
        artifacts = {}
        for name, result in self.artifacts.items():
            artifacts[name] = _artifact_json(name, result)
        return {
            "schema": JSON_SCHEMA,
            "suite": self.suite_info,
            "artifacts": artifacts,
            "cells": [
                result.as_json()
                for result in sorted(
                    self.run.results, key=lambda r: r.cell.sort_key()
                )
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _artifact_json(name: str, result) -> dict:
    name = name.split("@", 1)[0]  # "table1@swing" → the table1 shape
    if name == "table1":
        return {"rows": [list(row) for row in result.rows]}
    if name == "fig4":
        return {
            "machine": result.machine,
            "trails": {
                loop: [list(point) for point in trail]
                for loop, trail in result.trails.items()
            },
            "converged": {
                loop: {str(budget): ii for budget, ii in budgets.items()}
                for loop, budgets in result.converged.items()
            },
        }
    if name == "fig7":
        return {"machine": result.machine, "rounds": result.rounds}
    if name == "fig8":
        rows = []
        for row in result.rows:
            trimmed = dict(row)
            trimmed.pop("seconds", None)  # wall-clock is not comparable
            rows.append(trimmed)
        return {"rows": rows}
    if name == "fig9":
        return {"rows": [list(row) for row in result.rows]}
    raise ValueError(f"unknown artifact {name!r}")


def filter_suite(suite: list[Workload], categories) -> list[Workload]:
    """The workloads of *suite* whose ``category`` is in *categories*
    (a comma-separated string or an iterable).  Unknown categories and
    an empty selection raise :class:`ValueError` — a silent empty sweep
    would look like a clean zero-row artifact."""
    if isinstance(categories, str):
        wanted = {part.strip() for part in categories.split(",") if part.strip()}
    else:
        wanted = {str(part) for part in categories}
    available = {workload.category for workload in suite}
    unknown = sorted(wanted - available)
    if unknown:
        raise ValueError(
            f"unknown suite categor{'y' if len(unknown) == 1 else 'ies'}"
            f" {', '.join(map(repr, unknown))}"
            f" (this suite has: {', '.join(sorted(available))})"
        )
    filtered = [w for w in suite if w.category in wanted]
    if not filtered:
        raise ValueError("suite filter selected no workloads")
    return filtered


def run_sweep(
    suite: list[Workload] | None = None,
    machines: list[MachineConfig] | None = None,
    budgets: tuple[int, ...] = (64, 32),
    artifacts: tuple[str, ...] = ("table1", "fig8"),
    jobs: int = 1,
    scheduler: "ModuloScheduler | list | tuple | None" = None,
    suite_info: dict | None = None,
    cache_dir: "str | sched_store.ScheduleStore | None" = None,
    suite_filter: "str | list[str] | None" = None,
    cluster=None,
    verify: bool = False,
) -> SweepReport:
    """Regenerate the requested paper artifacts in one engine pass.

    ``scheduler`` may be a list/tuple: the whole artifact grid is then
    run once per scheduler into one combined report, with artifact keys
    ``"table1@hrms"``-style and every cell carrying its scheduler (one
    jobs-deterministic JSON document for the entire grid).
    ``suite_filter`` restricts the suite to the named workload
    categories (see :func:`filter_suite`).  ``cache_dir`` (a directory
    path or a :class:`~repro.sched.store.ScheduleStore`) activates the
    persistent store for the whole sweep (parent process and every
    worker) — a repeated sweep into the same directory is served from
    disk and produces byte-identical JSON.  ``cluster`` (a
    :class:`repro.cluster.ClusterClient` or a ``host:port,host:port``
    address string — ``repro sweep --connect``) routes every cell
    through the sharded daemons instead of local evaluation; the JSON
    stays byte-identical either way.
    """
    if cache_dir is not None:
        with sched_store.using(cache_dir):
            return run_sweep(
                suite=suite, machines=machines, budgets=budgets,
                artifacts=artifacts, jobs=jobs, scheduler=scheduler,
                suite_info=suite_info, suite_filter=suite_filter,
                cluster=cluster, verify=verify,
            )
    if cluster is not None:
        if isinstance(cluster, (str, list, tuple)):
            from repro.cluster import ClusterClient

            with ClusterClient(cluster) as owned:
                with routed_through(owned):
                    return run_sweep(
                        suite=suite, machines=machines, budgets=budgets,
                        artifacts=artifacts, jobs=jobs,
                        scheduler=scheduler, suite_info=suite_info,
                        suite_filter=suite_filter, verify=verify,
                    )
        with routed_through(cluster):
            return run_sweep(
                suite=suite, machines=machines, budgets=budgets,
                artifacts=artifacts, jobs=jobs, scheduler=scheduler,
                suite_info=suite_info, suite_filter=suite_filter,
                verify=verify,
            )
    from repro.eval import experiments
    from repro.machine.machine import paper_configurations
    from repro.workloads.suite import perfect_club_like_suite

    suite = suite if suite is not None else perfect_club_like_suite()
    if suite_filter:
        suite = filter_suite(suite, suite_filter)
    machines = machines if machines is not None else paper_configurations()
    if isinstance(scheduler, (list, tuple)):
        schedulers = list(scheduler) if scheduler else [None]
    else:
        schedulers = [scheduler]
    scheduler_labels = [scheduler_name(s) for s in schedulers]
    if len(set(scheduler_labels)) != len(scheduler_labels):
        raise ValueError(
            f"duplicate schedulers in sweep: {scheduler_labels}"
        )
    multi = len(schedulers) > 1

    def runners_for(sched):
        return {
            "table1": lambda: experiments.run_table1(
                suite, machines, budgets, scheduler=sched, jobs=jobs
            ),
            # fig4 and fig7 are single-machine curves: they follow the
            # first machine filter and their own register targets, not
            # the sweep budgets.
            "fig4": lambda: experiments.run_fig4(
                machine=machines[0], scheduler=sched, jobs=jobs
            ),
            "fig7": lambda: experiments.run_fig7(
                machine=machines[0], scheduler=sched, jobs=jobs
            ),
            "fig8": lambda: experiments.run_fig8(
                suite, machines, budgets, scheduler=sched, jobs=jobs
            ),
            "fig9": lambda: experiments.run_fig9(
                suite, machines, budgets, scheduler=sched, jobs=jobs
            ),
        }

    unknown = set(artifacts) - set(runners_for(None))
    if unknown:
        raise ValueError(f"unknown artifacts: {sorted(unknown)}")

    started = time.perf_counter()
    produced = {}
    results: list[CellResult] = []
    cache = CacheStats()
    verify_context = verified_cells() if verify else contextlib.nullcontext()
    with verify_context:
        for sched, label in zip(schedulers, scheduler_labels):
            runners = runners_for(sched)
            for name in artifacts:
                result = runners[name]()
                produced[f"{name}@{label}" if multi else name] = result
                run = result.engine_run
                results.extend(run.results)
                cache.add(run.cache)
    engine_run = EngineRun(
        results=results,
        jobs=jobs,
        seconds=time.perf_counter() - started,
        cache=cache,
    )
    info = dict(suite_info or {})
    info.setdefault("size", len(suite))
    info["machines"] = [machine_spec(m) for m in machines]
    info["budgets"] = list(budgets)
    info["artifacts"] = sorted(artifacts)
    info["schedulers"] = scheduler_labels
    if suite_filter:
        info["suite_filter"] = (
            suite_filter if isinstance(suite_filter, str)
            else ",".join(suite_filter)
        )
    return SweepReport(
        suite_info=info,
        artifacts=produced,
        run=engine_run,
        jobs=jobs,
    )
