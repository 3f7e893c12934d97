"""Per-table / per-figure experiments (paper Section 5).

Each artifact of the paper's evaluation is a batch of independent
:class:`repro.eval.engine.Cell` objects plus a pure aggregation of their
results.  ``plan_<artifact>(...)`` returns both as a :class:`Plan`:
:func:`repro.eval.engine.run_sweep` concatenates the plans of every
requested artifact and scheduler and evaluates all their cells in one
:func:`~repro.eval.engine.run_cells` call.  The ``run_*`` functions run
one plan on its own (``jobs=N`` fans its cells out over worker
processes) and return a result object whose ``render()`` prints the same
rows/series the paper reports.  Results are identical for any job count.
DESIGN.md carries the experiment index mapping these artifacts to the
paper's tables and figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.core.select import SelectionPolicy
from repro.eval.engine import (
    Cell,
    CellResult,
    machine_spec,
    pack_options,
    run_cells,
    scheduler_name,
    workload_cells,
)
from repro.eval.reporting import format_table
from repro.machine.machine import MachineConfig, paper_configurations
from repro.sched.base import ModuloScheduler
from repro.workloads.apsi import apsi47_source, apsi50_source
from repro.workloads.suite import Workload, perfect_club_like_suite

#: Figure 8's heuristic variants, in the paper's order.
FIG8_VARIANTS: list[tuple[str, dict]] = [
    ("Max(LT)", dict(policy=SelectionPolicy.MAX_LT, multiple=False, last_ii=False)),
    ("Max(LT/Traf)", dict(policy=SelectionPolicy.MAX_LT_TRAF, multiple=False, last_ii=False)),
    ("Max(LT/Traf)+mult", dict(policy=SelectionPolicy.MAX_LT_TRAF, multiple=True, last_ii=False)),
    ("Max(LT/Traf)+mult+lastII", dict(policy=SelectionPolicy.MAX_LT_TRAF, multiple=True, last_ii=True)),
]

DEFAULT_BUDGETS = (64, 32)

#: Figures 4 and 7 follow these two loops (paper Figure 2's APSI loops).
_APSI_LOOPS = (("apsi47_like", apsi47_source), ("apsi50_like", apsi50_source))


class Plan(NamedTuple):
    """One artifact: the cells it needs and the pure function turning
    their results (in any order) into the artifact's result object."""

    cells: list[Cell]
    aggregate: Callable[[list[CellResult]], object]

    def run(self, jobs: int = 1):
        return self.aggregate(run_cells(self.cells, jobs=jobs).results)


def _grid(suite, machines) -> tuple[list[Workload], list[MachineConfig]]:
    return (
        suite if suite is not None else perfect_club_like_suite(),
        machines if machines is not None else paper_configurations(),
    )


def _suite_cells(kind, suite, machines, budgets, scheduler, **kwargs):
    return [
        cell
        for machine in machines
        for budget in budgets
        for cell in workload_cells(
            kind, suite, machine, budget=budget, scheduler=scheduler,
            **kwargs,
        )
    ]


def _by_group(results: list[CellResult]) -> dict[tuple, list[CellResult]]:
    """Results keyed by ``(machine spec, budget, variant)``: one entry
    per suite-wide group the aggregators sum over."""
    groups = defaultdict(list)
    for result in results:
        cell = result.cell
        groups[(cell.machine, cell.budget, cell.variant)].append(result)
    return groups


def _total(results: list[CellResult], key: str) -> int:
    return sum(result.data[key] for result in results)


def _loop_cells(kind, machine, budget, scheduler, options) -> list[Cell]:
    spec, scheduler = machine_spec(machine), scheduler_name(scheduler)
    return [
        Cell(kind=kind, workload=name, source=source(), weight=1,
             machine=spec, budget=budget, scheduler=scheduler, options=options)
        for name, source in _APSI_LOOPS
    ]


# ======================================================================
# Table 1 — loops that never converge under II increase
@dataclass
class Table1Result:
    """Per (configuration, register budget): how many loops never converge
    and the share of (infinite-register) execution cycles they represent."""

    suite_size: int
    rows: list[tuple[str, int, int, float]] = field(default_factory=list)
    # (config, budget, never_converge_count, weighted cycle share %)

    def render(self) -> str:
        return format_table(
            ["config", "registers", "loops that never converge", "% of cycles"],
            [list(row) for row in self.rows],
            title=(
                "Table 1: II-increase non-convergence"
                f" (suite of {self.suite_size} loops)"
            ),
        )


def plan_table1(
    suite: list[Workload] | None = None,
    machines: list[MachineConfig] | None = None,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    scheduler: ModuloScheduler | str | None = None,
    patience: int = 10,
) -> Plan:
    suite, machines = _grid(suite, machines)

    def aggregate(results: list[CellResult]) -> Table1Result:
        groups = _by_group(results)
        result = Table1Result(suite_size=len(suite))
        for machine in machines:
            spec = machine_spec(machine)
            total_cycles = _total(groups[(spec, budgets[0], "")], "ideal_cycles")
            for budget in budgets:
                group = groups[(spec, budget, "")]
                failed = [r for r in group if r.data["failed"]]
                failed_cycles = _total(failed, "ideal_cycles")
                share = 100.0 * failed_cycles / total_cycles if total_cycles else 0.0
                result.rows.append((machine.name, budget, len(failed), share))
        return result

    cells = _suite_cells(
        "table1", suite, machines, budgets, scheduler,
        options={"patience": patience},
    )
    return Plan(cells, aggregate)


def run_table1(
    suite: list[Workload] | None = None,
    machines: list[MachineConfig] | None = None,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    scheduler: ModuloScheduler | None = None,
    patience: int = 10,
    jobs: int = 1,
) -> Table1Result:
    return plan_table1(suite, machines, budgets, scheduler, patience).run(jobs)


# ======================================================================
# Figure 4 — register requirement vs II for the two example loops
@dataclass
class Fig4Result:
    trails: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    converged: dict[str, dict[int, int | None]] = field(default_factory=dict)
    # loop -> {budget: II reached or None}
    machine: str = ""

    def render(self) -> str:
        blocks = []
        for name, trail in self.trails.items():
            rows = [[ii, regs] for ii, regs in trail]
            blocks.append(
                format_table(
                    ["II", "registers"],
                    rows,
                    title=f"Figure 4 ({name}): registers vs II",
                )
            )
            notes = ", ".join(
                f"{budget} regs -> "
                + (f"II={ii}" if ii is not None else "never converges")
                for budget, ii in self.converged[name].items()
            )
            blocks.append(f"convergence: {notes}")
        return "\n\n".join(blocks)


def plan_fig4(
    machine: MachineConfig | None = None,
    budgets: tuple[int, ...] = (32, 16),
    scheduler: ModuloScheduler | str | None = None,
    max_ii: int = 120,
) -> Plan:
    machine = machine or paper_configurations()[1]  # P2L4

    def aggregate(results: list[CellResult]) -> Fig4Result:
        result = Fig4Result(machine=machine.name)
        for cell_result in results:
            trail = [tuple(point) for point in cell_result.data["trail"]]
            name = cell_result.cell.workload
            result.trails[name] = trail
            result.converged[name] = {}
            for budget in budgets:
                fitting = [ii for ii, regs in trail if regs <= budget]
                result.converged[name][budget] = min(fitting) if fitting else None
        return result

    # One long sweep per loop (down to an impossible budget, so budget=1)
    # yields the whole registers-vs-II curve; the per-budget convergence
    # notes are read off the shared trail.
    cells = _loop_cells(
        "fig4", machine, 1, scheduler, (("max_ii", max_ii), ("patience", 18)),
    )
    return Plan(cells, aggregate)


def run_fig4(
    machine: MachineConfig | None = None,
    budgets: tuple[int, ...] = (32, 16),
    scheduler: ModuloScheduler | None = None,
    max_ii: int = 120,
    jobs: int = 1,
) -> Fig4Result:
    return plan_fig4(machine, budgets, scheduler, max_ii).run(jobs)


# ======================================================================
# Figure 7 — behaviour while spilling lifetimes one at a time
@dataclass
class Fig7Result:
    machine: str = ""
    rounds: dict[str, list[tuple[int, int, int, int, float]]] = field(
        default_factory=dict
    )
    # loop -> [(n_spilled, II, MII, registers, bus %)]

    def render(self) -> str:
        blocks = []
        for name, rows in self.rounds.items():
            blocks.append(
                format_table(
                    ["spilled", "II", "MII", "registers", "bus %"],
                    [list(row) for row in rows],
                    title=(
                        f"Figure 7 ({name}, {self.machine}):"
                        " spilling trajectory, Max(LT)"
                    ),
                )
            )
        return "\n\n".join(blocks)


def plan_fig7(
    machine: MachineConfig | None = None,
    target_registers: int = 12,
    scheduler: ModuloScheduler | str | None = None,
) -> Plan:
    machine = machine or paper_configurations()[1]  # P2L4

    def aggregate(results: list[CellResult]) -> Fig7Result:
        result = Fig7Result(machine=machine.name)
        for cell_result in results:
            result.rounds[cell_result.cell.workload] = [
                tuple(row) for row in cell_result.data["rows"]
            ]
        return result

    cells = _loop_cells(
        "fig7", machine, target_registers, scheduler,
        (("policy", SelectionPolicy.MAX_LT.value),),
    )
    return Plan(cells, aggregate)


def run_fig7(
    machine: MachineConfig | None = None,
    target_registers: int = 12,
    scheduler: ModuloScheduler | None = None,
    jobs: int = 1,
) -> Fig7Result:
    return plan_fig7(machine, target_registers, scheduler).run(jobs)


# ======================================================================
# Figure 8 — heuristics across configurations: cycles, traffic, time
@dataclass
class Fig8Result:
    suite_size: int
    rows: list[dict] = field(default_factory=list)

    def render(self) -> str:
        headers = [
            "config", "registers", "variant", "cycles", "traffic",
            "attempts", "placements", "seconds", "not converged",
        ]
        table_rows = [
            [
                row["config"], row["budget"], row["variant"], row["cycles"],
                row["traffic"], row["attempts"], row["placements"],
                row["seconds"], row["failed"],
            ]
            for row in self.rows
        ]
        return format_table(
            headers,
            table_rows,
            title=(
                "Figure 8: spilling heuristics — execution cycles (8a),"
                f" memory traffic (8b), scheduling effort (8c);"
                f" suite of {self.suite_size} loops"
            ),
        )


def plan_fig8(
    suite: list[Workload] | None = None,
    machines: list[MachineConfig] | None = None,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    variants: list[tuple[str, dict]] | None = None,
    scheduler: ModuloScheduler | str | None = None,
) -> Plan:
    suite, machines = _grid(suite, machines)
    variants = variants if variants is not None else FIG8_VARIANTS
    if not variants:
        raise ValueError("fig8 needs at least one heuristic variant")

    def aggregate(results: list[CellResult]) -> Fig8Result:
        groups = _by_group(results)
        result = Fig8Result(suite_size=len(suite))
        for machine in machines:
            spec = machine_spec(machine)
            for budget in budgets:
                # every variant's cells carry the ideal figures; read
                # them off the first variant's
                ideal = groups[(spec, budget, variants[0][0])]
                result.rows.append(dict(
                    config=machine.name, budget=budget,
                    variant="ideal (infinite regs)",
                    cycles=_total(ideal, "ideal_cycles"),
                    traffic=_total(ideal, "ideal_traffic"),
                    attempts=0, placements=0, seconds=0.0, failed=0,
                ))
                for label, _ in variants:
                    rows = groups[(spec, budget, label)]
                    result.rows.append(dict(
                        config=machine.name, budget=budget, variant=label,
                        cycles=_total(rows, "cycles"),
                        traffic=_total(rows, "traffic"),
                        attempts=_total(rows, "attempts"),
                        placements=_total(rows, "placements"),
                        seconds=sum(r.seconds for r in rows),
                        failed=_total(rows, "failed"),
                    ))
        return result

    cells = [
        cell
        for label, options in variants
        for cell in _suite_cells(
            "fig8", suite, machines, budgets, scheduler,
            variant=label, options=pack_options(options),
        )
    ]
    return Plan(cells, aggregate)


def run_fig8(
    suite: list[Workload] | None = None,
    machines: list[MachineConfig] | None = None,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    variants: list[tuple[str, dict]] | None = None,
    scheduler: ModuloScheduler | None = None,
    jobs: int = 1,
) -> Fig8Result:
    return plan_fig8(suite, machines, budgets, variants, scheduler).run(jobs)


# ======================================================================
# Figure 9 — increasing the II vs adding spill code vs best of all
@dataclass
class Fig9Result:
    suite_size: int
    rows: list[tuple[str, int, int, int, int, int, int]] = field(
        default_factory=list
    )
    # (config, budget, subset size, cycles incII, cycles spill,
    #  cycles best-of-all, ideal cycles)

    def render(self) -> str:
        return format_table(
            [
                "config", "registers", "loops", "increase II", "spill",
                "best of all", "ideal",
            ],
            [list(row) for row in self.rows],
            title=(
                "Figure 9: II-increase vs spilling vs combined, on the"
                " subset needing register reduction where II-increase"
                f" converges (suite of {self.suite_size} loops)"
            ),
        )


def plan_fig9(
    suite: list[Workload] | None = None,
    machines: list[MachineConfig] | None = None,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    scheduler: ModuloScheduler | str | None = None,
) -> Plan:
    suite, machines = _grid(suite, machines)

    def aggregate(results: list[CellResult]) -> Fig9Result:
        groups = _by_group(results)
        result = Fig9Result(suite_size=len(suite))
        for machine in machines:
            spec = machine_spec(machine)
            for budget in budgets:
                rows = [
                    r for r in groups[(spec, budget, "")] if r.data["included"]
                ]
                result.rows.append((
                    machine.name, budget, len(rows),
                    _total(rows, "inc_cycles"), _total(rows, "spill_cycles"),
                    _total(rows, "best_cycles"), _total(rows, "ideal_cycles"),
                ))
        return result

    return Plan(_suite_cells("fig9", suite, machines, budgets, scheduler), aggregate)


def run_fig9(
    suite: list[Workload] | None = None,
    machines: list[MachineConfig] | None = None,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    scheduler: ModuloScheduler | None = None,
    jobs: int = 1,
) -> Fig9Result:
    return plan_fig9(suite, machines, budgets, scheduler).run(jobs)
