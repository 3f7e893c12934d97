"""Kernel, prologue and epilogue emission (paper Section 2.2).

A modulo schedule of stage count ``SC`` executes as: ``SC - 1`` prologue
stages that start iterations 1..SC-1 (ramp-up), a kernel iterated
``N - SC + 1`` times (steady state), and ``SC - 1`` epilogue stages that
finish the in-flight iterations (ramp-down).  An operation scheduled at
flat cycle ``t`` belongs to kernel row ``t mod II`` and stage ``t div II``;
in the kernel listing it is subscripted with its stage, as in the paper's
Figure 2e (``Ld2  *1  +0`` style).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sched.schedule import Schedule, kernel_rows


@dataclass
class KernelCode:
    """Emitted software-pipelined loop.

    ``kernel`` holds one list of mnemonics per row; ``prologue`` and
    ``epilogue`` are flat (cycle, mnemonics) listings.  Mnemonics carry the
    stage subscript: ``add1_2`` is operation ``add1`` of the iteration
    started two stages ago.
    """

    ii: int
    stage_count: int
    kernel: list[list[str]] = field(default_factory=list)
    prologue: list[tuple[int, list[str]]] = field(default_factory=list)
    epilogue: list[tuple[int, list[str]]] = field(default_factory=list)

    def total_cycles(self, iterations: int) -> int:
        """Cycles to run *iterations* iterations (ramp + steady + drain)."""
        if iterations <= 0:
            return 0
        return (iterations + self.stage_count - 1) * self.ii


def emit_loop(schedule: Schedule) -> KernelCode:
    """Emit kernel/prologue/epilogue for *schedule*."""
    ii = schedule.ii
    stage_count = schedule.stage_count
    rows = kernel_rows(schedule)
    kernel = [[str(slot) for slot in row] for row in rows]

    prologue: list[tuple[int, list[str]]] = []
    epilogue: list[tuple[int, list[str]]] = []
    # Prologue cycle c (0 <= c < (SC-1)*II) runs, for each iteration j
    # already started (one per stage), the operations scheduled at flat
    # cycle c - j*II.  The epilogue mirrors it for draining iterations.
    for cycle in range((stage_count - 1) * ii):
        ops: list[str] = []
        for name, start in schedule.times.items():
            for iteration in range(stage_count):
                if start + iteration * ii == cycle:
                    ops.append(f"{name}@it{iteration}")
        if ops:
            prologue.append((cycle, sorted(ops)))
    for cycle in range((stage_count - 1) * ii):
        ops = _epilogue_ops(schedule, cycle)
        if ops:
            epilogue.append((cycle, ops))
    return KernelCode(
        ii=ii,
        stage_count=stage_count,
        kernel=kernel,
        prologue=prologue,
        epilogue=epilogue,
    )


def _epilogue_ops(schedule: Schedule, cycle: int) -> list[str]:
    """Operations of the draining iterations at epilogue cycle *cycle*.

    When the kernel stops, the iteration that just started still owes its
    stages ``1..SC-1``; the one before it stages ``2..SC-1``; and so on.
    Epilogue cycle ``c`` (counted from the cycle after the last kernel
    cycle) runs operation ``v`` of the iteration started ``a`` stages
    before the end iff ``t(v) = c + (a * II)``...  equivalently, for each
    remaining iteration ``a`` in ``1..SC-1``, the ops with
    ``t(v) - a*II == c - II*0`` shifted into the drain window.
    """
    ii = schedule.ii
    stage_count = schedule.stage_count
    ops: list[str] = []
    for name, start in schedule.times.items():
        for age in range(1, stage_count):
            # iteration `age` stages old: its remaining ops have flat times
            # >= age*II; it executes op at epilogue cycle start - age*II.
            if start - age * ii == cycle:
                ops.append(f"{name}@age{age}")
    return sorted(ops)
