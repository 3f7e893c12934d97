"""Modulo reservation table (MRT).

Modulo scheduling requires that the resource usage pattern of one iteration,
taken modulo II, never conflicts with itself.  The MRT records, for every
functional unit and every cycle ``0..II-1``, which operation occupies it.

Pipelined units are busy for one cycle per operation.  Non-pipelined units
(the paper's Div/Sqrt) stay busy for the operation's full latency; since the
same unit is reserved in every iteration, such an operation only fits if its
latency is at most II — which is why any loop containing a divide has
``ResMII >= 17`` on the paper's machines.

Each unit carries an II-bit occupancy mask and an operation's footprint is
a mask of its slots mod II.  Placement is two steps: :meth:`fit` tests each
unit once (one AND) without touching the table and returns the lowest-
numbered free unit with the footprint, and :meth:`commit` ORs that
footprint into the unit's mask.  A fused group fits all its members (each
against the masks plus the members already fitted) before committing any,
so a rejected slot changes nothing.  ``_placements`` keeps each operation's
unit and footprint; occupant queries (:meth:`conflicting`, :meth:`render`,
:meth:`utilization`) derive from it and the masks.  Unit tests are counted
in :data:`repro.graph.index.WORK` (``mrt_probes``) — the deterministic
effort proxy surfaced by :class:`repro.api.CompilationResult`.
"""

from __future__ import annotations

from repro.graph.index import WORK
from repro.ir.operations import FuClass, Opcode
from repro.machine.machine import MachineConfig

#: ``(fu_class, unit, footprint)``: where :meth:`ModuloReservationTable.fit`
#: found room for an operation.
Fit = tuple[FuClass, int, int]


class ModuloReservationTable:
    """Occupancy of every functional unit over one initiation interval."""

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        if ii < 1:
            raise ValueError(f"II must be positive, got {ii}")
        self.machine = machine
        self.ii = ii
        #: Per-unit occupancy bitmask, bit ``c`` set when cycle ``c`` is busy.
        self._masks: dict[FuClass, list[int]] = {
            fu_class: [0] * count
            for fu_class, count in machine.fu_counts.items()
        }
        self._placements: dict[str, Fit] = {}
        #: opcode name → (fu_class, that class's mask row, occupancy), so
        #: probes neither query the machine nor hash an enum.
        self._specs: dict[str, tuple[FuClass, list[int], int]] = {}

    # ------------------------------------------------------------------
    def fit(
        self, opcode: Opcode, start: int, pending: list[Fit] | None = None
    ) -> Fit | None:
        """The lowest-numbered unit free for *opcode* at *start* — against
        the table plus the *pending* fits not yet committed — or ``None``.
        Does not change the table."""
        spec = self._specs.get(opcode._name_)
        if spec is None:
            fu_class = self.machine.fu_class(opcode)
            spec = (
                fu_class,
                self._masks.get(fu_class, []),
                self.machine.occupancy(opcode),
            )
            self._specs[opcode._name_] = spec
        fu_class, row, occupancy = spec
        ii = self.ii
        if occupancy > ii:
            return None
        footprint = ((1 << occupancy) - 1) << (start % ii)
        if footprint >> ii:  # fold the wrap-around back into the low bits
            footprint = (footprint | (footprint >> ii)) & ((1 << ii) - 1)
        for unit, busy in enumerate(row):
            if pending:
                for other_class, other_unit, other in pending:
                    if other_class is fu_class and other_unit == unit:
                        busy |= other
            if not busy & footprint:
                WORK.mrt_probes += unit + 1
                return fu_class, unit, footprint
        WORK.mrt_probes += len(row)
        return None

    def commit(self, name: str, fit: Fit) -> None:
        """Reserve the unit slots *fit* found for operation *name*."""
        if name in self._placements:
            raise RuntimeError(f"{name} is already placed")
        fu_class, unit, footprint = fit
        self._masks[fu_class][unit] |= footprint
        self._placements[name] = fit

    def can_place(self, opcode: Opcode, start: int) -> bool:
        return self.fit(opcode, start) is not None

    def place(self, name: str, opcode: Opcode, start: int) -> None:
        """Reserve resources for operation *name* starting at *start*.

        Raises ``RuntimeError`` when no unit is free (callers are expected
        to test with :meth:`can_place` or evict first).
        """
        fit = self.fit(opcode, start)
        if fit is None:
            fu_class = self.machine.fu_class(opcode)
            raise RuntimeError(f"no free {fu_class.value} unit for {name} at {start}")
        self.commit(name, fit)

    def remove(self, name: str) -> None:
        fu_class, unit, footprint = self._placements.pop(name)
        self._masks[fu_class][unit] &= ~footprint

    def is_placed(self, name: str) -> bool:
        return name in self._placements

    def conflicting(self, opcode: Opcode, start: int) -> set[str]:
        """Operations whose eviction would free some unit for *opcode* at
        *start*: the occupants of the least-loaded unit's needed slots
        (used by iterative modulo scheduling's forced placement)."""
        occupancy = self.machine.occupancy(opcode)
        if occupancy > self.ii:
            return set()
        fu_class = self.machine.fu_class(opcode)
        needed = 0
        for cycle in range(start, start + occupancy):
            needed |= 1 << (cycle % self.ii)
        occupants: list[set[str]] = [
            set() for _ in self._masks.get(fu_class, ())
        ]
        for name, (other_class, unit, footprint) in self._placements.items():
            if other_class is fu_class and footprint & needed:
                occupants[unit].add(name)
        return min(occupants, key=len, default=set())

    # ------------------------------------------------------------------
    def utilization(self, fu_class: FuClass) -> float:
        """Fraction of this class's slots occupied — e.g. bus usage of the
        memory units (Section 4.4's traffic discussion)."""
        rows = self._masks.get(fu_class, [])
        total = len(rows) * self.ii
        if total == 0:
            return 0.0
        return sum(mask.bit_count() for mask in rows) / total

    def render(self) -> str:
        """ASCII dump for debugging and the figure-style reports."""
        grid = {
            fu_class: [["."] * self.ii for _ in rows]
            for fu_class, rows in self._masks.items()
        }
        for name, (fu_class, unit, footprint) in self._placements.items():
            for cycle in range(self.ii):
                if footprint >> cycle & 1:
                    grid[fu_class][unit][cycle] = name
        return "\n".join(
            f"{fu_class.value}[{unit}] "
            + " ".join(f"{cell:>10}" for cell in row)
            for fu_class, rows in grid.items()
            for unit, row in enumerate(rows)
        )
