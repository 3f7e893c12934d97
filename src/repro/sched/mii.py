"""Minimum initiation interval (paper Section 2.2).

``MII = max(ResMII, RecMII)``:

* ``ResMII`` — the most saturated resource class bounds the II: with
  ``busy`` unit-cycles of work per iteration on ``n`` units, at least
  ``ceil(busy / n)`` cycles must elapse between iterations.  Pipelined
  units contribute one busy cycle per operation, non-pipelined units the
  operation's full latency; a non-pipelined operation additionally needs
  ``II >= latency`` because it would collide with its own next instance.

* ``RecMII`` — every dependence cycle ``c`` needs
  ``II >= ceil(latency(c) / distance(c))``; see
  :func:`repro.graph.analysis.recurrence_mii_of_scc`.
"""

from __future__ import annotations

import math

from repro.graph.ddg import DDG
from repro.graph.index import get_index
from repro.ir.operations import FuClass
from repro.machine.machine import MachineConfig


def res_mii(ddg: DDG, machine: MachineConfig) -> int:
    """Resource-constrained lower bound on the II."""
    busy: dict[FuClass, int] = {}
    single_op_floor = 1
    for opcode, count in ddg.opcode_counts().items():
        fu_class = machine.fu_class(opcode)
        occupancy = machine.occupancy(opcode)
        busy[fu_class] = busy.get(fu_class, 0) + occupancy * count
        single_op_floor = max(single_op_floor, occupancy)
    bound = single_op_floor
    for fu_class, cycles in busy.items():
        units = machine.units_of(fu_class)
        if units == 0:
            raise ValueError(
                f"{machine.name} has no {fu_class.value} unit but the loop"
                " needs one"
            )
        bound = max(bound, math.ceil(cycles / units))
    return bound


def rec_mii(ddg: DDG, machine: MachineConfig) -> int:
    """Recurrence-constrained lower bound on the II.

    All recurrences' RecMIIs come from the index's one shared pass —
    the same memo :func:`repro.sched.ordering.partition_sets` and
    :func:`repro.graph.analysis.critical_recurrence` read, so the
    per-SCC binary searches happen once per ``(graph, latencies)``.
    """
    latencies = machine.latencies_for(ddg)
    return get_index(ddg).latency_view(latencies).rec_mii()


def compute_mii(ddg: DDG, machine: MachineConfig) -> int:
    """``max(ResMII, RecMII)`` — the starting II of every scheduler."""
    if not ddg.nodes:
        return 1
    return max(res_mii(ddg, machine), rec_mii(ddg, machine))
