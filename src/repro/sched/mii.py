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
    A graph that is its parent plus a delta leaving the parent's
    cycles alone carries the parent's value (:func:`_carried_rec_mii`).
    """
    carried = _carried_rec_mii(ddg, machine)
    if carried is not None:
        return carried
    latencies = machine.latencies_for(ddg)
    return get_index(ddg).latency_view(latencies).rec_mii()


def _carried_rec_mii(ddg: DDG, machine: MachineConfig) -> int | None:
    """The parent's RecMII when *ddg*'s delta provably keeps the
    parent's dependence cycles, and their latencies, exactly; ``None``
    when it may not (or the parent has no index at hand).

    Spill code (Section 4.2) removes a lifetime's register edges
    ``u -> c`` and routes each through new nodes (``u -> Ss -> Ls ->
    c``).  If no removed edge lay inside a cyclic SCC of the parent,
    ``c`` never reached ``u``; when every path through the new nodes
    joins the endpoints of a removed edge, and every edge added between
    old nodes re-adds one, the child reaches nothing the parent did not,
    so its cycles are the parent's.  Only while caching is enabled, as
    :meth:`repro.graph.ddg.DDG.copy` shares indexes, so the effort
    counters of a :func:`repro.sched.cache.disabled` run do not move.
    """
    from repro.sched.cache import caching_enabled

    delta = ddg.delta
    if delta is None or not caching_enabled():
        return None
    parent = delta.base()
    cached = getattr(parent, "_index", None)
    if cached is None or cached[0] != parent.revision:
        return None
    index = cached[1]
    idx, scc_id, cyclic = index.idx, index.scc_id, index.scc_cyclic
    cut = delta.cut
    for src, dst in cut:
        a, b = idx.get(src), idx.get(dst)
        if a is None or b is None:
            return None
        if scc_id[a] == scc_id[b] and cyclic[scc_id[a]]:
            return None
    if any(join not in cut for join in delta.joins):
        return None
    if not _paths_rejoin_cuts(ddg, delta.added, cut):
        return None
    return index.latency_view(machine.latencies_for(parent)).rec_mii()


def _paths_rejoin_cuts(
    ddg: DDG, added: set[str], cut: set[tuple[str, str]]
) -> bool:
    """Whether the added nodes are acyclic among themselves and every
    path through them from an old node ``p`` to an old node ``q`` has
    ``(p, q)`` in *cut*."""
    new = [name for name in added if name in ddg.nodes]
    pending = {name: 0 for name in new}
    for name in new:
        for edge in ddg.iter_out_edges(name):
            if edge.dst in pending:
                pending[edge.dst] += 1
    order = [name for name in new if not pending[name]]
    for name in order:
        for edge in ddg.iter_out_edges(name):
            if edge.dst in pending:
                pending[edge.dst] -= 1
                if not pending[edge.dst]:
                    order.append(edge.dst)
    if len(order) != len(new):
        return False
    sources: dict[str, set[str]] = {}
    for name in order:
        reach: set[str] = set()
        for edge in ddg.iter_in_edges(name):
            if edge.src in sources:
                reach |= sources[edge.src]
            else:
                reach.add(edge.src)
        sources[name] = reach
        for edge in ddg.iter_out_edges(name):
            if edge.dst not in pending:
                if any((src, edge.dst) not in cut for src in reach):
                    return False
    return True


def compute_mii(ddg: DDG, machine: MachineConfig) -> int:
    """``max(ResMII, RecMII)`` — the starting II of every scheduler."""
    if not ddg.nodes:
        return 1
    return max(res_mii(ddg, machine), rec_mii(ddg, machine))
