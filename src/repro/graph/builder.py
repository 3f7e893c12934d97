"""Build a dependence graph from a parsed loop body.

Responsibilities (matching what the paper's ICTINEO front-end provides):

* register flow edges from each value definition to its uses, including
  loop-carried uses (``s = s + ...`` reads the previous iteration's value:
  a distance-1 edge closing a recurrence);
* memory dependences between accesses to the same array, with distances
  derived from the constant offsets (flow, anti and output);
* the *load reuse* optimization visible in the paper's Figure 2b: reads of
  the same (never-written) array at different offsets share a single load,
  the older reads becoming cross-iteration register edges — this is what
  creates lifetimes with a large distance component, the phenomenon that
  makes II-increase non-convergent;
* bookkeeping of loop-invariant operands.
"""

from __future__ import annotations

import functools
from dataclasses import replace

from repro.graph.ddg import DDG, DepKind, Edge, EdgeKind, Node
from repro.ir.loop import ArrayRef, LoopBody
from repro.ir.parser import parse_loop


def ddg_from_source(source: str, name: str = "loop", reuse_loads: bool = True) -> DDG:
    """Parse mini-language *source* and build its dependence graph."""
    return build_ddg(parse_loop(source, name=name), reuse_loads=reuse_loads)


@functools.lru_cache(maxsize=512)
def cached_ddg(source: str, name: str) -> DDG:
    """The process-wide parse of *source* as loop *name*: one
    :func:`ddg_from_source` call per distinct pair while it stays among
    the 512 most recently used (thread-safe).  The graph is shared by
    every caller, so treat it as read-only."""
    return ddg_from_source(source, name=name)


def build_ddg(body: LoopBody, reuse_loads: bool = True) -> DDG:
    """Construct the :class:`DDG` of *body*.

    ``reuse_loads`` enables the cross-iteration load-reuse optimization
    (safe only for arrays never written in the loop).
    """
    ddg = DDG(body.name)
    for op in body.operations:
        ddg.add_node(Node(op.name, op.opcode, tuple(op.operands), op.mem))
    for name in sorted(body.live_out):
        ddg.add_live_out(name)

    _add_register_edges(ddg, body)
    if reuse_loads:
        _fold_reused_loads(ddg)
    _add_memory_edges(ddg)
    ddg.validate()
    return ddg


# ----------------------------------------------------------------------
def _add_register_edges(ddg: DDG, body: LoopBody) -> None:
    op_names = set(ddg.nodes)
    for node in list(ddg.nodes.values()):
        for operand in node.operands:
            if operand.startswith("#"):
                continue  # immediate constant
            name, distance = _split_carried(operand)
            if name in op_names:
                ddg.add_edge(
                    Edge(name, node.name, EdgeKind.REG, DepKind.FLOW, distance)
                )
            elif name in body.invariants:
                ddg.add_invariant(name, consumer=node.name)
            else:
                raise ValueError(
                    f"operand {operand!r} of {node.name} is neither an"
                    " operation result nor a declared invariant"
                )


def _split_carried(operand: str) -> tuple[str, int]:
    """``"def@1"`` → ``("def", 1)``; plain names have distance 0."""
    if "@" in operand:
        name, _, dist = operand.partition("@")
        return name, int(dist)
    return operand, 0


# ----------------------------------------------------------------------
def _fold_reused_loads(ddg: DDG) -> None:
    """Replace loads of ``A[i-k]`` by cross-iteration uses of the load of
    the youngest read offset of ``A`` (paper Figure 2b).

    ``y[i]`` and ``y[i-3]`` read the same stream three iterations apart, so
    a single load suffices: consumers of ``y[i-3]`` take the value the
    ``y[i]`` load produced three iterations earlier (register edge with
    distance 3).  Unsafe if the array is written in the loop (the memory
    value could change between the load and the reuse), in which case all
    loads are kept and memory dependences sequence them.
    """
    written = {
        node.mem.array
        for node in ddg.nodes.values()
        if node.is_store and isinstance(node.mem, ArrayRef)
    }
    loads_by_array: dict[str, list[Node]] = {}
    for node in ddg.nodes.values():
        if node.is_load and isinstance(node.mem, ArrayRef):
            if node.mem.array not in written:
                loads_by_array.setdefault(node.mem.array, []).append(node)

    for array, loads in loads_by_array.items():
        if len(loads) < 2:
            continue
        canonical = max(loads, key=lambda n: n.mem.offset)
        for load in loads:
            if load is canonical:
                continue
            shift = canonical.mem.offset - load.mem.offset
            consumers = ddg.successors(load.name)
            for edge in ddg.reg_out_edges(load.name):
                ddg.remove_edge(edge)
                ddg.add_edge(
                    Edge(
                        canonical.name,
                        edge.dst,
                        EdgeKind.REG,
                        DepKind.FLOW,
                        edge.distance + shift,
                        spillable=edge.spillable,
                        fused=edge.fused,
                    )
                )
            _rename_operand(ddg, edge_dsts=consumers,
                            old=load.name, new=f"{canonical.name}@{shift}")
            ddg.remove_node(load.name)


def _rename_operand(ddg: DDG, edge_dsts: set[str], old: str, new: str) -> None:
    for name in edge_dsts:
        node = ddg.nodes[name]
        ddg.replace_node(replace(node, operands=tuple(
            new if _split_carried(o)[0] == old else o for o in node.operands
        )))


# ----------------------------------------------------------------------
def _add_memory_edges(ddg: DDG) -> None:
    """Pairwise memory dependences between same-array accesses.

    With affine references ``A[i+k]`` the accesses of two operations touch
    the same address iterations apart by the offset difference; program
    order breaks ties at distance zero.  Distances are in ``[0, ∞)`` by
    orienting each dependence from the earlier iteration to the later one.
    """
    memory_nodes = [
        node for node in ddg.nodes.values()
        if node.is_memory and isinstance(node.mem, ArrayRef)
    ]
    order = {name: index for index, name in enumerate(ddg.nodes)}
    for i, first in enumerate(memory_nodes):
        for second in memory_nodes[i + 1:]:
            if first.mem.array != second.mem.array:
                continue
            if first.is_load and second.is_load:
                continue
            before, after = first, second
            if order[first.name] > order[second.name]:
                before, after = second, first
            _memory_dep(ddg, before, after)


def _memory_dep(ddg: DDG, before: Node, after: Node) -> None:
    """Add the dependence between two same-array accesses, *before*
    preceding *after* in program order."""
    diff = before.mem.offset - after.mem.offset
    if before.is_store and after.is_store:
        kind = DepKind.OUTPUT
    elif before.is_store:
        kind = DepKind.FLOW if diff >= 0 else DepKind.ANTI
    else:
        kind = DepKind.ANTI if diff >= 0 else DepKind.FLOW
    if diff >= 0:
        # `after` (same or later program position) sees the conflict `diff`
        # iterations after `before` produced it.
        ddg.add_edge(Edge(before.name, after.name, EdgeKind.MEM, kind, diff))
    else:
        # The conflicting address is touched by `before` of a *later*
        # iteration: dependence runs after -> before with distance -diff.
        ddg.add_edge(Edge(after.name, before.name, EdgeKind.MEM, kind, -diff))
