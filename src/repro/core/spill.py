"""Spill-code insertion (paper Section 4.2).

Spilling a lifetime stores the value to memory right after it is produced
and reloads it right before each use, so it occupies a register only for
those short windows.  The dependence-graph transformation, for a spilled
loop-variant ``u`` with consumers ``c_k`` at distances ``d_k``:

* remove the register edges of the spilled lifetime;
* add one spill store ``Ss`` just after the producer: register edge
  ``u -> Ss`` (distance 0);
* add one spill load ``Ls_k`` before each use: register edge
  ``Ls_k -> c_k`` (distance 0).  Consumers at the same distance read the
  same ``(home, distance)`` slot and therefore share a single reload —
  the lifetime shrinks identically and the memory traffic is lower;
* add memory flow edges ``Ss -> Ls_k`` carrying the *original* distances
  ``d_k`` — this moves the distance component of the lifetime into memory,
  which is why spilling can reduce pressure that increasing the II never
  could.

All new register edges are marked **non-spillable** (the new lifetimes must
not be selected later: deadlock avoidance, Section 4.3) and **fused** (the
spill operation schedules as one "complex operation" with its
producer/consumer at exactly the producer's latency — otherwise the
scheduler could stretch the new lifetimes beyond the spilled one and the
iteration would diverge).

Optimizations (Section 4.2):

* producer is a load (of an array never written in the loop): the value is
  already in memory — no store; each use gets a load of the original
  location and the original load dies;
* some consumer is a store of the value (distance 0): that store already
  writes the value to memory — reuse it as the spill store;
* loop-invariants: the store happens before the loop; only loads are added.

Spill homes are iteration-private locations (one slot per iteration, as a
rotating buffer), so spill stores of successive iterations never conflict
and need no output dependences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.graph.ddg import DDG, DepKind, Edge, EdgeKind, Node
from repro.ir.loop import ArrayRef
from repro.ir.operations import Opcode
from repro.lifetimes.lifetime import Lifetime
from repro.trace.profile import phase


@dataclass(frozen=True)
class SpillHome:
    """Memory location of a spilled value (iteration-private slot)."""

    value: str

    def __str__(self) -> str:
        return f"spill({self.value})"


def apply_spill(
    ddg: DDG,
    lifetime: Lifetime,
    fuse: bool = True,
    mark_non_spillable: bool = True,
) -> list[str]:
    """Transform *ddg* in place to spill *lifetime*; returns the names of
    the added spill operations.

    ``fuse`` and ``mark_non_spillable`` exist for the ablation experiments;
    the paper requires both on (Section 4.3).
    """
    with phase("spill"):
        if lifetime.is_invariant:
            return _spill_invariant(ddg, lifetime, fuse, mark_non_spillable)
        return _spill_variant(ddg, lifetime, fuse, mark_non_spillable)


# ----------------------------------------------------------------------
def _spill_variant(
    ddg: DDG, lifetime: Lifetime, fuse: bool, mark: bool
) -> list[str]:
    name = lifetime.value
    producer = ddg.nodes[name]
    spilled_edges = ddg.reg_out_edges(name)
    if not spilled_edges:
        raise ValueError(f"{name} has no consumers; nothing to spill")

    if producer.opcode is Opcode.LOAD and _load_is_rematerializable(ddg, name):
        return _spill_loaded_value(ddg, lifetime, fuse, mark)

    store_consumers = {
        edge.dst
        for edge in spilled_edges
        if edge.distance == 0
        and ddg.nodes[edge.dst].is_store
        and not ddg.nodes[edge.dst].is_spill
    }
    added: list[str] = []
    if store_consumers:
        # Consumer-is-store optimization: the program already writes the
        # value to memory; that store doubles as the spill store.
        store_name = min(store_consumers)
        home = ddg.nodes[store_name].mem
    else:
        store_name = f"Ss_{name}"
        home = SpillHome(name)
        ddg.add_node(
            Node(store_name, Opcode.SPILL_STORE, operands=(name,), mem=home)
        )
        added.append(store_name)

    # Consumers at the same distance reload the same (home, distance)
    # slot and share one spill load (see :func:`_reload_plan`); the store
    # that truncates the producer's lifetime makes sharing profitable even
    # when every consumer sits at one distance.
    plan = _reload_plan(
        name,
        [
            edge
            for edge in sorted(spilled_edges, key=_edge_key)
            if not (edge.dst in store_consumers and edge.distance == 0)
        ],
    )
    for edge in sorted(spilled_edges, key=_edge_key):
        ddg.remove_edge(edge)
        if edge.dst in store_consumers and edge.distance == 0:
            # The store keeps reading the (now short) register lifetime.
            ddg.add_edge(
                Edge(
                    name,
                    edge.dst,
                    EdgeKind.REG,
                    DepKind.FLOW,
                    0,
                    spillable=not mark,
                    fused=fuse,
                )
            )
            continue
        load_name, fused_load = plan[(edge.dst, edge.distance)]
        if load_name not in ddg.nodes:
            ddg.add_node(
                Node(load_name, Opcode.SPILL_LOAD, mem=home)
            )
            added.append(load_name)
            ddg.add_edge(
                Edge(
                    store_name, load_name, EdgeKind.MEM, DepKind.FLOW,
                    edge.distance,
                )
            )
        ddg.add_edge(
            Edge(
                load_name,
                edge.dst,
                EdgeKind.REG,
                DepKind.FLOW,
                0,
                spillable=not mark,
                fused=fuse and fused_load,
            )
        )
        _rename_operand(ddg, edge.dst, name, edge.distance, load_name)

    if not store_consumers:
        ddg.add_edge(
            Edge(
                name,
                store_name,
                EdgeKind.REG,
                DepKind.FLOW,
                0,
                spillable=not mark,
                fused=fuse,
            )
        )
    return added


def _spill_loaded_value(
    ddg: DDG, lifetime: Lifetime, fuse: bool, mark: bool
) -> list[str]:
    """Producer-is-load optimization: reload from the original location."""
    name = lifetime.value
    original_ref = ddg.nodes[name].mem
    added: list[str] = []
    # One reload per distinct distance (= per distinct address): consumers
    # reading the same element share it.  See the matching comment in
    # :func:`_spill_variant` for the fusing rule.
    spilled_edges = sorted(ddg.reg_out_edges(name), key=_edge_key)
    plan = _reload_plan(name, spilled_edges, share_single_group=False)
    for edge in spilled_edges:
        load_name, _fused = plan[(edge.dst, edge.distance)]
        if load_name not in ddg.nodes:
            ref = original_ref
            if isinstance(original_ref, ArrayRef) and edge.distance:
                # A consumer at distance d reads the element loaded d
                # iterations ago: shift the address back by d.
                ref = ArrayRef(
                    original_ref.array, original_ref.offset - edge.distance
                )
            ddg.add_node(
                Node(load_name, Opcode.SPILL_LOAD, mem=ref)
            )
            added.append(load_name)
        ddg.remove_edge(edge)
        ddg.add_edge(
            Edge(
                load_name,
                edge.dst,
                EdgeKind.REG,
                DepKind.FLOW,
                0,
                spillable=not mark,
                fused=fuse and _fused,
            )
        )
        _rename_operand(ddg, edge.dst, name, edge.distance, load_name)
    ddg.remove_node(name)
    return added


def _spill_invariant(
    ddg: DDG, lifetime: Lifetime, fuse: bool, mark: bool
) -> list[str]:
    """Invariant spilling: the store runs before the loop; each use loads."""
    invariant = ddg.invariants[lifetime.value]
    home = SpillHome(invariant.name)
    added: list[str] = []
    for index, consumer in enumerate(sorted(invariant.consumers)):
        load_name = f"Ls{index + 1}_{invariant.name}"
        ddg.add_node(Node(load_name, Opcode.SPILL_LOAD, mem=home))
        added.append(load_name)
        ddg.add_edge(
            Edge(
                load_name,
                consumer,
                EdgeKind.REG,
                DepKind.FLOW,
                0,
                spillable=not mark,
                fused=fuse,
            )
        )
        _rename_operand(ddg, consumer, invariant.name, 0, load_name)
    ddg.remove_invariant(invariant.name)
    return added


# ----------------------------------------------------------------------
def _reload_plan(
    name: str, edges: list[Edge], share_single_group: bool = True
) -> dict[tuple[str, int], tuple[str, bool]]:
    """Reload assignment for the consumer *edges* of a spilled value:
    ``(consumer, distance)`` → ``(reload name, fused?)``.

    Consumers at the same distance read the same ``(home, distance)`` slot
    and share one reload.  A reload serving a single consumer is fused as
    the paper requires; a shared one is left unfused (fusing it to one
    consumer traps the others in zero-slack windows the non-backtracking
    schedulers cannot escape) but stays non-spillable either way.

    With ``share_single_group=False``, a value whose consumers all sit at
    *one* distance keeps the paper's reload-per-use instead: sharing
    there would recreate the spilled lifetime unchanged (one producer,
    same consumers), freeing no registers.  The rematerializable-load
    path needs this — its reload has no store to truncate the producer's
    lifetime against.
    """
    groups: dict[int, list[str]] = {}
    for edge in edges:
        consumers = groups.setdefault(edge.distance, [])
        if edge.dst not in consumers:
            consumers.append(edge.dst)
    plan: dict[tuple[str, int], tuple[str, bool]] = {}
    split_single = not share_single_group and len(groups) == 1
    counter = 0
    for distance in sorted(groups):
        consumers = groups[distance]
        if len(consumers) == 1 or split_single:
            for consumer in sorted(consumers):
                counter += 1
                plan[(consumer, distance)] = (f"Ls{counter}_{name}", True)
        else:
            counter += 1
            shared_name = f"Ls{counter}_{name}"
            for consumer in consumers:
                plan[(consumer, distance)] = (shared_name, False)
    return plan


def _load_is_rematerializable(ddg: DDG, name: str) -> bool:
    """The producer-is-load optimization is only safe when the loaded
    location is never written in the loop (no memory dependences touch the
    load) — exactly the situation in which the builder folded reuses."""
    if name in ddg.live_out:
        return False  # removing the load would lose the live-out value
    touches_memory = any(
        edge.kind is EdgeKind.MEM
        for edge in ddg.in_edges(name) + ddg.out_edges(name)
    )
    return not touches_memory


def _edge_key(edge: Edge) -> tuple:
    return (edge.distance, edge.dst)


def _rename_operand(
    ddg: DDG, consumer: str, old: str, distance: int, new: str
) -> None:
    node = ddg.nodes[consumer]
    target = f"{old}@{distance}" if distance else old
    ddg.replace_node(replace(node, operands=tuple(
        new if operand == target else operand for operand in node.operands
    )))
