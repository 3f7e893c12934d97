"""Dependence graph representation (paper Section 2.1).

A loop is a graph ``G = DG(V, E, delta)``: vertices are operations of the
loop body, edges are dependences, and ``delta`` maps each edge to its
dependence distance in iterations.  Data dependences are split into
register dependences (``RegE``) and memory dependences (``MemE``); since
register allocation happens after scheduling, only *flow* register
dependences exist, while memory dependences may be flow, anti or output.

Two attributes extend the paper's bare formalism because its algorithms
need them:

* ``spillable`` on register edges — lifetimes created by spill code must
  not be selected for spilling again (Section 4.3, deadlock avoidance);
* ``fused`` on register edges — the endpoints form a "complex operation"
  and must be scheduled exactly ``latency(src)`` cycles apart
  (Section 4.3, convergence guarantee).

Nodes, edges and invariants are immutable, so copies share them, and
every change goes through a :class:`DDG` method.  Each method keeps the
graph's derived facts current: a running content digest (the sum, mod
2**256, of one SHA-256 value per node, edge, invariant, invariant use
and live-out name — incremental hashing after Bellare and Micciancio,
EUROCRYPT 1997; summed over the graph on first use, updated by every
mutation after that) and per-opcode node counts.  Everything else a
scheduler needs (the fused groups, the compiled index and with it the
RecMII) is derived from the graph in hand.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.ir.operations import (
    Opcode,
    is_load_opcode,
    is_memory_opcode,
    is_store_opcode,
)


class EdgeKind(enum.Enum):
    """Register (``RegE``) or memory (``MemE``) dependence."""

    REG = "reg"
    MEM = "mem"


class DepKind(enum.Enum):
    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"


@dataclass(frozen=True)
class Edge:
    """A dependence ``dst`` (at iteration ``i + distance``) on ``src`` (at
    iteration ``i``)."""

    src: str
    dst: str
    kind: EdgeKind
    dep: DepKind = DepKind.FLOW
    distance: int = 0
    spillable: bool = True
    fused: bool = False

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError(f"negative dependence distance on {self}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flags = ""
        if not self.spillable:
            flags += "!"
        if self.fused:
            flags += "~"
        return (
            f"{self.src} -{self.kind.value}/{self.dep.value}"
            f"(d{self.distance}){flags}-> {self.dst}"
        )


@dataclass(frozen=True)
class Node:
    """An operation vertex (immutable: :meth:`DDG.replace_node` swaps
    one in).

    ``operands`` keeps the symbolic operand tuple for code emission;
    dependence information lives exclusively in the edges.
    """

    name: str
    opcode: Opcode
    operands: tuple[str, ...] = ()
    mem: object | None = None

    def __post_init__(self) -> None:
        if type(self.operands) is not tuple:
            object.__setattr__(self, "operands", tuple(self.operands))

    @property
    def produces_value(self) -> bool:
        return not is_store_opcode(self.opcode)

    @property
    def is_memory(self) -> bool:
        return is_memory_opcode(self.opcode)

    @property
    def is_load(self) -> bool:
        return is_load_opcode(self.opcode)

    @property
    def is_store(self) -> bool:
        return is_store_opcode(self.opcode)

    @property
    def is_spill(self) -> bool:
        return self.opcode in (Opcode.SPILL_LOAD, Opcode.SPILL_STORE)


@dataclass(frozen=True)
class Invariant:
    """A loop-invariant value (immutable: :meth:`DDG.add_invariant`
    swaps one in).

    Invariants are defined before the loop and only read inside it; they
    occupy one register each for the whole execution regardless of the
    schedule (Section 2.3), and they can be spilled (Section 4.2: the store
    happens before entering the loop, a load is placed before each use).
    """

    name: str
    consumers: frozenset[str] = frozenset()
    spillable: bool = True


# ----------------------------------------------------------------------
# the running content digest
_MODULUS = 1 << 256
_sha256 = hashlib.sha256
_from_bytes = int.from_bytes


def _record(text: str) -> int:
    return _from_bytes(_sha256(text.encode()).digest(), "big")


# Records read enum members' ``_name_``/``_value_`` slots directly: the
# ``name``/``value`` properties cost more than the hash on this path.
def _node_record(node: Node) -> int:
    return _record(
        f"N{node.name}|{node.opcode._name_}|{','.join(node.operands)}"
        f"|{node.mem!r}"
    )


def _edge_record(edge: Edge) -> int:
    return _record(
        f"E{edge.src}>{edge.dst}|{edge.kind._value_}|{edge.dep._value_}"
        f"|{edge.distance}|{'1' if edge.spillable else '0'}"
        f"{'1' if edge.fused else '0'}"
    )


def _invariant_record(invariant: Invariant) -> int:
    return _record(f"I{invariant.name}|{'1' if invariant.spillable else '0'}")


def _use_record(invariant: str, consumer: str) -> int:
    return _record(f"U{invariant}>{consumer}")


def _live_out_record(name: str) -> int:
    return _record(f"L{name}")


def _join(fused: dict[str, frozenset[str]], a: str, b: str) -> None:
    """Merge the fused groups of *a* and *b* in the member → group map."""
    group_a = fused.get(a, frozenset((a,)))
    if b in group_a:
        return
    merged = group_a | fused.get(b, frozenset((b,)))
    for member in merged:
        fused[member] = merged


class DDG:
    """Dependence graph with adjacency indexes.

    Nodes, edges and invariants are immutable and :meth:`copy` shares
    them; the spiller transforms a copy through the mutation methods,
    which keep the digest and the opcode counts current.
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.invariants: dict[str, Invariant] = {}
        self.live_out: frozenset[str] = frozenset()
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        #: Mutation counter.  Every structural change bumps it, so derived
        #: results (MII, the compiled :class:`repro.graph.index.DDGIndex`)
        #: can be cached per revision and recomputed only after the graph
        #: actually changed.
        self.revision = 0
        #: Running content digest (see the module docstring); ``None``
        #: until :meth:`digest` first sums it, so building a graph that
        #: is never fingerprinted hashes nothing.
        self._digest: int | None = None
        #: Node count per opcode (no zero entries).
        self._opcodes: dict[Opcode, int] = {}

    # ------------------------------------------------------------------
    # construction
    def digest(self) -> int:
        """The running content digest, summed over the whole graph on
        first use and kept current by every mutation after that."""
        if self._digest is None:
            total = sum(map(_node_record, self.nodes.values()))
            total += sum(map(_edge_record, self.edges))
            for invariant in self.invariants.values():
                total += _invariant_record(invariant)
                for consumer in invariant.consumers:
                    total += _use_record(invariant.name, consumer)
            total += sum(map(_live_out_record, self.live_out))
            self._digest = total % _MODULUS
        return self._digest

    def _mix(self, record: Callable[..., int], *args) -> None:
        if self._digest is not None:
            self._digest = (self._digest + record(*args)) % _MODULUS

    def _unmix(self, record: Callable[..., int], *args) -> None:
        if self._digest is not None:
            self._digest = (self._digest - record(*args)) % _MODULUS

    def add_node(self, node: Node) -> Node:
        name = node.name
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        self.nodes[name] = node
        self._out[name] = []
        self._in[name] = []
        self._count(node.opcode, 1)
        self._mix(_node_record, node)
        self.revision += 1
        return node

    def replace_node(self, node: Node) -> Node:
        """Swap in *node* for the node of the same name and opcode (new
        operands, say); edges stay."""
        old = self.nodes[node.name]
        if old.opcode is not node.opcode:
            raise ValueError(
                f"node {node.name!r} would change opcode "
                f"{old.opcode.name} -> {node.opcode.name}"
            )
        self.nodes[node.name] = node
        self._unmix(_node_record, old)
        self._mix(_node_record, node)
        self.revision += 1
        return node

    def _count(self, opcode: Opcode, step: int) -> None:
        count = self._opcodes.get(opcode, 0) + step
        if count:
            self._opcodes[opcode] = count
        else:
            del self._opcodes[opcode]

    def add_edge(self, edge: Edge) -> Edge:
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise KeyError(f"edge endpoints missing: {edge}")
        self._out[edge.src].append(edge)
        self._in[edge.dst].append(edge)
        self._mix(_edge_record, edge)
        self.revision += 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        self._out[edge.src].remove(edge)
        self._in[edge.dst].remove(edge)
        self._unmix(_edge_record, edge)
        self.revision += 1

    def remove_node(self, name: str) -> None:
        """Remove a node, every incident edge, its invariant uses and
        its live-out mark."""
        for edge in list(self._out[name]):
            self.remove_edge(edge)
        for edge in list(self._in[name]):
            self.remove_edge(edge)
        del self._out[name]
        del self._in[name]
        node = self.nodes.pop(name)
        self._count(node.opcode, -1)
        self._unmix(_node_record, node)
        if name in self.live_out:
            self.discard_live_out(name)
        for invariant in list(self.invariants.values()):
            if name in invariant.consumers:
                self.invariants[invariant.name] = replace(
                    invariant, consumers=invariant.consumers - {name}
                )
                self._unmix(_use_record, invariant.name, name)
        self.revision += 1

    def add_invariant(
        self, name: str, consumer: str | None = None, spillable: bool = True
    ) -> Invariant:
        """Declare invariant *name* (its ``spillable`` flag is set on
        first declaration) and record *consumer* as one of its uses."""
        invariant = self.invariants.get(name)
        if invariant is None:
            invariant = self.invariants[name] = Invariant(
                name, spillable=spillable
            )
            self._mix(_invariant_record, invariant)
        if consumer is not None and consumer not in invariant.consumers:
            invariant = self.invariants[name] = Invariant(
                name, invariant.consumers | {consumer}, invariant.spillable
            )
            self._mix(_use_record, name, consumer)
        self.revision += 1
        return invariant

    def remove_invariant(self, name: str) -> None:
        invariant = self.invariants.pop(name)
        self._unmix(_invariant_record, invariant)
        for consumer in invariant.consumers:
            self._unmix(_use_record, name, consumer)
        self.revision += 1

    def add_live_out(self, name: str) -> None:
        """Mark *name*'s value as used after the loop."""
        if name not in self.live_out:
            self.live_out = self.live_out | {name}
            self._mix(_live_out_record, name)
            self.revision += 1

    def discard_live_out(self, name: str) -> None:
        if name in self.live_out:
            self.live_out = self.live_out - {name}
            self._unmix(_live_out_record, name)
            self.revision += 1

    # ------------------------------------------------------------------
    # queries
    def out_edges(self, name: str) -> list[Edge]:
        return list(self._out[name])

    def in_edges(self, name: str) -> list[Edge]:
        return list(self._in[name])

    def iter_out_edges(self, name: str):
        """Zero-copy iterator over *name*'s outgoing edges.  For
        read-only hot paths (scheduler placement scans); callers must
        not mutate the graph while iterating."""
        return iter(self._out[name])

    def iter_in_edges(self, name: str):
        """Zero-copy iterator over *name*'s incoming edges (see
        :meth:`iter_out_edges`)."""
        return iter(self._in[name])

    @property
    def edges(self) -> list[Edge]:
        return [edge for edges in self._out.values() for edge in edges]

    def reg_out_edges(self, name: str) -> list[Edge]:
        """The register flow edges carrying *name*'s result — i.e. the
        consumers of the lifetime produced by node *name*."""
        return [e for e in self._out[name] if e.kind is EdgeKind.REG]

    def reg_in_edges(self, name: str) -> list[Edge]:
        return [e for e in self._in[name] if e.kind is EdgeKind.REG]

    def predecessors(self, name: str) -> set[str]:
        return {e.src for e in self._in[name]}

    def successors(self, name: str) -> set[str]:
        return {e.dst for e in self._out[name]}

    def producers(self) -> list[Node]:
        """Nodes defining a loop-variant value that is actually consumed or
        live out of the loop."""
        result = []
        for node in self.nodes.values():
            if not node.produces_value:
                continue
            if self.reg_out_edges(node.name) or node.name in self.live_out:
                result.append(node)
        return result

    def opcode_counts(self) -> dict[Opcode, int]:
        """Nodes per opcode (read-only; kept by every mutation)."""
        return self._opcodes

    def memory_node_count(self) -> int:
        """Memory operations per iteration — the unit of the paper's
        memory-traffic measurements."""
        return sum(
            count for opcode, count in self._opcodes.items()
            if is_memory_opcode(opcode)
        )

    # ------------------------------------------------------------------
    # fused groups ("complex operations", Section 4.3)
    def fused_groups(self) -> list[tuple[str, ...]]:
        """Connected components of fused edges, each a tuple in node
        order, ordered by their first member.

        Every node appears in at most one group; singleton groups are
        omitted.  Members of a group must be scheduled at fixed relative
        offsets (latency of the fused edge's source).
        """
        fused: dict[str, frozenset[str]] = {}
        for edges in self._out.values():
            for edge in edges:
                if edge.fused:
                    _join(fused, edge.src, edge.dst)
        if not fused:
            return []
        groups: dict[frozenset[str], list[str]] = {}
        for name in self.nodes:
            group = fused.get(name)
            if group is not None:
                groups.setdefault(group, []).append(name)
        return [tuple(members) for members in groups.values()]

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle content, revision and digest only.  The compiled index
        is process-local (rebuilt on demand and shared by fingerprint);
        the opcode counts are re-derived on load."""
        state = self.__dict__.copy()
        for derived in ("_index", "_opcodes"):
            state.pop(derived, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._opcodes = {}
        for node in self.nodes.values():
            self._count(node.opcode, 1)

    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "DDG":
        """An independent clone at this graph's revision.

        Nodes, edges and invariants are immutable and shared; only the
        containers are new.  In-edge lists are rebuilt by walking the
        out-edges in node order, the order adding every edge afresh
        would produce.  The digest and opcode counts carry over, and so
        does (while caching is enabled) a compiled index still valid at
        this revision, so a clone that is never mutated never
        re-indexes."""
        clone = DDG.__new__(DDG)
        clone.name = name or self.name
        clone.nodes = dict(self.nodes)
        clone._out = {key: list(edges) for key, edges in self._out.items()}
        incoming: dict[str, list[Edge]] = {key: [] for key in self.nodes}
        for edges in self._out.values():
            for edge in edges:
                incoming[edge.dst].append(edge)
        clone._in = incoming
        clone.invariants = dict(self.invariants)
        clone.live_out = self.live_out
        clone.revision = self.revision
        clone._digest = self._digest
        clone._opcodes = dict(self._opcodes)
        index = getattr(self, "_index", None)
        if index is not None and index[0] == self.revision:
            # Instances share an index only while caching is enabled,
            # as :func:`repro.graph.index.get_index` does.
            from repro.sched.cache import caching_enabled

            if caching_enabled():
                clone._index = index
        return clone

    def validate(self) -> None:
        """Internal consistency checks (used by tests and after spilling)."""
        for edge in self.edges:
            if edge.kind is EdgeKind.REG:
                if edge.dep is not DepKind.FLOW:
                    raise AssertionError(
                        f"register edges must be flow dependences: {edge}"
                    )
                if not self.nodes[edge.src].produces_value:
                    raise AssertionError(f"register edge from non-producer: {edge}")
        for invariant in self.invariants.values():
            for consumer in invariant.consumers:
                if consumer not in self.nodes:
                    raise AssertionError(
                        f"invariant {invariant.name} consumed by missing node"
                        f" {consumer}"
                    )

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"DDG {self.name}: {len(self.nodes)} nodes"]
        lines += [f"  {edge}" for edge in self.edges]
        if self.invariants:
            lines.append(f"  invariants: {', '.join(sorted(self.invariants))}")
        return "\n".join(lines)
