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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


@dataclass
class Node:
    """An operation vertex.

    ``operands`` keeps the symbolic operand list for code emission;
    dependence information lives exclusively in the edges.
    """

    name: str
    opcode: Opcode
    operands: list[str] = field(default_factory=list)
    mem: object | None = None

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


@dataclass
class Invariant:
    """A loop-invariant value.

    Invariants are defined before the loop and only read inside it; they
    occupy one register each for the whole execution regardless of the
    schedule (Section 2.3), and they can be spilled (Section 4.2: the store
    happens before entering the loop, a load is placed before each use).
    """

    name: str
    consumers: set[str] = field(default_factory=set)
    spillable: bool = True


class DDG:
    """Mutable dependence graph with adjacency indexes.

    The spiller transforms graphs destructively, so :meth:`copy` produces
    an independent clone (edges are immutable and shared).
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.invariants: dict[str, Invariant] = {}
        self.live_out: set[str] = set()
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        #: Mutation counter.  Every structural change bumps it, so derived
        #: results (MII, content fingerprint, the compiled
        #: :class:`repro.graph.index.DDGIndex`) can be cached per revision
        #: and recomputed only after the graph actually changed.
        self.revision = 0

    # ------------------------------------------------------------------
    # construction
    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        self._out[node.name] = []
        self._in[node.name] = []
        self.revision += 1
        return node

    def add_edge(self, edge: Edge) -> Edge:
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise KeyError(f"edge endpoints missing: {edge}")
        self._out[edge.src].append(edge)
        self._in[edge.dst].append(edge)
        self.revision += 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        self._out[edge.src].remove(edge)
        self._in[edge.dst].remove(edge)
        self.revision += 1

    def remove_node(self, name: str) -> None:
        """Remove a node and every incident edge."""
        for edge in list(self._out[name]):
            self.remove_edge(edge)
        for edge in list(self._in[name]):
            self.remove_edge(edge)
        del self._out[name]
        del self._in[name]
        del self.nodes[name]
        self.live_out.discard(name)
        for invariant in self.invariants.values():
            invariant.consumers.discard(name)
        self.revision += 1

    def add_invariant(self, name: str, consumer: str | None = None) -> Invariant:
        invariant = self.invariants.setdefault(name, Invariant(name))
        if consumer is not None:
            invariant.consumers.add(consumer)
        self.revision += 1
        return invariant

    def remove_invariant(self, name: str) -> None:
        del self.invariants[name]
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

    def memory_node_count(self) -> int:
        """Memory operations per iteration — the unit of the paper's
        memory-traffic measurements."""
        return sum(1 for node in self.nodes.values() if node.is_memory)

    def spill_node_count(self) -> int:
        return sum(1 for node in self.nodes.values() if node.is_spill)

    # ------------------------------------------------------------------
    # fused groups ("complex operations", Section 4.3)
    def fused_groups(self) -> list[set[str]]:
        """Connected components of fused edges.

        Every node appears in exactly one group; singleton groups are
        omitted.  Members of a group must be scheduled at fixed relative
        offsets (latency of the fused edge's source).
        """
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        for edge in self.edges:
            if edge.fused:
                ra, rb = find(edge.src), find(edge.dst)
                if ra != rb:
                    parent[ra] = rb
        groups: dict[str, set[str]] = {}
        for name in self.nodes:
            root = find(name)
            groups.setdefault(root, set()).add(name)
        return [members for members in groups.values() if len(members) > 1]

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the compiled index: it is a process-local
        derived view (rebuilt on demand, shared by fingerprint) and
        would bloat every memo/store entry embedding a graph."""
        state = self.__dict__.copy()
        state.pop("_index", None)
        return state

    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "DDG":
        """An independent clone at this graph's revision.

        Edges are frozen and shared; nodes and invariants are copied (the
        spiller rewrites ``Node.operands``).  In-edge lists are rebuilt by
        walking the out-edges in node order, the order adding every edge
        afresh would produce.  A content fingerprint and (while caching
        is enabled) a compiled index still valid at this revision carry
        over, so a clone that is never mutated never re-hashes or
        re-indexes."""
        clone = DDG(name or self.name)
        clone.nodes = {
            key: Node(node.name, node.opcode, list(node.operands), node.mem)
            for key, node in self.nodes.items()
        }
        clone._out = {key: list(edges) for key, edges in self._out.items()}
        incoming: dict[str, list[Edge]] = {key: [] for key in self.nodes}
        for edges in self._out.values():
            for edge in edges:
                incoming[edge.dst].append(edge)
        clone._in = incoming
        clone.invariants = {
            key: Invariant(inv.name, set(inv.consumers), inv.spillable)
            for key, inv in self.invariants.items()
        }
        clone.live_out = set(self.live_out)
        clone.revision = self.revision
        fingerprint = getattr(self, "_fingerprint", None)
        if fingerprint is not None and fingerprint[0] == self.revision:
            clone._fingerprint = fingerprint
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
