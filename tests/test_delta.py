"""Spilling into a copy: every fact a spilled graph keeps or shares
equals the one built from scratch.

A spilled graph is a copy of its parent changed by spill code.  Its
fingerprint is a running digest kept through the changes, its ResMII
comes from kept opcode counts, and its index may be shared with a
content-identical graph.  These tests run whole sweeps and check, on
every graph the spilling driver produces, each of those against a
from-scratch computation: the digest against one summed over the whole
graph (and, across graphs, against the sorted SHA-1 scheme it replaced),
the MII against a node walk plus a freshly built index, the shared
:class:`~repro.graph.index.DDGIndex` against a fresh build (by name),
and the fused groups against a union-find over every edge.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.core import driver as driver_mod
from repro.eval.engine import run_sweep
from repro.graph.index import DDGIndex, get_index
from repro.machine.specs import resolve_machine
from repro.sched import mii as mii_mod
from repro.sched.cache import ddg_fingerprint
from repro.sched.registry import create_scheduler
from repro.workloads import perfect_club_like_suite


# ----------------------------------------------------------------------
# from-scratch oracles
def _record(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest(), "big")


def reference_fingerprint(ddg) -> str:
    """The digest summed over the whole graph at once."""
    total = 0
    for node in ddg.nodes.values():
        total += _record(
            f"N{node.name}|{node.opcode.name}|{','.join(node.operands)}"
            f"|{node.mem!r}"
        )
    for edge in ddg.edges:
        total += _record(
            f"E{edge.src}>{edge.dst}|{edge.kind.value}|{edge.dep.value}"
            f"|{edge.distance}|{edge.spillable:d}{edge.fused:d}"
        )
    for invariant in ddg.invariants.values():
        total += _record(f"I{invariant.name}|{invariant.spillable:d}")
        for consumer in invariant.consumers:
            total += _record(f"U{invariant.name}>{consumer}")
    for name in ddg.live_out:
        total += _record(f"L{name}")
    return f"{total % (1 << 256):064x}"


def legacy_fingerprint(ddg) -> str:
    """The sort-and-SHA-1 content hash the running digest replaced."""
    digest = hashlib.sha1()
    for name in sorted(ddg.nodes):
        node = ddg.nodes[name]
        digest.update(
            f"N{name}|{node.opcode.name}|{','.join(node.operands)}"
            f"|{node.mem!r}\n".encode()
        )
    for edge in sorted(
        ddg.edges,
        key=lambda e: (e.src, e.dst, e.kind.value, e.dep.value, e.distance),
    ):
        digest.update(
            f"E{edge.src}>{edge.dst}|{edge.kind.value}|{edge.dep.value}"
            f"|{edge.distance}|{edge.spillable:d}{edge.fused:d}\n".encode()
        )
    for name in sorted(ddg.invariants):
        invariant = ddg.invariants[name]
        digest.update(
            f"I{name}|{','.join(sorted(invariant.consumers))}"
            f"|{invariant.spillable:d}\n".encode()
        )
    digest.update(f"L{','.join(sorted(ddg.live_out))}".encode())
    return digest.hexdigest()


def fresh_mii(ddg, machine) -> int:
    """ResMII by a walk over every node, RecMII over a fresh index."""
    if not ddg.nodes:
        return 1
    busy: dict = {}
    bound = 1
    for node in ddg.nodes.values():
        fu_class = machine.fu_class(node.opcode)
        occupancy = machine.occupancy(node.opcode)
        busy[fu_class] = busy.get(fu_class, 0) + occupancy
        bound = max(bound, occupancy)
    for fu_class, cycles in busy.items():
        bound = max(bound, math.ceil(cycles / machine.units_of(fu_class)))
    view = DDGIndex._build(ddg).latency_view(machine.latencies_for(ddg))
    return max(bound, view.rec_mii())


def index_content(index) -> tuple:
    """What an index says about its graph, by name: an index is shared
    by every graph of its content, whatever that graph's node order."""
    names = index.names
    edges = sorted(
        (names[s], names[d], dist, flow)
        for s, d, dist, flow in zip(
            index.esrc, index.edst, index.edist, index.eflow
        )
    )
    sccs = {
        frozenset(names[i] for i in members): index.scc_cyclic[sid]
        for sid, members in enumerate(index.sccs)
    }
    position = {sid: rank for rank, sid in enumerate(index.topo_order)}
    for eid in range(len(index.esrc)):
        src, dst = index.scc_id[index.esrc[eid]], index.scc_id[index.edst[eid]]
        assert src == dst or position[src] < position[dst]
    return sorted(names), edges, sccs


def union_find_groups(ddg) -> list[tuple[str, ...]]:
    """Connected components of fused edges (two or more members), each
    in node order, ordered by first member."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for edge in ddg.edges:
        if edge.fused:
            a, b = find(edge.src), find(edge.dst)
            if a != b:
                parent[a] = b
    groups: dict[str, list[str]] = {}
    for name in ddg.nodes:
        groups.setdefault(find(name), []).append(name)
    return [tuple(members) for members in groups.values() if len(members) > 1]


# ----------------------------------------------------------------------
class SpillOracle:
    """Checks, through a wrapped seam, every spilled graph of a sweep."""

    def __init__(self) -> None:
        self.graphs = 0
        self.kept = 0
        self.classes: dict[str, str] = {}
        self.legacy: dict[str, str] = {}

    def install(self, monkeypatch) -> None:
        cached_mii = driver_mod.cached_mii

        def checked_mii(ddg, machine):
            # a digest already summed was kept through the spill round
            self.kept += ddg._digest is not None
            value = cached_mii(ddg, machine)
            self.check_graph(ddg, machine, value)
            return value

        monkeypatch.setattr(driver_mod, "cached_mii", checked_mii)

    def check_graph(self, ddg, machine, mii: int) -> None:
        self.graphs += 1
        fingerprint = ddg_fingerprint(ddg)
        assert fingerprint == reference_fingerprint(ddg)
        # the digest tells graphs apart exactly as the old hash did
        legacy = legacy_fingerprint(ddg)
        assert self.classes.setdefault(fingerprint, legacy) == legacy
        assert self.legacy.setdefault(legacy, fingerprint) == fingerprint
        assert mii == fresh_mii(ddg, machine)
        assert index_content(get_index(ddg)) == index_content(
            DDGIndex._build(ddg)
        )
        counts: dict = {}
        for node in ddg.nodes.values():
            counts[node.opcode] = counts.get(node.opcode, 0) + 1
        assert ddg.opcode_counts() == counts
        assert ddg.memory_node_count() == sum(
            node.is_memory for node in ddg.nodes.values()
        )
        assert ddg.fused_groups() == union_find_groups(ddg)


@pytest.fixture
def oracle(monkeypatch):
    from repro.graph import index as index_mod
    from repro.sched import cache as sched_cache

    sched_cache.clear()
    index_mod.clear_cache()
    checker = SpillOracle()
    checker.install(monkeypatch)
    return checker


def _sweep(size, machines, budgets, artifacts, schedulers):
    run_sweep(
        suite=perfect_club_like_suite(size=size, seed=1996),
        machines=[resolve_machine(spec) for spec in machines],
        budgets=budgets,
        artifacts=artifacts,
        jobs=1,
        scheduler=[create_scheduler(name) for name in schedulers],
        suite_info={"kind": "club", "seed": 1996},
    )


class TestSpilledGraphsMatchFromScratch:
    def test_golden_all_scheduler_sweep(self, oracle):
        """The graphs of ``TestGoldenBytes``'s sweep: every artifact,
        every scheduler."""
        _sweep(
            10, ["P2L4"], (32,), ("table1", "fig4", "fig7", "fig8", "fig9"),
            ("hrms", "ims", "swing"),
        )
        assert oracle.graphs > 100
        assert oracle.kept

    def test_default_sweep(self, oracle):
        """The graphs of the default ``repro sweep`` (HRMS, 160 loops)."""
        _sweep(
            160, ["P1L4", "P2L4", "P2L6"], (64, 32), ("table1", "fig8"),
            ("hrms",),
        )
        assert oracle.graphs > 1000
        assert oracle.kept


# ----------------------------------------------------------------------
def _recurrence():
    """``acc = acc + x[i]`` by hand: the add reads its own result one
    iteration later, a recurrence its lifetime lies on."""
    from repro.graph.ddg import DDG, Edge, EdgeKind, Node
    from repro.ir.operations import Opcode

    ddg = DDG("acc")
    ddg.add_node(Node("ld", Opcode.LOAD))
    ddg.add_node(Node("add", Opcode.ADD, ("ld", "add@1")))
    ddg.add_node(Node("mul", Opcode.MUL, ("ld",)))
    ddg.add_node(Node("st", Opcode.STORE, ("mul",)))
    ddg.add_edge(Edge("ld", "add", EdgeKind.REG))
    ddg.add_edge(Edge("add", "add", EdgeKind.REG, distance=1))
    ddg.add_edge(Edge("ld", "mul", EdgeKind.REG))
    ddg.add_edge(Edge("mul", "st", EdgeKind.REG))
    return ddg


def _lifetime(ddg, value):
    from repro.lifetimes.lifetime import Lifetime

    consumers = tuple(sorted(e.dst for e in ddg.reg_out_edges(value)))
    return Lifetime(value, 0, 1, 0, consumers)


class TestSpilledChildMII:
    """A copy's MII is its own after any edit, never its parent's."""

    @pytest.fixture
    def parent(self):
        from repro.machine import p2l4

        ddg, machine = _recurrence(), p2l4()
        assert mii_mod.compute_mii(ddg, machine) == fresh_mii(ddg, machine)
        return ddg, machine

    def test_spill_off_every_cycle(self, parent):
        from repro.core.spill import apply_spill

        ddg, machine = parent
        child = ddg.copy()
        apply_spill(child, _lifetime(child, "mul"))
        assert mii_mod.compute_mii(child, machine) == fresh_mii(child, machine)

    def test_spill_on_a_recurrence_is_recomputed(self, parent):
        from repro.core.spill import apply_spill

        ddg, machine = parent
        child = ddg.copy()
        apply_spill(child, _lifetime(child, "add"))
        # the spill path lengthens the recurrence
        assert fresh_mii(child, machine) > fresh_mii(ddg, machine)
        assert mii_mod.compute_mii(child, machine) == fresh_mii(child, machine)

    def test_an_edge_closing_a_cycle_is_recomputed(self, parent):
        from repro.graph.ddg import DepKind, Edge, EdgeKind

        ddg, machine = parent
        child = ddg.copy()
        child.add_edge(Edge("st", "mul", EdgeKind.MEM, DepKind.ANTI, 1))
        assert mii_mod.compute_mii(child, machine) == fresh_mii(child, machine)

    def test_a_new_node_bridging_a_cycle_is_recomputed(self, parent):
        from repro.graph.ddg import DepKind, Edge, EdgeKind, Node
        from repro.ir.operations import Opcode

        ddg, machine = parent
        child = ddg.copy()
        child.add_node(Node("x", Opcode.ADD))
        child.add_edge(Edge("st", "x", EdgeKind.MEM, DepKind.FLOW, 0))
        child.add_edge(Edge("x", "mul", EdgeKind.REG, distance=3))
        assert mii_mod.compute_mii(child, machine) == fresh_mii(child, machine)

    def test_a_cycle_among_new_nodes_is_recomputed(self, parent):
        from repro.graph.ddg import Edge, EdgeKind, Node
        from repro.ir.operations import Opcode

        ddg, machine = parent
        child = ddg.copy()
        child.add_node(Node("x", Opcode.ADD))
        child.add_node(Node("y", Opcode.ADD))
        child.add_edge(Edge("x", "y", EdgeKind.REG))
        child.add_edge(Edge("y", "x", EdgeKind.REG, distance=1))
        assert fresh_mii(child, machine) > fresh_mii(ddg, machine)
        assert mii_mod.compute_mii(child, machine) == fresh_mii(child, machine)
