"""Unit tests for the dependence-graph data structure."""

from dataclasses import replace

import pytest

from repro.graph.ddg import DDG, DepKind, Edge, EdgeKind, Node
from repro.graph.index import get_index
from repro.ir.operations import Opcode
from repro.sched.cache import ddg_fingerprint


def small_graph():
    ddg = DDG("g")
    ddg.add_node(Node("ld", Opcode.LOAD))
    ddg.add_node(Node("mul", Opcode.MUL, operands=["ld"]))
    ddg.add_node(Node("st", Opcode.STORE, operands=["mul"]))
    ddg.add_edge(Edge("ld", "mul", EdgeKind.REG))
    ddg.add_edge(Edge("mul", "st", EdgeKind.REG))
    return ddg


class TestConstruction:
    def test_duplicate_node_rejected(self):
        ddg = DDG()
        ddg.add_node(Node("n", Opcode.ADD))
        with pytest.raises(ValueError):
            ddg.add_node(Node("n", Opcode.MUL))

    def test_replace_node_keeps_opcode(self):
        ddg = small_graph()
        before = ddg_fingerprint(ddg)
        with pytest.raises(ValueError):
            ddg.replace_node(replace(ddg.nodes["mul"], opcode=Opcode.ADD))
        assert ddg.nodes["mul"].opcode is Opcode.MUL
        assert ddg_fingerprint(ddg) == before

    def test_edge_requires_endpoints(self):
        ddg = DDG()
        ddg.add_node(Node("n", Opcode.ADD))
        with pytest.raises(KeyError):
            ddg.add_edge(Edge("n", "missing", EdgeKind.REG))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            Edge("a", "b", EdgeKind.REG, distance=-1)

    def test_remove_node_cleans_edges_and_invariants(self):
        ddg = small_graph()
        ddg.add_invariant("k", consumer="mul")
        ddg.remove_node("mul")
        assert "mul" not in ddg.nodes
        assert all(e.src != "mul" and e.dst != "mul" for e in ddg.edges)
        assert "mul" not in ddg.invariants["k"].consumers

    def test_remove_edge(self):
        ddg = small_graph()
        edge = ddg.reg_out_edges("ld")[0]
        ddg.remove_edge(edge)
        assert ddg.reg_out_edges("ld") == []
        assert "ld" not in ddg.predecessors("mul")


class TestQueries:
    def test_predecessors_successors(self):
        ddg = small_graph()
        assert ddg.predecessors("mul") == {"ld"}
        assert ddg.successors("mul") == {"st"}

    def test_producers_excludes_stores_and_dead_values(self):
        ddg = small_graph()
        ddg.add_node(Node("dead", Opcode.ADD))
        names = {node.name for node in ddg.producers()}
        assert names == {"ld", "mul"}

    def test_live_out_value_is_a_producer(self):
        ddg = small_graph()
        ddg.add_node(Node("acc", Opcode.ADD))
        ddg.add_live_out("acc")
        names = {node.name for node in ddg.producers()}
        assert "acc" in names

    def test_memory_node_count(self):
        ddg = small_graph()
        assert ddg.memory_node_count() == 2

    def test_spill_node_count(self):
        ddg = small_graph()
        ddg.add_node(Node("ls", Opcode.SPILL_LOAD))
        assert sum(node.is_spill for node in ddg.nodes.values()) == 1

    def test_reg_in_out_filtering(self):
        ddg = small_graph()
        ddg.add_node(Node("ld2", Opcode.LOAD))
        ddg.add_edge(Edge("ld2", "st", EdgeKind.MEM, DepKind.ANTI))
        assert len(ddg.reg_in_edges("st")) == 1
        assert len(ddg.in_edges("st")) == 2


class TestFusedGroups:
    def test_no_groups_without_fused_edges(self):
        assert small_graph().fused_groups() == []

    def test_single_group(self):
        ddg = small_graph()
        ddg.add_node(Node("ls", Opcode.SPILL_LOAD))
        ddg.add_edge(Edge("ls", "mul", EdgeKind.REG, fused=True))
        assert ddg.fused_groups() == [("mul", "ls")]

    def test_chained_groups_merge(self):
        ddg = small_graph()
        for name in ("a", "b", "c"):
            ddg.add_node(Node(name, Opcode.ADD))
        ddg.add_edge(Edge("a", "b", EdgeKind.REG, fused=True))
        ddg.add_edge(Edge("b", "c", EdgeKind.REG, fused=True))
        assert ddg.fused_groups() == [("a", "b", "c")]

    def test_members_follow_node_order_not_edge_order(self):
        ddg = small_graph()
        for name in ("z", "y", "x"):
            ddg.add_node(Node(name, Opcode.ADD))
        ddg.add_edge(Edge("x", "y", EdgeKind.REG, fused=True))
        ddg.add_edge(Edge("st", "z", EdgeKind.MEM, fused=True))
        ddg.add_edge(Edge("y", "z", EdgeKind.REG, fused=True))
        ddg.add_edge(Edge("mul", "ld", EdgeKind.MEM, fused=True))
        assert ddg.fused_groups() == [("ld", "mul"), ("st", "z", "y", "x")]

    def test_groups_follow_edges_through_removal_copy_and_pickle(self):
        import pickle

        ddg = small_graph()
        for name in ("a", "b", "c"):
            ddg.add_node(Node(name, Opcode.ADD))
        ab = ddg.add_edge(Edge("a", "b", EdgeKind.REG, fused=True))
        bc = ddg.add_edge(Edge("b", "c", EdgeKind.REG, fused=True))
        ddg.remove_edge(bc)
        assert ddg.fused_groups() == [("a", "b")]
        clone = ddg.copy()
        clone.add_edge(Edge("c", "ld", EdgeKind.REG, fused=True))
        assert clone.fused_groups() == [("ld", "c"), ("a", "b")]
        assert ddg.fused_groups() == [("a", "b")]
        ddg.remove_edge(ab)
        assert ddg.fused_groups() == []
        loaded = pickle.loads(pickle.dumps(clone))
        assert loaded.fused_groups() == clone.fused_groups()
        assert loaded.opcode_counts() == clone.opcode_counts()


class TestCopy:
    def test_copy_is_deep_for_structure(self):
        original = small_graph()
        original.add_invariant("k", consumer="mul")
        original.add_live_out("mul")
        clone = original.copy()
        clone.remove_node("st")
        clone.add_invariant("k", consumer="ld")
        clone.discard_live_out("mul")
        assert "st" in original.nodes
        assert original.invariants["k"].consumers == {"mul"}
        assert "mul" in original.live_out

    def test_copy_preserves_edge_attributes(self):
        ddg = small_graph()
        ddg.add_edge(
            Edge("ld", "st", EdgeKind.MEM, DepKind.FLOW, 3, spillable=False,
                 fused=True)
        )
        clone = ddg.copy()
        copied = [e for e in clone.edges if e.kind is EdgeKind.MEM][0]
        assert copied.distance == 3
        assert not copied.spillable
        assert copied.fused

    @pytest.mark.parametrize("fingerprinted", [True, False])
    def test_digest_of_a_mutated_copy(self, fingerprinted):
        """Whether the digest was kept through the mutations or is first
        summed after them, it is the one a fresh build gives."""
        ddg = small_graph()
        ddg.add_invariant("k", consumer="mul")
        if fingerprinted:
            ddg_fingerprint(ddg)
        clone = ddg.copy()
        clone.remove_edge(clone.out_edges("ld")[0])
        clone.add_node(Node("extra", Opcode.ADD, ("mul",)))
        clone.add_edge(Edge("mul", "extra", EdgeKind.REG, fused=True))
        clone.add_invariant("k", consumer="extra")
        clone.add_live_out("extra")
        clone.remove_node("st")
        assert ddg_fingerprint(clone) == ddg_fingerprint(replayed_copy(clone))
        assert ddg_fingerprint(ddg) == ddg_fingerprint(replayed_copy(ddg))


def replayed_copy(ddg):
    """The clone adding every node, edge and invariant afresh would give:
    the parity oracle of :meth:`DDG.copy`."""
    clone = DDG(ddg.name)
    for node in ddg.nodes.values():
        clone.add_node(
            Node(node.name, node.opcode, node.operands, node.mem)
        )
    for edge in ddg.edges:
        clone.add_edge(replace(edge))
    for invariant in ddg.invariants.values():
        clone.add_invariant(invariant.name, spillable=invariant.spillable)
        for consumer in sorted(invariant.consumers):
            clone.add_invariant(invariant.name, consumer=consumer)
    for name in sorted(ddg.live_out):
        clone.add_live_out(name)
    return clone


@pytest.fixture(scope="module")
def spilled_graphs():
    """Graphs rewritten in place: spilled by the spiller, then with
    edges re-added in reverse (as the perturbation harness re-adds the
    edges it jitters), so in-edge lists are no longer in the order a
    replay gives."""
    from repro.core.spill import apply_spill
    from repro.lifetimes.lifetime import variant_lifetimes
    from repro.machine import p1l4
    from repro.sched import HRMSScheduler
    from repro.workloads import random_suite

    graphs = []
    for workload in random_suite(size=12, seed=7331):
        ddg = workload.ddg.copy()
        schedule = HRMSScheduler().schedule(ddg, p1l4())
        lifetimes = sorted(
            (lt for lt in variant_lifetimes(schedule) if lt.spillable),
            key=lambda lt: (-lt.length, lt.value),
        )
        for lifetime in lifetimes[:2]:
            apply_spill(ddg, lifetime)
        graphs.append(ddg)
        jittered = ddg.copy()
        for edge in reversed(jittered.edges[::3]):
            jittered.remove_edge(edge)
            jittered.add_edge(replace(edge, distance=edge.distance + 1))
        graphs.append(jittered)
    return graphs


def adjacency(ddg):
    return (
        list(ddg.nodes),
        {name: list(edges) for name, edges in ddg._out.items()},
        {name: list(edges) for name, edges in ddg._in.items()},
    )


class TestCopyParity:
    def test_orders_match_the_replay(self, spilled_graphs):
        reordered = 0
        for ddg in spilled_graphs:
            clone, replay = ddg.copy(), replayed_copy(ddg)
            assert adjacency(clone) == adjacency(replay)
            assert clone.invariants == replay.invariants
            assert clone.live_out == replay.live_out
            assert [n.operands for n in clone.nodes.values()] == [
                n.operands for n in replay.nodes.values()
            ]
            reordered += adjacency(ddg)[2] != adjacency(replay)[2]
        # the fixture really exercises the in-edge rebuild
        assert reordered

    def test_edges_nodes_and_invariants_shared(self, spilled_graphs):
        ddg = replayed_copy(spilled_graphs[0])
        ddg.add_invariant("k", consumer=next(iter(ddg.nodes)))
        clone = ddg.copy()
        for name in ddg.nodes:
            assert all(
                a is b for a, b in zip(clone._out[name], ddg._out[name])
            )
            # immutable, so shared; only the containers are new
            assert clone.nodes[name] is ddg.nodes[name]
            assert clone._out[name] is not ddg._out[name]
            assert clone._in[name] is not ddg._in[name]
        assert clone.nodes is not ddg.nodes
        assert clone.invariants["k"] is ddg.invariants["k"]
        assert clone.invariants is not ddg.invariants

    def test_fingerprint_and_index_inherited_at_equal_revision(self):
        ddg = small_graph()
        fingerprint, index = ddg_fingerprint(ddg), get_index(ddg)
        clone = ddg.copy("renamed")
        assert clone.revision == ddg.revision
        assert ddg_fingerprint(clone) == fingerprint
        assert get_index(clone) is index
        assert ddg_fingerprint(clone) == ddg_fingerprint(replayed_copy(ddg))

    def test_index_not_shared_while_caching_is_disabled(self):
        from repro.sched import cache as sched_cache

        ddg = small_graph()
        fingerprint = ddg_fingerprint(ddg)
        with sched_cache.disabled():
            index = get_index(ddg)
            clone = ddg.copy()
            assert ddg_fingerprint(clone) == fingerprint
            assert getattr(clone, "_index", None) is None
            assert get_index(clone) is not index

    def test_stale_derived_state_not_inherited(self):
        ddg = small_graph()
        before = ddg_fingerprint(ddg)
        get_index(ddg)
        ddg.add_node(Node("extra", Opcode.ADD))
        clone = ddg.copy()
        assert ddg_fingerprint(clone) != before
        assert getattr(clone, "_index", None) is None
        assert ddg_fingerprint(clone) == ddg_fingerprint(replayed_copy(ddg))

    @pytest.mark.parametrize("mutated", ["original", "clone"])
    def test_mutating_one_side_leaves_the_other_intact(self, mutated):
        ddg = small_graph()
        ddg.add_invariant("k", consumer="mul")
        fingerprint, index = ddg_fingerprint(ddg), get_index(ddg)
        clone = ddg.copy()
        before = adjacency(ddg)
        target, other = (ddg, clone) if mutated == "original" else (clone, ddg)
        target.remove_edge(target.out_edges("ld")[0])
        target.add_edge(Edge("ld", "st", EdgeKind.MEM, DepKind.ANTI, 1))
        mul = target.nodes["mul"]
        target.replace_node(replace(mul, operands=mul.operands + ("k",)))
        target.add_invariant("k", consumer="st")
        target.add_live_out("mul")
        assert adjacency(other) == before
        assert other.nodes["mul"].operands == ("ld",)
        assert other.invariants["k"].consumers == {"mul"}
        assert other.live_out == set()
        assert ddg_fingerprint(other) == fingerprint
        assert get_index(other) is index
        assert ddg_fingerprint(target) != fingerprint
        assert get_index(target) is not index


class TestValidate:
    def test_register_edge_must_be_flow(self):
        ddg = small_graph()
        ddg.add_edge(Edge("ld", "st", EdgeKind.REG, DepKind.ANTI))
        with pytest.raises(AssertionError):
            ddg.validate()

    def test_register_edge_from_store_rejected(self):
        ddg = small_graph()
        ddg.add_node(Node("x", Opcode.ADD))
        ddg.add_edge(Edge("st", "x", EdgeKind.REG))
        with pytest.raises(AssertionError):
            ddg.validate()

    def test_valid_graph_passes(self):
        small_graph().validate()
