"""Property tests for the compiled analysis core (`repro.graph.index`).

The indexed hot path (condensation-ordered longest paths, one-pass
per-SCC RecMII, CSR reachability, bitmask MRT) must be *observationally
identical* to the legacy whole-graph implementations: same MII, same
depth/ALAP maps, same node order, same final schedules, byte for byte.
The oracles here are the pre-index implementations, either kept in the
codebase (``longest_path_lengths_reference``, ``_recurrence_mii_generic``)
or replicated in this file (legacy ``partition_sets``, a per-cycle
grid reservation table).
"""

import random
from types import SimpleNamespace

import networkx as nx
import pytest

from repro.graph import ddg_from_source
from repro.graph.analysis import (
    _recurrence_mii_generic,
    asap_alap,
    critical_recurrence,
    longest_path_lengths,
    longest_path_lengths_reference,
    recurrence_components,
    recurrence_mii_of_scc,
    strongly_connected_components,
)
from repro.graph.ddg import DDG, Edge, EdgeKind, Node
from repro.graph.index import WORK, get_index
from repro.ir.operations import FuClass, Opcode
from repro.machine.machine import generic_machine, p2l4
from repro.machine.mrt import ModuloReservationTable
from repro.sched import cache as sched_cache
from repro.sched.groups import Unit, remove_unit, try_place_unit
from repro.sched.hrms import HRMSScheduler
from repro.sched.ims import IMSScheduler
from repro.sched.mii import compute_mii, rec_mii
from repro.sched.ordering import order_nodes, partition_sets
from repro.sched.swing import SwingScheduler
from repro.workloads import random_suite

MACHINE = p2l4()
SCHEDULERS = (HRMSScheduler, IMSScheduler, SwingScheduler)


@pytest.fixture(scope="module")
def workloads():
    return random_suite(size=14, seed=20260728)


def _graphs(workloads):
    for workload in workloads:
        yield workload.name, workload.ddg


# ----------------------------------------------------------------------
# legacy oracles replicated verbatim from the pre-index implementations
def _legacy_reachable(ddg, seeds, forward):
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        name = frontier.pop()
        neighbours = (
            ddg.successors(name) if forward else ddg.predecessors(name)
        )
        for other in neighbours:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def legacy_partition_sets(ddg, latencies):
    recurrences = recurrence_components(ddg)
    recurrences.sort(
        key=lambda comp: (
            -_recurrence_mii_generic(ddg, comp, latencies),
            min(comp),
        )
    )
    sets = []
    taken = set()
    for component in recurrences:
        subset = set(component) - taken
        if taken:
            down = _legacy_reachable(ddg, taken, forward=True)
            up = _legacy_reachable(ddg, set(component), forward=False)
            subset |= (down & up) - taken
            down_rec = _legacy_reachable(ddg, set(component), forward=True)
            up_taken = _legacy_reachable(ddg, taken, forward=False)
            subset |= (down_rec & up_taken) - taken
        if subset:
            sets.append(subset)
            taken |= subset
    rest = set(ddg.nodes) - taken
    if rest:
        sets.append(rest)
    return sets


def legacy_asap_alap(ddg, latencies, ii):
    depth = longest_path_lengths_reference(ddg, latencies, ii)
    height = longest_path_lengths_reference(ddg, latencies, ii, reverse=True)
    span = max((depth[v] + height[v] for v in ddg.nodes), default=0)
    alap = {v: span - height[v] for v in ddg.nodes}
    return depth, alap


class LegacyMRT:
    """Standalone reservation-table oracle: one occupant name (or ``None``)
    per unit and cycle, found by nested list scans; fused groups are placed
    member by member and rolled back on the first conflict."""

    def __init__(self, machine, ii):
        self.machine = machine
        self.ii = ii
        self.grid = {
            fu_class: [[None] * ii for _ in range(count)]
            for fu_class, count in machine.fu_counts.items()
        }
        self.placements = {}

    def _cycles(self, opcode, start):
        occupancy = self.machine.occupancy(opcode)
        if occupancy > self.ii:
            return None
        return [(start + j) % self.ii for j in range(occupancy)]

    def _free_unit(self, opcode, start):
        cycles = self._cycles(opcode, start)
        if cycles is None:
            return None
        rows = self.grid.get(self.machine.fu_class(opcode), [])
        for unit, row in enumerate(rows):
            if all(row[c] is None for c in cycles):
                return unit
        return None

    def can_place(self, opcode, start):
        return self._free_unit(opcode, start) is not None

    def place(self, name, opcode, start):
        unit = self._free_unit(opcode, start)
        if name in self.placements or unit is None:
            raise RuntimeError(f"cannot place {name}")
        fu_class = self.machine.fu_class(opcode)
        cycles = self._cycles(opcode, start)
        for cycle in cycles:
            self.grid[fu_class][unit][cycle] = name
        self.placements[name] = (fu_class, unit, cycles)

    def remove(self, name):
        fu_class, unit, cycles = self.placements.pop(name)
        for cycle in cycles:
            self.grid[fu_class][unit][cycle] = None

    def place_unit(self, ddg, unit, leader_time):
        placed = []
        for member, offset in unit:
            opcode = ddg.nodes[member].opcode
            if not self.can_place(opcode, leader_time + offset):
                for name in placed:
                    self.remove(name)
                return False
            self.place(member, opcode, leader_time + offset)
            placed.append(member)
        return True

    def conflicting(self, opcode, start):
        cycles = self._cycles(opcode, start)
        if cycles is None:
            return set()
        best = None
        for row in self.grid.get(self.machine.fu_class(opcode), []):
            occupants = {row[c] for c in cycles if row[c] is not None}
            if best is None or len(occupants) < len(best):
                best = occupants
        return best or set()

    def utilization(self, fu_class):
        rows = self.grid.get(fu_class, [])
        if not rows:
            return 0.0
        busy = sum(1 for row in rows for cell in row if cell is not None)
        return busy / (len(rows) * self.ii)

    def render(self):
        return "\n".join(
            f"{fu_class.value}[{unit}] "
            + " ".join(f"{cell or '.':>10}" for cell in row)
            for fu_class, rows in self.grid.items()
            for unit, row in enumerate(rows)
        )


# ----------------------------------------------------------------------
class TestLongestPathsMatchOracle:
    def test_depth_and_height_identical_across_iis(self, workloads):
        for name, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            mii = compute_mii(ddg, MACHINE)
            for ii in (mii, mii + 1, mii + 7):
                for reverse in (False, True):
                    fast = longest_path_lengths(
                        ddg, latencies, ii, reverse=reverse
                    )
                    slow = longest_path_lengths_reference(
                        ddg, latencies, ii, reverse=reverse
                    )
                    assert fast == slow, (name, ii, reverse)

    def test_asap_alap_identical(self, workloads):
        for name, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            ii = compute_mii(ddg, MACHINE)
            assert asap_alap(ddg, latencies, ii) == legacy_asap_alap(
                ddg, latencies, ii
            ), name

    def test_divergence_parity_below_recmii(self, workloads):
        for name, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            recmii = rec_mii(ddg, MACHINE)
            if recmii <= 1:
                continue
            with pytest.raises(ValueError):
                longest_path_lengths(ddg, latencies, recmii - 1)
            with pytest.raises(ValueError):
                longest_path_lengths_reference(ddg, latencies, recmii - 1)

    def test_indexed_path_does_less_relaxation_work(self, workloads):
        """The cold-path win: condensation-ordered relaxation visits far
        fewer edges than whole-graph Bellman-Ford on the same inputs."""
        fast = slow = 0
        for _, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            ii = compute_mii(ddg, MACHINE)
            before = WORK.snapshot()
            longest_path_lengths(ddg, latencies, ii)
            longest_path_lengths(ddg, latencies, ii, reverse=True)
            middle = WORK.snapshot()
            longest_path_lengths_reference(ddg, latencies, ii)
            longest_path_lengths_reference(ddg, latencies, ii, reverse=True)
            after = WORK.snapshot()
            fast += middle.delta(before).relax_visits
            slow += after.delta(middle).relax_visits
        assert fast * 3 <= slow, (fast, slow)


class TestSCCAndRecMIIMatchOracle:
    def test_sccs_match_networkx(self, workloads):
        for name, ddg in _graphs(workloads):
            graph = nx.MultiDiGraph()
            graph.add_nodes_from(ddg.nodes)
            for edge in ddg.edges:
                graph.add_edge(edge.src, edge.dst)
            ours = {frozenset(c) for c in strongly_connected_components(ddg)}
            reference = {
                frozenset(c) for c in nx.strongly_connected_components(graph)
            }
            assert ours == reference, name

    def test_recurrence_components_have_cycles(self, workloads):
        for name, ddg in _graphs(workloads):
            cyclic = recurrence_components(ddg)
            for component in cyclic:
                if len(component) == 1:
                    (node,) = component
                    assert any(
                        e.dst == node for e in ddg.out_edges(node)
                    ), name
            flat = {n for c in cyclic for n in c}
            assert flat <= set(ddg.nodes)

    def test_per_scc_recmii_matches_generic_search(self, workloads):
        for name, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            for component in recurrence_components(ddg):
                assert recurrence_mii_of_scc(
                    ddg, component, latencies
                ) == _recurrence_mii_generic(ddg, component, latencies), name

    def test_mii_identical(self, workloads):
        for name, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            legacy_rec = 1
            for component in recurrence_components(ddg):
                legacy_rec = max(
                    legacy_rec,
                    _recurrence_mii_generic(ddg, component, latencies),
                )
            assert rec_mii(ddg, MACHINE) == legacy_rec, name
            _, critical = critical_recurrence(ddg, latencies)
            assert critical == legacy_rec, name


class TestOrderingMatchesOracle:
    def test_partition_sets_identical(self, workloads):
        for name, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            assert partition_sets(ddg, latencies) == legacy_partition_sets(
                ddg, latencies
            ), name

    def test_node_order_identical_with_oracle_inputs(self, workloads):
        for name, ddg in _graphs(workloads):
            latencies = MACHINE.latencies_for(ddg)
            ii = compute_mii(ddg, MACHINE)
            fast = order_nodes(ddg, latencies, ii)
            depth, alap = legacy_asap_alap(ddg, latencies, ii)
            slow = order_nodes(ddg, latencies, ii, depth, alap)
            assert fast == slow, name


class TestSchedulesMatchOracle:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_final_schedules_identical(
        self, workloads, scheduler_cls, monkeypatch
    ):
        """End-to-end: schedules produced on the indexed path equal the
        ones produced with every analysis entry point forced onto the
        legacy whole-graph oracle."""
        for name, ddg in _graphs(workloads):
            sched_cache.clear()
            fast = scheduler_cls().schedule(ddg, MACHINE)
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.sched.hrms.asap_alap", legacy_asap_alap
                )
                patch.setattr(
                    "repro.sched.ims.longest_path_lengths",
                    longest_path_lengths_reference,
                )
                patch.setattr(
                    "repro.sched.ordering.partition_sets",
                    legacy_partition_sets,
                )
                patch.setattr(
                    "repro.sched.ordering.asap_alap", legacy_asap_alap
                )
                sched_cache.clear()
                slow = scheduler_cls().schedule(ddg.copy(), MACHINE)
            assert fast.ii == slow.ii, (name, scheduler_cls.name)
            assert fast.times == slow.times, (name, scheduler_cls.name)
            assert fast.effort_attempts == slow.effort_attempts
            assert fast.effort_placements == slow.effort_placements
            fast.validate()


class TestIndexCaching:
    def test_mutation_invalidates_instance_index(self):
        ddg = ddg_from_source("x[i] = y[i]*a + y[i-3]")
        first = get_index(ddg)
        assert get_index(ddg) is first
        ddg.add_node(Node("extra", Opcode.ADD))
        second = get_index(ddg)
        assert second is not first
        assert "extra" in second.idx

    def test_content_identical_graphs_share_an_index(self):
        sched_cache.clear()
        ddg = ddg_from_source("x[i] = y[i]*a + y[i-3]")
        clone = ddg.copy()
        assert get_index(ddg) is get_index(clone)

    def test_disabled_caching_still_correct(self):
        ddg = ddg_from_source("s = s + x[i]*y[i]")
        latencies = MACHINE.latencies_for(ddg)
        with sched_cache.disabled():
            fast = longest_path_lengths(ddg, latencies, 8)
        assert fast == longest_path_lengths_reference(ddg, latencies, 8)

    def test_zero_distance_cycle_still_rejected(self):
        ddg = DDG()
        ddg.add_node(Node("a", Opcode.ADD))
        ddg.add_node(Node("b", Opcode.ADD))
        ddg.add_edge(Edge("a", "b", EdgeKind.REG))
        ddg.add_edge(Edge("b", "a", EdgeKind.REG))
        latencies = {"a": 1, "b": 1}
        (component,) = recurrence_components(ddg)
        with pytest.raises(ValueError, match="zero-distance"):
            recurrence_mii_of_scc(ddg, component, latencies)


class TestBitmaskMRTMatchesOracle:
    def test_randomized_place_remove_parity(self):
        """Drive the bitmask MRT and the legacy list-scan MRT through an
        identical random op sequence; every observable must agree."""
        machine = p2l4()
        opcodes = [
            Opcode.LOAD, Opcode.STORE, Opcode.ADD, Opcode.MUL, Opcode.DIV,
        ]
        rng = random.Random(1996)
        for ii in (1, 2, 3, 5, 17, 19):
            fast = ModuloReservationTable(machine, ii)
            slow = LegacyMRT(machine, ii)
            live: list[tuple[str, Opcode, int]] = []
            for step in range(200):
                if live and rng.random() < 0.3:
                    name, _, _ = live.pop(rng.randrange(len(live)))
                    fast.remove(name)
                    slow.remove(name)
                    continue
                opcode = rng.choice(opcodes)
                start = rng.randrange(-5, 40)
                assert fast.can_place(opcode, start) == slow.can_place(
                    opcode, start
                ), (ii, step)
                if fast.can_place(opcode, start):
                    name = f"op{step}"
                    fast.place(name, opcode, start)
                    slow.place(name, opcode, start)
                    live.append((name, opcode, start))
                assert fast.render() == slow.render(), (ii, step)
            for fu_class in FuClass:
                assert fast.utilization(fu_class) == slow.utilization(
                    fu_class
                )
            for opcode in opcodes:
                for start in range(ii):
                    assert fast.conflicting(opcode, start) == slow.conflicting(
                        opcode, start
                    )

    def test_randomized_fused_group_parity(self):
        """Fused groups: a rejected ``try_place_unit`` leaves every mask
        and placement untouched, and an accepted one picks the same units
        as the oracle's place-then-rollback."""
        machine = p2l4()
        opcodes = [
            Opcode.LOAD, Opcode.STORE, Opcode.ADD, Opcode.MUL, Opcode.DIV,
        ]
        rng = random.Random(1995)
        for ii in (1, 2, 3, 5, 17, 19):
            fast = ModuloReservationTable(machine, ii)
            slow = LegacyMRT(machine, ii)
            ddg = SimpleNamespace(nodes={})
            live: list[Unit] = []
            for step in range(300):
                if live and rng.random() < 0.3:
                    unit = live.pop(rng.randrange(len(live)))
                    remove_unit(fast, unit)
                    for member, _ in unit:
                        slow.remove(member)
                    continue
                members = {}
                for index in range(rng.choice((1, 2, 2, 3))):
                    name = f"op{step}_{index}"
                    ddg.nodes[name] = SimpleNamespace(
                        opcode=rng.choice(opcodes)
                    )
                    members[name] = 0 if index == 0 else rng.randrange(0, 6)
                unit = Unit(f"op{step}_0", members)
                leader_time = rng.randrange(-5, 40)
                masks = {c: list(row) for c, row in fast._masks.items()}
                placements = dict(fast._placements)
                placed = try_place_unit(fast, ddg, unit, leader_time)
                assert placed == slow.place_unit(ddg, unit, leader_time), (
                    ii, step,
                )
                if placed:
                    live.append(unit)
                    for member in members:
                        fu_class, chosen, _ = fast._placements[member]
                        assert (fu_class, chosen) == slow.placements[
                            member
                        ][:2], (ii, step, member)
                else:
                    assert fast._masks == masks, (ii, step)
                    assert fast._placements == placements, (ii, step)
                assert fast.render() == slow.render(), (ii, step)

    def test_non_pipelined_overflow_rejected(self):
        mrt = ModuloReservationTable(p2l4(), 5)
        assert not mrt.can_place(Opcode.DIV, 0)  # occupancy 17 > II 5
        with pytest.raises(RuntimeError):
            mrt.place("d", Opcode.DIV, 0)

    def test_generic_machine_unknown_class_has_no_units(self):
        mrt = ModuloReservationTable(generic_machine(units=2, latency=1), 3)
        assert mrt.can_place(Opcode.ADD, 0)

    def test_index_never_pickles_with_the_graph(self):
        import pickle

        ddg = ddg_from_source("x[i] = y[i]*a + y[i-3]")
        get_index(ddg)
        assert hasattr(ddg, "_index")
        clone = pickle.loads(pickle.dumps(ddg))
        assert not hasattr(clone, "_index")
        latencies = MACHINE.latencies_for(clone)
        assert longest_path_lengths(
            clone, latencies, 4
        ) == longest_path_lengths(ddg, latencies, 4)
