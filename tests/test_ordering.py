"""Unit tests for the HRMS/SMS node ordering."""

import json
import os
import subprocess
import sys

import pytest

from repro.graph import ddg_from_source
from repro.graph.analysis import asap_alap
from repro.machine import p1l4, p2l4, p2l6
from repro.sched.ordering import order_nodes, partition_sets, plan_order
from repro.workloads import NAMED_KERNELS, apsi47_like


def ordering_fixture(source):
    ddg = ddg_from_source(source)
    latencies = {name: 2 for name in ddg.nodes}
    return ddg, latencies


class TestPartition:
    def test_covers_all_nodes_exactly_once(self):
        ddg, latencies = ordering_fixture(
            "s = s + x[i]\np[i] = p[i-1]*s\nz[i] = p[i] + s"
        )
        sets = partition_sets(ddg, latencies)
        names = [n for subset in sets for n in subset]
        assert sorted(names) == sorted(ddg.nodes)

    def test_recurrences_come_first(self):
        ddg, latencies = ordering_fixture("s = s + x[i]*y[i]")
        sets = partition_sets(ddg, latencies)
        first = sets[0]
        # the reduction add must be in the first set
        assert any(name.startswith("s") or "add" in name for name in first)

    def test_acyclic_graph_single_set(self):
        ddg, latencies = ordering_fixture("z[i] = x[i] + y[i]")
        sets = partition_sets(ddg, latencies)
        assert len(sets) == 1

    def test_higher_recmii_recurrence_ordered_first(self):
        # memory recurrence (store->load->mul chain, RecMII 7 on P2L4-ish
        # latencies) must precede the scalar reduction (RecMII ~ 2).
        ddg = ddg_from_source("p[i] = p[i-1]*x[i]\ns = s + y[i]")
        machine = p2l4()
        latencies = machine.latencies_for(ddg)
        sets = partition_sets(ddg, latencies)
        first = sets[0]
        assert any("p" in name.lower() or "mul" in name for name in first)


class TestOrder:
    @pytest.mark.parametrize(
        "source",
        [
            "z[i] = x[i] + y[i]",
            "x[i] = y[i]*a + y[i-3]",
            "s = s + x[i]*y[i]",
            "p[i] = p[i-1]*x[i]",
            NAMED_KERNELS["fir8"],
            NAMED_KERNELS["state_space2"],
        ],
    )
    def test_order_is_a_permutation(self, source):
        from repro.graph.analysis import critical_recurrence

        ddg, latencies = ordering_fixture(source)
        _, recmii = critical_recurrence(ddg, latencies)
        order = order_nodes(ddg, latencies, ii=max(8, recmii))
        assert sorted(order) == sorted(ddg.nodes)

    def test_one_sided_neighbour_property(self):
        """When a node is ordered, its already-ordered neighbours should lie
        on one side only.  In graphs with many independent sources a node
        can be genuinely trapped between ordered nodes, so the property is
        a strong preference rather than an invariant: at most a small
        fraction of non-recurrence nodes may be two-sided."""
        ddg = apsi47_like()
        latencies = {name: 2 for name in ddg.nodes}
        from repro.graph.analysis import recurrence_components

        components = recurrence_components(ddg)
        in_recurrence = set().union(*components) if components else set()
        order = order_nodes(ddg, latencies, ii=20)
        seen = set()
        two_sided = 0
        for name in order:
            preds = ddg.predecessors(name) & seen
            succs = ddg.successors(name) & seen
            if name not in in_recurrence and preds and succs:
                two_sided += 1
            seen.add(name)
        assert two_sided <= len(order) * 0.15, f"{two_sided}/{len(order)}"

    def test_deterministic(self):
        ddg, latencies = ordering_fixture(NAMED_KERNELS["fir8"])
        first = order_nodes(ddg, latencies, ii=8)
        second = order_nodes(ddg, latencies, ii=8)
        assert first == second


# ----------------------------------------------------------------------
def order_nodes_reference(ddg, latencies, ii):
    """The set-scan ordering :func:`order_nodes` replaced: readiness and
    the one-sided test rescan every pending node's neighbour sets against
    the ordered set, and the priority keys are closures.  The oracle of
    the incremental version."""
    depth, alap = asap_alap(ddg, latencies, ii)
    span = max(alap.values(), default=0)
    height = {name: span - alap[name] for name in ddg.nodes}
    mobility = {name: alap[name] - depth[name] for name in ddg.nodes}
    preds = {name: ddg.predecessors(name) for name in ddg.nodes}
    succs = {name: ddg.successors(name) for name in ddg.nodes}

    order = []
    ordered = set()

    def top_down_key(name):
        return (height[name], -mobility[name], name)

    def bottom_up_key(name):
        return (depth[name], -mobility[name], name)

    for subset in partition_sets(ddg, latencies):
        pending = set(subset) - ordered
        direction = "top-down"
        while pending:
            pred_ready = {
                name for name in pending if not preds[name].isdisjoint(ordered)
            }
            succ_ready = {
                name for name in pending if not succs[name].isdisjoint(ordered)
            }
            if direction == "top-down" and pred_ready:
                frontier = pred_ready
            elif direction == "bottom-up" and succ_ready:
                frontier = succ_ready
            elif pred_ready:
                direction, frontier = "top-down", pred_ready
            elif succ_ready:
                direction, frontier = "bottom-up", succ_ready
            else:
                direction = "top-down"
                frontier = {max(pending, key=top_down_key)}
            while frontier:
                frontier &= pending
                if not frontier:
                    break
                clean = {
                    name
                    for name in frontier
                    if preds[name].isdisjoint(ordered)
                    or succs[name].isdisjoint(ordered)
                }
                pool = clean or frontier
                if direction == "top-down":
                    name = max(pool, key=top_down_key)
                else:
                    name = max(pool, key=bottom_up_key)
                order.append(name)
                ordered.add(name)
                pending.discard(name)
                frontier.discard(name)
                if direction == "top-down":
                    frontier |= succs[name] & pending
                else:
                    frontier |= preds[name] & pending
            direction = "bottom-up" if direction == "top-down" else "top-down"
    return order


def oracle_graphs():
    """Seeded random loops, recurrence-heavy, spilled so that fused
    (complex-operation) groups appear, on two latency tables."""
    from repro.core.spill import apply_spill
    from repro.lifetimes.lifetime import variant_lifetimes
    from repro.sched import HRMSScheduler
    from repro.workloads import random_suite

    graphs = []
    suite = random_suite(size=10, seed=4099, recurrence_density=0.5)
    for index, workload in enumerate(suite):
        machine = (p1l4, p2l6)[index % 2]()
        ddg = workload.ddg.copy()
        for _ in range(2):
            schedule = HRMSScheduler().schedule(ddg, machine)
            lifetimes = sorted(
                (lt for lt in variant_lifetimes(schedule) if lt.spillable),
                key=lambda lt: (-lt.length, lt.value),
            )
            for lifetime in lifetimes[:2]:
                apply_spill(ddg, lifetime)
        graphs.append((ddg, machine))
    # nodes trapped between ordered ones, alone or beside one-sided
    # candidates in the same frontier
    graphs.append((apsi47_like(), p2l6()))
    graphs.append((ddg_from_source(NAMED_KERNELS["state_space2"]), p1l4()))
    return graphs


def compare_with_oracle():
    """``(orders, mismatches, cases)`` of the incremental ordering against
    the oracle over every oracle graph and II in ``[MII, MII + 5]``."""
    from repro.sched.mii import compute_mii

    orders, mismatches = {}, []
    cases = {"fused": 0, "recurrence": 0, "two-sided": 0}
    for ddg, machine in oracle_graphs():
        latencies = machine.latencies_for(ddg)
        plan = plan_order(ddg, latencies)
        cases["fused"] += bool(ddg.fused_groups())
        cases["recurrence"] += len(plan.sets) > 1
        mii = compute_mii(ddg, machine)
        for ii in range(mii, mii + 6):
            depth, alap = asap_alap(ddg, latencies, ii)
            fast = order_nodes(ddg, latencies, ii, depth, alap, plan)
            if fast != order_nodes_reference(ddg, latencies, ii):
                mismatches.append(f"{ddg.name}@{ii}")
            orders[f"{ddg.name}@{ii}"] = fast
            seen = set()
            for name in fast:
                cases["two-sided"] += bool(
                    plan.preds[name] & seen and plan.succs[name] & seen
                )
                seen.add(name)
    return orders, mismatches, cases


class TestIncrementalOrderingOracle:
    def test_matches_set_scan_oracle(self):
        orders, mismatches, cases = compare_with_oracle()
        assert not mismatches
        assert len(orders) == 72
        assert all(cases.values()), cases

    def test_matches_oracle_under_two_hash_seeds(self):
        """Set iteration order is salted per process; neither ordering
        may depend on it."""
        here = os.path.dirname(os.path.abspath(__file__))
        script = (
            "import json, test_ordering as t;"
            "orders, mismatches, _ = t.compare_with_oracle();"
            "print(json.dumps([orders, mismatches], sort_keys=True))"
        )
        results = []
        for seed in ("1", "2"):
            completed = subprocess.run(
                [sys.executable, "-c", script],
                cwd=here, check=True, capture_output=True, text=True,
                env=dict(
                    os.environ,
                    PYTHONPATH=os.pathsep.join(
                        [os.path.join(os.path.dirname(here), "src"), here]
                    ),
                    PYTHONHASHSEED=seed,
                ),
            )
            orders, mismatches = json.loads(completed.stdout)
            assert not mismatches, (seed, mismatches)
            results.append(orders)
        assert results[0] == results[1]
