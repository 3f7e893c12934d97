"""Node ordering for HRMS-family schedulers.

HRMS's register sensitivity comes from its pre-ordering: nodes are emitted
so that, when each node is scheduled, its already-placed neighbours lie on
one side only (all predecessors or all successors).  The scheduler can then
place the node as close as possible to them, shortening lifetimes without
backtracking.  This module implements the ordering as formulated by the
same authors (hypernode reduction, MICRO-28 1995; restated as the
partition + alternating bottom-up/top-down traversal in their Swing Modulo
Scheduling work):

1. Partition the nodes: the recurrence with the largest RecMII first, then
   each next recurrence together with all nodes on paths between it and the
   nodes already taken, and finally the remaining (acyclic) nodes.
2. Order each subset alternating directions — consume nodes whose
   predecessors are ordered (top-down, highest *height* first) until
   exhausted, then nodes whose successors are ordered (bottom-up, highest
   *depth* first), and so on.  Ties break on lower mobility, then name,
   keeping runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.analysis import asap_alap
from repro.graph.ddg import DDG
from repro.graph.index import get_index


def partition_sets(ddg: DDG, latencies: dict[str, int]) -> list[set[str]]:
    """Recurrence-priority partition (step 1 above).

    Recurrences and their RecMIIs come from the index's shared per-SCC
    pass (the same memo :func:`repro.sched.mii.rec_mii` fills), and
    reachability runs over the CSR adjacency — no per-call edge-list
    re-filtering or repeated binary searches.
    """
    index = get_index(ddg)
    view = index.latency_view(latencies)
    recurrences = [
        (index.scc_names(sid), mii) for sid, mii in view.cyclic_recmii()
    ]
    recurrences.sort(key=lambda item: (-item[1], min(item[0])))
    sets: list[set[str]] = []
    taken: set[str] = set()
    for component, _ in recurrences:
        subset = component - taken
        if taken:
            down = index.reachable(taken, forward=True)
            up = index.reachable(component, forward=False)
            subset |= (down & up) - taken
            down_rec = index.reachable(component, forward=True)
            up_taken = index.reachable(taken, forward=False)
            subset |= (down_rec & up_taken) - taken
        if subset:
            sets.append(subset)
            taken |= subset
    rest = set(ddg.nodes) - taken
    if rest:
        sets.append(rest)
    return sets


@dataclass(frozen=True)
class OrderPlan:
    """The II-independent inputs of :func:`order_nodes`: each node's
    predecessor and successor names and the :func:`partition_sets`
    partition.  Built once per II search (see
    :class:`repro.sched.groups.Plan`)."""

    preds: dict[str, set[str]]
    succs: dict[str, set[str]]
    sets: list[set[str]]


def plan_order(ddg: DDG, latencies: dict[str, int]) -> OrderPlan:
    """Build the :class:`OrderPlan` of *ddg* under *latencies*."""
    return OrderPlan(
        preds={name: ddg.predecessors(name) for name in ddg.nodes},
        succs={name: ddg.successors(name) for name in ddg.nodes},
        sets=partition_sets(ddg, latencies),
    )


def order_nodes(
    ddg: DDG,
    latencies: dict[str, int],
    ii: int,
    depth: dict[str, int] | None = None,
    alap: dict[str, int] | None = None,
    plan: OrderPlan | None = None,
) -> list[str]:
    """Scheduling order with the one-sided-neighbour property (step 2).

    Readiness is tracked incrementally: ``pred_done`` holds every node
    with an ordered predecessor and ``succ_done`` every node with an
    ordered successor, each grown as a node is ordered, so the ready sets
    are intersections rather than scans.  The priority keys are total
    orders (the name breaks every tie), so the order does not depend on
    set iteration order.
    """
    if depth is None or alap is None:
        depth, alap = asap_alap(ddg, latencies, ii)
    if plan is None:
        plan = plan_order(ddg, latencies)
    preds, succs = plan.preds, plan.succs
    span = max(alap.values(), default=0)
    # top-down: highest height first; bottom-up: highest depth first;
    # both then lowest mobility, then name.
    top_down = {
        name: (span - alap[name], depth[name] - alap[name], name)
        for name in ddg.nodes
    }
    bottom_up = {
        name: (depth[name], depth[name] - alap[name], name)
        for name in ddg.nodes
    }

    order: list[str] = []
    ordered: set[str] = set()
    pred_done: set[str] = set()
    succ_done: set[str] = set()

    for subset in plan.sets:
        pending = subset - ordered
        direction = "top-down"
        while pending:
            pred_ready = pending & pred_done
            succ_ready = pending & succ_done
            if direction == "top-down" and pred_ready:
                frontier = pred_ready
            elif direction == "bottom-up" and succ_ready:
                frontier = succ_ready
            elif pred_ready:
                direction, frontier = "top-down", pred_ready
            elif succ_ready:
                direction, frontier = "bottom-up", succ_ready
            else:
                # disconnected seed: start top-down from the most critical
                direction = "top-down"
                frontier = {max(pending, key=top_down.__getitem__)}
            key = (
                top_down if direction == "top-down" else bottom_up
            ).__getitem__
            while frontier:
                frontier &= pending  # drop nodes ordered via another path
                if not frontier:
                    break
                # Prefer candidates with ordered neighbours on one side only
                # (the HRMS property); fall back to the rest when a node is
                # genuinely trapped between ordered nodes.
                pool = (frontier - pred_done) | (frontier - succ_done)
                name = max(pool or frontier, key=key)
                order.append(name)
                ordered.add(name)
                pending.discard(name)
                frontier.discard(name)
                pred_done |= succs[name]
                succ_done |= preds[name]
                if direction == "top-down":
                    frontier |= succs[name] & pending
                else:
                    frontier |= preds[name] & pending
            # frontier exhausted: alternate
            direction = "bottom-up" if direction == "top-down" else "top-down"
    return order
