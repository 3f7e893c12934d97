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


def order_nodes(
    ddg: DDG,
    latencies: dict[str, int],
    ii: int,
    depth: dict[str, int] | None = None,
    alap: dict[str, int] | None = None,
) -> list[str]:
    """Scheduling order with the one-sided-neighbour property (step 2)."""
    if depth is None or alap is None:
        depth, alap = asap_alap(ddg, latencies, ii)
    span = max(alap.values(), default=0)
    height = {name: span - alap[name] for name in ddg.nodes}
    mobility = {name: alap[name] - depth[name] for name in ddg.nodes}
    preds = {name: ddg.predecessors(name) for name in ddg.nodes}
    succs = {name: ddg.successors(name) for name in ddg.nodes}

    order: list[str] = []
    ordered: set[str] = set()

    def top_down_key(name: str) -> tuple:
        return (height[name], -mobility[name], name)

    def bottom_up_key(name: str) -> tuple:
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
                # disconnected seed: start top-down from the most critical
                direction = "top-down"
                frontier = {max(pending, key=top_down_key)}
            while frontier:
                frontier &= pending  # drop nodes ordered via another path
                if not frontier:
                    break
                # Prefer candidates with ordered neighbours on one side only
                # (the HRMS property); fall back to the rest when a node is
                # genuinely trapped between ordered nodes.
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
            # frontier exhausted: alternate
            direction = "bottom-up" if direction == "top-down" else "top-down"
    return order
