"""Lifetime selection heuristics (paper Sections 4.1 and 4.5).

* ``Max(LT)`` — spill the longest lifetime: long lifetimes free registers
  at every cycle, including the pressure peak.
* ``Max(LT/Traf)`` — weigh the freed cycles against the memory operations
  the spill adds (its *cost*); the paper finds this the better heuristic
  both in execution time and in traffic.

The cost model mirrors :mod:`repro.core.spill` exactly — consumers at the
same dependence distance share one reload, so loads are counted per
*distinct distance*, not per consumer (with the rematerializable-load
exception described in ``repro.core.spill._reload_plan``):

=======================  =====================================
situation                additional memory operations
=======================  =====================================
producer is a clean load one load per distinct distance (per
                         use when there is only one distance),
                         minus the removed original load
some consumer stores it  one load per remaining distinct
                         distance
general loop-variant     one store + one load per distinct
                         distance
loop-invariant           one load per consumer (store pre-loop)
=======================  =====================================

The *multiple lifetimes at once* acceleration (Section 4.5) keeps
selecting while an optimistic estimate — MaxLive minus each selected
lifetime's full per-cycle contribution ``LT / II`` — still exceeds the
available registers.  Using a lower bound and the full contribution is
deliberately optimistic so spill code is never added in excess.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.graph.ddg import DDG
from repro.ir.operations import Opcode
from repro.lifetimes.lifetime import (
    Lifetime,
    invariant_lifetimes,
    variant_lifetimes,
)
from repro.core.spill import _load_is_rematerializable
from repro.lifetimes.requirements import RegisterReport
from repro.sched.schedule import Schedule
from repro.trace.profile import phase


class SelectionPolicy(enum.Enum):
    """The paper's two selection heuristics."""

    MAX_LT = "max_lt"
    MAX_LT_TRAF = "max_lt_traf"


@dataclass(frozen=True)
class SpillCandidate:
    """A spillable lifetime with its spill cost."""

    lifetime: Lifetime
    cost: int

    @property
    def ratio(self) -> float:
        """Lifetime per memory operation; a zero-cost spill (single-use
        rematerializable load) is infinitely attractive."""
        if self.cost <= 0:
            return float("inf")
        return self.lifetime.length / self.cost


def spill_cost(ddg: DDG, lifetime: Lifetime) -> int:
    """Memory operations that spilling *lifetime* adds to the graph."""
    if lifetime.is_invariant:
        return len(ddg.invariants[lifetime.value].consumers)
    producer = ddg.nodes[lifetime.value]
    consumers = ddg.reg_out_edges(lifetime.value)
    if producer.opcode is Opcode.LOAD and _load_is_rematerializable(
        ddg, lifetime.value
    ):
        # One reload per distinct distance — except that a value consumed
        # at a single distance keeps one reload per use (see
        # ``repro.core.spill._reload_plan``); minus the removed original.
        distances = {edge.distance for edge in consumers}
        if len(distances) == 1:
            return len({edge.dst for edge in consumers}) - 1
        return len(distances) - 1
    store_consumer_edges = [
        edge
        for edge in consumers
        if edge.distance == 0
        and ddg.nodes[edge.dst].is_store
        and not ddg.nodes[edge.dst].is_spill
    ]
    reload_distances = {
        edge.distance
        for edge in consumers
        if edge not in store_consumer_edges
    }
    store = 0 if store_consumer_edges else 1
    return len(reload_distances) + store


def _spill_is_effective(ddg: DDG, lifetime: Lifetime) -> bool:
    """Spilling must shorten some register lifetime.

    A value whose only consumers are same-iteration stores gains nothing
    from spilling: the consumer-is-store optimization keeps the register
    edge to the store, so the lifetime would survive unchanged (and the
    selection heuristic would pick this free no-op forever).
    """
    if lifetime.is_invariant:
        return True
    producer = ddg.nodes[lifetime.value]
    if producer.opcode is Opcode.LOAD and _load_is_rematerializable(
        ddg, lifetime.value
    ):
        return True  # every consumer edge is replaced by a fresh load
    return any(
        not (
            edge.distance == 0
            and ddg.nodes[edge.dst].is_store
            and not ddg.nodes[edge.dst].is_spill
        )
        for edge in ddg.reg_out_edges(lifetime.value)
    )


def _replacement_length(schedule: Schedule, lifetime: Lifetime) -> int:
    """Length of the fused lifetimes that replace a spilled one.

    Spilling swaps the original lifetime for a register window of exactly
    the spill load's latency before each use (plus the producer-to-store
    window for ordinary variants); if the original lifetime is not longer
    than that, the spill frees no registers and must not be selected —
    otherwise zero-cost candidates (rematerializable single-use loads)
    would be picked forever without progress.
    """
    machine = schedule.machine
    load_latency = machine.latency(Opcode.SPILL_LOAD)
    if lifetime.is_invariant:
        return load_latency
    producer = schedule.ddg.nodes[lifetime.value]
    if producer.opcode is Opcode.LOAD and _load_is_rematerializable(
        schedule.ddg, lifetime.value
    ):
        return load_latency
    return max(load_latency, machine.latency(producer.opcode))


def spill_candidates(schedule: Schedule) -> list[SpillCandidate]:
    """All lifetimes of *schedule* that may legally and usefully be
    spilled."""
    ddg = schedule.ddg
    result = []
    for lifetime in variant_lifetimes(schedule) + invariant_lifetimes(schedule):
        if not lifetime.spillable or lifetime.length <= 0 or not lifetime.consumers:
            continue
        if not _spill_is_effective(ddg, lifetime):
            continue
        if lifetime.length <= _replacement_length(schedule, lifetime):
            continue
        result.append(SpillCandidate(lifetime, spill_cost(ddg, lifetime)))
    return result


def select_lifetimes(
    schedule: Schedule,
    report: RegisterReport,
    available: int,
    policy: SelectionPolicy = SelectionPolicy.MAX_LT_TRAF,
    multiple: bool = False,
) -> list[SpillCandidate]:
    """Pick the lifetimes to spill this round.

    Returns the single best candidate, or — with ``multiple`` — enough
    candidates that the optimistic MaxLive estimate drops to *available*.
    An empty list means nothing is spillable (the driver reports failure).
    """
    with phase("select"):
        return _select(schedule, report, available, policy, multiple)


def _select(
    schedule: Schedule,
    report: RegisterReport,
    available: int,
    policy: SelectionPolicy,
    multiple: bool,
) -> list[SpillCandidate]:
    candidates = spill_candidates(schedule)
    if not candidates:
        return []

    def key(candidate: SpillCandidate) -> tuple:
        if policy is SelectionPolicy.MAX_LT:
            primary = candidate.lifetime.length
        else:
            primary = candidate.ratio
        return (primary, candidate.lifetime.length, candidate.lifetime.value)

    candidates.sort(key=key, reverse=True)
    if not multiple:
        return candidates[:1]

    estimate = float(report.estimate)
    selected: list[SpillCandidate] = []
    for candidate in candidates:
        if estimate <= available:
            break
        selected.append(candidate)
        if candidate.lifetime.is_invariant:
            estimate -= 1.0
        else:
            estimate -= candidate.lifetime.length / schedule.ii
    if not selected:
        # The MaxLive estimate already fits but the actual allocation does
        # not (the estimate is a lower bound): make progress anyway.
        selected = candidates[:1]
    return selected
