"""Persisted-entry audit: a schedule store holds no graph where it
needs none, and graphs carry content and their running digest only.

A ``schedule`` entry is ``(ii, times, …)`` and is rebuilt on the
caller's graph, so a graph inside one is dead weight every warm read
unpickles.  Entries of other namespaces (``spill`` runs) still embed
graphs; anything else a process attaches to a graph — the compiled
index, per-search scheduling state — would be pickled into every such
entry and read back by every warm process.  This audit loads each entry
of a store directory and lists the schedule entries holding a graph and
the graph attributes outside the allowed set.  It fails on either, and
when the store holds no graph at all (nothing was checked).

Usage::

    PYTHONPATH=src python tools/audit_store.py .repro-cache
"""

from __future__ import annotations

import argparse
import sys

#: Everything a persisted graph may carry.
ALLOWED = frozenset({
    "name", "nodes", "invariants", "live_out", "_out", "_in", "revision",
    "_digest",
})


def graphs_in(value, seen: set[int] | None = None):
    """Every :class:`~repro.graph.ddg.DDG` reachable from *value*
    through containers and instance attributes."""
    from repro.graph.ddg import DDG

    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, DDG):
        yield value
        return
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
    elif hasattr(value, "__dict__"):
        items = vars(value).values()
    else:
        return
    for item in items:
        yield from graphs_in(item, seen)


def stray_state(directory: str) -> tuple[int, dict[str, list[str]]]:
    """``(graphs checked, entry file → its findings)``: ``"DDG"`` for a
    graph in a ``schedule`` entry, then the graph attributes outside
    :data:`ALLOWED`."""
    from repro.sched.store import ScheduleStore

    store = ScheduleStore(directory)
    checked = 0
    stray: dict[str, list[str]] = {}
    for path in sorted(store.entries()):
        namespace = path.relative_to(store.root).parts[0]
        for graph in graphs_in(store.load(path)):
            checked += 1
            found = ["DDG"] if namespace == "schedule" else []
            # what pickling the graph writes (loading re-derives more)
            found += sorted(set(graph.__getstate__()) - ALLOWED)
            if found:
                stray[str(path)] = found
    return checked, stray


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", help="schedule store directory")
    args = parser.parse_args(argv)
    checked, stray = stray_state(args.directory)
    for path, extra in stray.items():
        print(f"{path}: {', '.join(extra)}")
    print(f"{checked} stored graphs, {len(stray)} entries with stray state")
    return 1 if stray or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
