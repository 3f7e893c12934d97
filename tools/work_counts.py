"""Print the `WORK` counters of in-process `repro sweep` runs as JSON.

Runs the sweep given by the remaining arguments once per scheduler
(``--jobs 1``, no output file, memos and parsed graphs dropped before
each, so each count is what a fresh process would make) and prints,
per scheduler, the five deterministic work counters it moved:
`relax_visits`, `mrt_probes`, `index_builds`, `lifetime_visits` and
`alloc_probes`.  The bytes of a sweep are gated elsewhere; this makes
its work comparable across processes, e.g. under two `PYTHONHASHSEED`
values, which must agree.

Usage::

    PYTHONPATH=src python tools/work_counts.py [--schedulers hrms,ims] \\
        [sweep options]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json


def counts(schedulers: list[str], sweep: list[str]) -> dict:
    from repro.cli import main
    from repro.graph.builder import cached_ddg
    from repro.graph.index import WORK
    from repro.sched import cache

    moved = {}
    for scheduler in schedulers:
        cache.clear()
        cached_ddg.cache_clear()
        before = WORK.snapshot()
        with contextlib.redirect_stdout(io.StringIO()):
            main(["sweep", "--jobs", "1", "--scheduler", scheduler, *sweep])
        moved[scheduler] = WORK.delta(before).as_dict()
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schedulers", default="hrms")
    args, sweep = parser.parse_known_args(argv)
    print(json.dumps(counts(args.schedulers.split(","), sweep), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
