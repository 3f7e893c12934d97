"""Constants and helpers shared by the orchestrator and its children."""

from __future__ import annotations

import bisect
import os
import random

#: Every process of a run gets this hash seed: IMS output depends on it.
HASH_SEED = "0"

#: Shared authentication token of the benchmark's shard daemons.
TOKEN = "perfbench-token"

#: Scratch directory, relative to the checkout root (git-ignored).
WORK_DIR = ".perfbench"

#: The paper's reproduction grid: ``repro sweep`` with its defaults.
GRID = {
    "size": 160,
    "seed": 1996,
    "machines": ["P1L4", "P2L4", "P2L6"],
    "budgets": [64, 32],
    "artifacts": ["table1", "fig8"],
    "scheduler": "hrms",
}

#: Mean duration of one speed probe (``child.reference_work``) at the
#: host speed that sweep timings are scaled to (a typical moment of a
#: 2-core shared x86 host under Python 3.11).
PROBE_REFERENCE_S = 0.0003

#: Sums of the fig8 ``cycles``/``traffic`` columns on :data:`GRID`.
ANCHORS = {"kernel_cycles": 33211375, "mem_traffic": 36083749}

#: The served-request workload: a fixed loop suite, a seeded stream.
SERVE = {
    "suite_size": 200,
    "suite_seed": 1996,
    "zipf_s": 1.1,
    "registers": (16, 32),
    "schedulers": ("hrms", "ims", "swing"),
    "scheduler_weights": (0.6, 0.2, 0.2),
    "shards": 2,
    # --seconds sizes the work, not a deadline: both commits of an A/B
    # comparison then serve the same requests
    "requests_per_second": 150,
    # after the timed loop, every loop at 16 registers under HRMS
    "probe_registers": 16,
    "probe_scheduler": "hrms",
}

#: ``--size tiny``: the self-test's handful of loops and requests.
TINY = {"grid_size": 6, "serve_suite_size": 8, "serve_requests": 40}


def grid(size: str) -> dict:
    """The sweep grid for ``--size full|tiny``."""
    if size == "tiny":
        return dict(GRID, size=TINY["grid_size"])
    return dict(GRID)


def serve_suite_size(size: str) -> int:
    return TINY["serve_suite_size"] if size == "tiny" else SERVE["suite_size"]


def child_env(root: str) -> dict:
    """The environment of every process the benchmark starts: the
    checkout's ``src`` on the path, the fixed hash seed, and no
    ``REPRO_*`` setting (tracing, store, faults) leaking in."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def request_stream(seed: int, loops: list, count: int) -> list[dict]:
    """*count* compile requests over *loops* (``(name, source)`` pairs)
    in an order shuffled by *seed*.

    The multiset of requests is one Zipf draw fixed by the suite seed:
    the loop by a Zipf(1.1) rank over a fixed popularity order, the
    register budget uniformly, the scheduler by the :data:`SERVE`
    weights.  Loops differ widely in compile cost, so a seeded draw made
    each seed a different workload (cold p95 spread 15% between seeds);
    with the draw fixed, every seed compiles the same first-seen keys
    and only their order and the daemons' shard split vary."""
    draw = random.Random(SERVE["suite_seed"])
    order = list(range(len(loops)))
    draw.shuffle(order)
    weights = [1.0 / rank ** SERVE["zipf_s"] for rank in range(1, len(loops) + 1)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    requests = []
    for _ in range(count):
        rank = min(bisect.bisect(cdf, draw.random()), len(loops) - 1)
        name, source = loops[order[rank]]
        requests.append({
            "loop": source,
            "name": name,
            "registers": draw.choice(SERVE["registers"]),
            "scheduler": draw.choices(
                SERVE["schedulers"], SERVE["scheduler_weights"]
            )[0],
        })
    random.Random(seed).shuffle(requests)
    return requests


def request_key(request: dict) -> tuple:
    return (request["name"], request["registers"], request["scheduler"])
