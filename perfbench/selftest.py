"""Tiny-size self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` end to end on a handful of
loops and a few dozen requests, untraced and traced, and checks that
each run is correct and prints every named metric with its unit.  It
also checks that the benchmark's sweep JSON is byte-identical to
``repro sweep --json-out`` for the same grid, and that a run refuses to
start outside a checkout.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(root: str, workload: str, trace: int) -> dict:
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if process.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{process.stderr}")
    lines = process.stdout.strip().splitlines()
    return {"printed": lines[:-1], "result": json.loads(lines[-1])}


def check_workloads(root: str, benchmark: dict) -> None:
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            outcome = _run(root, workload, trace)
            result = outcome["result"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} trace={trace}: incorrect")
            for spec in benchmark[kind]:
                metric = result["metrics"].get(spec["name"])
                if metric is None or metric["unit"] != spec["unit"]:
                    raise SystemExit(
                        f"{workload}: {spec['name']} missing or wrong unit"
                    )
                if not any(
                    line.split()[:1] == [spec["name"]]
                    and line.endswith(" " + spec["unit"])
                    for line in outcome["printed"]
                ):
                    raise SystemExit(
                        f"{workload}: {spec['name']} not printed with unit"
                    )
            print(f"ok  {workload:<11} trace={trace}"
                  f"  {len(benchmark[kind])} metrics,"
                  f" {result['attempted']} operations checked")


def check_cli_bytes(root: str) -> None:
    env = common.child_env(root)
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        ours = os.path.join(scratch, "bench.json")
        cli = os.path.join(scratch, "cli.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "sweep",
             "--size", "tiny", "--json-out", ours,
             "--spawned", repr(time.monotonic())],
            cwd=root, env=env, check=True, capture_output=True, timeout=170,
        )
        grid = common.grid("tiny")
        subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--size",
             str(grid["size"]), "--json-out", cli],
            cwd=root, env=env, check=True, capture_output=True, timeout=170,
        )
        with open(ours, "rb") as a, open(cli, "rb") as b:
            if a.read() != b.read():
                raise SystemExit("sweep JSON differs from repro sweep")
    print("ok  sweep JSON byte-identical to repro sweep --json-out")


def check_refuses_outside_checkout() -> None:
    with tempfile.TemporaryDirectory() as empty:
        process = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "sweep_cold", "--seed", "1", "--seconds", "1"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    if process.returncode == 0 or process.stdout.strip():
        raise SystemExit("run.py did not refuse a directory without src/")
    print("ok  refuses to run outside a checkout")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    check_refuses_outside_checkout()
    check_cli_bytes(root)
    check_workloads(root, benchmark)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
