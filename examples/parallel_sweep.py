#!/usr/bin/env python3
"""Parallel + batched experiment execution and the result cache.

Runs the same E1 sweep through the harness's three execution strategies
(serial reference, process-parallel workers, vectorized batch) and shows
that the rows are bit-identical — per-trial seeds derive up front from
the master seed, so strategy is a pure throughput decision. Then replays
the table from the deterministic result cache.

Run:
    python examples/parallel_sweep.py [seed]
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.scenarios import run_scenario


def timed(label: str, **kwargs):
    start = time.perf_counter()
    table = run_scenario("E1", trials=16, **kwargs)
    elapsed = time.perf_counter() - start
    print(f"{label:>28}: {elapsed:6.2f}s  ({len(table.rows)} rows)")
    return table


def main(seed: int = 0) -> int:
    print("E1 (COUNT accuracy), 16 trials per sweep point:")
    serial = timed("serial (jobs=None)", seed=seed)
    parallel = timed("process pool (jobs=2)", seed=seed, jobs=2)
    batched = timed("vectorized (jobs='batch')", seed=seed, jobs="batch")

    identical = serial.rows == parallel.rows == batched.rows
    print(f"rows identical across strategies: {identical}")

    with tempfile.TemporaryDirectory() as cache_dir:
        timed("first run, cold cache", seed=seed, jobs="batch",
              cache=True, cache_dir=cache_dir)
        cached = timed("second run, cache hit", seed=seed,
                       cache=True, cache_dir=cache_dir)
        print(f"cache replay matches: {cached.rows == serial.rows}")

    return 0 if identical else 1


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    sys.exit(main(seed))
