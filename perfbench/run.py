"""Benchmark of the CRN reproduction: three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload discovery-precision --seed 1 \
        --seconds 20 --trace 0

One run, all in this process (set-up probes excepted):

1. set-up — ``setup_s`` is the median of fresh interpreters each
   importing the program, resolving the scenario and lowering its sweep
   points (network builds): three before the first unit and one after
   each timed unit;
2. an untimed prefix — a few fixed trials per point under
   ``jobs="serial"`` and under the workload's batched strategy, whose
   rows must be byte-identical;
3. an untimed warm-up unit that also counts the engine's node-slots;
4. timed units of the whole workload at ``--seed``, repeated until
   they took ``--seconds`` in all, with tracing off; every unit's rows must
   equal the warm-up's;
5. with ``--trace 1``, half the time goes to untraced units and half to
   traced units, whose rows must equal the untraced rows; the traced
   unit with the median wall time gives the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` trials, and the metrics (end-to-end with
``--trace 0``, per-layer with ``--trace 1``). A missing or broken
program exits non-zero without that line.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads anywhere in this process (and
# in the set-up probes, which inherit the environment): one core of
# load, so CPU time and wall time describe the same work.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARIABLES:
    os.environ[_var] = "1"
os.environ["REPRO_BACKEND"] = "numpy"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s`` before the first unit; one
#: more runs after each timed unit, so the probes sample the whole run
#: rather than one stretch of it.
FIRST_SETUP_PROBES = 3


class ProgramMissing(Exception):
    """The program's sources are not where the benchmark expects them."""


def import_program() -> None:
    """Make the checkout's ``src/repro`` importable, and only that copy."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(
            f"imported repro from {repro.__file__}, not from {package}"
        )


def setup_probe(workload_name: str, seed: int) -> float:
    """Import + spec resolution + point lowering, timed in this process."""
    start = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.lower(workload.spec(), seed)
    return time.perf_counter() - start


def measure_setup(workload_name: str, seed: int) -> float:
    """One set-up probe in a fresh interpreter; waits for it to exit."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload",
            workload_name,
            "--seed",
            str(seed),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def median_index(values: list) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def run_units(run, seconds: float, between=None) -> list:
    """Repeat ``run()`` until units took ``seconds``; at least once.

    ``between()`` runs after each unit, outside the measured time.
    Returns ``(wall_s, cpu_s, rows)`` per unit.
    """
    units = []
    while not units or sum(u[0] for u in units) < seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rows = run()
        units.append(
            (time.perf_counter() - wall0, time.process_time() - cpu0, rows)
        )
        if between is not None:
            between()
    return units


def benchmark(args) -> dict:
    import numpy

    from repro import obs
    from repro.sim.backend import active_backend

    import layers
    from tracing import Patches, SpanStack
    from workloads import (
        END_TO_END,
        WORKLOADS,
        canonical,
        check_rows,
        misses,
        point_trials,
        scheduled_node_slots,
        trials_run,
    )

    workload = WORKLOADS[args.workload]
    seed = args.seed
    backend = type(active_backend()).__name__
    print(
        f"environment: nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"backend={backend} threads=1 workload={workload.name} seed={seed}"
    )
    if backend != "NumpyBackend":
        raise RuntimeError(f"expected the numpy backend, got {backend}")

    setup_samples = []

    def probe_setup() -> None:
        setup_samples.append(measure_setup(workload.name, seed))

    for _ in range(FIRST_SETUP_PROBES):
        probe_setup()
    spec = workload.spec()
    problems = []
    attempted = failed = 0

    # Untimed prefix: serial and batched strategies must agree.
    serial_rows = workload.run_prefix(seed, "serial")
    batched_rows = workload.run_prefix(seed, workload.prefix_jobs)
    prefix_count = workload.prefix_trials * len(serial_rows)
    attempted += 2 * prefix_count
    if canonical(serial_rows) != canonical(batched_rows):
        problems.append(f"prefix rows differ: serial vs {workload.prefix_jobs}")
        failed += 2 * prefix_count

    # Warm-up unit, counting the node-slots the engine simulates.
    counter = SpanStack()
    with Patches("repro") as patches:
        layers.install(counter, patches, prefix="engine.")
        rows = workload.run(spec, seed)
    engine_node_slots = counter.counts.get("engine.node_slots", 0)
    reference = canonical(rows)
    unit_trials = trials_run(spec, rows)
    point_problems = check_rows(workload, spec, rows, seed)
    for idx, message in point_problems:
        problems.append(f"point {idx}: {message}")
    bad_points = {idx for idx, _ in point_problems}
    if -1 in bad_points:
        bad_trials = unit_trials
    else:
        bad_trials = sum(point_trials(spec, rows[i]) for i in bad_points)
    scheduled = scheduled_node_slots(workload, spec, rows)
    if scheduled is not None and scheduled != engine_node_slots:
        problems.append(
            f"engine simulated {engine_node_slots} node-slots, the "
            f"schedule says {scheduled}"
        )
    node_slots = engine_node_slots

    def account(unit_rows, label: str) -> None:
        nonlocal attempted, failed
        attempted += unit_trials
        failed += bad_trials
        if canonical(unit_rows) != reference:
            problems.append(f"{label} rows differ from the warm-up rows")
            failed += unit_trials - bad_trials

    account(rows, "warm-up")
    budget = args.seconds / 2 if args.trace else args.seconds
    units = run_units(lambda: workload.run(spec, seed), budget, probe_setup)
    for _, _, unit_rows in units:
        account(unit_rows, "timed")
    walls = [u[0] for u in units]
    wall_s = statistics.median(walls)

    if args.trace:
        traced = []

        def traced_unit():
            stack = SpanStack()
            with Patches("repro") as patches:
                layers.install(stack, patches)
                with obs.capture() as tel:
                    start = time.perf_counter_ns()
                    unit_rows = workload.run(spec, seed)
                    wall_ns = time.perf_counter_ns() - start
            traced.append((stack, tel.snapshot()["counters"], wall_ns))
            return unit_rows

        traced_units = run_units(traced_unit, budget)
        for _, _, unit_rows in traced_units:
            account(unit_rows, "traced")
        stack, counters, wall_ns = traced[
            median_index([t[2] for t in traced])
        ]
        metrics = layers.per_layer_metrics(stack, counters, wall_ns, wall_s)
        units_of = layers.PER_LAYER
        covered = metrics["unattributed_s"] + sum(
            v for k, v in metrics.items() if k.endswith(".self_s")
        )
        if abs(covered - wall_ns / 1e9) > 1e-6:
            problems.append(
                f"self times + unattributed = {covered} s, traced wall "
                f"{wall_ns / 1e9} s"
            )
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "cpu_s": statistics.median(u[1] for u in units),
            "trials_per_s": unit_trials / wall_s,
            "node_slots_per_s": node_slots / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "trials_run": unit_trials,
            "goal_rate": 1.0 - misses(workload, spec, rows) / unit_trials,
        }
        units_of = END_TO_END

    print(
        f"units: {unit_trials} trials and {node_slots} engine node-slots "
        "each; wall s: " + ", ".join(f"{w:.4f}" for w in walls)
    )
    print("setup probes s: " + ", ".join(f"{s:.4f}" for s in setup_samples))
    for message in problems:
        print(f"check failed: {message}")
    if not problems:
        print("checks: all passed")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>18.6g} {units_of[name][0]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name][0]}
            for name, value in metrics.items()
        },
    }


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        import_program()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(
                f"error: unknown workload {args.workload!r}; valid: "
                f"{', '.join(WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        result = benchmark(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 — report, exit non-zero, no result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
