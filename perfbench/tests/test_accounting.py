"""Node-slot accounting, output checks and miss counting on tiny specs."""

import dataclasses
import json
import math

import pytest

import layers
from tracing import Patches, SpanStack
from workloads import (
    PRECISION,
    WORKLOADS,
    check_rows,
    cseek_budget,
    misses,
    scheduled_node_slots,
    trials_run,
)


def tiny(name, **overrides):
    """A named workload shrunk by extra ``--set`` overrides."""
    base = WORKLOADS[name]
    merged = dict(base.overrides)
    merged.update({k: json.dumps(v) for k, v in overrides.items()})
    return dataclasses.replace(base, overrides=merged)


def run_counted(workload, seed):
    spec = workload.spec()
    stack = SpanStack()
    with Patches("repro") as patches:
        layers.install(stack, patches, prefix="engine.")
        rows = workload.run(spec, seed)
    return spec, rows, stack


def test_count_node_slots_match_the_schedule():
    workload = tiny(
        "count-serial",
        trials=2,
        **{"sweep.axes.m": [2, 8], "sweep.axes.activity": [0.0, 0.3]},
    )
    spec, rows, stack = run_counted(workload, seed=3)
    assert check_rows(workload, spec, rows, seed=3) == []
    # (m + 1) nodes x 6 rounds x 960 slots x 2 trials, per point.
    expected = sum((m + 1) * 5760 * 2 for m in (2, 2, 8, 8))
    assert scheduled_node_slots(workload, spec, rows) == expected
    assert stack.counts["engine.node_slots"] == expected
    assert stack.calls["engine.step"] == 8
    assert trials_run(spec, rows) == 8


def test_discovery_node_slots_match_the_cseek_budget():
    workload = tiny(
        "discovery-precision",
        **{
            "topology.params.n": 8,
            "assignment.c": 4,
            "sweep.axes.model": ["poisson"],
            "sweep.axes.activity": [0.3],
            "precision": dict(PRECISION, max_trials=32),
        },
    )
    spec, rows, stack = run_counted(workload, seed=5)
    assert check_rows(workload, spec, rows, seed=5) == []
    (row,) = rows
    assert row["trials"] == 8
    assert stack.counts["engine.node_slots"] == 8 * row["schedule_slots"] * 8
    assert scheduled_node_slots(workload, spec, rows) == (
        stack.counts["engine.node_slots"]
    )
    assert stack.calls.get("engine.step", 0) == 0  # lockstep only


def test_traced_run_reports_every_layer_and_keeps_rows():
    from repro import obs
    from workloads import canonical

    workload = tiny(
        "count-serial",
        trials=2,
        **{"sweep.axes.m": [8], "sweep.axes.activity": [0.3]},
    )
    spec = workload.spec()
    untraced = workload.run(spec, seed=1)
    stack = SpanStack()
    with Patches("repro") as patches:
        layers.install(stack, patches)
        with obs.capture() as tel:
            start = stack.clock()
            traced = workload.run(spec, seed=1)
            wall_ns = stack.clock() - start
    assert canonical(traced) == canonical(untraced)
    metrics = layers.per_layer_metrics(
        stack, tel.snapshot()["counters"], wall_ns, untraced_wall_s=1.0
    )
    assert list(metrics) == list(layers.PER_LAYER)
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_s + metrics["unattributed_s"] == pytest.approx(wall_ns / 1e9)
    assert metrics["count.calls"] == 2
    assert metrics["environment.jam.calls"] == 2
    assert metrics["executor.trials"] == 2
    assert metrics["engine.reach_cache.hit_ratio"] == 0.5


def test_checks_flag_bad_rows():
    workload = tiny(
        "count-serial",
        trials=2,
        **{"sweep.axes.m": [2], "sweep.axes.activity": [0.0, 0.3]},
    )
    spec = workload.spec()
    good = {"m": 2, "median_ratio": 1.0, "band_rate": 1.0, "slots": 5760}
    rows = [
        dict(good, activity=0.0, median_ratio=math.nan),
        dict(good, activity=0.3, band_rate=1.5, slots=240),
    ]
    problems = check_rows(workload, spec, rows, seed=0)
    assert (0, "median_ratio is NaN") in problems
    assert any(i == 1 and "band_rate" in m for i, m in problems)
    assert any(i == 1 and "slots=240" in m for i, m in problems)
    assert check_rows(workload, spec, rows[:1], seed=0) == [
        (-1, "1 rows for 2 points")
    ]


def test_precision_rows_must_converge_or_hit_the_ceiling():
    workload = tiny(
        "discovery-precision",
        **{"sweep.axes.model": ["poisson"], "sweep.axes.activity": [0.3, 0.6]},
    )
    spec = workload.spec()
    budget = cseek_budget(spec, {"seed": 0})
    rows = [
        {"success": 1.0, "trials": 4, "converged": True},
        {"success": 0.5, "trials": 64, "converged": False},
        {"success": 0.5, "trials": 1024, "converged": False},
    ]
    problems = check_rows(
        workload, spec, [dict(r, schedule_slots=budget) for r in rows], seed=0
    )
    assert problems == [(-1, "3 rows for 2 points")]
    problems = check_rows(
        workload,
        spec,
        [dict(r, schedule_slots=budget) for r in rows[:2]],
        seed=0,
    )
    assert problems == [
        (0, "trials=4 outside bounds"),
        (1, "neither converged nor at ceiling"),
    ]
    ceiling = [dict(r, schedule_slots=budget) for r in rows[1:]]
    ceiling[0]["converged"] = True
    assert check_rows(workload, spec, ceiling, seed=0) == []


@pytest.mark.parametrize(
    "name, column, rows, expected",
    [
        ("count-serial", "band_rate", [0.95, 1.0], 1),
        ("broadcast-serial", "success", [1.0, 0.0, 0.0], 2),
    ],
)
def test_misses_count_trials_that_missed_the_goal(name, column, rows, expected):
    workload = WORKLOADS[name]
    spec = workload.spec()
    assert misses(workload, spec, [{column: r} for r in rows]) == expected
