"""Which public functions of the program the traced run wraps.

Each layer is named by its module. A wrapped call records a span under
the layer's label (:mod:`tracing`), so a layer's self time excludes the
time spent in wrapped calls of other layers below it — e.g.
``cseek.lockstep`` excludes its engine, COUNT, label and jam children.
Hooks add counts where the work happens (engine node-slots from coin
shapes, Luby phases, xbatch group sizes).

Import this module only after the program's package is importable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis import stats
from repro.core import (
    cgcast,
    cgcast_batch,
    coloring,
    count,
    cseek,
    cseek_batch,
    dissemination,
    exchange,
    xbatch,
)
from repro.harness import executor
from repro.scenarios import compile as scenario_compile
from repro.sim import engine, environment

from tracing import Patches, SpanStack

#: Per-layer metrics the traced run reports: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "engine.step.calls": ("count", "lower"),
    "engine.step.self_s": ("s", "lower"),
    "engine.batch.calls": ("count", "lower"),
    "engine.batch.self_s": ("s", "lower"),
    "engine.node_slots": ("count", "lower"),
    "engine.ns_per_node_slot": ("ns", "lower"),
    "engine.reach_cache.hit_ratio": ("ratio", "higher"),
    "backend.float_cache.hit_ratio": ("ratio", "higher"),
    "backend.gemm_blocks": ("count", "lower"),
    "backend.gemm_batches": ("count", "lower"),
    "environment.jam.calls": ("count", "lower"),
    "environment.jam.self_s": ("s", "lower"),
    "count.calls": ("count", "lower"),
    "count.self_s": ("s", "lower"),
    "count.ns_per_node_slot": ("ns", "lower"),
    "cseek.lockstep.self_s": ("s", "lower"),
    "cseek.serial.self_s": ("s", "lower"),
    "cseek.labels.calls": ("count", "lower"),
    "cseek.labels.self_s": ("s", "lower"),
    "exchange.self_s": ("s", "lower"),
    "coloring.self_s": ("s", "lower"),
    "coloring.phases_used": ("count", "lower"),
    "dissemination.self_s": ("s", "lower"),
    "dissemination.phases_run": ("count", "lower"),
    "cgcast.self_s": ("s", "lower"),
    "xbatch.self_s": ("s", "lower"),
    "xbatch.groups": ("count", "lower"),
    "xbatch.points_per_group": ("count", "higher"),
    "executor.trials": ("count", "lower"),
    "executor.batches": ("count", "lower"),
    "stream.chunks": ("count", "lower"),
    "executor.self_s": ("s", "lower"),
    "scenario.lower.self_s": ("s", "lower"),
    "stats.self_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _engine_hook(stack: SpanStack):
    def hook(args, kwargs, result):
        stack.add("engine.node_slots", _arg(args, kwargs, 3, "coins").size)

    return hook


def _count_hook(stack: SpanStack):
    def hook(args, kwargs, result):
        stack.add("count.node_slots", result.num_slots * result.estimates.size)

    return hook


def _coloring_hook(stack: SpanStack):
    def hook(args, kwargs, result):
        stack.add("coloring.phases_used", result.phases_used)

    return hook


def _dissemination_hook(stack: SpanStack):
    def hook(args, kwargs, result):
        results = result if isinstance(result, list) else [result]
        stack.add("dissemination.phases_run", sum(r.phases_run for r in results))

    return hook


def _xbatch_hook(stack: SpanStack):
    def hook(args, kwargs, result):
        stack.add("xbatch.groups", 1)
        stack.add("xbatch.points", len(_arg(args, kwargs, 0, "xs")))

    return hook


def _targets(stack: SpanStack) -> List[tuple]:
    """``(label, owner, attribute, hook)``; a class owner means a method."""
    return [
        ("engine.step", engine, "resolve_step", _engine_hook(stack)),
        ("engine.batch", engine, "resolve_step_batch", _engine_hook(stack)),
        ("environment.jam", environment.TrafficStream, "jam_mask", None),
        ("count", count, "run_count_step", _count_hook(stack)),
        ("count", count, "run_count_step_batch", _count_hook(stack)),
        ("cseek.lockstep", cseek_batch, "run_cseek_lockstep", None),
        ("cseek.serial", cseek.CSeek, "run", None),
        ("cseek.labels", cseek, "choose_part2_labels", None),
        ("exchange", exchange, "oracle_exchange", None),
        ("exchange", exchange, "simulated_exchange", None),
        ("coloring", coloring.LubyEdgeColoring, "run", _coloring_hook(stack)),
        (
            "dissemination",
            dissemination,
            "run_dissemination",
            _dissemination_hook(stack),
        ),
        (
            "dissemination",
            dissemination,
            "run_dissemination_batch",
            _dissemination_hook(stack),
        ),
        ("cgcast", cgcast.CGCast, "run", None),
        ("cgcast", cgcast_batch, "run_cgcast_lockstep", None),
        ("xbatch", xbatch, "run_group", _xbatch_hook(stack)),
        ("executor", executor.SerialExecutor, "run", None),
        ("executor", executor.BatchedExecutor, "run", None),
        ("executor", executor.StreamingExecutor, "run", None),
        ("scenario.lower", scenario_compile, "_lower_point", None),
        ("stats", stats, "summarize", None),
        ("stats", stats, "success_rate", None),
        ("stats", stats, "mean_halfwidth", None),
        ("stats", stats, "rate_halfwidth", None),
        ("stats", stats.StreamingMoments, "update", None),
        ("stats", stats.StreamingRate, "update", None),
        ("stats", stats.P2Quantile, "update", None),
        ("stats", stats.P2Quantile, "value", None),
    ]


def install(
    stack: SpanStack, patches: Patches, prefix: str = ""
) -> None:
    """Wrap every target whose label starts with ``prefix``."""
    for label, owner, attr, hook in _targets(stack):
        if not label.startswith(prefix):
            continue
        if isinstance(owner, type):
            original = vars(owner)[attr]
            patches.method(owner, attr, stack.wrap(label, original, hook))
        else:
            original = getattr(owner, attr)
            patches.function(original, stack.wrap(label, original, hook))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    stack: SpanStack,
    counters: Dict[str, int],
    wall_ns: int,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    Args:
        stack: The traced run's spans (closed).
        counters: The program's own telemetry counters
            (``repro.obs``) captured over the same run.
        wall_ns: Traced wall time.
        untraced_wall_s: Wall time of the same work with tracing off.
    """
    self_ns, unattributed_ns = stack.partition(wall_ns)
    unreported = {
        label for label in self_ns if f"{label}.self_s" not in PER_LAYER
    }
    if unreported:
        raise ValueError(f"spans without a self-time metric: {unreported}")
    calls = stack.calls
    counts = stack.counts

    def self_s(label: str) -> float:
        return self_ns.get(label, 0) / 1e9

    engine_ns = self_ns.get("engine.step", 0) + self_ns.get("engine.batch", 0)
    reach_hits = counters.get("engine.reach_cache.hits", 0)
    float_hits = counters.get("backend.float_cache.hits", 0)
    return {
        "engine.step.calls": calls.get("engine.step", 0),
        "engine.step.self_s": self_s("engine.step"),
        "engine.batch.calls": calls.get("engine.batch", 0),
        "engine.batch.self_s": self_s("engine.batch"),
        "engine.node_slots": counts.get("engine.node_slots", 0),
        "engine.ns_per_node_slot": _ratio(
            engine_ns, counts.get("engine.node_slots", 0)
        ),
        "engine.reach_cache.hit_ratio": _ratio(
            reach_hits,
            reach_hits + counters.get("engine.reach_cache.misses", 0),
        ),
        "backend.float_cache.hit_ratio": _ratio(
            float_hits,
            float_hits + counters.get("backend.float_cache.misses", 0),
        ),
        "backend.gemm_blocks": counters.get("backend.gemm_blocks", 0),
        "backend.gemm_batches": counters.get("backend.gemm_batches", 0),
        "environment.jam.calls": calls.get("environment.jam", 0),
        "environment.jam.self_s": self_s("environment.jam"),
        "count.calls": calls.get("count", 0),
        "count.self_s": self_s("count"),
        "count.ns_per_node_slot": _ratio(
            self_ns.get("count", 0), counts.get("count.node_slots", 0)
        ),
        "cseek.lockstep.self_s": self_s("cseek.lockstep"),
        "cseek.serial.self_s": self_s("cseek.serial"),
        "cseek.labels.calls": calls.get("cseek.labels", 0),
        "cseek.labels.self_s": self_s("cseek.labels"),
        "exchange.self_s": self_s("exchange"),
        "coloring.self_s": self_s("coloring"),
        "coloring.phases_used": counts.get("coloring.phases_used", 0),
        "dissemination.self_s": self_s("dissemination"),
        "dissemination.phases_run": counts.get("dissemination.phases_run", 0),
        "cgcast.self_s": self_s("cgcast"),
        "xbatch.self_s": self_s("xbatch"),
        "xbatch.groups": counts.get("xbatch.groups", 0),
        "xbatch.points_per_group": _ratio(
            counts.get("xbatch.points", 0), counts.get("xbatch.groups", 0)
        ),
        "executor.trials": counters.get("executor.trials", 0),
        "executor.batches": counters.get("executor.batches", 0),
        "stream.chunks": counters.get("stream.chunks", 0),
        "executor.self_s": self_s("executor"),
        "scenario.lower.self_s": self_s("scenario.lower"),
        "stats.self_s": self_s("stats"),
        "unattributed_s": unattributed_ns / 1e9,
        "trace_overhead": _ratio(wall_ns / 1e9, untraced_wall_s),
    }
