"""CI-targeted streaming execution of declarative scenarios.

The fixed-trials path (:func:`repro.scenarios.compile.run_scenario_spec`)
materializes every trial outcome and reduces at the end — the reference
semantics golden tables pin. This module is the scalable counterpart:
:func:`stream_scenario_spec` runs the sweep in rounds, folds each
round's outcomes into online accumulators (:mod:`repro.analysis.stats`),
and stops a point as soon as every metric named by the spec's
:class:`~repro.scenarios.spec.PrecisionSpec` has a confidence interval
narrower than its target — Wilson for rates, t-based for means. Easy
points stop at ``min_trials``; hard points run until ``max_trials``;
peak memory is ``O(chunk)`` throughout, so a million-trial point costs
no more resident state than a thousand-trial one.

Each round is one call of the compiler's sweep driver
(:func:`repro.scenarios.compile._execute`) over the points still
running, with the next chunk of seeds from each point's own
prefix-stable :class:`~repro.sim.rng.SeedStream`. Chunks follow the
streaming executor's schedule
(:meth:`~repro.harness.executor.StreamingExecutor.chunk_sizes`):
``initial_chunk`` doubling per round up to ``chunk_size``. Under
``jobs="xbatch"`` the driver locksteps compatible points of a round
together; otherwise each point's chunk goes through the inner executor.

Both paths share one lowering (:func:`repro.scenarios.compile.
lower_points`): the same trial closures, seeds and seed-stream labels,
so trial ``i`` of a streaming run is bit-identical to trial ``i`` of a
fixed run — only the aggregation differs (exactly for counts, means and
extrema; via the P² sketch for the median-family columns).

Each streamed row carries, beyond the fixed path's columns: ``trials``
(how many the point actually ran), ``converged`` (whether every target
was met before ``max_trials``) and one ``ci_<metric>`` column per
target (the achieved half-width) — the provenance campaign manifests
record as achieved precision.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import obs
from repro.analysis.stats import (
    P2Quantile,
    StreamingMoments,
    StreamingRate,
    mean_halfwidth,
)
from repro.harness.executor import Executor, StreamingExecutor, get_executor
from repro.harness.runner import ExperimentTable
from repro.model.errors import HarnessError
from repro.scenarios.compile import (
    LoweredPoint,
    RunContext,
    _execute,
    _filter_metrics,
    lower_points,
)
from repro.scenarios.spec import PrecisionSpec, ScenarioSpec
from repro.sim.rng import RngHub

__all__ = ["PointAccumulator", "make_accumulator", "stream_scenario_spec"]

Row = Dict[str, object]
Jobs = "int | str | Executor | None"


class PointAccumulator:
    """Online metric state for one sweep point.

    Subclasses mirror one reducer family from
    :mod:`repro.scenarios.compile`: :meth:`consume` folds a chunk of
    trial outcomes in, :meth:`metrics` reports the family's columns
    (same names, same order as the fixed path), and :meth:`halfwidth`
    gives the achieved CI half-width for any targetable metric.
    """

    #: metric name -> "rate" (Wilson interval) or "mean" (t interval).
    targetable: Dict[str, str] = {}

    def __init__(self, lowered: LoweredPoint) -> None:
        self.static = dict(lowered.static)
        self.count = 0

    def consume(self, outcomes: list) -> None:
        """Fold one chunk of trial outcomes into the accumulator."""
        raise NotImplementedError

    def metrics(self) -> Row:
        """The point's metric columns (fixed-path names and order)."""
        raise NotImplementedError

    def halfwidth(self, metric: str, confidence: float) -> float:
        """Achieved CI half-width for a targetable metric.

        ``math.inf`` while the metric is not yet resolvable (no
        outcomes, or a conditional mean with fewer than two samples).

        Raises:
            HarnessError: for a metric this family cannot target.
        """
        kind = self.targetable.get(metric)
        if kind is None:
            raise HarnessError(
                f"metric {metric!r} is not CI-targetable here; "
                f"targetable: {', '.join(sorted(self.targetable))}"
            )
        if kind == "rate":
            return self._rate(metric).halfwidth(confidence)
        moments = self._moments(metric)
        return mean_halfwidth(moments.count, moments.std, confidence)

    def _rate(self, metric: str) -> StreamingRate:
        raise NotImplementedError

    def _moments(self, metric: str) -> StreamingMoments:
        raise NotImplementedError


class CountAccumulator(PointAccumulator):
    """COUNT estimates: ``median_ratio`` / ``band_rate`` / ``slots``.

    ``band_rate`` (the fraction of estimates within a factor 4 of the
    true broadcaster count) is the targetable rate; ``median_ratio``
    is a median and therefore reported via the P² sketch but never
    targeted.
    """

    targetable = {"band_rate": "rate"}

    def __init__(self, lowered: LoweredPoint) -> None:
        super().__init__(lowered)
        self._m = float(lowered.context["m"])
        self._ratio = P2Quantile(0.5)
        self._band = StreamingRate()

    def consume(self, outcomes: list) -> None:
        m = self._m
        self.count += len(outcomes)
        self._ratio.update([e / m for e in outcomes])
        self._band.update([m / 4 <= e <= 4 * m for e in outcomes])

    def metrics(self) -> Row:
        return {
            "median_ratio": self._ratio.value(),
            "band_rate": self._band.rate(),
            "slots": self.static["slots"],
        }

    def _rate(self, metric: str) -> StreamingRate:
        return self._band


class DiscoveryAccumulator(PointAccumulator):
    """Discovery outcomes ``(ok, completion, total_slots, fraction)``.

    Covers cseek, ckseek and naive_discovery; static columns
    (``khat``/``delta_khat``) pass through ahead of the metrics, as in
    the fixed reducer.
    """

    targetable = {
        "success": "rate",
        "discovered_fraction": "mean",
        "mean_completion": "mean",
    }

    def __init__(self, lowered: LoweredPoint) -> None:
        super().__init__(lowered)
        self._success = StreamingRate()
        self._fraction = StreamingMoments()
        self._completion = StreamingMoments()
        self._slots: Optional[object] = None

    def consume(self, outcomes: list) -> None:
        self.count += len(outcomes)
        if self._slots is None and outcomes:
            self._slots = outcomes[0][2]
        self._success.update([ok for ok, _, _, _ in outcomes])
        self._fraction.update([f for _, _, _, f in outcomes])
        self._completion.update(
            [t for ok, t, _, _ in outcomes if ok and t is not None]
        )

    def metrics(self) -> Row:
        return {
            **self.static,
            "success": self._success.rate(),
            "discovered_fraction": self._fraction.mean,
            "mean_completion": (
                self._completion.mean if self._completion.count else None
            ),
            "schedule_slots": self._slots,
        }

    def _rate(self, metric: str) -> StreamingRate:
        return self._success

    def _moments(self, metric: str) -> StreamingMoments:
        if metric == "discovered_fraction":
            return self._fraction
        return self._completion


class CGCastAccumulator(PointAccumulator):
    """CGCAST outcomes ``(ok, dissemination, total_slots)``."""

    targetable = {"success": "rate", "mean_dissemination": "mean"}

    def __init__(self, lowered: LoweredPoint) -> None:
        super().__init__(lowered)
        self._success = StreamingRate()
        self._dissemination = StreamingMoments()
        self._slots: Optional[object] = None

    def consume(self, outcomes: list) -> None:
        self.count += len(outcomes)
        if self._slots is None and outcomes:
            self._slots = outcomes[0][2]
        self._success.update([ok for ok, _, _ in outcomes])
        self._dissemination.update(
            [d for ok, d, _ in outcomes if ok and d is not None]
        )

    def metrics(self) -> Row:
        return {
            "success": self._success.rate(),
            "mean_dissemination": (
                self._dissemination.mean
                if self._dissemination.count
                else None
            ),
            "schedule_slots": self._slots,
        }

    def _rate(self, metric: str) -> StreamingRate:
        return self._success

    def _moments(self, metric: str) -> StreamingMoments:
        return self._dissemination


class BroadcastAccumulator(PointAccumulator):
    """Naive-broadcast outcomes ``(ok, completion_slot)``."""

    targetable = {"success": "rate", "mean_completion": "mean"}

    def __init__(self, lowered: LoweredPoint) -> None:
        super().__init__(lowered)
        self._success = StreamingRate()
        self._completion = StreamingMoments()

    def consume(self, outcomes: list) -> None:
        self.count += len(outcomes)
        self._success.update([ok for ok, _ in outcomes])
        self._completion.update(
            [t for ok, t in outcomes if ok and t is not None]
        )

    def metrics(self) -> Row:
        return {
            "success": self._success.rate(),
            "mean_completion": (
                self._completion.mean if self._completion.count else None
            ),
        }

    def _rate(self, metric: str) -> StreamingRate:
        return self._success

    def _moments(self, metric: str) -> StreamingMoments:
        return self._completion


_FAMILIES = {
    "count": CountAccumulator,
    "discovery": DiscoveryAccumulator,
    "cgcast": CGCastAccumulator,
    "broadcast": BroadcastAccumulator,
}


def make_accumulator(lowered: LoweredPoint) -> PointAccumulator:
    """The accumulator matching a lowered point's metric family."""
    try:
        cls = _FAMILIES[lowered.family]
    except KeyError:
        raise HarnessError(
            f"no streaming accumulator for metric family "
            f"{lowered.family!r}"
        ) from None
    return cls(lowered)


#: First chunk size of the scenario streaming path; chunks double per
#: round toward the cap while a point remains unconverged,
#: so easy points stop within a few trials of their convergence point
#: instead of overshooting by a whole fixed-size chunk.
ADAPTIVE_START = 64


def _streaming_executor(
    jobs: Jobs, precision: PrecisionSpec
) -> StreamingExecutor:
    """Coerce the jobs knob into a streaming executor.

    Non-streaming values become the per-chunk inner strategy
    (vectorized batch when unspecified). ``precision.chunk`` overrides
    the chunk size when set — it is the spec's declared memory cap.
    Chunks start at :data:`ADAPTIVE_START` trials and grow
    geometrically toward the cap, unless the caller hands a ready-made
    :class:`StreamingExecutor` instance, whose settings (including a
    fixed chunk schedule) are respected.
    """
    if isinstance(jobs, StreamingExecutor):
        streaming = jobs
    elif jobs is None:
        streaming = StreamingExecutor(initial_chunk=ADAPTIVE_START)
    else:
        resolved = get_executor(jobs)
        if isinstance(resolved, StreamingExecutor):
            streaming = StreamingExecutor(
                chunk_size=resolved.chunk_size,
                inner=resolved.inner,
                initial_chunk=resolved.initial_chunk or ADAPTIVE_START,
            )
        else:
            streaming = StreamingExecutor(
                inner=resolved, initial_chunk=ADAPTIVE_START
            )
    if precision.chunk and precision.chunk != streaming.chunk_size:
        streaming = StreamingExecutor(
            chunk_size=precision.chunk,
            inner=streaming.inner,
            initial_chunk=streaming.initial_chunk,
        )
    return streaming


def _validate_targets(
    spec: ScenarioSpec,
    precision: PrecisionSpec,
    acc: PointAccumulator,
    lowered: LoweredPoint,
) -> None:
    for metric in precision.targets:
        if metric not in acc.targetable:
            raise HarnessError(
                f"scenario {spec.name!r}: precision target "
                f"{metric!r} is not CI-targetable for protocol "
                f"family {lowered.family!r}; targetable: "
                f"{', '.join(sorted(acc.targetable)) or 'none'}"
            )


def _targets_met(acc: PointAccumulator, precision: PrecisionSpec) -> bool:
    return all(
        acc.halfwidth(metric, precision.confidence) <= target
        for metric, target in precision.targets.items()
    )


def _stopped(acc: PointAccumulator, precision: PrecisionSpec) -> bool:
    """The stop rule: ``max_trials``, or targets met past ``min_trials``."""
    return acc.count >= precision.max_trials or (
        acc.count >= precision.min_trials and _targets_met(acc, precision)
    )


def _finish_row(
    spec: ScenarioSpec,
    precision: PrecisionSpec,
    lowered: LoweredPoint,
    acc: PointAccumulator,
) -> Row:
    row = _filter_metrics(spec, lowered.params, acc.metrics())[0]
    row["trials"] = acc.count
    row["converged"] = _targets_met(acc, precision)
    for metric in precision.targets:
        row[f"ci_{metric}"] = acc.halfwidth(metric, precision.confidence)
    return row


def stream_scenario_spec(
    spec: ScenarioSpec,
    seed: int = 0,
    jobs: Jobs = None,
    precision: Optional[PrecisionSpec] = None,
) -> ExperimentTable:
    """Execute a declarative scenario through the streaming path.

    Args:
        spec: The scenario; must be declarative.
        seed: Master seed — trial ``i`` of every point sees the same
            seed the fixed path would derive.
        jobs: Execution strategy for each chunk (default: vectorized
            batch); a ``"stream:N"`` value sets the chunk size too,
            and ``"xbatch"`` locksteps each round's chunks across
            sweep points with matching cross-point signatures.
        precision: The stopping contract; defaults to the spec's own
            ``precision`` field.

    Returns:
        The scenario's table, one row per sweep point, with ``trials``,
        ``converged`` and ``ci_<metric>`` provenance columns appended.

    Raises:
        HarnessError: when no precision contract is available, the spec
            is plan-based, or a target names a metric its protocol
            family cannot CI-target.
    """
    precision = precision if precision is not None else spec.precision
    if precision is None:
        raise HarnessError(
            f"scenario {spec.name!r} has no precision contract; set one "
            "on the spec (or pass precision=) to stream with "
            "CI-targeted stopping"
        )
    executor = _streaming_executor(jobs, precision)
    ctx = RunContext(trials=precision.max_trials, seed=seed)
    lowered = list(lower_points(spec, ctx))
    accs = [make_accumulator(lp) for lp in lowered]
    for lp, acc in zip(lowered, accs):
        _validate_targets(spec, precision, acc, lp)
    runs = [lp.point.runs[0] for lp in lowered]
    streams = [RngHub(run.seed).seed_stream(name=run.label) for run in runs]
    active = list(range(len(lowered)))
    for chunk in executor.chunk_sizes():
        if not active:
            break
        seed_lists = [
            streams[i].take(min(chunk, precision.max_trials - accs[i].count))
            for i in active
        ]
        obs.count("stream.chunks", len(active))
        with obs.span("chunk"):
            outcomes = _execute(
                [runs[i] for i in active],
                seed_lists,
                executor.inner,
                cap=executor.chunk_size,
            )
        for i, outs in zip(active, outcomes):
            accs[i].consume(outs)
        active = [i for i in active if not _stopped(accs[i], precision)]
    rows = [
        _finish_row(spec, precision, lp, acc)
        for lp, acc in zip(lowered, accs)
    ]
    notes = spec.notes(rows, ctx) if callable(spec.notes) else spec.notes
    return ExperimentTable(
        experiment_id=spec.table_id,
        title=spec.title,
        rows=rows,
        notes=notes,
        columns=spec.columns,
    )
