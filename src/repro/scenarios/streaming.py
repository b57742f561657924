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
lower_points`): the same trial closures, seeds and seed-stream labels
and the same metric :class:`~repro.scenarios.compile.Column` tuple, so
trial ``i`` of a streaming run is bit-identical to trial ``i`` of a
fixed run — only the aggregation differs. Rate, constant and
first-outcome columns are exact; mean columns are exact within one
chunk and agree up to floating-point rounding across chunks; median
columns come from the P² sketch, exact below five values and without
an error bound beyond that.

Each streamed row carries, beyond the fixed path's columns: ``trials``
(how many the point actually ran), ``converged`` (whether every target
was met before ``max_trials``) and one ``ci_<metric>`` column per
target (the achieved half-width) — the provenance campaign manifests
record as achieved precision.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

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
    TARGETABLE_KINDS,
    Column,
    LoweredPoint,
    RunContext,
    _execute,
    _point_row,
    lower_points,
)
from repro.scenarios.spec import PrecisionSpec, ScenarioSpec
from repro.sim.rng import RngHub

__all__ = ["PointAccumulator", "stream_scenario_spec"]

Row = Dict[str, object]
Jobs = "int | str | Executor | None"


class PointAccumulator:
    """Online fold of one sweep point's metric columns.

    Folds the same :class:`~repro.scenarios.compile.Column` tuple the
    fixed path's :func:`~repro.scenarios.compile.fold_columns` reduces:
    rate columns into a :class:`StreamingRate`, mean columns into
    :class:`StreamingMoments`, median columns into a
    :class:`P2Quantile`; ``first`` keeps the first outcome's pick and
    ``const`` its value. :meth:`metrics` reports the columns in order,
    and :meth:`halfwidth` the achieved CI half-width of a rate or mean
    column.
    """

    def __init__(self, columns: Sequence[Column]) -> None:
        self.columns = tuple(columns)
        self.count = 0
        #: Column name -> kind, for the CI-targetable columns.
        self.targetable = {
            col.name: col.kind
            for col in self.columns
            if col.kind in TARGETABLE_KINDS
        }
        self._state: Dict[str, object] = {}
        for col in self.columns:
            if col.kind == "rate":
                self._state[col.name] = StreamingRate()
            elif col.kind == "mean":
                self._state[col.name] = StreamingMoments()
            elif col.kind == "median":
                self._state[col.name] = P2Quantile(0.5)

    def consume(self, outcomes: list) -> None:
        """Fold one chunk of trial outcomes into the accumulator."""
        first_chunk = self.count == 0
        self.count += len(outcomes)
        for col in self.columns:
            if col.kind == "const":
                continue
            if col.kind == "first":
                if first_chunk:
                    self._state[col.name] = col.pick(outcomes[0])
                continue
            picks = [col.pick(o) for o in outcomes]
            if col.kind == "mean":
                picks = [p for p in picks if p is not None]
            self._state[col.name].update(picks)

    def metrics(self) -> Row:
        """The point's metric columns (fixed-path names and order)."""
        row: Row = {}
        for col in self.columns:
            state = self._state.get(col.name)
            if col.kind == "const":
                row[col.name] = col.value
            elif col.kind == "first":
                row[col.name] = state
            elif col.kind == "rate":
                row[col.name] = state.rate()
            elif col.kind == "mean":
                row[col.name] = state.mean if state.count else None
            else:
                row[col.name] = state.value()
        return row

    def halfwidth(self, metric: str, confidence: float) -> float:
        """Achieved CI half-width for a targetable metric.

        ``math.inf`` while the metric is not yet resolvable (no
        outcomes, or a conditional mean with fewer than two samples).

        Raises:
            HarnessError: for a metric that is not a rate or mean
                column.
        """
        kind = self.targetable.get(metric)
        if kind is None:
            raise HarnessError(
                f"metric {metric!r} is not CI-targetable here; "
                f"targetable: {', '.join(sorted(self.targetable))}"
            )
        state = self._state[metric]
        if kind == "rate":
            return state.halfwidth(confidence)
        return mean_halfwidth(state.count, state.std, confidence)


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
    row = _point_row(spec, lowered.params, acc.metrics())
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
            is plan-based, or a target names a metric that is not a
            rate or mean column of its protocol.
    """
    if precision is not None:
        spec = replace(spec, precision=precision)
    precision = spec.precision
    if precision is None:
        raise HarnessError(
            f"scenario {spec.name!r} has no precision contract; set one "
            "on the spec (or pass precision=) to stream with "
            "CI-targeted stopping"
        )
    executor = _streaming_executor(jobs, precision)
    ctx = RunContext(trials=precision.max_trials, seed=seed)
    lowered = list(lower_points(spec, ctx))
    accs = [PointAccumulator(lp.columns) for lp in lowered]
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
