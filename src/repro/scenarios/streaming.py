"""CI-targeted streaming execution of scenarios.

The fixed-trials path (:func:`repro.scenarios.compile.run_scenario_spec`)
materializes every trial outcome and reduces at the end — the reference
semantics golden tables pin. This module is the scalable counterpart:
:func:`stream_scenario_spec` runs the sweep in rounds, folds each
round's outcomes into online accumulators (:mod:`repro.analysis.stats`),
and stops a run as soon as every metric named by the spec's
:class:`~repro.scenarios.spec.PrecisionSpec` that the run carries has a
confidence interval narrower than its target — Wilson for rates,
t-based for means. Easy runs stop at ``min_trials``; hard runs go on to
``max_trials`` (or the run's own smaller ``trials`` override); peak
memory is ``O(chunk)`` throughout, so a million-trial point costs no
more resident state than a thousand-trial one.

Both paths take their points from one source
(:func:`repro.scenarios.compile.scenario_plan`), declarative sweeps and
the paper experiments E1–E12 alike: the same trial closures, seeds,
seed-stream labels and metric :class:`~repro.scenarios.compile.Column`
tuples, so trial ``i`` of a streaming run is bit-identical to trial
``i`` of a fixed run. Every run of every point gets its own
:class:`PointAccumulator` and its own prefix-stable
:class:`~repro.sim.rng.SeedStream`. Each round is one call of the
compiler's sweep driver (:func:`repro.scenarios.compile._execute`) over
the runs still going, with chunks following the streaming executor's
schedule (:meth:`~repro.harness.executor.StreamingExecutor.chunk_sizes`):
``initial_chunk`` doubling per round up to ``chunk_size``. Under
``jobs="xbatch"`` the driver locksteps compatible runs of a round
together; otherwise each run's chunk goes through the inner executor.

At the end each point's reducer receives its runs' accumulated columns
— the same input the fixed path hands it from
:func:`~repro.scenarios.compile.fold_columns`. Rate, constant and
first-outcome columns are exact; mean columns are exact within one
chunk and agree up to floating-point rounding across chunks; median
columns come from the P² sketch, exact below five values and without
an error bound beyond that.

Every row a point emits carries, beyond the fixed path's columns:
``trials`` (the most trials any of the point's runs ran),
``converged`` (whether every run met its targets) and one
``ci_<metric>`` column per target (the widest achieved half-width among
the point's runs that carry the metric, None when none does) — the
provenance campaign manifests record as achieved precision.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

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
    RunContext,
    _execute,
    scenario_plan,
    scenario_table,
)
from repro.scenarios.spec import PrecisionSpec, ScenarioSpec
from repro.sim.rng import RngHub

__all__ = ["PointAccumulator", "stream_scenario_spec"]

Row = Dict[str, object]
Jobs = "int | str | Executor | None"


class PointAccumulator:
    """Online fold of one run's metric columns.

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
#: round toward the cap while a run remains unconverged,
#: so easy runs stop within a few trials of their convergence point
#: instead of overshooting by a whole fixed-size chunk.
ADAPTIVE_START = 64


def _streaming_executor(
    jobs: Jobs, precision: PrecisionSpec
) -> StreamingExecutor:
    """Coerce the jobs knob into a streaming executor.

    Non-streaming values become the per-chunk inner strategy
    (vectorized batch when unspecified). ``precision.chunk`` overrides
    the chunk size when set — it is the spec's declared memory cap.
    Chunks start at :data:`ADAPTIVE_START` trials, or at
    ``precision.min_trials`` when that is smaller (so an easy point can
    stop there), and grow geometrically toward the cap, unless the
    caller hands a ready-made :class:`StreamingExecutor` instance,
    whose settings (including a fixed chunk schedule) are respected.
    """
    start = min(ADAPTIVE_START, precision.min_trials)
    if isinstance(jobs, StreamingExecutor):
        streaming = jobs
    elif jobs is None:
        streaming = StreamingExecutor(initial_chunk=start)
    else:
        resolved = get_executor(jobs)
        if isinstance(resolved, StreamingExecutor):
            streaming = StreamingExecutor(
                chunk_size=resolved.chunk_size,
                inner=resolved.inner,
                initial_chunk=resolved.initial_chunk or start,
            )
        else:
            streaming = StreamingExecutor(inner=resolved, initial_chunk=start)
    if precision.chunk and precision.chunk != streaming.chunk_size:
        streaming = StreamingExecutor(
            chunk_size=precision.chunk,
            inner=streaming.inner,
            initial_chunk=streaming.initial_chunk,
        )
    return streaming


def _targets_met(acc: PointAccumulator, precision: PrecisionSpec) -> bool:
    """Whether every target the run carries is met (vacuous for none)."""
    return all(
        acc.halfwidth(metric, precision.confidence) <= target
        for metric, target in precision.targets.items()
        if metric in acc.targetable
    )


def _stopped(
    acc: PointAccumulator, precision: PrecisionSpec, ceiling: int
) -> bool:
    """The stop rule: the ceiling, or targets met past ``min_trials``."""
    return acc.count >= ceiling or (
        acc.count >= precision.min_trials and _targets_met(acc, precision)
    )


def _provenance(
    accs: Sequence[PointAccumulator], precision: PrecisionSpec
) -> Row:
    """A point's ``trials``, ``converged`` and ``ci_<metric>`` cells."""
    row: Row = {
        "trials": max(acc.count for acc in accs),
        "converged": all(_targets_met(acc, precision) for acc in accs),
    }
    for metric in precision.targets:
        widths = [
            acc.halfwidth(metric, precision.confidence)
            for acc in accs
            if metric in acc.targetable
        ]
        row[f"ci_{metric}"] = max(widths) if widths else None
    return row


def stream_scenario_spec(
    spec: ScenarioSpec,
    seed: int = 0,
    jobs: Jobs = None,
    precision: Optional[PrecisionSpec] = None,
) -> ExperimentTable:
    """Execute a scenario through the streaming path.

    Args:
        spec: The scenario, declarative or plan-based.
        seed: Master seed — trial ``i`` of every run sees the same seed
            the fixed path would derive.
        jobs: Execution strategy for each chunk (default: vectorized
            batch); a ``"stream:N"`` value sets the chunk size too,
            and ``"xbatch"`` locksteps each round's chunks across
            runs with matching cross-point signatures.
        precision: The stopping contract; defaults to the spec's own
            ``precision`` field.

    Returns:
        The scenario's table with ``trials``, ``converged`` and
        ``ci_<metric>`` provenance columns appended to every row.

    Raises:
        HarnessError: when no precision contract is available, a target
            is not a rate or mean column of any run, or a point carries
            none of the targets.
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
    points = scenario_plan(spec, ctx)
    runs = [run for point in points for run in point.runs]
    accs = [PointAccumulator(run.columns) for run in runs]
    ceilings = [
        min(run.trials or precision.max_trials, precision.max_trials)
        for run in runs
    ]
    streams = [RngHub(run.seed).seed_stream(name=run.label) for run in runs]
    active = list(range(len(runs)))
    for chunk in executor.chunk_sizes():
        if not active:
            break
        seed_lists = [
            streams[i].take(min(chunk, ceilings[i] - accs[i].count))
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
        active = [
            i for i in active if not _stopped(accs[i], precision, ceilings[i])
        ]
    point_accs = iter(accs)
    rows: List[Row] = []
    for point in points:
        by_key = {run.key: next(point_accs) for run in point.runs}
        provenance = _provenance(list(by_key.values()), precision)
        metrics = {key: acc.metrics() for key, acc in by_key.items()}
        rows.extend(
            {**row, **provenance} for row in point.reduce(ctx, metrics)
        )
    return scenario_table(spec, rows, ctx)
