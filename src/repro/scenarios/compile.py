"""The scenario compiler: specs -> executable experiment plans.

A compiled scenario is a sequence of :class:`Point` objects, one per
sweep point. Each point names one or more :class:`Run` entries (one
trial callable, seed-stream label, master seed, trial count and metric
:class:`Column` tuple each) plus a reducer turning the runs' folded
columns into table rows.

Every scenario run, fixed or streamed, goes through one sweep driver:
:func:`_execute` takes a list of runs with one seed list per run and
returns each run's outcomes. Under ``jobs="xbatch"`` it groups runs by
cross-point signature into lockstep :func:`~repro.core.run_group`
calls; every other run goes through the executor's ``run``. The
fixed-trials path (:func:`run_scenario_spec`) calls it once per
scenario, folds each run's outcomes with :func:`fold_columns` and then
reduces each point in sweep order; the streaming path
(:mod:`repro.scenarios.streaming`) calls it once per round and folds
the same columns online. Either way a reducer sees folded columns,
never raw outcomes. Per-trial seeds derive before execution, so a
scenario runs serially, on a process pool (``jobs=N``), vectorized over
the trial axis (``jobs="batch"``) or across points (``jobs="xbatch"``)
with identical rows.

:func:`scenario_plan` is the one source of points for both paths.
Declarative specs are lowered here: the topology and assignment specs
build the network, the interference spec becomes a spectrum environment
(:mod:`repro.sim.environment` — Markov, Poisson or static primary-user
traffic), and :func:`protocol_trial` turns the protocol kind and its
params into one trial (built on the factories of
:mod:`repro.scenarios.trials`) plus the kind's :class:`Column` tuple.
Plan-based specs (the paper experiments) supply their Points directly,
taking every protocol-kind run from :func:`protocol_trial` as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.analysis import success_rate, summarize
from repro.baselines import NaiveBroadcast, NaiveDiscovery
from repro.core import (
    CGCast,
    CKSeek,
    CSeek,
    ProtocolConstants,
    count_schedule,
    run_group,
    verify_discovery,
    verify_k_discovery,
)
from repro.graphs import builders, topologies
from repro.harness.executor import Executor, XBatchExecutor, get_executor
from repro.harness.runner import ExperimentTable
from repro.model.errors import HarnessError, ReproError
from repro.model.spec import ceil_log2
from repro.scenarios.spec import ScenarioSpec, resolve
from repro.sim.rng import RngHub
from repro.scenarios.trials import (
    broadcaster_star,
    cgcast_trial,
    count_trial,
    cseek_trial,
)
from repro.sim import SpectrumEnvironment, make_environment

__all__ = [
    "Column",
    "Point",
    "Run",
    "RunContext",
    "fold_columns",
    "lower_points",
    "protocol_trial",
    "run_scenario_spec",
    "scenario_plan",
]

Row = Dict[str, object]
Jobs = int | str | Executor | None


@dataclass
class Run:
    """One trial callable repeated over derived seeds in a sweep point.

    Attributes:
        key: Name under which the run's folded columns reach the
            reducer.
        trial: The trial callable (with ``run_batch`` when batchable).
        label: Seed-stream label (decorrelates runs sharing a seed).
        seed: Master seed for this run's trial-seed derivation.
        columns: The metric columns its outcomes fold into.
        trials: Optional trial-count override (default: the context's);
            on the streaming path it caps ``max_trials``.
    """

    key: str
    trial: Callable[[int], object]
    label: str
    seed: int
    columns: Tuple[Column, ...]
    trials: Optional[int] = None


@dataclass
class Point:
    """One sweep point: runs to execute + a reducer producing rows.

    ``reduce(ctx, metrics)`` receives each run's folded metric columns
    keyed by run name — :func:`fold_columns` on the fixed path,
    :meth:`~repro.scenarios.streaming.PointAccumulator.metrics` on the
    streaming path — and returns the point's table rows (several
    experiments emit more than one row per set of trials). Reducers may
    stash derived values in ``ctx.extras`` for computed notes.
    """

    runs: Sequence[Run]
    reduce: Callable[["RunContext", Dict[str, Row]], List[Row]]


@dataclass
class RunContext:
    """Per-invocation knobs handed to plans, reducers and notes."""

    trials: int
    seed: int
    extras: Dict[str, object] = field(default_factory=dict)


def scenario_plan(spec: ScenarioSpec, ctx: RunContext) -> List[Point]:
    """The spec's points (declarative lowering or its plan), checked.

    With a precision contract, every target must apply to some run of
    the spec and every point must carry some target (see
    :func:`_check_targets`), so a bad contract fails before any trial
    runs.
    """
    if spec.plan is not None:
        points = list(spec.plan(ctx))
    else:
        points = list(lower_points(spec, ctx))
    if spec.precision is not None:
        _check_targets(spec, points)
    return points


def scenario_table(
    spec: ScenarioSpec, rows: List[Row], ctx: RunContext
) -> ExperimentTable:
    """The spec's table over its rows, with notes computed from them."""
    notes = spec.notes(rows, ctx) if callable(spec.notes) else spec.notes
    return ExperimentTable(
        experiment_id=spec.table_id,
        title=spec.title,
        rows=rows,
        notes=notes,
        columns=spec.columns,
    )


def run_scenario_spec(
    spec: ScenarioSpec,
    trials: Optional[int] = None,
    seed: int = 0,
    jobs: Jobs = None,
) -> ExperimentTable:
    """Compile and execute a scenario; return its table.

    Args:
        spec: The scenario to run.
        trials: Trials per sweep point (None = the spec's default).
        seed: Master seed.
        jobs: Execution strategy (see
            :func:`repro.harness.executor.get_executor`); never changes
            rows, only wall-clock. ``jobs="xbatch"`` additionally
            groups sweep points with matching cross-point signatures
            into single lockstep executions.
    """
    executor = get_executor(jobs)
    ctx = RunContext(
        trials=trials if trials is not None else spec.trials, seed=seed
    )
    # The whole sweep executes as one batch of points, so xbatch can
    # group across it; each point then reduces in sweep order.
    points = scenario_plan(spec, ctx)
    runs = [run for point in points for run in point.runs]
    seed_lists = [_trial_seeds(run, ctx) for run in runs]
    folded = (
        fold_columns(run.columns, outs)
        for run, outs in zip(runs, _execute(runs, seed_lists, executor))
    )
    rows: List[Row] = []
    for point in points:
        rows.extend(
            point.reduce(ctx, {run.key: next(folded) for run in point.runs})
        )
    return scenario_table(spec, rows, ctx)


def _trial_seeds(run: Run, ctx: RunContext) -> List[int]:
    """A run's trial seeds, derived as ``run_trials`` derives them."""
    count = run.trials if run.trials is not None else ctx.trials
    if count < 1:
        raise HarnessError(f"trials must be >= 1, got {count}")
    return RngHub(run.seed).spawn_seeds(count, name=run.label)


def _execute(
    runs: Sequence[Run],
    seed_lists: Sequence[List[int]],
    executor: Executor,
    cap: Optional[int] = None,
) -> List[list]:
    """Each run's outcomes over its seeds: the one sweep driver.

    Under an :class:`XBatchExecutor`, runs whose trials carry an
    ``xbatch`` descriptor are grouped by
    :meth:`~repro.core.xbatch.XBatchable.signature` and each group
    runs through :func:`~repro.core.run_group` — one engine call per
    protocol step for the whole group — with at most the executor's
    ``batch_size`` (else ``cap``, else all) trials per lockstep
    execution. Every other run goes through ``executor.run``. Seeds
    are fixed before execution and each trial draws from its own
    generators, so grouping never changes an outcome.
    """
    outcomes: List[Optional[list]] = [None] * len(runs)
    groups: Dict[tuple, List[int]] = {}
    if isinstance(executor, XBatchExecutor):
        for i, run in enumerate(runs):
            xb = getattr(run.trial, "xbatch", None)
            if xb is not None:
                groups.setdefault(xb.signature(), []).append(i)
    for members in groups.values():
        seeds = [seed_lists[i] for i in members]
        obs.count("executor.trials", sum(len(s) for s in seeds))
        group_outcomes = run_group(
            [runs[i].trial.xbatch for i in members],
            seeds,
            executor.batch_size or cap,
        )
        for i, outs in zip(members, group_outcomes):
            outcomes[i] = outs
    return [
        outs if outs is not None else executor.run(run.trial, seeds)
        for run, seeds, outs in zip(runs, seed_lists, outcomes)
    ]


# ----------------------------------------------------------------------
# Declarative lowering
# ----------------------------------------------------------------------
_TOPOLOGY_BUILDERS: Dict[str, Callable] = {
    "star": topologies.star,
    "path": topologies.path,
    "cycle": topologies.cycle,
    "grid": topologies.grid,
    "complete_tree": topologies.complete_tree,
    "path_of_cliques": topologies.path_of_cliques,
    "random_geometric": topologies.random_geometric,
    "erdos_renyi": topologies.erdos_renyi_connected,
    "random_regular": topologies.random_regular,
    "two_node": topologies.two_node,
}
# Generators that take a `seed` argument (defaulted to $pseed).
_SEEDED_TOPOLOGIES = {"random_geometric", "erdos_renyi", "random_regular"}


def _build_net(spec: ScenarioSpec, scope: Dict[str, object]):
    assignment = spec.assignment
    if assignment is None:
        raise HarnessError(
            f"scenario {spec.name!r} needs an assignment spec for "
            f"protocol {spec.protocol.kind!r}"
        )
    if assignment.kind == "random_subsets":
        # White-space lowering: the assignment induces the graph, so
        # there is no topology to build (the spec layer enforces that).
        return builders.build_random_subset_network(
            n=int(resolve(assignment.n, scope)),
            c=int(resolve(assignment.c, scope)),
            k=int(resolve(assignment.k, scope)),
            pool_size=int(resolve(assignment.pool_size, scope)),
            seed=int(resolve(assignment.seed, scope)),
            max_tries=int(resolve(assignment.max_tries, scope)),
        )
    params = dict(resolve(dict(spec.topology.params), scope))
    if spec.topology.kind in _SEEDED_TOPOLOGIES:
        params.setdefault("seed", scope["pseed"])
    graph = _TOPOLOGY_BUILDERS[spec.topology.kind](**params)
    return builders.build_network(
        graph,
        c=int(resolve(assignment.c, scope)),
        k=int(resolve(assignment.k, scope)),
        seed=int(resolve(assignment.seed, scope)),
        kind=assignment.kind,
        kmax=(
            None
            if assignment.kmax is None
            else int(resolve(assignment.kmax, scope))
        ),
        high_fraction=float(resolve(assignment.high_fraction, scope)),
    )


def _environment(
    spec: ScenarioSpec,
    scope: Dict[str, object],
    channel_ids: Sequence[int],
) -> Optional[SpectrumEnvironment]:
    """Lower the interference spec into a spectrum environment.

    Returns None when the sweep point disables interference (zero
    activity, or an empty blocked set for the static model), so
    downstream trial factories skip jam masks entirely. Invalid
    resolved model names fail here with the environment layer's error.
    """
    inter = spec.interference
    if inter is None:
        return None
    blocked = resolve(inter.blocked, scope)
    # A list activity is a per-channel vector (aligned with the sorted
    # channel universe); scalars keep the homogeneous behavior.
    activity = resolve(inter.activity, scope)
    if isinstance(activity, (list, tuple)):
        activity = [float(a) for a in activity]
    else:
        activity = float(activity)
    return make_environment(
        str(resolve(inter.model, scope)),
        sorted(channel_ids),
        activity=activity,
        mean_dwell=float(resolve(inter.mean_dwell, scope)),
        seed_offset=int(resolve(inter.seed_offset, scope)),
        blocked=None if blocked is None else list(blocked),
    )


@dataclass(frozen=True)
class Column:
    """One metric column of a protocol kind's table.

    ``kind`` says how a point's outcomes fold into the column:
    ``const`` reports ``value``; ``first`` the ``pick`` of the first
    outcome; ``rate`` the fraction of truthy picks; ``mean`` the mean of
    the non-None picks (None when there are none); ``median`` the
    median of the picks. Rate and mean columns are CI-targetable.
    """

    name: str
    kind: str
    pick: Optional[Callable[[object], object]] = None
    value: object = None


#: Column kinds the streaming path can stop on (Wilson / t intervals).
TARGETABLE_KINDS = ("rate", "mean")


def fold_columns(columns: Sequence[Column], outcomes: list) -> Row:
    """The metric columns of a point's materialized outcomes."""
    row: Row = {}
    for col in columns:
        if col.kind == "const":
            row[col.name] = col.value
            continue
        picks = [col.pick(o) for o in outcomes]
        if col.kind == "first":
            row[col.name] = picks[0]
        elif col.kind == "rate":
            row[col.name] = success_rate(picks)
        elif col.kind == "mean":
            kept = [p for p in picks if p is not None]
            row[col.name] = summarize(kept).mean if kept else None
        else:
            row[col.name] = float(np.median(picks))
    return row


def _point_row(spec: ScenarioSpec, params: Row, metrics: Row) -> Row:
    """A point's table row: its sweep params, then the chosen metrics."""
    if spec.metrics is not None:
        metrics = {k: metrics[k] for k in spec.metrics}
    return {**params, **metrics}


def _check_metrics(spec: ScenarioSpec, columns: Sequence[Column]) -> None:
    """Fail before execution on requested metrics no column provides."""
    names = [col.name for col in columns]
    unknown = set(spec.metrics or ()) - set(names)
    if unknown:
        raise HarnessError(
            f"scenario {spec.name!r} requests unknown metrics: "
            f"{', '.join(sorted(unknown))}; available: {', '.join(names)}"
        )


def _check_targets(spec: ScenarioSpec, points: Sequence[Point]) -> None:
    """Fail before execution on precision targets no run can stop on.

    A target applies to each run that carries it as a rate or mean
    column. A target that applies to no run of the spec fails, and so
    does a point none of whose runs any target applies to.
    """
    targets = set(spec.precision.targets)
    carried = [
        {
            col.name
            for run in point.runs
            for col in run.columns
            if col.kind in TARGETABLE_KINDS
        }
        for point in points
    ]
    everywhere = set().union(*carried)
    missing = sorted(targets - everywhere)
    if missing:
        raise HarnessError(
            f"scenario {spec.name!r}: precision target "
            f"{', '.join(map(repr, missing))} is not a rate or mean "
            "column of any run; targetable: "
            f"{', '.join(sorted(everywhere)) or 'none'}"
        )
    for idx, (point, names) in enumerate(zip(points, carried)):
        if not names & targets:
            labels = ", ".join(run.label for run in point.runs)
            raise HarnessError(
                f"scenario {spec.name!r}, point {idx} (runs {labels}): "
                "no run carries a precision target "
                f"({', '.join(sorted(targets))}); targetable here: "
                f"{', '.join(sorted(names)) or 'none'}"
            )


def _discovered_fraction(result, truth) -> float:
    """Fraction of true (listener, neighbor) pairs the run discovered."""
    total = sum(len(s) for s in truth)
    if total == 0:
        return 1.0
    found = sum(
        len(result.discovered[u] & set(truth[u]))
        for u in range(len(truth))
    )
    return found / total


def _completion(outcome) -> Optional[object]:
    """An ``(ok, slot, ...)`` outcome's slot when it succeeded."""
    return outcome[1] if outcome[0] else None


# Discovery outcomes are ``(success, completion_slot, total_slots,
# discovered_fraction)``; the fraction keeps starved-budget ablations
# informative where binary success saturates at 0 or 1.
_DISCOVERY_COLUMNS = (
    Column("success", "rate", itemgetter(0)),
    Column("discovered_fraction", "mean", itemgetter(3)),
    Column("mean_completion", "mean", _completion),
    Column("schedule_slots", "first", itemgetter(2)),
)
# CGCAST: ``(success, dissemination_slots, total_slots)``.
_CGCAST_COLUMNS = (
    Column("success", "rate", itemgetter(0)),
    Column("mean_dissemination", "mean", _completion),
    Column("schedule_slots", "first", itemgetter(2)),
)
# Naive broadcast: ``(success, completion_slot)``.
_BROADCAST_COLUMNS = (
    Column("success", "rate", itemgetter(0)),
    Column("mean_completion", "mean", _completion),
)


def protocol_trial(
    kind: str,
    params: Row,
    net=None,
    environment: Optional[SpectrumEnvironment] = None,
) -> Tuple[Callable[[int], object], Tuple[Column, ...]]:
    """One trial of a protocol kind and the metric columns it reports.

    The only definition of what a trial of each protocol kind runs,
    returns and reports: declarative sweep points (:func:`_lower_point`)
    and the paper experiments (:mod:`repro.scenarios.paper`) both take
    their runs here and fold the outcomes with :func:`fold_columns`.
    The seed-0 protocol is built before this returns (for
    ``cseek``/``ckseek``/``cgcast`` it is the one the trial's
    ``xbatch`` descriptor runs), so invalid params raise before any
    trial runs.

    Args:
        kind: ``count``, ``cseek``, ``ckseek``, ``cgcast``,
            ``naive_discovery`` or ``naive_broadcast``.
        params: The kind's resolved protocol params.
        net: The network (every kind but ``count``).
        environment: Primary-user traffic, or None for none.

    Raises:
        HarnessError: for a missing or invalid ``count``/``ckseek``
            param, or ``naive_broadcast`` with active interference.
        ProtocolError / TypeError: from the protocol's constructor, for
            an invalid value or an unknown param.
    """
    params = dict(params)

    if kind == "count":
        unknown = set(params) - {
            "m", "max_count", "log_n", "rule", "round_slots"
        }
        if unknown:
            raise HarnessError(
                f"count protocol has no params {sorted(unknown)}"
            )
        if "m" not in params:
            raise HarnessError(
                "count protocol needs an 'm' parameter (broadcaster count)"
            )
        m = int(params["m"])
        if m < 1:
            raise HarnessError(f"count protocol needs m >= 1, got {m}")
        max_count = int(params.get("max_count", m))
        if max_count < 1:
            raise HarnessError(
                f"count protocol needs max_count >= 1, got {max_count}"
            )
        log_n = int(params.get("log_n", ceil_log2(m + 1)))
        if log_n < 1:
            raise HarnessError(
                f"count protocol needs log_n >= 1, got {log_n}"
            )
        consts_kwargs = {"count_rule": params.get("rule", "argmax")}
        if "round_slots" in params:
            consts_kwargs["count_round_slots"] = float(params["round_slots"])
        constants = ProtocolConstants(**consts_kwargs)
        adj, channels, tx_role = broadcaster_star(m)
        trial = count_trial(
            adj,
            channels,
            tx_role,
            max_count=max_count,
            log_n=log_n,
            constants=constants,
            postprocess=lambda est: float(est[0]),
            environment=environment,
        )
        rounds, length = count_schedule(max_count, log_n, constants)
        # Lemma 1's factor-4 band around the true broadcaster count.
        return trial, (
            Column("median_ratio", "median", lambda e: e / m),
            Column("band_rate", "rate", lambda e: m / 4 <= e <= 4 * m),
            Column("slots", "const", value=rounds * length),
        )

    if kind in ("cseek", "ckseek"):
        if kind == "ckseek":
            if "khat" not in params:
                raise HarnessError("ckseek needs a 'khat' parameter")
            khat = int(params.pop("khat"))
            delta_khat = params.pop("delta_khat", "auto")
            if delta_khat == "auto":
                delta_khat = net.max_good_degree(khat)
            truth = net.good_neighbor_sets(khat)

            def make_protocol(s):
                return CKSeek(
                    net, khat=khat, delta_khat=delta_khat, seed=s, **params
                )

            def verify(result):
                return verify_k_discovery(result, net, khat=khat)

            columns = (
                Column("khat", "const", value=khat),
                Column("delta_khat", "const", value=delta_khat),
                *_DISCOVERY_COLUMNS,
            )
        else:
            truth = net.true_neighbor_sets()

            def make_protocol(s):
                return CSeek(net, seed=s, **params)

            def verify(result):
                return verify_discovery(result, net)

            columns = _DISCOVERY_COLUMNS

        def postprocess(result):
            report = verify(result)
            return (
                report.success,
                report.completion_slot,
                result.total_slots,
                _discovered_fraction(result, truth),
            )

        trial = cseek_trial(
            make_protocol, postprocess, environment=environment
        )
        trial.xbatch.batch  # builds (and validates) the seed-0 protocol
        return trial, columns

    if kind == "cgcast":
        source = int(params.pop("source", 0))

        def make_cgcast(s, discovery=None):
            return CGCast(
                net, source=source, seed=s, discovery=discovery,
                environment=environment, **params,
            )

        def cg_outcome(result):
            return (
                result.success,
                result.ledger.get("dissemination"),
                result.total_slots,
            )

        trial = cgcast_trial(
            make_cgcast, cg_outcome, environment=environment
        )
        trial.xbatch.batch  # builds (and validates) the seed-0 protocol
        return trial, _CGCAST_COLUMNS

    if "max_slots" in params:
        params["max_slots"] = int(params["max_slots"])

    if kind == "naive_discovery":
        truth = net.true_neighbor_sets()
        NaiveDiscovery(net, seed=0, environment=environment, **params)

        def nd_trial(s):
            nd = NaiveDiscovery(
                net, seed=s, environment=environment, **params
            )
            result = nd.run()
            report = nd.verify(result)
            return (
                report.success,
                report.completion_slot,
                result.total_slots,
                _discovered_fraction(result, truth),
            )

        return nd_trial, _DISCOVERY_COLUMNS

    # naive_broadcast
    if environment is not None:
        raise HarnessError(
            "naive_broadcast has no primary-user traffic model, but this "
            "point has active interference; drop the interference spec "
            "or sweep its activity at 0"
        )
    source = int(params.pop("source", 0))
    NaiveBroadcast(net, source=source, seed=0, **params)

    def nb_trial(s):
        result = NaiveBroadcast(net, source=source, seed=s, **params).run()
        return result.success, result.completion_slot

    return nb_trial, _BROADCAST_COLUMNS


def _lower_point(
    spec: ScenarioSpec, ctx: RunContext, idx: int, params: Row
) -> Point:
    """One declarative sweep point: scope, network, environment, trial.

    A protocol param that its kind rejects, or a requested metric no
    column provides, fails here, naming the scenario (and for a param
    the sweep point), before any trial runs. The point's one row is its
    sweep params, then its folded columns.
    """
    scope: Dict[str, object] = dict(params)
    scope.update(seed=ctx.seed, point=idx, pseed=ctx.seed + idx)
    kind = spec.protocol.kind
    proto_params = dict(resolve(dict(spec.protocol.params), scope))
    net = None if kind == "count" else _build_net(spec, scope)
    environment = _environment(
        spec,
        scope,
        [0] if net is None else sorted(net.assignment.universe()),
    )
    try:
        trial, columns = protocol_trial(kind, proto_params, net, environment)
    except (ReproError, TypeError, ValueError) as exc:
        raise HarnessError(
            f"scenario {spec.name!r}, sweep point {idx} {params}: "
            f"invalid {kind} params: {exc}"
        ) from exc

    _check_metrics(spec, columns)

    def reduce(ctx, metrics):
        return [_point_row(spec, params, metrics[kind])]

    return Point(
        [Run(kind, trial, f"{spec.name}[{idx}]", ctx.seed, columns)], reduce
    )


def lower_points(spec: ScenarioSpec, ctx: RunContext) -> Iterable[Point]:
    """Lower a declarative spec's sweep into :class:`Point`\\ s.

    One :func:`_lower_point` call per sweep point; each point's
    ``metrics`` selection is checked against its columns as it lowers,
    so a bad name fails before any trial runs.

    Raises:
        HarnessError: for plan-based specs, which have no declarative
            lowering; for a protocol param its kind rejects; for a
            requested metric no column provides.
    """
    if spec.plan is not None:
        raise HarnessError(
            f"scenario {spec.name!r} is code-defined (plan-based) and "
            "has no declarative lowering"
        )
    points = spec.sweep.points() if spec.sweep is not None else [{}]
    for idx, params in enumerate(points):
        yield _lower_point(spec, ctx, idx, params)
