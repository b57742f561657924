"""The benchmark's workloads: inputs, output checks and accounting.

Every workload runs a stock scenario through the public
``repro.scenarios`` API with the benchmark's seed as the master seed.
The checks derive their expectations from the run itself and from the
protocol constants — never from stored rows — so they hold on any seed
and under any random-number scheme.

Import this module only after the program's package is importable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core import ProtocolConstants, count_schedule
from repro.graphs import builders, topologies
from repro.harness.executor import StreamingExecutor, XBatchExecutor
from repro.scenarios import RunContext, ScenarioSpec, lower_points
from repro.scenarios import resolve_scenario, run_scenario
from repro.scenarios.spec import resolve

Row = Dict[str, object]

#: End-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "node_slots_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "trials_run": ("count", "lower"),
    "goal_rate": ("ratio", "higher"),
}

#: Columns that are shares of trials and must lie in [0, 1].
RATE_COLUMNS = ("success", "discovered_fraction", "band_rate")

#: The stopping contract of ``discovery-precision``. Every point stops
#: once the 95% Wilson half-width of its success rate is at most 0.3,
#: after at least 8 and at most 1024 trials. That half-width is at most
#: 0.285 after 8 trials whatever the outcomes, so every point converges
#: in the first round on any seed and ``trials_run`` stays fixed; a
#: change to the stopping rule shows there.
PRECISION = {
    "targets": {"success": 0.3},
    "confidence": 0.95,
    "min_trials": 8,
    "max_trials": 1024,
}

#: First chunk per point of the streamed run. Chunks double per round
#: while a point is unconverged; each round locksteps every unconverged
#: point of the sweep in one execution. Eight trials keep a unit near
#: three seconds, so a run takes the median of several units.
FIRST_CHUNK = 8


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: Workload name on the command line.
        scenario: Stock scenario it runs.
        family: Output family: ``discovery``, ``cgcast`` or ``count``.
        prefix_trials: Trials per point of the untimed prefix that must
            give identical rows under ``jobs="serial"`` and
            ``prefix_jobs``.
        prefix_jobs: The batched strategy the prefix compares against.
        overrides: ``--set``-style overrides applied to the scenario.
    """

    name: str
    scenario: str
    family: str
    prefix_trials: int
    prefix_jobs: str
    overrides: Mapping[str, str] = field(default_factory=dict)

    def spec(self) -> ScenarioSpec:
        return resolve_scenario(self.scenario, dict(self.overrides))

    def prefix_spec(self) -> ScenarioSpec:
        """The same scenario on the fixed-trials path."""
        fixed = {k: v for k, v in self.overrides.items() if k != "precision"}
        return resolve_scenario(self.scenario, fixed)

    def run(self, spec: ScenarioSpec, seed: int) -> List[Row]:
        """One timed unit of work: the whole scenario at ``seed``.

        A spec with a precision contract streams through cross-point
        lockstep chunks; otherwise fixed trials run on the default
        serial executor.
        """
        if spec.precision is not None:
            jobs = StreamingExecutor(
                inner=XBatchExecutor(), initial_chunk=FIRST_CHUNK
            )
            return run_scenario(spec, seed=seed, jobs=jobs).rows
        return run_scenario(spec, seed=seed, jobs="serial").rows

    def run_prefix(self, seed: int, jobs: str) -> List[Row]:
        return run_scenario(
            self.prefix_spec(),
            trials=self.prefix_trials,
            seed=seed,
            jobs=jobs,
        ).rows

    def lower(self, spec: ScenarioSpec, seed: int) -> list:
        """Lower every sweep point (builds the networks)."""
        trials = spec.precision.max_trials if spec.precision else spec.trials
        return list(lower_points(spec, RunContext(trials=trials, seed=seed)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="discovery-precision",
            scenario="markov-vs-poisson",
            family="discovery",
            overrides={"precision": json.dumps(PRECISION)},
            prefix_trials=2,
            prefix_jobs="xbatch",
        ),
        Workload(
            name="broadcast-serial",
            scenario="grid-cgcast-hetero",
            family="cgcast",
            prefix_trials=1,
            prefix_jobs="batch",
            overrides={"trials": "1"},
        ),
        Workload(
            name="count-serial",
            scenario="count-interference",
            family="count",
            overrides={
                "protocol.params.rule": "first_crossing",
                "protocol.params.round_slots": "192",
            },
            prefix_trials=2,
            prefix_jobs="batch",
        ),
    )
}


def canonical(rows: List[Row]) -> str:
    """Byte form of a table's rows, for identity checks."""
    return json.dumps(rows, sort_keys=True)


def _scopes(spec: ScenarioSpec, seed: int) -> List[Dict[str, object]]:
    points = spec.sweep.points() if spec.sweep is not None else [{}]
    return [
        dict(params, seed=seed, point=idx, pseed=seed + idx)
        for idx, params in enumerate(points)
    ]


def cseek_budget(spec: ScenarioSpec, scope: Mapping[str, object]) -> int:
    """CSEEK's scheduled slots for one point, from constants + knowledge.

    Rebuilds the point's network with the public graph builders and
    sizes the schedule the way the paper does: part one is
    ``part1_steps`` COUNT executions, part two ``part2_steps`` back-off
    windows of ``lg Delta`` slots.
    """
    if spec.topology.kind != "random_regular":
        raise ValueError(f"unsupported topology {spec.topology.kind!r}")
    assignment = spec.assignment
    params = dict(resolve(dict(spec.topology.params), scope))
    graph = topologies.random_regular(**params)
    net = builders.build_network(
        graph,
        c=int(resolve(assignment.c, scope)),
        k=int(resolve(assignment.k, scope)),
        seed=int(resolve(assignment.seed, scope)),
        kind=assignment.kind,
    )
    kn = net.knowledge()
    constants = ProtocolConstants.fast()
    rounds, length = count_schedule(kn.max_degree, kn.log_n, constants)
    part1 = constants.part1_steps(kn.c, kn.k, kn.log_n)
    part2 = constants.part2_steps(kn.kmax, kn.k, kn.max_degree, kn.log_n)
    return part1 * rounds * length + part2 * kn.log_delta


def count_slots(spec: ScenarioSpec, scope: Mapping[str, object]) -> int:
    """COUNT's slots for one point: the ``count_schedule`` product."""
    params = dict(resolve(dict(spec.protocol.params), scope))
    constants = ProtocolConstants(
        count_rule=params["rule"],
        count_round_slots=float(params["round_slots"]),
    )
    rounds, length = count_schedule(
        int(params["max_count"]), int(params["log_n"]), constants
    )
    return rounds * length


def point_trials(spec: ScenarioSpec, row: Row) -> int:
    return int(row["trials"]) if spec.precision else int(spec.trials)


def check_rows(
    workload: Workload, spec: ScenarioSpec, rows: List[Row], seed: int
) -> List[Tuple[int, str]]:
    """Output problems as ``(point index, message)``; empty when correct.

    A protocol miss (an undiscovered pair, an uninformed node, an
    estimate outside the band) is a result, not a problem.
    """
    scopes = _scopes(spec, seed)
    problems: List[Tuple[int, str]] = []
    if len(rows) != len(scopes):
        problems.append((-1, f"{len(rows)} rows for {len(scopes)} points"))
        return problems
    precision = spec.precision
    for idx, (row, scope) in enumerate(zip(rows, scopes)):
        for key, value in row.items():
            if isinstance(value, float) and math.isnan(value):
                problems.append((idx, f"{key} is NaN"))
        for key in RATE_COLUMNS:
            if key in row and not 0.0 <= row[key] <= 1.0:
                problems.append((idx, f"{key}={row[key]} outside [0, 1]"))
        if precision is not None:
            trials = row["trials"]
            if not precision.min_trials <= trials <= precision.max_trials:
                problems.append((idx, f"trials={trials} outside bounds"))
            if not (row["converged"] or trials == precision.max_trials):
                problems.append((idx, "neither converged nor at ceiling"))
        if workload.family == "discovery":
            expected = cseek_budget(spec, scope)
            if row["schedule_slots"] != expected:
                problems.append(
                    (
                        idx,
                        f"schedule_slots={row['schedule_slots']}, CSEEK "
                        f"budget is {expected}",
                    )
                )
        elif workload.family == "count":
            expected = count_slots(spec, scope)
            if row["slots"] != expected:
                problems.append(
                    (idx, f"slots={row['slots']}, schedule is {expected}")
                )
        elif workload.family == "cgcast":
            if not (
                isinstance(row["schedule_slots"], int)
                and row["schedule_slots"] > 0
            ):
                problems.append((idx, "schedule_slots not a positive int"))
    return problems


def misses(workload: Workload, spec: ScenarioSpec, rows: List[Row]) -> int:
    """Trials where the protocol missed its goal.

    CSEEK: a true neighbor pair stayed undiscovered (``success``).
    CGCAST: a node stayed uninformed (``success``). COUNT: the estimate
    fell outside ``[m/4, 4m]`` (``band_rate``).
    """
    column = "band_rate" if workload.family == "count" else "success"
    return sum(
        round((1.0 - row[column]) * point_trials(spec, row)) for row in rows
    )


def trials_run(spec: ScenarioSpec, rows: List[Row]) -> int:
    return sum(point_trials(spec, row) for row in rows)


def scheduled_node_slots(
    workload: Workload, spec: ScenarioSpec, rows: List[Row]
) -> Optional[int]:
    """Σ over rows of n × scheduled slots per trial × trials.

    ``None`` for CGCAST, whose ``schedule_slots`` column is one trial's
    realized ledger (most of it charged for oracle exchanges, not
    simulated), so the engine's own count stands in.
    """
    if workload.family == "discovery":
        n = int(spec.topology.params["n"])
        return sum(
            n * row["schedule_slots"] * point_trials(spec, row)
            for row in rows
        )
    if workload.family == "count":
        return sum(
            (int(row["m"]) + 1) * row["slots"] * point_trials(spec, row)
            for row in rows
        )
    return None
