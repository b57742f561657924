"""The campaign orchestrator: resumable multi-scenario execution.

:func:`run_campaign` turns a :class:`~repro.campaigns.spec.CampaignSpec`
into a stored run: every entry resolves up front (bad entries fail the
campaign before anything executes), completed entries are skipped via
their store manifests, and the remainder execute — serially or across a
campaign-level process pool (``campaign_jobs``) *on top of* whatever
per-trial executor each entry uses (``jobs``), since campaign workers
are ordinary non-daemonic processes.

Determinism contract: an entry's rows depend only on (scenario spec,
trials, seed, code) — the executor layer guarantees ``jobs`` never
perturbs rows — so the store key
(:func:`repro.harness.cache.cache_key` with the scenario's digest) is a
proof of bit-identity. Interrupting a campaign at any point and
re-running it therefore produces exactly the rows an uninterrupted run
would have produced: finished entries replay from ``rows.json``,
unfinished ones re-run from their derived seeds.

The progress log is *ordered*: results are consumed in entry order even
when the pool finishes them out of order, so two runs of the same
campaign log identically.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.campaigns.design import expand_campaign
from repro.campaigns.gates import GateReport, evaluate_run
from repro.campaigns.spec import (
    CampaignSpec,
    campaign_digest,
    campaign_to_dict,
    resolve_campaign,
)
from repro.campaigns.store import RunStore
from repro.harness.cache import cache_key, code_version
from repro.harness.executor import get_executor
from repro.harness.runner import ExperimentTable
from repro.model.errors import HarnessError, ReproError
from repro.scenarios import (
    cache_extra,
    resolve_scenario,
    run_scenario,
)
from repro.scenarios.spec import _sub_to_dict
from repro.sim.backend import active_backend

__all__ = ["CampaignResult", "EntryOutcome", "run_campaign", "run_id_for"]

Jobs = "int | str | None"
Log = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class EntryOutcome:
    """What happened to one campaign entry in this invocation."""

    entry_id: str
    scenario: str
    status: str  # "ran" | "cached" | "failed"
    wall_time: float
    row_count: int
    error: Optional[str] = None


@dataclass(frozen=True)
class CampaignResult:
    """One ``run_campaign`` invocation's summary."""

    campaign: str
    run_id: str
    path: Path
    outcomes: List[EntryOutcome]
    wall_time: float
    gates: Optional[GateReport] = None

    @property
    def failed(self) -> List[EntryOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def counts(self) -> Dict[str, int]:
        counts = {"ran": 0, "cached": 0, "failed": 0}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts


@dataclass(frozen=True)
class _EntryPlan:
    """One entry, fully resolved: everything a worker or key needs."""

    index: int
    entry_id: str
    scenario: str
    overrides: Dict[str, str]
    trials: Optional[int]
    seed: int
    table_id: str
    title: str
    digest: str
    key: str
    precision: Optional[Dict[str, object]] = None


def run_id_for(
    spec: CampaignSpec, seed: int, trials: Optional[int]
) -> str:
    """The deterministic run directory id for these inputs.

    Folds in the campaign digest plus the invocation-level seed/trials
    overrides — the knobs that change what rows the run produces — so
    resuming the same study lands in the same directory, while a
    different seed or a ``--trials`` smoke run never collides with the
    full study. ``jobs`` is deliberately absent: execution strategy
    never changes rows.
    """
    payload = json.dumps(
        {"digest": campaign_digest(spec), "seed": seed, "trials": trials},
        sort_keys=True,
    )
    tail = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]
    return f"s{seed}-{tail}"


def _plan_entries(
    spec: CampaignSpec, seed: int, trials: Optional[int]
) -> List[_EntryPlan]:
    """Resolve every entry now — a bad entry fails before anything runs."""
    plans: List[_EntryPlan] = []
    for index, entry in enumerate(spec.entries):
        overrides = entry.normalized_overrides()
        resolved = resolve_scenario(entry.scenario, overrides)
        if resolved.precision is not None:
            # Mirror run_scenario: a precision contract governs its own
            # trial budget, and the store key must agree with the cache
            # key the entry itself would compute.
            effective_trials = resolved.precision.max_trials
        else:
            entry_trials = (
                trials
                if trials is not None
                else entry.trials
                if entry.trials is not None
                else spec.trials
            )
            effective_trials = (
                entry_trials if entry_trials is not None else resolved.trials
            )
        entry_seed = entry.seed if entry.seed is not None else seed
        extra = cache_extra(resolved)
        plans.append(
            _EntryPlan(
                index=index,
                entry_id=entry.resolved_id(index),
                scenario=entry.scenario,
                overrides=overrides,
                trials=effective_trials,
                seed=entry_seed,
                table_id=resolved.table_id,
                title=resolved.title,
                digest=str(extra["digest"]),
                key=cache_key(
                    resolved.table_id,
                    effective_trials,
                    entry_seed,
                    extra=extra,
                ),
                precision=(
                    None
                    if resolved.precision is None
                    else _sub_to_dict(resolved.precision)
                ),
            )
        )
    return plans


def _execute_entry(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one entry; module-level so pool workers can invoke it.

    Returns the table as its JSON payload plus wall time, or the error
    — never raises, so a failing entry cannot take the pool down. When
    the payload asks for telemetry, the entry runs under its own
    recorder and ships the snapshot back; peak RSS is measured in the
    executing process either way.
    """
    start = time.time()
    tel = obs.start() if payload.get("telemetry") else None
    try:
        table = run_scenario(
            payload["scenario"],
            trials=payload["trials"],
            seed=payload["seed"],
            jobs=payload["jobs"],
            overrides=payload["overrides"],
            cache=payload["cache"],
            cache_dir=payload["cache_dir"],
        )
    except ReproError as exc:
        out: Dict[str, object] = {"ok": False, "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 — recorded in the manifest
        out = {"ok": False, "error": repr(exc)}
    else:
        out = {"ok": True, "table": table.to_payload()}
    out["wall_time"] = time.time() - start
    if tel is not None:
        out["telemetry"] = obs.stop()
    out["vitals"] = {
        "peak_rss_kb": obs.peak_rss_kb(),
        "backend": active_backend().name,
    }
    return out


def _entry_payload(
    plan: _EntryPlan,
    jobs: Jobs,
    cache: bool,
    cache_dir: "str | Path | None",
    telemetry: bool = False,
) -> Dict[str, object]:
    return {
        "scenario": plan.scenario,
        "trials": plan.trials,
        "seed": plan.seed,
        "jobs": jobs,
        "overrides": plan.overrides,
        "cache": cache,
        "cache_dir": cache_dir,
        "telemetry": telemetry,
    }


def _achieved_precision(table: ExperimentTable) -> Dict[str, object]:
    """Summarize a streamed table's per-point precision provenance.

    Streamed rows carry ``trials``, ``converged`` and ``ci_<metric>``
    columns (see :mod:`repro.scenarios.streaming`); this folds them
    into the manifest block campaign reports read.
    """
    points: List[Dict[str, object]] = []
    for row in table.rows:
        point = {
            key: row[key]
            for key in ("trials", "converged")
            if key in row
        }
        point.update(
            {key: row[key] for key in row if key.startswith("ci_")}
        )
        points.append(point)
    trials = [int(p["trials"]) for p in points if "trials" in p]
    return {
        "points": points,
        "total_trials": sum(trials),
        "max_point_trials": max(trials, default=0),
        "all_converged": bool(points)
        and all(bool(p.get("converged")) for p in points),
    }


def _entry_manifest(
    plan: _EntryPlan,
    jobs: Jobs,
    wall_time: float,
    table: Optional[ExperimentTable] = None,
    vitals: Optional[Dict[str, object]] = None,
    telemetry: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The provenance block shared by done and failed entries."""
    executor = "serial" if jobs is None else str(jobs)
    manifest: Dict[str, object] = {
        "index": plan.index,
        "scenario": plan.scenario,
        "overrides": plan.overrides,
        "trials": plan.trials,
        "seed": plan.seed,
        "executor": executor,
        "backend": active_backend().name,
        "experiment_id": plan.table_id,
        "title": plan.title,
        "scenario_digest": plan.digest,
        "key": plan.key,
        "code": code_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_time": wall_time,
        "finished": time.time(),
    }
    # Always-on vitals: measured in the process that ran the entry
    # (campaign pool workers ship theirs back), falling back to this
    # process for entries that never executed.
    vitals = dict(vitals or {})
    vitals.setdefault("peak_rss_kb", obs.peak_rss_kb())
    vitals.setdefault("backend", manifest["backend"])
    vitals["executor"] = executor
    vitals["wall_time"] = wall_time
    manifest["vitals"] = vitals
    if telemetry is not None:
        manifest["telemetry"] = telemetry
    if plan.precision is not None:
        block: Dict[str, object] = {"declared": plan.precision}
        if table is not None:
            block["achieved"] = _achieved_precision(table)
        manifest["precision"] = block
    return manifest


def run_campaign(
    campaign: "str | CampaignSpec",
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    jobs: Jobs = None,
    campaign_jobs: int = 1,
    store: "RunStore | str | Path | None" = None,
    cache: bool = False,
    cache_dir: "str | Path | None" = None,
    log: Log = None,
    telemetry: Optional[str] = None,
) -> CampaignResult:
    """Execute (or resume) a campaign into the run store.

    Args:
        campaign: Registered name, ``.json`` campaign file path, or a
            :class:`CampaignSpec`.
        seed: Master seed for every entry (default: the campaign's
            ``seed``). An entry's own explicit ``seed`` always wins.
        trials: Trials override applied to *every* entry (smoke runs);
            default: per-entry, then campaign, then scenario defaults.
        jobs: Per-trial execution strategy handed to each entry
            (``--jobs`` semantics; never changes rows).
        campaign_jobs: Entries executed concurrently (``>= 1``). Uses a
            fork-based process pool whose workers are non-daemonic, so
            entries may still use their own per-trial executors.
        store: The run store (a :class:`RunStore`, a directory, or
            None for the default).
        cache: Also consult/populate the ``.repro_cache`` result cache
            inside each entry (the store alone already provides
            campaign-level resume).
        cache_dir: Result-cache location override.
        log: Progress sink (one line per event); default ``print``.
            Lines arrive in entry order regardless of pool scheduling.
        telemetry: ``"json"`` or ``"chrome"`` records per-entry stage
            spans and counters into entry manifests plus a merged
            campaign rollup (``None`` — the default — records only the
            cheap always-on vitals). Telemetry never touches RNG
            streams, so rows are byte-identical either way.

    Returns:
        A :class:`CampaignResult`; failed entries are recorded (and
        re-run on resume) rather than aborting the rest of the suite.
        When the campaign declares gates, ``result.gates`` holds the
        store-evaluated verdicts (also recorded in the run manifest).
    """
    spec = resolve_campaign(campaign)
    # The design (axis stamping + ordering) resolves first: plans, the
    # store layout and the logs all see concrete entries. The run id
    # still derives from the *declared* spec — expansion is a pure
    # function of it, so same study -> same run directory.
    design = expand_campaign(spec)
    get_executor(jobs)  # validate before any work
    if telemetry is not None and telemetry not in ("json", "chrome"):
        raise HarnessError(
            f"telemetry must be 'json' or 'chrome', got {telemetry!r}"
        )
    if campaign_jobs < 1:
        raise HarnessError(
            f"campaign_jobs must be >= 1, got {campaign_jobs}"
        )
    emit = log if log is not None else print
    if not isinstance(store, RunStore):
        store = RunStore(store)
    effective_seed = seed if seed is not None else spec.seed
    plans = _plan_entries(design, effective_seed, trials)
    run_id = run_id_for(spec, effective_seed, trials)
    run = store.run(spec.name, run_id)
    run.write_campaign(
        {
            "campaign": campaign_to_dict(spec),
            "digest": campaign_digest(spec),
            "seed": effective_seed,
            "trials": trials,
            "entry_ids": [p.entry_id for p in plans],
        }
    )
    total = len(plans)
    emit(
        f"campaign {spec.name} ({total} entries, seed {effective_seed})"
        f" -> {run.path}"
    )

    start = time.time()
    outcomes: List[EntryOutcome] = []
    pending: List[_EntryPlan] = []
    cached_tables: Dict[str, object] = {}
    for plan in plans:
        table = run.completed_entry(plan.entry_id, plan.key)
        if table is not None:
            cached_tables[plan.entry_id] = table
        else:
            pending.append(plan)

    telemetry_snaps: List[Dict[str, object]] = []

    def record(plan: _EntryPlan, result: Dict[str, object]) -> None:
        wall = float(result["wall_time"])
        snap = result.get("telemetry")
        if snap is not None:
            telemetry_snaps.append(snap)
        if result["ok"]:
            table = ExperimentTable.from_payload(result["table"])
            manifest = _entry_manifest(
                plan, jobs, wall, table=table,
                vitals=result.get("vitals"), telemetry=snap,
            )
            run.write_entry(plan.entry_id, manifest, table)
            outcomes.append(
                EntryOutcome(
                    plan.entry_id, plan.scenario, "ran", wall,
                    len(table.rows),
                )
            )
            emit(
                f"[{plan.index + 1}/{total}] {plan.entry_id}: done in "
                f"{wall:.1f}s ({len(table.rows)} rows)"
            )
        else:
            error = str(result["error"])
            manifest = _entry_manifest(
                plan, jobs, wall,
                vitals=result.get("vitals"), telemetry=snap,
            )
            run.write_failed_entry(plan.entry_id, manifest, error)
            outcomes.append(
                EntryOutcome(
                    plan.entry_id, plan.scenario, "failed", wall, 0,
                    error=error,
                )
            )
            emit(
                f"[{plan.index + 1}/{total}] {plan.entry_id}: FAILED — "
                f"{error}"
            )

    def record_cached(plan: _EntryPlan) -> None:
        table = cached_tables[plan.entry_id]
        outcomes.append(
            EntryOutcome(
                plan.entry_id, plan.scenario, "cached", 0.0,
                len(table.rows),
            )
        )
        emit(
            f"[{plan.index + 1}/{total}] {plan.entry_id}: cached "
            f"({len(table.rows)} rows, store key match)"
        )

    if campaign_jobs == 1 or len(pending) <= 1:
        for plan in plans:
            if plan.entry_id in cached_tables:
                record_cached(plan)
            else:
                record(
                    plan,
                    _execute_entry(
                        _entry_payload(
                            plan, jobs, cache, cache_dir,
                            telemetry=telemetry is not None,
                        )
                    ),
                )
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX fallback
            ctx = None
        if ctx is None:  # pragma: no cover
            return run_campaign(
                spec, seed=seed, trials=trials, jobs=jobs,
                campaign_jobs=1, store=store, cache=cache,
                cache_dir=cache_dir, log=log, telemetry=telemetry,
            )
        workers = min(campaign_jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx
        ) as pool:
            futures = {
                plan.entry_id: pool.submit(
                    _execute_entry,
                    _entry_payload(
                        plan, jobs, cache, cache_dir,
                        telemetry=telemetry is not None,
                    ),
                )
                for plan in pending
            }
            # Consume in entry order: the log and the store writes stay
            # deterministic while the pool still runs everything
            # concurrently.
            for plan in plans:
                if plan.entry_id in cached_tables:
                    record_cached(plan)
                    continue
                try:
                    result = futures[plan.entry_id].result()
                except Exception as exc:  # noqa: BLE001
                    # A worker dying outright (OOM kill, segfault)
                    # surfaces as BrokenProcessPool; record the entry
                    # as failed instead of losing the whole campaign.
                    result = {
                        "ok": False,
                        "error": f"campaign worker died: {exc!r}",
                        "wall_time": 0.0,
                    }
                record(plan, result)

    wall_time = time.time() - start
    gates = evaluate_run(run, spec=design) if design.gated() else None
    result = CampaignResult(
        campaign=spec.name,
        run_id=run_id,
        path=run.path,
        outcomes=outcomes,
        wall_time=wall_time,
        gates=gates,
    )
    counts = result.counts()
    manifest: Dict[str, object] = {
        "campaign": spec.name,
        "run_id": run_id,
        "digest": campaign_digest(spec),
        "seed": effective_seed,
        "trials": trials,
        "executor": "serial" if jobs is None else str(jobs),
        "backend": active_backend().name,
        "campaign_jobs": campaign_jobs,
        "status": "done" if counts["failed"] == 0 else "partial",
        "counts": counts,
        "wall_time": wall_time,
        "code": code_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entries": [
            {
                "entry_id": o.entry_id,
                "scenario": o.scenario,
                "status": o.status,
                "wall_time": o.wall_time,
                "row_count": o.row_count,
                "error": o.error,
            }
            for o in outcomes
        ],
    }
    if telemetry_snaps:
        # Commutative rollup of this invocation's ran entries (cached
        # entries did no work; their stored manifests keep their own
        # blocks from the run that produced them).
        manifest["telemetry"] = obs.merge_snapshots(*telemetry_snaps)
    if gates is not None:
        manifest["gates"] = gates.to_dict()
    run.write_manifest(manifest)
    emit(
        f"campaign {spec.name}: {counts['ran']} ran, "
        f"{counts['cached']} cached, {counts['failed']} failed "
        f"in {wall_time:.1f}s"
    )
    if gates is not None:
        for verdict in gates.verdicts:
            emit(
                f"gate {verdict.variant}: {verdict.status.upper()} — "
                f"{verdict.reason}"
            )
    return result
