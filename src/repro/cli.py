"""Command-line entry point: regenerate experiment and scenario tables.

Usage::

    python -m repro list
    python -m repro run E2 --trials 5 --seed 0 --out results/
    python -m repro run E2 --trials 64 --jobs 4          # process pool
    python -m repro run E1 --trials 64 --jobs batch      # vectorized
    python -m repro run all --out results/ --cache       # skip re-runs
    python -m repro scenarios                            # list + metadata
    python -m repro run-scenario pu-geo-cseek --jobs batch
    python -m repro run-scenario count-interference \\
        --set sweep.axes.activity=[0.1,0.9] --set trials=8
    python -m repro run-scenario my_workload.json --cache
    python -m repro campaigns                            # list studies
    python -m repro run-campaign paper-suite --jobs batch
    python -m repro run-campaign my_study.json --campaign-jobs 4
    python -m repro report traffic-models --out report/
    python -m repro diff-runs traffic-models:markov \\
        traffic-models:poisson
    python -m repro run-campaign cseek-vs-naive --gate  # science CI
    python -m repro gate cseek-vs-naive                 # re-judge store
    python -m repro run-scenario pu-geo-cseek --telemetry
    python -m repro run-campaign paper-suite --telemetry --store runs/
    python -m repro telemetry paper-suite --out tel/    # store-only

``--jobs`` selects the trial execution strategy (serial by default; an
int fans trials out to that many worker processes, ``batch`` vectorizes
homogeneous trial axes) and never changes the produced rows — per-trial
seeds derive up front from the master seed. ``--cache`` consults the
deterministic result cache in ``.repro_cache/`` (keyed on experiment,
trials, seed, code version and the scenario's spec digest, so ``--set``
overrides never collide with default runs).

``run-scenario`` accepts a registered scenario name (see ``scenarios``)
or a path to a JSON scenario file (see ``repro.scenarios.spec``);
``--set path=value`` overrides any declarative spec field, with values
parsed as JSON when possible (``--set assignment.c=16``,
``--set sweep.axes.m=[2,4]``, ``--set interference.model=poisson``).
Paper scenarios (plan-based) accept the same dotted paths over their
data fields — ``trials``, ``title``, ``description``,
``experiment_id``, ``tags``, ``notes``, ``columns`` — and reject
plan-owned paths with a clear error.

``run-campaign`` executes a whole study — a registered campaign (see
``campaigns``) or a JSON campaign file: an ordered list of scenario
entries with per-entry overrides. Every entry's manifest and rows land
in the persistent run store (default ``.repro_runs/``, ``--store`` to
move it); re-running the same campaign resumes, skipping entries whose
manifests prove their stored rows are bit-identical to a fresh run.
``--campaign-jobs N`` runs entries concurrently on a process pool *on
top of* the per-trial ``--jobs`` strategy. ``report`` renders a stored
run as markdown (``--out`` also writes ``report.md``/``summary.csv``)
and ``diff-runs`` compares two stored runs or entries
(``campaign[@run][:entry]`` references, or store paths) without
re-executing anything; its exit status is diff-like — 0 identical, 1
different, 2 trouble.

Gated campaigns (entries with ``role: baseline``/``variant`` and a
``success_delta`` rule) are judged store-only: ``gate <ref>``
re-evaluates a stored run's declared comparisons, and ``run-campaign
--gate`` runs then judges in one command. Both exit 0 when every rule
passes, 1 on a gate failure, and 2 when the comparison cannot be
evaluated — and both append the verdict table to
``$GITHUB_STEP_SUMMARY`` when that variable is set, so a CI job gets
the science verdict in its summary for free.

``crn-repro`` (the console script declared in ``pyproject.toml``) is
equivalent when the package is installed through a regular ``pip
install``; legacy ``setup.py develop`` installs may expose only the
``python -m repro`` form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.campaigns import (
    GateReport,
    RunStore,
    campaign_report,
    diff_refs,
    entry_report,
    evaluate_run,
    gate_exit_code,
    iter_campaigns,
    load_ref,
    run_campaign,
    verdict_table,
    write_report,
)
from repro.harness.executor import get_executor
from repro.model.errors import HarnessError, ReproError, StoreError
from repro.scenarios import PAPER_SPECS, iter_scenarios, paper_spec, run_scenario
from repro.sim.backend import BACKEND_ENV, set_backend

__all__ = ["main", "build_parser"]


def _parse_jobs(value: str) -> "int | str":
    """``--jobs`` values: an int, or the strategy names.

    Validation delegates to :func:`repro.harness.executor.get_executor`
    — the single authority on what a jobs value means — so the CLI can
    never accept a value the harness rejects or vice versa.
    """
    name = value.strip().lower()
    try:
        get_executor(name)
    except HarnessError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(name) if name.isdigit() else name


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("numpy", "numba"),
        default=None,
        help=(
            "array-compute backend for the engine's hot path (default: "
            "numpy, or $REPRO_BACKEND); 'numba' JIT-compiles the step "
            "products and requires numba to be installed; results are "
            "bit-identical either way"
        ),
    )


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="json",
        choices=("json", "chrome"),
        default=None,
        help=(
            "record stage spans, counters and gauges while running "
            "(off by default; never changes rows). 'json' (the default "
            "when the flag is given bare) keeps aggregates; 'chrome' "
            "additionally keeps raw span events for a Chrome "
            "trace-event file"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="crn-repro",
        description=(
            "Reproduction of 'Communication Primitives in Cognitive "
            "Radio Networks' (PODC 2017) — experiment regeneration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id (E1..E12) or 'all'",
    )
    run.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trials per configuration (default: experiment-specific)",
    )
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument(
        "--out",
        default=None,
        help="directory for <id>.md and <id>.csv outputs",
    )
    run.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=None,
        help=(
            "trial execution strategy: an int for that many worker "
            "processes (0 = one per CPU), 'batch' for vectorized trial "
            "axes ('batch:N' bounds the chunk size), 'xbatch' to also "
            "batch across compatible sweep points, 'serial' (default); "
            "results are identical either way"
        ),
    )
    _add_backend_arg(run)
    run.add_argument(
        "--cache",
        action="store_true",
        help=(
            "reuse cached tables (and store fresh ones) keyed on "
            "experiment id + trials + seed + spec digest + code version"
        ),
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default .repro_cache/)",
    )

    sub.add_parser(
        "scenarios",
        help="list registered scenarios (paper + stock) with metadata",
    )

    run_scn = sub.add_parser(
        "run-scenario",
        help="run a registered scenario or a JSON scenario file",
    )
    run_scn.add_argument(
        "scenario",
        help="scenario name (see 'scenarios') or path to a .json file",
    )
    run_scn.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trials per sweep point (default: scenario-specific)",
    )
    run_scn.add_argument("--seed", type=int, default=0, help="master seed")
    run_scn.add_argument(
        "--out",
        default=None,
        help="directory for <id>.md and <id>.csv outputs",
    )
    run_scn.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=None,
        help=(
            "trial execution strategy (int / 'batch' / 'batch:N' / "
            "'xbatch' / 'serial'); results are identical either way"
        ),
    )
    _add_backend_arg(run_scn)
    run_scn.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help=(
            "override a spec field (repeatable): --set assignment.c=16, "
            "--set sweep.axes.m=[2,4], --set interference.model=poisson, "
            "--set trials=8; values parse as JSON when possible (paper "
            "scenarios accept their data fields only)"
        ),
    )
    run_scn.add_argument(
        "--precision",
        action="append",
        default=[],
        metavar="METRIC=HALFWIDTH",
        help=(
            "CI-targeted stopping (repeatable): stream memory-capped "
            "trial chunks until METRIC's confidence interval half-width "
            "is <= HALFWIDTH (Wilson for rates, t-based for means), "
            "e.g. --precision success=0.01 (a leading '±' on the value "
            "is accepted)"
        ),
    )
    run_scn.add_argument(
        "--confidence",
        type=float,
        default=None,
        help="precision confidence level (default 0.95)",
    )
    run_scn.add_argument(
        "--min-trials",
        type=int,
        default=None,
        help="precision floor before the stopping rule may fire",
    )
    run_scn.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="precision ceiling per sweep point",
    )
    run_scn.add_argument(
        "--chunk",
        type=int,
        default=None,
        help=(
            "trials resident per streaming chunk — the memory cap's "
            "knob (default: the streaming executor's)"
        ),
    )
    run_scn.add_argument(
        "--cache",
        action="store_true",
        help=(
            "reuse cached tables keyed on scenario, trials, seed, code "
            "version and the spec digest (overrides included)"
        ),
    )
    run_scn.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default .repro_cache/)",
    )
    _add_telemetry_arg(run_scn)

    sub.add_parser(
        "campaigns",
        help="list registered campaigns (multi-scenario studies)",
    )

    run_cmp = sub.add_parser(
        "run-campaign",
        help=(
            "run (or resume) a registered campaign or a JSON campaign "
            "file into the persistent run store"
        ),
    )
    run_cmp.add_argument(
        "campaign",
        help="campaign name (see 'campaigns') or path to a .json file",
    )
    run_cmp.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trials override for every entry (smoke runs)",
    )
    run_cmp.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed for every entry (default: the campaign's)",
    )
    run_cmp.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=None,
        help=(
            "per-trial execution strategy inside each entry (int / "
            "'batch' / 'batch:N' / 'xbatch' / 'serial'); never "
            "changes rows"
        ),
    )
    _add_backend_arg(run_cmp)
    run_cmp.add_argument(
        "--campaign-jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "entries executed concurrently on a process pool "
            "(default 1: in order)"
        ),
    )
    run_cmp.add_argument(
        "--store",
        default=None,
        help="run store directory (default .repro_runs/)",
    )
    run_cmp.add_argument(
        "--cache",
        action="store_true",
        help=(
            "additionally consult/populate the .repro_cache result "
            "cache inside each entry"
        ),
    )
    run_cmp.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default .repro_cache/)",
    )
    run_cmp.add_argument(
        "--gate",
        action="store_true",
        help=(
            "after running, judge the campaign's declared "
            "success_delta gates from the store; exit 0 pass, 1 gate "
            "failure, 2 not evaluable"
        ),
    )
    _add_telemetry_arg(run_cmp)

    gate = sub.add_parser(
        "gate",
        help=(
            "judge a stored run's declared acceptance gates, from the "
            "store alone (exit 0 pass, 1 gate failure, 2 not evaluable)"
        ),
    )
    gate.add_argument(
        "ref",
        help=(
            "run reference: campaign[@run_id] (defaults to the latest "
            "stored run) or a path to a run directory"
        ),
    )
    gate.add_argument(
        "--store",
        default=None,
        help="run store directory (default .repro_runs/)",
    )

    report = sub.add_parser(
        "report",
        help=(
            "render a stored campaign run as markdown, from the store "
            "alone (no re-execution)"
        ),
    )
    report.add_argument(
        "ref",
        help=(
            "reference: campaign[@run_id][:entry] (run defaults to the "
            "latest stored one; with :entry, reports that entry alone) "
            "or a path into a store"
        ),
    )
    report.add_argument(
        "--store",
        default=None,
        help="run store directory (default .repro_runs/)",
    )
    report.add_argument(
        "--out",
        default=None,
        help="also write report.md and summary.csv into this directory",
    )

    diff = sub.add_parser(
        "diff-runs",
        help=(
            "diff two stored runs or entries (exit 0 identical, 1 "
            "different, 2 trouble)"
        ),
    )
    diff.add_argument(
        "ref_a",
        help="first reference: campaign[@run_id][:entry] or a path",
    )
    diff.add_argument("ref_b", help="second reference")
    diff.add_argument(
        "--store",
        default=None,
        help="run store directory (default .repro_runs/)",
    )

    tel = sub.add_parser(
        "telemetry",
        help=(
            "render a stored run's telemetry (stage breakdowns per "
            "entry) from the store alone; requires the run to have "
            "been recorded with --telemetry"
        ),
    )
    tel.add_argument(
        "ref",
        help=(
            "reference: campaign[@run_id][:entry] (run defaults to the "
            "latest stored one) or a path into a store"
        ),
    )
    tel.add_argument(
        "--store",
        default=None,
        help="run store directory (default .repro_runs/)",
    )
    tel.add_argument(
        "--out",
        default=None,
        help=(
            "also write telemetry.md and trace.json (Chrome trace-"
            "event format; synthetic layout from stored aggregates) "
            "into this directory"
        ),
    )
    return parser


def _write_step_summary(markdown: str) -> None:
    """Append markdown to ``$GITHUB_STEP_SUMMARY`` when CI set it."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(markdown.rstrip() + "\n\n")
    except OSError as exc:  # pragma: no cover — CI filesystem trouble
        print(f"warning: cannot write step summary: {exc}", file=sys.stderr)


def _emit_gate_report(report: GateReport) -> None:
    """Print (and step-summarize) a gate report's verdict table."""
    table = verdict_table(report)
    heading = f"Gate — {report.campaign}@{report.run_id}"
    print(f"# {heading}")
    print()
    print(table)
    print()
    print(f"Gate verdict: {report.status.upper()}")
    _write_step_summary(
        f"## {heading}\n\n{table}\n\n"
        f"Gate verdict: **{report.status.upper()}**"
    )


def _precision_overrides(args) -> Dict[str, str]:
    """Lower the precision flags into ``--set``-style override paths.

    Routing through :func:`repro.scenarios.spec.apply_overrides` (not a
    side channel) keeps the spec digest, the result cache and campaign
    per-entry overrides all seeing one precision representation.
    """
    overrides: Dict[str, str] = {}
    for pair in args.precision:
        metric, sep, value = pair.partition("=")
        metric = metric.strip()
        # "±0.01" reads naturally in docs; accept it as "0.01".
        value = value.strip().lstrip("±")
        if not sep or not metric or not value:
            raise HarnessError(
                f"bad --precision value {pair!r}; expected "
                "METRIC=HALFWIDTH (e.g. success=0.01)"
            )
        overrides[f"precision.targets.{metric}"] = value
    for flag, path in (
        ("confidence", "precision.confidence"),
        ("min_trials", "precision.min_trials"),
        ("max_trials", "precision.max_trials"),
        ("chunk", "precision.chunk"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[path] = str(value)
    return overrides


def _parse_overrides(pairs: List[str]) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise HarnessError(
                f"bad --set value {pair!r}; expected PATH=VALUE"
            )
        path, _, value = pair.partition("=")
        if not path:
            raise HarnessError(
                f"bad --set value {pair!r}; empty path"
            )
        overrides[path] = value
    return overrides


def _print_listing(specs, describe) -> None:
    """Two-line name + description listing shared by every registry."""
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        print(f"{spec.name:<{width}}  {describe(spec)}")
        if spec.description:
            print(f"{'':<{width}}  {spec.description}")


def _list_scenarios() -> None:
    def describe(spec) -> str:
        kind = "paper" if "paper" in spec.tags else "stock"
        points = (
            str(len(spec.sweep.points()))
            if spec.is_declarative and spec.sweep is not None
            else ("1" if spec.is_declarative else "-")
        )
        return (
            f"[{kind}]  trials={spec.trials:<3} points={points:<3} "
            f"{spec.title}"
        )

    _print_listing(iter_scenarios(), describe)


def _list_campaigns() -> None:
    _print_listing(
        iter_campaigns(),
        lambda spec: f"entries={len(spec.entries):<3} {spec.title}",
    )


def _run_one(
    experiment_id: str,
    trials: Optional[int],
    seed: int,
    out: Optional[str],
    jobs: "int | str | None" = None,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> None:
    start = time.time()
    table = run_scenario(
        paper_spec(experiment_id),
        trials=trials,
        seed=seed,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
    )
    elapsed = time.time() - start
    print(table.to_markdown())
    print(f"\n[{table.experiment_id} finished in {elapsed:.1f}s]")
    if out is not None:
        paths = table.save(out)
        print(f"[written: {paths['markdown']}, {paths['csv']}]")
    print()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None) is not None:
        # The env var (not just the in-process install) so process-pool
        # workers (--jobs N, --campaign-jobs N) inherit the choice.
        os.environ[BACKEND_ENV] = args.backend
        try:
            set_backend(args.backend)
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "list":
        for experiment_id in PAPER_SPECS:
            print(experiment_id)
        return 0
    if args.command == "scenarios":
        _list_scenarios()
        return 0
    if args.command == "campaigns":
        _list_campaigns()
        return 0
    if args.command == "run-campaign":
        try:
            result = run_campaign(
                args.campaign,
                seed=args.seed,
                trials=args.trials,
                jobs=args.jobs,
                campaign_jobs=args.campaign_jobs,
                store=args.store,
                cache=args.cache,
                cache_dir=args.cache_dir,
                telemetry=args.telemetry,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if args.gate else 1
        except Exception as exc:  # noqa: BLE001
            # Malformed campaign files must fail with a clean error,
            # matching the report/diff-runs guards on the same surface.
            print(f"error: {exc!r}", file=sys.stderr)
            return 2 if args.gate else 1
        if args.gate:
            if result.gates is None:
                print(
                    "error: campaign declares no gates (no variant "
                    "entry with a success_delta rule)",
                    file=sys.stderr,
                )
                return 2
            _emit_gate_report(result.gates)
            return gate_exit_code(result.gates)
        return 0 if not result.failed else 1
    if args.command == "gate":
        try:
            ref = load_ref(RunStore(args.store), args.ref)
            if ref.entry_id is not None:
                raise HarnessError(
                    "gate judges a whole run; drop the :entry suffix "
                    f"from {args.ref!r}"
                )
            report = evaluate_run(ref.run)
            if not report.verdicts:
                raise HarnessError(
                    f"campaign {ref.run.campaign!r} declares no gates "
                    "(no variant entry with a success_delta rule)"
                )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # noqa: BLE001
            # Same surface as diff-runs: a hand-edited store must mean
            # exit 2 "not evaluable", never a traceback.
            print(f"error: {exc!r}", file=sys.stderr)
            return 2
        _emit_gate_report(report)
        return gate_exit_code(report)
    if args.command == "report":
        try:
            ref = load_ref(RunStore(args.store), args.ref)
            if ref.entry_id is not None:
                print(entry_report(ref.run, ref.entry_id), end="")
            else:
                print(campaign_report(ref.run), end="")
            if args.out is not None:
                paths = write_report(
                    ref.run, args.out, entry_id=ref.entry_id
                )
                written = ", ".join(
                    str(p) for p in paths.values()
                )
                print(f"[written: {written}]")
        except StoreError as exc:
            # Corruption (done manifests with missing/empty rows) is
            # exit 2 — "the store needs repair", distinct from a plain
            # bad reference (exit 1).
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # noqa: BLE001
            # Hand-edited store entries must fail with a clean error,
            # exactly as diff-runs guards the same surface.
            print(f"error: {exc!r}", file=sys.stderr)
            return 1
        return 0
    if args.command == "diff-runs":
        try:
            markdown, identical = diff_refs(
                RunStore(args.store), args.ref_a, args.ref_b
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # noqa: BLE001
            # The exit contract is diff-like: 2 means trouble. An
            # unexpected failure (e.g. a hand-edited store entry) must
            # not exit 1 and masquerade as "runs differ".
            print(f"error: {exc!r}", file=sys.stderr)
            return 2
        print(markdown, end="")
        return 0 if identical else 1
    if args.command == "run-scenario":
        snapshot: "Optional[dict]" = None
        try:
            start = time.time()
            overrides = {
                **_parse_overrides(args.overrides),
                **_precision_overrides(args),
            }
            # Telemetry wraps the run but never touches RNG streams,
            # so the produced rows are byte-identical with it on or off.
            recorder = (
                obs.start(trace=args.telemetry == "chrome")
                if args.telemetry
                else None
            )
            try:
                table = run_scenario(
                    args.scenario,
                    trials=args.trials,
                    seed=args.seed,
                    jobs=args.jobs,
                    overrides=overrides,
                    cache=args.cache,
                    cache_dir=args.cache_dir,
                )
            finally:
                if recorder is not None:
                    snapshot = obs.stop()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.time() - start
        print(table.to_markdown())
        print(f"\n[{table.experiment_id} finished in {elapsed:.1f}s]")
        if snapshot is not None:
            print()
            print(obs.render_telemetry(snapshot, heading="## Telemetry"))
        if args.out is not None:
            paths = table.save(args.out)
            written = [paths["markdown"], paths["csv"]]
            if snapshot is not None:
                out_dir = Path(args.out)
                tel_path = out_dir / f"{table.experiment_id}.telemetry.json"
                tel_path.write_text(
                    json.dumps(snapshot, indent=2) + "\n", encoding="utf-8"
                )
                written.append(tel_path)
                if args.telemetry == "chrome":
                    written.append(
                        obs.write_chrome_trace(
                            out_dir / f"{table.experiment_id}.trace.json",
                            [(table.experiment_id, snapshot)],
                        )
                    )
            print(f"[written: {', '.join(str(p) for p in written)}]")
        return 0
    if args.command == "telemetry":
        try:
            ref = load_ref(RunStore(args.store), args.ref)
            entry_ids = (
                [ref.entry_id] if ref.entry_id else ref.run.entry_ids()
            )
            snaps = []
            for entry_id in entry_ids:
                manifest = ref.run.entry_manifest(entry_id) or {}
                snap = manifest.get("telemetry")
                if isinstance(snap, dict):
                    snaps.append((entry_id, snap))
            if not snaps:
                raise HarnessError(
                    f"run {ref.run.campaign}@{ref.run.run_id} has no "
                    "stored telemetry; record one with run-campaign "
                    "--telemetry"
                )
            lines = [f"# Telemetry — {ref.label}", ""]
            for entry_id, snap in snaps:
                lines += [
                    obs.render_telemetry(snap, heading=f"## {entry_id}"),
                    "",
                ]
            if len(snaps) > 1:
                merged = obs.merge_snapshots(*(s for _, s in snaps))
                lines += [
                    obs.render_telemetry(
                        merged, heading="## Campaign totals"
                    ),
                    "",
                ]
            markdown = "\n".join(lines).rstrip() + "\n"
            print(markdown, end="")
            if args.out is not None:
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                md_path = out_dir / "telemetry.md"
                md_path.write_text(markdown, encoding="utf-8")
                trace_path = obs.write_chrome_trace(
                    out_dir / "trace.json", snaps
                )
                print(f"[written: {md_path}, {trace_path}]")
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # noqa: BLE001
            # A hand-edited store must mean a clean error, as with
            # report/diff-runs on the same surface.
            print(f"error: {exc!r}", file=sys.stderr)
            return 1
        return 0
    # command == "run"
    targets = (
        list(PAPER_SPECS)
        if args.experiment.lower() == "all"
        else [args.experiment]
    )
    try:
        for experiment_id in targets:
            _run_one(
                experiment_id,
                args.trials,
                args.seed,
                args.out,
                jobs=args.jobs,
                cache=args.cache,
                cache_dir=args.cache_dir,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
