"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Three contracts, in order of importance:

1. **Determinism** — telemetry never touches RNG streams, so produced
   rows are byte-identical with it on or off, across executors.
2. **Merge algebra** — snapshots merge commutatively and associatively
   (integer-nanosecond aggregates), so pool completion order and
   streaming chunk order cannot change stored telemetry.
3. **Wiring** — the instrumented layers (engine, protocols, executors,
   campaigns, CLI) actually record, and the store/report/CLI surfaces
   render what was recorded without re-executing anything.
"""

import json

import pytest

from repro import obs
from repro.campaigns import (
    CampaignEntry,
    CampaignSpec,
    RunStore,
    run_campaign,
)
from repro.campaigns.report import campaign_report, diff_refs, telemetry_section
from repro.cli import main
from repro.harness import ParallelExecutor, SerialExecutor
from repro.harness.executor import StreamingExecutor
from repro.scenarios import (
    PrecisionSpec,
    run_scenario_spec,
    stream_scenario_spec,
)

from tests.test_xbatch import tiny_cseek_sweep


def square(s):
    return s * s


def snap_with(counters=None, spans=None, gauges=None):
    snap = obs.empty_snapshot()
    snap["counters"] = dict(counters or {})
    snap["spans"] = {
        label: {"count": c, "total_ns": t, "max_ns": m}
        for label, (c, t, m) in (spans or {}).items()
    }
    snap["gauges"] = dict(gauges or {})
    return snap


class TestRecorder:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.active() is None
        # No recorder: count/gauge are no-ops, span is a shared no-op.
        obs.count("never.lands")
        obs.gauge_max("never.lands", 1.0)
        assert obs.span("discovery") is obs.span("gemm")
        with obs.span("discovery"):
            pass
        assert not obs.enabled()

    def test_capture_records(self):
        with obs.capture() as tel:
            obs.count("x", 2)
            obs.count("x")
            obs.gauge_max("g", 3.0)
            obs.gauge_max("g", 1.0)
            with obs.span("discovery"):
                with obs.span("gemm"):
                    pass
        snap = tel.snapshot()
        assert snap["counters"] == {"x": 3}
        assert snap["gauges"] == {"g": 3.0}
        assert snap["spans"]["discovery"]["count"] == 1
        assert snap["spans"]["gemm"]["count"] == 1
        # Nested span durations are independent clock reads; the outer
        # region contains the inner one.
        assert (
            snap["spans"]["discovery"]["total_ns"]
            >= snap["spans"]["gemm"]["total_ns"]
        )
        assert not obs.enabled()

    def test_stop_rolls_up_into_parent(self):
        with obs.capture() as outer:
            obs.count("outer.only")
            obs.start()
            obs.count("inner.only", 5)
            inner_snap = obs.stop()
        assert inner_snap["counters"] == {"inner.only": 5}
        snap = outer.snapshot()
        assert snap["counters"] == {"outer.only": 1, "inner.only": 5}

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            obs.stop()

    def test_trace_mode_keeps_events(self):
        with obs.capture(trace=True) as tel:
            with obs.span("discovery"):
                with obs.span("gemm"):
                    pass
        snap = tel.snapshot()
        events = snap["events"]
        assert {ev["label"] for ev in events} == {"discovery", "gemm"}
        depths = {ev["label"]: ev["depth"] for ev in events}
        assert depths == {"discovery": 0, "gemm": 1}

    def test_peak_rss_is_a_positive_int(self):
        rss = obs.peak_rss_kb()
        assert isinstance(rss, int) and rss > 0


class TestMergeAlgebra:
    A = snap_with(
        counters={"x": 1, "y": 2},
        spans={"gemm": (2, 100, 60)},
        gauges={"rss": 10.0},
    )
    B = snap_with(
        counters={"x": 3},
        spans={"gemm": (1, 40, 40), "chunk": (1, 7, 7)},
        gauges={"rss": 30.0, "other": 1.0},
    )
    C = snap_with(
        counters={"z": 5},
        spans={"chunk": (4, 13, 9)},
    )

    def test_commutative(self):
        assert obs.merge_snapshots(self.A, self.B) == obs.merge_snapshots(
            self.B, self.A
        )

    def test_associative(self):
        left = obs.merge_snapshots(
            obs.merge_snapshots(self.A, self.B), self.C
        )
        right = obs.merge_snapshots(
            self.A, obs.merge_snapshots(self.B, self.C)
        )
        assert left == right

    def test_expected_totals(self):
        merged = obs.merge_snapshots(self.A, self.B, self.C)
        assert merged["counters"] == {"x": 4, "y": 2, "z": 5}
        assert merged["spans"]["gemm"] == {
            "count": 3,
            "total_ns": 140,
            "max_ns": 60,
        }
        assert merged["spans"]["chunk"] == {
            "count": 5,
            "total_ns": 20,
            "max_ns": 9,
        }
        assert merged["gauges"] == {"rss": 30.0, "other": 1.0}

    def test_empty_is_identity(self):
        assert (
            obs.merge_snapshots(self.A, obs.empty_snapshot())
            == obs.merge_snapshots(self.A)
        )

    def test_none_snapshots_are_skipped(self):
        assert obs.merge_snapshots(None, self.A, None) == obs.merge_snapshots(
            self.A
        )

    def test_snapshots_are_json_ready(self):
        merged = obs.merge_snapshots(self.A, self.B)
        assert json.loads(json.dumps(merged)) == merged


class TestExecutorTelemetry:
    def test_serial_counts_trials(self):
        with obs.capture() as tel:
            SerialExecutor().run(square, [1, 2, 3])
        assert tel.counters["executor.trials"] == 3

    def test_parallel_ships_worker_snapshots(self):
        seeds = list(range(8))
        with obs.capture() as tel:
            got = ParallelExecutor(jobs=2).run(square, seeds)
        assert got == [s * s for s in seeds]
        snap = tel.snapshot()
        assert snap["counters"]["executor.trials"] == 8
        # Worker-side counters crossed the fork boundary and merged.
        assert snap["counters"]["worker.chunks"] >= 2
        assert snap["gauges"]["worker.peak_rss_kb"] > 0

    def test_streaming_records_chunk_spans(self):
        with obs.capture() as tel:
            StreamingExecutor(chunk_size=4, inner="serial").run(
                square, list(range(10))
            )
        snap = tel.snapshot()
        assert snap["counters"]["stream.chunks"] == 3
        assert snap["spans"]["chunk"]["count"] == 3

    def test_worker_snapshot_merge_is_order_independent(self):
        # Simulate two workers finishing in either order: the merged
        # aggregates must be identical (the commutativity contract the
        # pool's imap consumption relies on).
        w1 = snap_with(counters={"worker.chunks": 1, "executor.trials": 4})
        w2 = snap_with(counters={"worker.chunks": 1, "executor.trials": 3})
        assert obs.merge_snapshots(w1, w2) == obs.merge_snapshots(w2, w1)


class TestRowsUnchanged:
    """Telemetry on vs off: rows must be byte-identical."""

    @pytest.mark.parametrize("jobs", ["serial", "batch", "xbatch"])
    def test_rows_identical_with_telemetry(self, jobs):
        spec = tiny_cseek_sweep()
        reference = run_scenario_spec(spec, seed=3, jobs=jobs)
        with obs.capture() as tel:
            got = run_scenario_spec(spec, seed=3, jobs=jobs)
        assert got.rows == reference.rows
        # And telemetry actually recorded something meaningful: every
        # trial once (3 points x 3 trials), grouped or not.
        snap = tel.snapshot()
        assert snap["counters"]["executor.trials"] == 9
        assert "discovery" in snap["spans"]

    def test_streamed_counters_match_per_point(self):
        spec = tiny_cseek_sweep(
            precision=PrecisionSpec(
                targets={"success": 1e-9},
                min_trials=8,
                max_trials=8,
                chunk=8,
            )
        )
        counters = {}
        for jobs in (None, "xbatch"):
            with obs.capture() as tel:
                stream_scenario_spec(spec, seed=3, jobs=jobs)
            snap = tel.snapshot()["counters"]
            counters[jobs] = (
                snap.get("executor.trials"),
                snap.get("stream.chunks"),
            )
        # One chunk per point per round: 3 points x one 8-trial round.
        assert counters[None] == counters["xbatch"] == (24, 3)


def tel_campaign(name="tel-tiny"):
    return CampaignSpec(
        name=name,
        title="telemetry smoke study",
        entries=(
            CampaignEntry(
                scenario="count-interference",
                id="clean",
                overrides={
                    "sweep.axes.m": [2],
                    "sweep.axes.activity": [0.0, 0.5],
                },
                trials=4,
            ),
        ),
    )


class TestCampaignTelemetry:
    def test_entry_manifest_gets_vitals_and_telemetry(self, tmp_path):
        run_campaign(
            tel_campaign(),
            store=tmp_path,
            jobs="batch",
            telemetry="json",
            log=lambda _: None,
        )
        run = RunStore(tmp_path).latest_run("tel-tiny")
        manifest = run.entry_manifest("clean")
        vitals = manifest["vitals"]
        assert vitals["backend"] == "numpy"
        assert vitals["peak_rss_kb"] > 0
        assert vitals["wall_time"] >= 0
        snap = manifest["telemetry"]
        assert snap["counters"]["executor.trials"] > 0
        assert snap["spans"]
        # The campaign manifest rolls entries up.
        campaign_manifest = run.manifest()
        assert campaign_manifest["telemetry"]["counters"][
            "executor.trials"
        ] == snap["counters"]["executor.trials"]

    def test_vitals_always_on_telemetry_opt_in(self, tmp_path):
        run_campaign(
            tel_campaign("tel-off"),
            store=tmp_path,
            jobs="batch",
            log=lambda _: None,
        )
        run = RunStore(tmp_path).latest_run("tel-off")
        manifest = run.entry_manifest("clean")
        assert manifest["vitals"]["peak_rss_kb"] > 0
        assert "telemetry" not in manifest
        assert telemetry_section(run) is None

    def test_report_renders_telemetry_section(self, tmp_path):
        run_campaign(
            tel_campaign(),
            store=tmp_path,
            jobs="batch",
            telemetry="json",
            log=lambda _: None,
        )
        run = RunStore(tmp_path).latest_run("tel-tiny")
        report = campaign_report(run)
        assert "## Telemetry" in report
        assert "executor.trials" in report

    def test_bad_telemetry_mode_rejected(self, tmp_path):
        from repro.model.errors import HarnessError

        with pytest.raises(HarnessError, match="telemetry"):
            run_campaign(
                tel_campaign(),
                store=tmp_path,
                telemetry="xml",
                log=lambda _: None,
            )

    def test_diff_appends_informational_stage_table(self, tmp_path):
        run_campaign(
            tel_campaign(),
            store=tmp_path,
            jobs="batch",
            telemetry="json",
            log=lambda _: None,
        )
        store = RunStore(tmp_path)
        ref = "tel-tiny:clean"
        markdown, identical = diff_refs(store, ref, ref)
        # Same entry against itself: rows identical, and the verdict
        # must stay identical even though the stage table is present.
        assert identical
        assert "Telemetry stages" in markdown


class TestCli:
    def test_telemetry_command_renders_store(self, tmp_path, capsys):
        run_campaign(
            tel_campaign(),
            store=tmp_path,
            jobs="batch",
            telemetry="json",
            log=lambda _: None,
        )
        out_dir = tmp_path / "tel"
        code = main(
            [
                "telemetry",
                "tel-tiny",
                "--store",
                str(tmp_path),
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "# Telemetry — tel-tiny@" in printed
        assert (out_dir / "telemetry.md").exists()
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["traceEvents"]

    def test_telemetry_command_without_recording_fails_cleanly(
        self, tmp_path, capsys
    ):
        run_campaign(
            tel_campaign("tel-off"),
            store=tmp_path,
            jobs="batch",
            log=lambda _: None,
        )
        code = main(["telemetry", "tel-off", "--store", str(tmp_path)])
        assert code == 1
        assert "no stored telemetry" in capsys.readouterr().err

    def test_run_scenario_flag_prints_breakdown(self, capsys):
        code = main(
            [
                "run-scenario",
                "count-interference",
                "--trials",
                "2",
                "--set",
                "sweep.axes.m=[2]",
                "--set",
                "sweep.axes.activity=[0.5]",
                "--jobs",
                "batch",
                "--telemetry",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "## Telemetry" in printed
        assert "executor.trials" in printed
        assert not obs.enabled()


class TestExport:
    def test_stage_rows_canonical_order_and_shares(self):
        snap = snap_with(
            spans={
                "zz-custom": (1, 100, 100),
                "gemm": (2, 300, 200),
                "discovery": (1, 600, 600),
            }
        )
        rows = obs.stage_rows(snap)
        assert [r["stage"] for r in rows] == ["discovery", "gemm", "zz-custom"]
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        assert rows[0]["total_s"] == pytest.approx(600 / 1e9)

    def test_render_handles_empty_snapshot(self):
        assert "(no spans recorded)" in obs.render_telemetry(
            obs.empty_snapshot()
        )

    def test_chrome_trace_prefers_raw_events(self):
        with obs.capture(trace=True) as tel:
            with obs.span("discovery"):
                pass
        events = obs.chrome_trace_events(tel.snapshot())
        complete = [ev for ev in events if ev["ph"] == "X"]
        assert complete and complete[0]["name"] == "discovery"
        assert "synthetic" not in complete[0]["args"]

    def test_chrome_trace_synthesizes_from_aggregates(self):
        snap = snap_with(spans={"gemm": (3, 2_000_000, 900_000)})
        events = obs.chrome_trace_events(snap)
        complete = [ev for ev in events if ev["ph"] == "X"]
        assert complete[0]["args"]["synthetic"] is True
        assert complete[0]["dur"] == pytest.approx(2_000.0)

    def test_write_chrome_trace_one_process_per_snapshot(self, tmp_path):
        snap = snap_with(spans={"gemm": (1, 10, 10)})
        path = obs.write_chrome_trace(
            tmp_path / "trace.json", [("a", snap), ("b", snap)]
        )
        trace = json.loads(path.read_text())
        pids = {ev["pid"] for ev in trace["traceEvents"]}
        assert pids == {0, 1}
