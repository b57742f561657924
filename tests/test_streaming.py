"""Tests for the streaming trial path.

Covers the online accumulators (Welford moments, P² quantile sketch,
streaming rates), the chunked executor/seed-stream layer, the
``PrecisionSpec`` stopping contract, and the scenario/campaign plumbing
built on top of them.
"""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.analysis import (
    P2Quantile,
    StreamingMoments,
    StreamingRate,
    StreamingSummary,
    mean_halfwidth,
    normal_quantile,
    rate_halfwidth,
    summarize,
    t_quantile,
    wilson_interval,
)
from repro.harness import (
    BatchedExecutor,
    StreamingExecutor,
    get_executor,
    run_trials,
    stream_trials,
)
from repro.model import HarnessError
from repro.scenarios import (
    AssignmentSpec,
    InterferenceSpec,
    PrecisionSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    apply_overrides,
    paper_spec,
    resolve_scenario,
    run_scenario,
    run_scenario_spec,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
    stream_scenario_spec,
)
from repro.sim.rng import RngHub


def random_chunks(values, rng):
    """Split ``values`` at random boundaries (possibly empty chunks)."""
    cuts = sorted(
        rng.integers(0, len(values) + 1, size=rng.integers(1, 9))
    )
    bounds = [0, *cuts, len(values)]
    return [
        values[a:b] for a, b in zip(bounds, bounds[1:])
    ]


class TestStreamingMoments:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_across_random_chunkings(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(5.0, 3.0, size=rng.integers(50, 400))
        moments = StreamingMoments()
        for chunk in random_chunks(data, rng):
            moments.update(chunk)
        assert moments.count == data.size
        assert moments.mean == pytest.approx(np.mean(data), rel=1e-12)
        assert moments.std == pytest.approx(
            np.std(data, ddof=1), rel=1e-10
        )
        assert moments.minimum == np.min(data)
        assert moments.maximum == np.max(data)

    def test_merge_is_commutative(self):
        rng = np.random.default_rng(7)
        xs, ys = rng.normal(size=31), rng.normal(size=18)
        ab, ba = StreamingMoments(), StreamingMoments()
        a1, b1 = StreamingMoments(), StreamingMoments()
        a1.update(xs)
        b1.update(ys)
        ab.update(xs)
        ab.merge(b1)
        ba.update(ys)
        ba.merge(a1)
        assert ab.mean == ba.mean
        assert ab.variance == ba.variance

    def test_empty_update_is_noop(self):
        moments = StreamingMoments()
        moments.update([])
        assert moments.count == 0
        assert moments.variance == 0.0

    def test_degenerate_counts(self):
        moments = StreamingMoments()
        moments.update([3.0])
        assert moments.count == 1
        assert moments.mean == 3.0
        assert moments.std == 0.0


class TestP2Quantile:
    def test_exact_below_buffer(self):
        sketch = P2Quantile(0.5)
        sketch.update([4.0, 1.0, 9.0])
        assert sketch.value() == np.percentile([4.0, 1.0, 9.0], 50)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_tracks_uniform_quantiles(self, p):
        rng = np.random.default_rng(11)
        data = rng.uniform(0.0, 1.0, size=4000)
        sketch = P2Quantile(p)
        sketch.update(data)
        assert sketch.value() == pytest.approx(
            np.percentile(data, 100 * p), abs=0.02
        )

    def test_merge_across_random_chunkings(self):
        rng = np.random.default_rng(13)
        data = rng.normal(0.0, 1.0, size=2000)
        merged = P2Quantile(0.5)
        for chunk in random_chunks(data, rng):
            part = P2Quantile(0.5)
            part.update(chunk)
            merged.merge(part)
        assert merged.count == data.size
        assert merged.value() == pytest.approx(
            np.percentile(data, 50), abs=0.08
        )

    def test_merge_is_commutative(self):
        rng = np.random.default_rng(17)
        xs, ys = rng.normal(size=300), rng.normal(2.0, 1.0, size=200)
        a1, a2 = P2Quantile(0.5), P2Quantile(0.5)
        b1, b2 = P2Quantile(0.5), P2Quantile(0.5)
        a1.update(xs)
        a2.update(xs)
        b1.update(ys)
        b2.update(ys)
        a1.merge(b1)
        b2.merge(a2)
        assert a1.value() == b2.value()
        assert a1.count == b2.count

    def test_tiny_merge_stays_exact(self):
        a, b = P2Quantile(0.5), P2Quantile(0.5)
        a.update([1.0, 5.0])
        b.update([3.0])
        a.merge(b)
        assert a.value() == np.percentile([1.0, 5.0, 3.0], 50)


class TestStreamingSummary:
    def test_small_sample_matches_summarize(self):
        values = [2.0, 7.0, 4.0]
        streaming = StreamingSummary()
        streaming.update(values)
        assert streaming.summary() == summarize(values)

    def test_large_sample_moments_exact_quantiles_close(self):
        rng = np.random.default_rng(19)
        data = rng.normal(10.0, 2.0, size=3000)
        streaming = StreamingSummary()
        for chunk in random_chunks(data, rng):
            streaming.update(chunk)
        exact = summarize(data)
        got = streaming.summary()
        assert got.count == exact.count
        assert got.mean == pytest.approx(exact.mean, rel=1e-12)
        assert got.std == pytest.approx(exact.std, rel=1e-10)
        assert got.minimum == exact.minimum
        assert got.maximum == exact.maximum
        assert got.median == pytest.approx(exact.median, abs=0.1)
        assert got.p10 == pytest.approx(exact.p10, abs=0.15)
        assert got.p90 == pytest.approx(exact.p90, abs=0.15)


class TestHalfwidths:
    def test_t_quantile_known_values(self):
        assert t_quantile(0.975, 5) == pytest.approx(2.5706, abs=5e-3)
        assert t_quantile(0.975, 30) == pytest.approx(2.0423, abs=2e-3)
        assert t_quantile(0.975, 10**6) == pytest.approx(
            normal_quantile(0.975), abs=1e-4
        )

    def test_t_quantile_rejects_bad_inputs(self):
        with pytest.raises(HarnessError):
            t_quantile(0.0, 5)
        with pytest.raises(HarnessError):
            t_quantile(1.0, 5)
        with pytest.raises(HarnessError):
            t_quantile(0.975, 0)

    def test_single_trial_interval_is_unresolved_not_nan(self):
        # Regression: one trial has std 0.0; the t interval must report
        # "not yet resolvable" (inf), never NaN, so stopping rules keep
        # running instead of comparing against NaN.
        assert mean_halfwidth(0, 0.0) == math.inf
        assert mean_halfwidth(1, 0.0) == math.inf
        assert not math.isnan(mean_halfwidth(1, 0.0))

    def test_mean_halfwidth_matches_t_formula(self):
        expected = t_quantile(0.975, 99) * 1.0 / math.sqrt(100)
        assert mean_halfwidth(100, 1.0) == pytest.approx(expected)

    def test_rate_halfwidth(self):
        assert rate_halfwidth(0, 0) == math.inf
        low, high = wilson_interval(30, 100, z=normal_quantile(0.975))
        assert rate_halfwidth(30, 100) == pytest.approx((high - low) / 2)


class TestSeedStream:
    def test_prefix_stable_with_spawn_seeds(self):
        reference = RngHub(42).spawn_seeds(100)
        stream = RngHub(42).seed_stream()
        chunked = []
        for size in (1, 7, 32, 60):
            chunked.extend(stream.take(size))
        assert chunked == reference
        assert stream.drawn == 100

    def test_labels_decorrelate(self):
        a = RngHub(42).seed_stream(name="a").take(5)
        b = RngHub(42).seed_stream(name="b").take(5)
        assert a != b


def square_trial(seed: int) -> int:
    return seed % 97


class TestStreamingExecutor:
    def test_jobs_grammar(self):
        assert isinstance(get_executor("stream"), StreamingExecutor)
        assert get_executor("stream:512").chunk_size == 512
        assert isinstance(
            get_executor("streaming:8"), StreamingExecutor
        )

    def test_rejects_nesting(self):
        with pytest.raises(HarnessError):
            StreamingExecutor(inner=StreamingExecutor())

    def test_run_protocol_is_bit_identical(self):
        seeds = RngHub(3).spawn_seeds(50)
        reference = BatchedExecutor().run(square_trial, seeds)
        got = StreamingExecutor(chunk_size=7).run(square_trial, seeds)
        assert got == reference

    def test_iter_chunks_sizes_and_ceiling(self):
        executor = StreamingExecutor(chunk_size=8)
        stream = RngHub(0).seed_stream()
        sizes = [
            len(chunk)
            for chunk in executor.iter_chunks(
                square_trial, stream, max_trials=20
            )
        ]
        assert sizes == [8, 8, 4]


class TestStreamTrials:
    def test_full_run_matches_run_trials(self):
        reference = run_trials(square_trial, 100, seed=5)
        collected = []

        def consume(results, total):
            collected.extend(results)
            return False

        ran = stream_trials(
            square_trial,
            5,
            consume,
            max_trials=100,
            executor=StreamingExecutor(chunk_size=9),
        )
        assert ran == 100
        assert collected == reference

    def test_early_stop_leaves_exact_prefix(self):
        reference = run_trials(square_trial, 64, seed=5)
        collected = []

        def consume(results, total):
            collected.extend(results)
            return total >= 30

        ran = stream_trials(
            square_trial,
            5,
            consume,
            max_trials=64,
            executor=StreamingExecutor(chunk_size=16),
        )
        assert ran == 32  # stops at the chunk boundary past 30
        assert collected == reference[:32]

    def test_rejects_bad_ceiling(self):
        with pytest.raises(HarnessError):
            stream_trials(square_trial, 0, lambda r, t: True, max_trials=0)


def tiny_count_spec(**kwargs):
    base = dict(
        name="tiny-stream-count",
        title="tiny streaming count",
        trials=8,
        sweep=SweepSpec(axes={"m": [2, 4]}),
        protocol=ProtocolSpec(
            "count", {"m": "$m", "max_count": 8, "log_n": 3}
        ),
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


def tiny_protocol_spec(kind):
    """A two-point spec of each protocol kind, small enough to stream."""
    if kind == "count":
        return tiny_count_spec()
    params = {
        "ckseek": {"khat": 2},
        "naive_discovery": {"max_slots": 500},
        "naive_broadcast": {"max_slots": "$slots"},
    }.get(kind, {})
    if kind == "naive_broadcast":
        # No traffic model: sweep the schedule length instead.
        axes, interference = {"slots": [6, 60]}, None
    else:
        axes = {"activity": [0.0, 0.7]}
        interference = InterferenceSpec(
            activity="$activity", mean_dwell=4.0
        )
    return ScenarioSpec(
        name=f"tiny-stream-{kind}",
        title=f"tiny streaming {kind}",
        trials=8,
        sweep=SweepSpec(axes=axes),
        topology=TopologySpec("star", {"n": 5}),
        assignment=AssignmentSpec(kind="global_core", c=6, k=2),
        interference=interference,
        protocol=ProtocolSpec(kind, params),
    )


def loose_precision(**kwargs):
    base = dict(
        targets={"band_rate": 0.5},
        min_trials=8,
        max_trials=64,
        chunk=8,
    )
    base.update(kwargs)
    return PrecisionSpec(**base)


class TestPrecisionSpec:
    def test_validation(self):
        with pytest.raises(HarnessError):
            PrecisionSpec(targets={})
        with pytest.raises(HarnessError):
            PrecisionSpec(targets={"success": 0.0})
        with pytest.raises(HarnessError):
            PrecisionSpec(targets={"success": 0.1}, confidence=1.0)
        with pytest.raises(HarnessError):
            PrecisionSpec(targets={"success": 0.1}, min_trials=0)
        with pytest.raises(HarnessError):
            PrecisionSpec(
                targets={"success": 0.1}, min_trials=10, max_trials=5
            )
        with pytest.raises(HarnessError):
            PrecisionSpec(targets={"success": 0.1}, chunk=-1)

    def test_round_trips_through_json(self):
        spec = tiny_count_spec(precision=loose_precision())
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        rebuilt = spec_from_dict(payload)
        assert rebuilt.precision == spec.precision
        assert spec_digest(rebuilt) == spec_digest(spec)

    def test_precision_changes_digest(self):
        plain = tiny_count_spec()
        streamed = tiny_count_spec(precision=loose_precision())
        assert spec_digest(plain) != spec_digest(streamed)

    def test_overrides_build_precision_from_nothing(self):
        spec = apply_overrides(
            tiny_count_spec(),
            {
                "precision.targets.band_rate": "0.25",
                "precision.max_trials": "128",
            },
        )
        assert spec.precision is not None
        assert spec.precision.targets == {"band_rate": 0.25}
        assert spec.precision.max_trials == 128

    def test_paper_precision_changes_digest(self):
        e7 = paper_spec("E7")
        a, b = (
            apply_overrides(e7, {"precision.targets.mean_rounds": h})
            for h in ("5", "6")
        )
        assert a.precision.targets == {"mean_rounds": 5}
        assert len({spec_digest(s) for s in (e7, a, b)}) == 3


class TestStreamScenario:
    def test_easy_point_stops_at_min_trials(self):
        table = stream_scenario_spec(
            tiny_count_spec(precision=loose_precision())
        )
        for row in table.rows:
            assert row["trials"] == 8
            assert row["converged"] is True
            assert row["ci_band_rate"] <= 0.5

    def test_min_trials_outlasts_small_chunks(self):
        # Targets met after the first 4-trial chunk; the point still
        # runs on to min_trials.
        table = stream_scenario_spec(
            tiny_count_spec(precision=loose_precision(chunk=4))
        )
        for row in table.rows:
            assert row["trials"] == 8
            assert row["converged"] is True

    def test_hard_point_runs_to_max_trials(self):
        table = stream_scenario_spec(
            tiny_count_spec(
                precision=loose_precision(targets={"band_rate": 1e-6})
            )
        )
        for row in table.rows:
            assert row["trials"] == 64
            assert row["converged"] is False

    @pytest.mark.parametrize(
        "kind",
        [
            "count",
            "cseek",
            "ckseek",
            "cgcast",
            "naive_discovery",
            "naive_broadcast",
        ],
    )
    def test_rate_metrics_match_fixed_path_exactly(self, kind):
        spec = tiny_protocol_spec(kind)
        target = "band_rate" if kind == "count" else "success"

        def both(trials, chunk):
            fixed = run_scenario_spec(spec, trials=trials, seed=0)
            streamed = stream_scenario_spec(
                spec,
                seed=0,
                precision=PrecisionSpec(
                    targets={target: 1e-6},
                    min_trials=trials,
                    max_trials=trials,
                    chunk=chunk,
                ),
            )
            return zip(fixed.rows, streamed.rows, strict=True)

        # One chunk of <= 5 trials: P² is still exact and a one-chunk
        # Welford mean is the array mean, so every column matches.
        for fixed_row, streamed_row in both(5, 5):
            assert streamed_row["trials"] == 5
            for name, value in fixed_row.items():
                assert streamed_row[name] == value, name
        # Several chunks: rates, constants and first-outcome columns
        # stay exact; means agree up to rounding.
        means = {
            "discovered_fraction",
            "mean_completion",
            "mean_dissemination",
        }
        for fixed_row, streamed_row in both(12, 3):
            assert streamed_row["trials"] == 12
            for name, value in fixed_row.items():
                if name == "median_ratio":
                    continue
                if name in means and value is not None:
                    assert streamed_row[name] == pytest.approx(
                        value, rel=1e-12
                    ), name
                else:
                    assert streamed_row[name] == value, name

    def test_rejects_untargetable_metric(self):
        with pytest.raises(HarnessError, match="median_ratio"):
            stream_scenario_spec(
                tiny_count_spec(),
                precision=loose_precision(targets={"median_ratio": 0.1}),
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"metrics": '["band_rat"]'},
            {
                "metrics": '["band_rat"]',
                "precision.targets.band_rate": "0.1",
            },
            {"precision.targets.median_ratio": "0.1"},
        ],
        ids=["metric-fixed", "metric-streamed", "untargetable"],
    )
    def test_bad_name_fails_before_any_trial(self, overrides):
        spec = resolve_scenario("count-interference", overrides)
        with obs.capture() as tel:
            with pytest.raises(HarnessError, match="band_rat|median_ratio"):
                run_scenario(spec, trials=4)
        assert tel.counters.get("executor.trials", 0) == 0

    def test_requires_a_precision_contract(self):
        with pytest.raises(HarnessError, match="precision"):
            stream_scenario_spec(tiny_count_spec())

    def test_target_no_run_carries_fails_before_any_trial(self):
        with obs.capture() as tel:
            with pytest.raises(HarnessError, match="'success'"):
                stream_scenario_spec(
                    paper_spec("E7"),
                    precision=loose_precision(targets={"success": 0.1}),
                )
        assert tel.counters.get("executor.trials", 0) == 0

    def test_point_carrying_no_target_fails_at_lowering(self):
        # E8's star points run CSEEK, which has no mean_rounds column.
        with obs.capture() as tel:
            with pytest.raises(HarnessError, match=r"point 3 \(runs e8-star"):
                stream_scenario_spec(
                    paper_spec("E8"),
                    precision=loose_precision(targets={"mean_rounds": 1.0}),
                )
        assert tel.counters.get("executor.trials", 0) == 0


#: A target every point of each paper experiment carries (E8 and E10
#: mix run shapes, so they need one target per shape).
PAPER_TARGETS = {
    "E1": {"band_rate": 1e-6},
    "E3": {"final_fraction": 1e-6},
    "E4": {"success": 1e-6},
    "E5": {"valid_rate": 1e-6},
    "E6": {"success": 1e-6},
    "E7": {"mean_rounds": 1e-6},
    "E8": {"mean_rounds": 1e-6, "mean_completion": 1e-6},
    "E9": {"success": 1e-6},
    "E10": {"low_overlap_found": 1e-6, "success": 1e-6},
    "E11": {"setup": 1e-6},
    "E12": {"success": 1e-6},
}


@pytest.mark.integration
@pytest.mark.parametrize("experiment_id", sorted(PAPER_TARGETS))
def test_paper_rows_stream_identically(experiment_id):
    """One 3-trial chunk streams the fixed path's rows byte for byte.

    Within one chunk a Welford mean is the array mean and P² is exact
    below five values, so only the provenance columns differ. E2 is
    left out for time; E6 and E9 cover its two-run point shape.
    """
    spec = paper_spec(experiment_id)
    fixed = run_scenario_spec(spec, trials=3, seed=0, jobs="batch")
    streamed = stream_scenario_spec(
        spec,
        seed=0,
        precision=PrecisionSpec(
            targets=PAPER_TARGETS[experiment_id], min_trials=3, max_trials=3
        ),
    )
    provenance = {"trials", "converged"}
    stripped = [
        {
            k: v
            for k, v in row.items()
            if k not in provenance and not k.startswith("ci_")
        }
        for row in streamed.rows
    ]

    def dump(rows):
        return json.dumps(rows, default=lambda v: v.item())

    assert dump(stripped) == dump(fixed.rows)
    assert streamed.notes == fixed.notes
    assert all(row["trials"] == 3 for row in streamed.rows)


class TestRunScenarioRouting:
    def test_precision_spec_routes_through_streaming(self):
        table = run_scenario(
            tiny_count_spec(precision=loose_precision()), trials=999
        )
        for row in table.rows:
            assert row["trials"] == 8  # trials arg is ignored
            assert "converged" in row
            assert "ci_band_rate" in row

    def test_streamed_cache_never_collides_with_fixed(self, tmp_path):
        plain = tiny_count_spec()
        streamed_spec = tiny_count_spec(
            precision=loose_precision(max_trials=8)
        )
        fixed = run_scenario(
            plain, trials=8, cache=True, cache_dir=tmp_path
        )
        streamed = run_scenario(
            streamed_spec, cache=True, cache_dir=tmp_path
        )
        assert "trials" not in fixed.rows[0]
        assert streamed.rows[0]["trials"] == 8
        replay = run_scenario(
            streamed_spec, cache=True, cache_dir=tmp_path
        )
        assert replay.rows == streamed.rows


class TestCampaignPrecision:
    def test_manifest_records_declared_and_achieved(self, tmp_path):
        from repro.campaigns.orchestrate import run_campaign
        from repro.campaigns.spec import CampaignEntry, CampaignSpec

        spec = CampaignSpec(
            name="stream-smoke",
            title="streaming smoke",
            description="precision provenance test",
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="streamed",
                    overrides={
                        "sweep.axes.m": [2],
                        "sweep.axes.activity": [0.0],
                        "precision.targets.band_rate": 0.5,
                        "precision.min_trials": 8,
                        "precision.max_trials": 64,
                        "precision.chunk": 8,
                    },
                ),
            ),
        )
        result = run_campaign(spec, store=tmp_path, log=lambda s: None)
        assert result.counts() == {"ran": 1, "cached": 0, "failed": 0}
        manifest = json.loads(
            (
                result.path / "entries" / "streamed" / "manifest.json"
            ).read_text(encoding="utf-8")
        )
        assert manifest["trials"] == 64  # the contract's ceiling
        block = manifest["precision"]
        assert block["declared"]["targets"] == {"band_rate": 0.5}
        achieved = block["achieved"]
        assert achieved["all_converged"] is True
        assert achieved["points"][0]["trials"] == 8
        assert achieved["total_trials"] == 8
        resumed = run_campaign(spec, store=tmp_path, log=lambda s: None)
        assert resumed.counts() == {"ran": 0, "cached": 1, "failed": 0}
