"""Unit tests for the experiment harness (tables, runner, executors and
the result cache) and for running the paper experiments E1-E12 through
:func:`repro.scenarios.run_scenario`."""

import pytest

from repro.harness import (
    ExperimentTable,
    cache_key,
    load_table,
    render_markdown,
    run_trials,
    store_table,
    write_csv,
)
from repro.model import HarnessError
from repro.scenarios import PAPER_SPECS, paper_spec, run_scenario


class TestRenderMarkdown:
    def test_basic_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": None}]
        md = render_markdown(rows, title="T")
        assert "### T" in md
        assert "| a | b |" in md
        assert "| 3 | - |" in md

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2}]
        md = render_markdown(rows, columns=["b", "a"])
        assert md.splitlines()[0] == "| b | a |"

    def test_union_of_row_keys(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        md = render_markdown(rows)
        assert "| a | b |" in md

    def test_rejects_empty(self):
        with pytest.raises(HarnessError):
            render_markdown([])

    def test_rejects_missing_columns(self):
        with pytest.raises(HarnessError):
            render_markdown([{"a": 1}], columns=["nope"])

    def test_float_formatting(self):
        md = render_markdown([{"x": 123456.0, "y": 0.12345, "z": True}])
        assert "123,456" in md
        assert "0.123" in md
        assert "yes" in md


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = write_csv(tmp_path / "deep" / "out.csv", rows)
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert "2,y" in text


class TestExperimentTable:
    def make(self):
        return ExperimentTable(
            experiment_id="EX",
            title="demo",
            rows=[{"x": 1, "y": 2}],
            notes="some interpretation",
        )

    def test_to_markdown_includes_notes(self):
        md = self.make().to_markdown()
        assert "EX — demo" in md
        assert "some interpretation" in md

    def test_save_writes_both_files(self, tmp_path):
        paths = self.make().save(tmp_path)
        assert paths["markdown"].exists()
        assert paths["csv"].exists()
        assert paths["markdown"].name == "ex.md"


class TestRunTrials:
    def test_trials_get_distinct_seeds(self):
        seeds = run_trials(lambda s: s, trials=5, seed=1)
        assert len(set(seeds)) == 5

    def test_deterministic(self):
        a = run_trials(lambda s: s, trials=4, seed=9)
        b = run_trials(lambda s: s, trials=4, seed=9)
        assert a == b

    def test_label_decorrelates(self):
        a = run_trials(lambda s: s, trials=4, seed=9, label="x")
        b = run_trials(lambda s: s, trials=4, seed=9, label="y")
        assert a != b

    def test_rejects_zero_trials(self):
        with pytest.raises(HarnessError):
            run_trials(lambda s: s, trials=0, seed=0)

    def test_failure_surfaces_the_trial_seed(self):
        # A trial raising mid-sweep must name the seed that failed so
        # the failure is reproducible in isolation.
        seen = []

        def flaky(s):
            seen.append(s)
            if len(seen) == 3:
                raise ValueError("third trial dies")
            return s

        with pytest.raises(HarnessError) as excinfo:
            run_trials(flaky, trials=5, seed=12)
        assert f"seed={seen[2]}" in str(excinfo.value)

    def test_harness_errors_keep_seed_context(self):
        def refusing(s):
            raise HarnessError("player failed")

        with pytest.raises(HarnessError, match=r"seed=\d+.*player failed"):
            run_trials(refusing, trials=1, seed=3)


class TestExecutionEquivalence:
    """Same master seed => identical rows, whatever the strategy.

    Per-trial seeds are derived up front (RngHub.spawn_seeds), so the
    execution strategy must be a pure throughput decision; these tests
    pin that contract at the run_trials and run_scenario levels.
    """

    def test_run_trials_strategies_bit_identical(self):
        import numpy as np

        def trial(s):
            return float(np.random.default_rng(s).random())

        def run_batch(seeds):
            return [float(np.random.default_rng(s).random()) for s in seeds]

        trial.run_batch = run_batch
        serial = run_trials(trial, 12, seed=7)
        parallel = run_trials(trial, 12, seed=7, executor=2)
        batched = run_trials(trial, 12, seed=7, executor="batch")
        assert serial == parallel == batched

    @pytest.mark.integration
    def test_e1_rows_identical_across_strategies(self):
        # E1 exercises the full stack: run_count_step_batch under
        # "batch", fork workers under jobs=2, and the serial reference.
        serial = run_scenario("E1", trials=4, seed=9)
        parallel = run_scenario("E1", trials=4, seed=9, jobs=2)
        batched = run_scenario("E1", trials=4, seed=9, jobs="batch")
        assert serial.rows == parallel.rows
        assert serial.rows == batched.rows

    @pytest.mark.integration
    def test_e7_rows_identical_serial_vs_parallel(self):
        serial = run_scenario("E7", trials=4, seed=2)
        parallel = run_scenario("E7", trials=4, seed=2, jobs=2)
        assert serial.rows == parallel.rows


class TestResultCache:
    def make(self):
        return ExperimentTable(
            experiment_id="EX",
            title="demo",
            rows=[{"x": 1, "y": 2.5, "z": None, "w": "s"}],
            notes="notes",
        )

    def test_round_trip(self, tmp_path):
        table = self.make()
        store_table(table, trials=3, seed=1, cache_dir=tmp_path)
        loaded = load_table("EX", trials=3, seed=1, cache_dir=tmp_path)
        assert loaded is not None
        assert loaded.rows == table.rows
        assert loaded.title == table.title
        assert loaded.notes == table.notes

    def test_miss_on_different_params(self, tmp_path):
        store_table(self.make(), trials=3, seed=1, cache_dir=tmp_path)
        assert load_table("EX", trials=3, seed=2, cache_dir=tmp_path) is None
        assert load_table("EX", trials=4, seed=1, cache_dir=tmp_path) is None
        assert load_table("E9", trials=3, seed=1, cache_dir=tmp_path) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        path = store_table(self.make(), trials=1, seed=0, cache_dir=tmp_path)
        path.write_text("{not json")
        assert load_table("EX", trials=1, seed=0, cache_dir=tmp_path) is None

    def test_key_is_stable_and_param_sensitive(self):
        assert cache_key("E1", 3, 0) == cache_key("e1", 3, 0)
        assert cache_key("E1", 3, 0) != cache_key("E1", 3, 1)
        assert cache_key("E1", 3, 0) != cache_key("E2", 3, 0)

    def test_numpy_rows_serialize(self, tmp_path):
        import numpy as np

        table = ExperimentTable(
            experiment_id="EX",
            title="np",
            rows=[{"a": np.int64(3), "b": np.float64(0.5), "c": np.True_}],
        )
        store_table(table, trials=None, seed=0, cache_dir=tmp_path)
        loaded = load_table("EX", trials=None, seed=0, cache_dir=tmp_path)
        assert loaded.rows == [{"a": 3, "b": 0.5, "c": True}]

    @pytest.mark.integration
    def test_unwritable_cache_never_loses_the_table(self, tmp_path):
        # The cache is an optimization: a bad cache location must warn,
        # not discard a computed table.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.warns(UserWarning, match="result cache"):
            table = run_scenario(
                "E1", trials=2, seed=4, cache=True, cache_dir=blocker
            )
        assert table.rows

    @pytest.mark.integration
    def test_run_scenario_cache_hit_skips_execution(self, tmp_path):
        first = run_scenario(
            "E1", trials=2, seed=4, cache=True, cache_dir=tmp_path
        )
        entries = list(tmp_path.glob("e1-*.json"))
        assert len(entries) == 1
        again = run_scenario(
            "E1", trials=2, seed=4, cache=True, cache_dir=tmp_path
        )
        assert [list(r.items()) for r in again.rows] == [
            list(r.items()) for r in first.rows
        ]
        # The entry was reused, not rewritten into a second file.
        assert list(tmp_path.glob("e1-*.json")) == entries


class TestRegistry:
    def test_ids_cover_design_index(self):
        # E1-E10 regenerate the paper's claims; E11/E12 are extensions.
        assert list(PAPER_SPECS) == [f"E{i}" for i in range(1, 13)]

    def test_unknown_id_errors(self):
        with pytest.raises(HarnessError, match="unknown experiment"):
            paper_spec("E99")

    def test_case_insensitive(self):
        table = run_scenario(paper_spec("e1"), trials=2, seed=1)
        assert table.experiment_id == "E1"

    @pytest.mark.integration
    def test_e1_smoke(self):
        table = run_scenario("E1", trials=3, seed=2)
        assert table.rows
        assert {"rule", "m", "median_ratio"} <= set(table.rows[0])

    @pytest.mark.integration
    def test_e7_smoke(self):
        table = run_scenario("E7", trials=10, seed=3)
        # Lemma 10 rows (k <= c/2): the fresh/uniform players' medians
        # sit comfortably above the c^2/(8k) floor even at few trials.
        checked = 0
        for row in table.rows:
            floor = row["floor(c^2/8k)"]
            if floor is None or row["k"] > row["c"] / 2:
                continue
            assert row["median_rounds"] >= floor, row
            checked += 1
        assert checked > 0
