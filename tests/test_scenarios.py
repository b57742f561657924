"""Unit tests for the declarative scenario subsystem."""

import json

import pytest

from repro import obs
from repro.harness.cache import cache_key
from repro.model import HarnessError
from repro.scenarios import (
    AssignmentSpec,
    InterferenceSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    apply_overrides,
    get_scenario,
    load_scenario_file,
    resolve_scenario,
    run_scenario,
    scenario_ids,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenarios.spec import resolve


def tiny_count_spec(**kwargs):
    base = dict(
        name="tiny-count",
        title="tiny",
        trials=3,
        sweep=SweepSpec(axes={"m": [1, 2]}),
        protocol=ProtocolSpec(
            "count", {"m": "$m", "max_count": 4, "log_n": 3}
        ),
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


def tiny_cseek_spec(**kwargs):
    base = dict(
        name="tiny-cseek",
        title="tiny cseek",
        trials=2,
        sweep=SweepSpec(axes={"activity": [0.0, 0.7]}),
        topology=TopologySpec("star", {"n": 5}),
        assignment=AssignmentSpec(kind="global_core", c=6, k=2),
        interference=InterferenceSpec(
            activity="$activity", mean_dwell=4.0
        ),
        protocol=ProtocolSpec("cseek"),
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


class TestSweepSpec:
    def test_product_expansion_order(self):
        sweep = SweepSpec(axes={"a": [1, 2], "b": ["x", "y"]})
        assert sweep.points() == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_zip_expansion(self):
        sweep = SweepSpec(axes={"a": [1, 2], "b": [3, 4]}, mode="zip")
        assert sweep.points() == [{"a": 1, "b": 3}, {"a": 2, "b": 4}]

    def test_empty_axes_yield_one_point(self):
        assert SweepSpec().points() == [{}]

    def test_rejects_bad_mode_and_ragged_zip(self):
        with pytest.raises(HarnessError):
            SweepSpec(axes={"a": [1]}, mode="shuffle")
        with pytest.raises(HarnessError):
            SweepSpec(axes={"a": [1], "b": [1, 2]}, mode="zip")

    def test_rejects_empty_axis(self):
        with pytest.raises(HarnessError):
            SweepSpec(axes={"a": []})


class TestResolve:
    def test_reference_and_passthrough(self):
        scope = {"m": 4, "seed": 7}
        assert resolve("$m", scope) == 4
        assert resolve(3.5, scope) == 3.5
        assert resolve("plain", scope) == "plain"

    def test_nested_containers(self):
        scope = {"x": 1}
        assert resolve({"a": ["$x", 2]}, scope) == {"a": [1, 2]}

    def test_unknown_reference_raises(self):
        with pytest.raises(HarnessError, match="unknown scenario ref"):
            resolve("$nope", {"m": 1})


class TestExprReferences:
    SCOPE = {"num_channels": 8, "seed": 3, "pseed": 5}

    def test_arithmetic_over_scope(self):
        assert resolve({"$expr": "num_channels * 2"}, self.SCOPE) == 16
        assert resolve({"$expr": "num_channels + seed"}, self.SCOPE) == 11
        assert resolve({"$expr": "num_channels // 3"}, self.SCOPE) == 2
        assert resolve({"$expr": "2 ** 3 - 1"}, self.SCOPE) == 7
        assert resolve({"$expr": "-seed"}, self.SCOPE) == -3
        assert resolve(
            {"$expr": "(num_channels + 1) % 4"}, self.SCOPE
        ) == 1

    def test_whitelisted_calls(self):
        assert resolve({"$expr": "max(1, seed - 10)"}, self.SCOPE) == 1
        assert resolve({"$expr": "int(seed / 2)"}, self.SCOPE) == 1
        assert resolve(
            {"$expr": "min(num_channels, 4)"}, self.SCOPE
        ) == 4

    def test_nested_inside_containers(self):
        value = {"params": {"c": {"$expr": "num_channels * 2"}, "k": 1}}
        assert resolve(value, self.SCOPE) == {
            "params": {"c": 16, "k": 1}
        }

    def test_unknown_name_lists_scope(self):
        with pytest.raises(HarnessError, match="unknown name"):
            resolve({"$expr": "bogus + 1"}, self.SCOPE)

    def test_unsafe_syntax_rejected(self):
        for bad in (
            "__import__('os').system('true')",
            "seed.denominator",
            "'a' * 3",
            "[1, 2]",
            "seed if seed else 0",
            "lambda: 1",
            "min(1, 2, key=abs)",
        ):
            with pytest.raises(HarnessError):
                resolve({"$expr": bad}, self.SCOPE)

    def test_bad_values_rejected(self):
        with pytest.raises(HarnessError, match="invalid \\$expr"):
            resolve({"$expr": "1 +"}, self.SCOPE)
        with pytest.raises(HarnessError, match="expression string"):
            resolve({"$expr": 7}, self.SCOPE)
        with pytest.raises(HarnessError, match="failed at this sweep"):
            resolve({"$expr": "1 / (seed - 3)"}, self.SCOPE)

    def test_runtime_arithmetic_errors_become_harness_errors(self):
        # Float overflow and non-numeric axis values are spec errors,
        # not tracebacks.
        with pytest.raises(HarnessError, match="failed at this sweep"):
            resolve({"$expr": "1e300 ** 2"}, self.SCOPE)
        with pytest.raises(HarnessError, match="failed at this sweep"):
            resolve({"$expr": "int(model)"}, {"model": "markov"})

    def test_unbounded_exponents_rejected(self):
        # 9**9**9**9 would materialize an astronomically large int
        # before any other guard could fire; the exponent cap rejects
        # it without evaluating.
        with pytest.raises(HarnessError, match="exponents are limited"):
            resolve({"$expr": "9 ** 9 ** 9 ** 9"}, self.SCOPE)
        with pytest.raises(HarnessError, match="exponents are limited"):
            resolve({"$expr": "2 ** 65"}, self.SCOPE)
        assert resolve({"$expr": "2 ** 64"}, self.SCOPE) == 2**64
        assert resolve({"$expr": "2 ** -2"}, self.SCOPE) == 0.25

    def test_expr_with_extra_keys_rejected(self):
        # A stray key next to $expr must fail loudly, not pass the
        # unevaluated dict downstream.
        with pytest.raises(HarnessError, match="only the '\\$expr' key"):
            resolve(
                {"$expr": "seed * 2", "comment": "x"}, self.SCOPE
            )

    def test_expr_drives_a_real_sweep(self):
        # Derived parameter end-to-end: max_count follows the m axis.
        spec = tiny_count_spec(
            protocol=ProtocolSpec(
                "count",
                {
                    "m": "$m",
                    "max_count": {"$expr": "m * 2"},
                    "log_n": 3,
                },
            )
        )
        table = run_scenario(spec, seed=1)
        assert len(table.rows) == 2


class TestSpecValidation:
    def test_rejects_unknown_kinds(self):
        with pytest.raises(HarnessError):
            TopologySpec("moebius")
        with pytest.raises(HarnessError):
            AssignmentSpec(kind="psychic")
        with pytest.raises(HarnessError):
            ProtocolSpec("carrier-pigeon")

    def test_protocol_required_without_plan(self):
        with pytest.raises(HarnessError, match="protocol"):
            ScenarioSpec(name="x", title="x")

    def test_topology_required_for_network_protocols(self):
        with pytest.raises(HarnessError, match="topology"):
            ScenarioSpec(
                name="x", title="x", protocol=ProtocolSpec("cseek")
            )

    def test_count_needs_no_topology(self):
        tiny_count_spec()  # must not raise


class TestSerialization:
    def test_round_trip_preserves_digest(self):
        spec = tiny_cseek_spec(metrics=("success",))
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        back = spec_from_dict(payload)
        assert spec_digest(back) == spec_digest(spec)
        assert back.sweep.axes == spec.sweep.axes
        assert back.protocol.kind == "cseek"

    def test_unknown_keys_rejected(self):
        with pytest.raises(HarnessError, match="unknown scenario keys"):
            spec_from_dict({"name": "x", "protocol": {"kind": "cseek"},
                            "toplogy": {}})
        with pytest.raises(HarnessError, match="unknown topology keys"):
            spec_from_dict(
                {
                    "name": "x",
                    "protocol": {"kind": "count", "params": {"m": 1}},
                    "topology": {"kind": "star", "prams": {}},
                }
            )

    def test_plan_based_specs_do_not_serialize(self):
        spec = get_scenario("E1")
        with pytest.raises(HarnessError, match="code-defined"):
            spec_to_dict(spec)

    def test_scenario_file_loading(self, tmp_path):
        spec = tiny_count_spec()
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        loaded = load_scenario_file(path)
        assert loaded.name == spec.name
        assert spec_digest(loaded) == spec_digest(spec)

    def test_bad_scenario_file_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(HarnessError, match="not valid JSON"):
            load_scenario_file(path)
        with pytest.raises(HarnessError, match="cannot read"):
            load_scenario_file(tmp_path / "missing.json")


class TestOverrides:
    def test_override_changes_value_and_digest(self):
        spec = tiny_count_spec()
        new = apply_overrides(
            spec, {"trials": "9", "sweep.axes.m": "[4]"}
        )
        assert new.trials == 9
        assert new.sweep.axes["m"] == [4]
        assert spec_digest(new) != spec_digest(spec)

    def test_bare_string_values_pass_through(self):
        spec = tiny_cseek_spec()
        new = apply_overrides(
            spec, {"protocol.params.part2_listener": "uniform"}
        )
        assert new.protocol.params["part2_listener"] == "uniform"

    def test_plan_based_accepts_data_field_paths(self):
        spec = get_scenario("E1")
        assert apply_overrides(spec, {"trials": "2"}).trials == 2
        new = apply_overrides(
            spec,
            {
                "trials": "3",
                "experiment_id": "E1-variant",
                "title": "retitled",
                "notes": "custom notes",
                "tags": '["paper", "variant"]',
            },
        )
        assert new.trials == 3
        assert new.table_id == "E1-variant"
        assert new.title == "retitled"
        assert new.notes == "custom notes"
        assert new.tags == ("paper", "variant")
        # The original registered spec is untouched.
        assert spec.table_id == "E1"
        # Overridden data fields reach the plan-based digest, so cache
        # entries never collide.
        assert spec_digest(new) != spec_digest(spec)

    def test_plan_based_rejects_plan_owned_paths(self):
        spec = get_scenario("E1")
        for path in ("assignment.c", "sweep.axes.m", "protocol.params.x"):
            with pytest.raises(HarnessError, match="code-defined"):
                apply_overrides(spec, {path: "4"})
        # The error names what plan-based specs do accept.
        with pytest.raises(HarnessError, match="trials"):
            apply_overrides(spec, {"topology.kind": "star"})

    def test_non_numeric_trials_fail_cleanly(self):
        # Both override paths (plan-based and declarative) must surface
        # garbage trials as a HarnessError, not a bare ValueError.
        with pytest.raises(HarnessError, match="trials must be"):
            apply_overrides(get_scenario("E1"), {"trials": "abc"})
        with pytest.raises(HarnessError, match="trials must be"):
            apply_overrides(tiny_count_spec(), {"trials": "abc"})
        with pytest.raises(HarnessError, match="trials must be"):
            apply_overrides(tiny_count_spec(), {"trials": "[2]"})

    def test_bad_path_rejected(self):
        spec = tiny_count_spec()
        with pytest.raises(HarnessError, match="unknown scenario keys"):
            apply_overrides(spec, {"speling": "1"})


class TestSpecDigest:
    def test_callable_notes_keep_parameters_in_the_digest(self):
        # A declarative spec with computed notes must still digest its
        # parameters — otherwise differently-swept workloads would
        # collide in the result cache.
        def notes(rows, ctx):
            return "computed"

        a = tiny_count_spec(notes=notes)
        b = tiny_count_spec(
            notes=notes, sweep=SweepSpec(axes={"m": [4]})
        )
        assert spec_digest(a) != spec_digest(b)

    def test_sweep_change_changes_digest(self):
        a = tiny_count_spec()
        b = tiny_count_spec(sweep=SweepSpec(axes={"m": [1, 2, 4]}))
        assert spec_digest(a) != spec_digest(b)


class TestRegistry:
    def test_paper_and_stock_scenarios_registered(self):
        ids = scenario_ids()
        assert [f"E{i}" for i in range(1, 13)] == ids[:12]
        assert len(ids) >= 15  # >= 3 stock scenarios beyond the paper
        stock = [
            s for s in ids[12:] if "paper" not in get_scenario(s).tags
        ]
        assert len(stock) >= 3

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("PU-GEO-CSEEK").name == "pu-geo-cseek"

    def test_unknown_scenario_errors(self):
        with pytest.raises(HarnessError, match="unknown scenario"):
            get_scenario("does-not-exist")


class TestDeclarativeExecution:
    def test_count_scenario_rows(self):
        table = run_scenario(tiny_count_spec(), seed=3)
        assert len(table.rows) == 2
        assert set(table.rows[0]) == {
            "m", "median_ratio", "band_rate", "slots",
        }
        assert table.rows[0]["m"] == 1

    def test_executors_produce_identical_rows(self):
        spec = tiny_count_spec()
        serial = run_scenario(spec, seed=5)
        pooled = run_scenario(spec, seed=5, jobs=2)
        batched = run_scenario(spec, seed=5, jobs="batch")
        assert serial.rows == pooled.rows == batched.rows

    @pytest.mark.integration
    def test_cseek_with_interference_across_executors(self):
        spec = tiny_cseek_spec()
        serial = run_scenario(spec, seed=2)
        batched = run_scenario(spec, seed=2, jobs="batch")
        assert serial.rows == batched.rows
        assert {"success", "discovered_fraction"} <= set(serial.rows[0])

    def test_interference_model_axis_produces_different_rows(self):
        # The traffic process itself as a sweep axis: at identical
        # activity the markov and poisson rows must come from different
        # occupancy streams (and markov should lose at least as much).
        spec = tiny_cseek_spec(
            sweep=SweepSpec(
                axes={"model": ["markov", "poisson"], "activity": [0.8]}
            ),
            interference=InterferenceSpec(
                model="$model", activity="$activity", mean_dwell=100.0
            ),
        )
        table = run_scenario(spec, seed=2)
        assert [r["model"] for r in table.rows] == ["markov", "poisson"]
        markov, poisson = table.rows
        assert markov["discovered_fraction"] <= poisson[
            "discovered_fraction"
        ]

    def test_static_interference_model(self):
        spec = tiny_cseek_spec(
            sweep=None,
            interference=InterferenceSpec(
                model="static", blocked=list(range(64))
            ),
        )
        table = run_scenario(spec, seed=1)
        # Every global channel blocked: discovery cannot succeed.
        assert table.rows[0]["success"] == 0.0
        assert table.rows[0]["discovered_fraction"] == 0.0

    def test_unknown_interference_model_rejected(self):
        with pytest.raises(HarnessError, match="unknown interference"):
            InterferenceSpec(model="fractal")

    def test_interference_model_round_trips_through_json(self):
        spec = tiny_cseek_spec(
            interference=InterferenceSpec(
                model="poisson", activity="$activity"
            )
        )
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        assert payload["interference"]["model"] == "poisson"
        back = spec_from_dict(payload)
        assert back.interference.model == "poisson"
        assert spec_digest(back) == spec_digest(spec)

    @pytest.mark.integration
    def test_poisson_scenario_file_runs_via_batch(self, tmp_path):
        # The acceptance path: a JSON scenario file selecting
        # "model": "poisson", end-to-end through jobs="batch",
        # row-identical to the serial executor.
        spec = tiny_cseek_spec(
            interference=InterferenceSpec(
                model="poisson", activity="$activity"
            )
        )
        path = tmp_path / "poisson.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        batched = run_scenario(str(path), seed=3, jobs="batch")
        serial = run_scenario(str(path), seed=3)
        assert batched.rows == serial.rows
        assert len(batched.rows) == 2

    def test_interference_seed_offset_resolves_references(self):
        spec = tiny_count_spec(
            sweep=SweepSpec(axes={"m": [1], "off": [500, 900]}),
            interference=InterferenceSpec(
                activity=0.4, mean_dwell=4.0, seed_offset="$off"
            ),
        )
        table = run_scenario(spec, seed=6)
        assert len(table.rows) == 2  # both offsets lower and run

    def test_metrics_filter_selects_columns(self):
        spec = tiny_count_spec(metrics=("median_ratio",))
        table = run_scenario(spec, seed=1)
        assert set(table.rows[0]) == {"m", "median_ratio"}

    def test_unknown_metric_errors(self):
        spec = tiny_count_spec(metrics=("nope",))
        with pytest.raises(HarnessError, match="unknown metrics"):
            run_scenario(spec, seed=1)

    def test_count_requires_m(self):
        spec = ScenarioSpec(
            name="bad-count",
            title="bad",
            protocol=ProtocolSpec("count", {"max_count": 4}),
        )
        with pytest.raises(HarnessError, match="'m'"):
            run_scenario(spec, seed=0)

    @pytest.mark.integration
    def test_ckseek_scenario_reports_delta_khat(self):
        spec = ScenarioSpec(
            name="tiny-ckseek",
            title="tiny ckseek",
            trials=2,
            topology=TopologySpec(
                "random_regular", {"n": 10, "d": 3, "seed": "$seed"}
            ),
            assignment=AssignmentSpec(
                kind="heterogeneous", c=12, k=1, kmax=2, seed="$seed"
            ),
            protocol=ProtocolSpec("ckseek", {"khat": 2}),
        )
        table = run_scenario(spec, seed=4)
        assert table.rows[0]["khat"] == 2
        assert "delta_khat" in table.rows[0]

    @pytest.mark.integration
    def test_naive_protocols_run(self):
        for kind in ("naive_discovery", "naive_broadcast"):
            spec = ScenarioSpec(
                name=f"tiny-{kind}",
                title="tiny",
                trials=2,
                topology=TopologySpec("path", {"n": 4}),
                assignment=AssignmentSpec(
                    kind="exact_uniform", c=6, k=2
                ),
                protocol=ProtocolSpec(kind),
            )
            table = run_scenario(spec, seed=1)
            assert table.rows and "success" in table.rows[0]


    def test_naive_broadcast_passes_its_params(self):
        # A one-slot schedule cannot inform a 4-node path from one end.
        spec = ScenarioSpec(
            name="tiny-naive-broadcast",
            title="tiny",
            trials=2,
            topology=TopologySpec("path", {"n": 4}),
            assignment=AssignmentSpec(kind="exact_uniform", c=6, k=2),
            protocol=ProtocolSpec("naive_broadcast", {"max_slots": 1}),
        )
        row = run_scenario(spec, seed=1).rows[0]
        assert row["success"] == 0.0
        assert row["mean_completion"] is None

    def test_naive_broadcast_rejects_active_interference(self):
        spec = tiny_cseek_spec(protocol=ProtocolSpec("naive_broadcast"))
        with pytest.raises(HarnessError, match="no primary-user traffic"):
            run_scenario(spec, seed=1)
        # Zero activity lowers to no environment, which it can run.
        quiet = apply_overrides(spec, {"sweep.axes.activity": "[0.0]"})
        assert run_scenario(quiet, seed=1).rows[0]["success"] == 1.0

    @pytest.mark.parametrize(
        "scenario, overrides, message",
        [
            ("count-interference", {"protocol.params.m": "0"}, "m >= 1"),
            ("count-interference", {"protocol.params.mm": "3"}, "'mm'"),
            (
                "count-interference",
                {"protocol.params.log_n": "-2"},
                "log_n >= 1",
            ),
            (
                "count-interference",
                {"protocol.params.max_count": "0"},
                "max_count >= 1",
            ),
            (
                "pu-geo-cseek",
                {"protocol.params.part1_step": "3"},
                "part1_step",
            ),
            (
                "grid-cgcast-hetero",
                {"protocol.params.source": "99"},
                "source 99",
            ),
            (
                "pu-geo-cseek",
                {
                    "protocol.kind": "naive_discovery",
                    "protocol.params.max_slots": "0",
                },
                "max_slots",
            ),
            (
                "grid-cgcast-hetero",
                {"protocol.kind": "ckseek", "protocol.params.khat": "9"},
                "khat",
            ),
        ],
        ids=["count-m0", "count-typo", "count-log-n-negative",
             "count-max-count-0", "cseek-typo", "cgcast-source",
             "naive-max-slots", "ckseek-khat"],
    )
    def test_invalid_protocol_params_fail_before_any_trial(
        self, scenario, overrides, message
    ):
        spec = resolve_scenario(scenario, overrides)
        with obs.capture() as tel:
            with pytest.raises(HarnessError, match=message) as err:
                run_scenario(spec, trials=2)
        assert tel.counters.get("executor.trials", 0) == 0
        assert f"scenario {scenario!r}, sweep point 0" in str(err.value)


class TestScenarioCache:
    def test_cache_key_extra_separates_entries(self):
        base = cache_key("X", 3, 0)
        assert base == cache_key("X", 3, 0)  # stable
        assert base == cache_key("X", 3, 0, extra=None)  # back-compat
        with_extra = cache_key("X", 3, 0, extra={"digest": "abc"})
        assert with_extra != base
        assert with_extra != cache_key("X", 3, 0, extra={"digest": "d"})

    def test_override_runs_never_collide_with_defaults(self, tmp_path):
        spec = tiny_count_spec()
        default = run_scenario(
            spec, seed=2, cache=True, cache_dir=tmp_path
        )
        overridden = run_scenario(
            spec,
            seed=2,
            overrides={"sweep.axes.m": "[2]"},
            cache=True,
            cache_dir=tmp_path,
        )
        assert len(default.rows) == 2
        assert len(overridden.rows) == 1
        assert len(list(tmp_path.glob("*.json"))) == 2
        # Replays hit their own entries.
        again = run_scenario(
            spec,
            seed=2,
            overrides={"sweep.axes.m": "[2]"},
            cache=True,
            cache_dir=tmp_path,
        )
        assert again.rows == overridden.rows
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_scenario_names_make_safe_cache_files(self, tmp_path):
        spec = tiny_count_spec(name="weird name/with:stuff")
        run_scenario(spec, seed=0, cache=True, cache_dir=tmp_path)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        assert "/" not in entries[0].name.replace(tmp_path.name, "")


class TestRandomSubsetsAssignment:
    """The white-space builder as a first-class AssignmentSpec mode."""

    def whitespace_spec(self, **kwargs):
        base = dict(
            name="tiny-whitespace",
            title="tiny whitespace",
            trials=2,
            sweep=SweepSpec(axes={"pool_size": [10, 14]}),
            assignment=AssignmentSpec(
                kind="random_subsets",
                n=8,
                c=5,
                k=2,
                pool_size="$pool_size",
            ),
            protocol=ProtocolSpec("cseek"),
        )
        base.update(kwargs)
        return ScenarioSpec(**base)

    def test_requires_n_and_pool_size(self):
        with pytest.raises(HarnessError, match="pool_size"):
            AssignmentSpec(kind="random_subsets", n=8)
        with pytest.raises(HarnessError, match="pool_size"):
            AssignmentSpec(kind="random_subsets", pool_size=12)

    def test_other_kinds_reject_whitespace_params(self):
        with pytest.raises(HarnessError, match="random_subsets"):
            AssignmentSpec(kind="global_core", n=8)
        with pytest.raises(HarnessError, match="random_subsets"):
            AssignmentSpec(kind="exact_uniform", pool_size=12)

    def test_topology_conflicts_with_induced_graph(self):
        with pytest.raises(HarnessError, match="induces"):
            self.whitespace_spec(
                topology=TopologySpec("star", {"n": 8})
            )

    def test_satisfies_topology_requirement(self):
        self.whitespace_spec()  # must not raise

    def test_json_round_trip_and_digest(self):
        spec = self.whitespace_spec()
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        back = spec_from_dict(payload)
        assert back.assignment.kind == "random_subsets"
        assert back.assignment.pool_size == "$pool_size"
        assert spec_digest(back) == spec_digest(spec)

    def test_digest_covers_whitespace_params(self):
        a = self.whitespace_spec()
        b = self.whitespace_spec(
            assignment=AssignmentSpec(
                kind="random_subsets", n=9, c=5, k=2,
                pool_size="$pool_size",
            )
        )
        assert spec_digest(a) != spec_digest(b)

    @pytest.mark.integration
    def test_pool_size_sweeps_and_rows_are_deterministic(self):
        spec = self.whitespace_spec()
        table = run_scenario(spec, seed=0, jobs="batch")
        assert [r["pool_size"] for r in table.rows] == [10, 14]
        again = run_scenario(spec, seed=0)
        assert again.rows == table.rows

    def test_stock_whitespace_scenario_registered(self):
        spec = get_scenario("whitespace-cseek")
        assert spec.assignment.kind == "random_subsets"
        assert spec.is_declarative
        spec_to_dict(spec)  # serializable like every stock scenario


class TestVectorActivityInDsl:
    """List-valued interference.activity lowers to per-channel traffic."""

    def vector_spec(self):
        return ScenarioSpec(
            name="tiny-vector-count",
            title="tiny",
            trials=3,
            protocol=ProtocolSpec(
                "count", {"m": 2, "max_count": 4, "log_n": 3}
            ),
            interference=InterferenceSpec(
                model="poisson", activity=[0.5]
            ),
        )

    def test_vector_activity_runs(self):
        table = run_scenario(self.vector_spec(), seed=0)
        assert len(table.rows) == 1

    def test_vector_digest_differs_from_scalar(self):
        vector = self.vector_spec()
        scalar = ScenarioSpec(
            name="tiny-vector-count",
            title="tiny",
            trials=3,
            protocol=ProtocolSpec(
                "count", {"m": 2, "max_count": 4, "log_n": 3}
            ),
            interference=InterferenceSpec(
                model="poisson", activity=0.5
            ),
        )
        assert spec_digest(vector) != spec_digest(scalar)

    def test_whitespace_rejects_heterogeneous_params(self):
        with pytest.raises(HarnessError, match="kmax"):
            AssignmentSpec(
                kind="random_subsets", n=8, pool_size=12, kmax=4
            )
        with pytest.raises(HarnessError, match="high_fraction"):
            AssignmentSpec(
                kind="random_subsets", n=8, pool_size=12,
                high_fraction=0.9,
            )

    def test_other_kinds_reject_stray_max_tries(self):
        with pytest.raises(HarnessError, match="max_tries"):
            AssignmentSpec(kind="exact_uniform", max_tries=5)
