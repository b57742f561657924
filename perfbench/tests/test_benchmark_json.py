"""BENCHMARK.json agrees with the metrics and workloads the code emits."""

import json
from pathlib import Path

import pytest

from layers import PER_LAYER
from workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match(doc):
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_metrics_match(doc):
    declared = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert declared == END_TO_END
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match(doc):
    declared = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert declared == PER_LAYER


def test_command_runs_only_the_benchmark(doc):
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
