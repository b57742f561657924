"""Row-identity pins for E1-E12 through the scenario layer.

``tests/data/golden_tables.json`` holds every experiment's rows as
generated by the pre-scenario (hand-written) harness at small
``(trials, seed=0)``. The scenario-layer reimplementation must
reproduce them exactly — same keys, same values — which pins the
per-point seeds, seed-stream labels and trial semantics of each plan.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import paper_spec, run_scenario

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "golden_tables.json")
    .read_text()
)


def _normalize(rows):
    """JSON round-trip so numpy scalars compare equal to golden values."""
    return json.loads(
        json.dumps(rows, default=lambda v: v.item())
    )


@pytest.mark.integration
@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
def test_rows_identical_to_pre_scenario_harness(experiment_id):
    golden = GOLDEN[experiment_id]
    table = run_scenario(
        paper_spec(experiment_id),
        trials=golden["trials"],
        seed=golden["seed"],
        jobs="batch",
    )
    assert table.title == golden["title"]
    assert _normalize(table.rows) == golden["rows"]


def test_paper_specs_cover_all_experiments():
    for i in range(1, 13):
        spec = paper_spec(f"E{i}")
        assert spec.name == f"E{i}"
        assert "paper" in spec.tags
        assert not spec.is_declarative
