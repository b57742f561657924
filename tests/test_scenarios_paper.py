"""Row-identity pins for E1-E12 through the scenario layer.

``tests/data/golden_tables.json`` holds every experiment's rows as
generated by the pre-scenario (hand-written) harness at small
``(trials, seed=0)``. The scenario-layer reimplementation must
reproduce them exactly — same keys, same values — which pins the
per-point seeds, seed-stream labels and trial semantics of each plan.
The golden file stores keys sorted, so :data:`HEADERS` pins each
table's column order (its CSV and markdown header) separately.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import paper_spec, run_scenario

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "golden_tables.json")
    .read_text()
)

#: Every E1-E12 row's keys, in table-header order.
HEADERS = {
    "E1": ["rule", "m", "median_ratio", "band_rate(est in [m/4,4m])", "slots"],
    "E2": [
        "sweep", "x", "cseek_success", "naive_success", "cseek_completion",
        "naive_completion", "cseek_schedule", "naive_schedule",
        "cseek_bound", "naive_bound", "zeng_bound",
    ],
    "E3": [
        "workload", "part2_listener", "pairs", "part1_fraction",
        "final_fraction",
    ],
    "E4": ["khat", "delta_khat", "success", "schedule_slots", "bound"],
    "E5": ["n", "edges", "valid_rate", "mean_phases", "lg_n"],
    "E6": [
        "cliques", "D", "Delta", "cgcast_success", "cgcast_dissemination",
        "cgcast_per_hop", "cgcast_total", "naive_success",
        "naive_completion", "naive_per_hop", "cgcast_bound", "naive_bound",
    ],
    "E7": [
        "c", "k", "player", "mean_rounds", "median_rounds",
        "floor(c^2/8k)", "c^2/k",
    ],
    "E8": ["case", "x", "mean_rounds_to_meet", "game_floor", "cseek_schedule"],
    "E9": [
        "depth", "n", "analytic_floor", "greedy_oracle", "cgcast_success",
        "cgcast_dissemination", "naive_success", "naive_completion",
    ],
    "E10": [
        "case", "low_overlap_found", "high_overlap_found", "bias(high/low)",
        "success", "schedule",
    ],
    "E11": [
        "messages", "cgcast_total", "cgcast_per_message", "naive_total",
        "naive_per_message", "ratio(cgcast/naive)",
    ],
    "E12": ["traffic", "activity", "success", "mean_completion"],
}


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
    assert all(list(row) == HEADERS[experiment_id] for row in table.rows)


def test_paper_specs_cover_all_experiments():
    for i in range(1, 13):
        spec = paper_spec(f"E{i}")
        assert spec.name == f"E{i}"
        assert "paper" in spec.tags
        assert not spec.is_declarative
