"""Unit tests for the color-scheduled dissemination stage."""

import numpy as np
import pytest

from repro.core import (
    CGCast,
    CSeek,
    LineGraph,
    LubyEdgeColoring,
    agree_dedicated_channels,
    build_color_channels,
    first_heard_payloads,
    oracle_exchange,
    run_dissemination,
    run_dissemination_batch,
)
from repro.model import ProtocolError

from cgcast_reference import assert_dissemination_equal, reference_dissemination


def prepared_stage(net, seed=0):
    """Discovery + coloring + dedicated channels for a network."""
    result = CSeek(net, seed=seed).run()
    received = oracle_exchange(
        result.discovered,
        first_heard_payloads(result),
        net.knowledge(),
        CSeek(net, seed=seed).constants,
    )
    edges = net.edges()
    dedicated = agree_dedicated_channels(result, edges, received)
    coloring = LubyEdgeColoring(
        LineGraph.from_edges(edges), net.knowledge(), seed=seed
    ).run()
    return coloring.colors, dedicated


class TestDissemination:
    def test_full_delivery_on_path(self, small_path_net):
        colors, dedicated = prepared_stage(small_path_net, seed=1)
        result = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=1
        )
        assert result.success
        assert result.informed_slot[0] == 0
        assert (result.informed_slot >= 0).all()

    def test_full_delivery_on_clique_chain(self, clique_chain_net):
        colors, dedicated = prepared_stage(clique_chain_net, seed=2)
        result = run_dissemination(
            clique_chain_net, 0, colors, dedicated, seed=2
        )
        assert result.success

    def test_informed_slots_increase_with_distance(self, small_path_net):
        colors, dedicated = prepared_stage(small_path_net, seed=3)
        result = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=3
        )
        slots = result.informed_slot
        # On a path from node 0, farther nodes are informed no earlier
        # (ties possible: a neighbor of the source can be informed in the
        # very first slot, matching the source's conventional slot 0).
        assert all(slots[i] <= slots[i + 1] for i in range(len(slots) - 1))

    def test_early_stop_saves_slots(self, small_path_net):
        colors, dedicated = prepared_stage(small_path_net, seed=4)
        eager = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=4, early_stop=True
        )
        full = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=4, early_stop=False
        )
        assert eager.ledger.total <= full.ledger.total
        assert full.ledger.total == full.scheduled_slots

    def test_no_colors_no_delivery(self, small_path_net):
        result = run_dissemination(small_path_net, 0, {}, {}, seed=5)
        assert not result.success
        assert result.informed.sum() == 1

    def test_rejects_bad_source(self, small_path_net):
        with pytest.raises(ProtocolError):
            run_dissemination(small_path_net, -1, {}, {}, seed=0)

    def test_rejects_color_out_of_range(self, small_path_net):
        kn = small_path_net.knowledge()
        bad = {(0, 1): 2 * kn.max_degree}
        with pytest.raises(ProtocolError):
            run_dissemination(
                small_path_net, 0, bad, {(0, 1): 0}, seed=0
            )

    def test_rejects_missing_dedicated_channel(self, small_path_net):
        with pytest.raises(ProtocolError, match="dedicated"):
            run_dissemination(small_path_net, 0, {(0, 1): 0}, {}, seed=0)

    def test_rejects_improper_coloring(self, small_path_net):
        # Edges (0,1) and (1,2) share node 1 but get the same color.
        colors = {(0, 1): 0, (1, 2): 0}
        dedicated = {
            (0, 1): next(iter(small_path_net.shared_channels(0, 1))),
            (1, 2): next(iter(small_path_net.shared_channels(1, 2))),
        }
        with pytest.raises(ProtocolError, match="not proper"):
            run_dissemination(
                small_path_net, 0, colors, dedicated, seed=0
            )

    def test_scheduled_budget_formula(self, small_path_net):
        kn = small_path_net.knowledge()
        colors, dedicated = prepared_stage(small_path_net, seed=6)
        result = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=6
        )
        from repro.core import ProtocolConstants

        consts = ProtocolConstants.fast()
        expected = (
            kn.diameter
            * (2 * kn.max_degree)
            * consts.dissemination_rounds(kn.log_n)
            * kn.log_delta
        )
        assert result.scheduled_slots == expected


def _slots_per_step(kn):
    from repro.core import ProtocolConstants

    consts = ProtocolConstants.fast()
    return consts.dissemination_rounds(kn.log_n) * kn.log_delta


class TestLedgerAccounting:
    """Charged slots vs the scheduled budget under ``early_stop``."""

    def test_charges_exactly_phases_run(self, small_path_net):
        kn = small_path_net.knowledge()
        colors, dedicated = prepared_stage(small_path_net, seed=7)
        result = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=7, early_stop=True
        )
        # The ledger reflects actual usage: phases_run full phases, each
        # one color-step per color (including colors no edge wears).
        per_phase = (2 * kn.max_degree) * _slots_per_step(kn)
        assert result.ledger.get("dissemination") == (
            result.phases_run * per_phase
        )
        assert result.ledger.total == result.phases_run * per_phase
        # The scheduled budget is reported unchanged.
        assert result.scheduled_slots == kn.diameter * per_phase

    def test_early_stop_runs_whole_final_phase(self, small_path_net):
        # Early stop acts at phase granularity: the phase that informs
        # the last node still charges all of its color steps.
        colors, dedicated = prepared_stage(small_path_net, seed=8)
        kn = small_path_net.knowledge()
        result = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=8, early_stop=True
        )
        assert result.success
        per_phase = (2 * kn.max_degree) * _slots_per_step(kn)
        assert result.ledger.total % per_phase == 0
        assert result.completion_slot <= result.ledger.total

    def test_empty_color_steps_still_charged(self, small_path_net):
        # A schedule using one color still charges every color's step:
        # the paper's schedule is fixed, non-participants idle.
        kn = small_path_net.knowledge()
        colors = {(0, 1): 0}
        dedicated = {
            (0, 1): next(iter(small_path_net.shared_channels(0, 1)))
        }
        result = run_dissemination(
            small_path_net, 0, colors, dedicated, seed=9, early_stop=False
        )
        assert result.ledger.total == result.scheduled_slots
        assert result.phases_run == kn.diameter
        # Node 1 (the only reachable one) was informed within the color-0
        # step of some phase; its slot lies inside that step's window.
        assert result.informed[1]

    def test_empty_schedule_charges_full_budget(self, small_path_net):
        # No colors at all: every step is an idle step, but the schedule
        # still runs (no early stop possible — the path never completes).
        result = run_dissemination(small_path_net, 0, {}, {}, seed=10)
        assert result.ledger.total == result.scheduled_slots

    def test_completion_slot_offset_in_cgcast(self, small_path_net):
        # CGCast.run offsets dissemination-local slots by all
        # pre-dissemination phases; the source stays at slot 0.
        result = CGCast(small_path_net, seed=11).run()
        assert result.success
        pre = result.total_slots - result.ledger.get("dissemination")
        local = result.dissemination.informed_slot
        shifted = local.copy()
        shifted[shifted >= 0] += pre
        shifted[0] = 0
        assert np.array_equal(result.informed_slot, shifted)
        assert result.completion_slot == int(shifted.max())
        assert result.informed_slot[0] == 0


class TestBuildColorChannels:
    def test_matches_schedule(self, small_path_net):
        colors, dedicated = prepared_stage(small_path_net, seed=12)
        table = build_color_channels(colors, dedicated, small_path_net.n)
        assert sorted(table) == sorted(set(colors.values()))
        for color, channels in table.items():
            expected = np.full(small_path_net.n, -1, dtype=np.int64)
            for (u, v), col in colors.items():
                if col == color:
                    expected[u] = dedicated[(u, v)]
                    expected[v] = dedicated[(u, v)]
            assert np.array_equal(channels, expected)

    def test_empty_schedule(self):
        assert build_color_channels({}, {}, 4) == {}

    def test_improper_coloring_raises_serial_message(self):
        colors = {(0, 1): 0, (1, 2): 0}
        dedicated = {(0, 1): 3, (1, 2): 5}
        with pytest.raises(
            ProtocolError, match="node 1 has two edges colored 0"
        ):
            build_color_channels(colors, dedicated, 3)


class TestDisseminationBatch:
    """The lockstep program against the one-step-at-a-time reference."""

    def test_bit_identical_to_serial(self, small_path_net):
        seeds = [2, 5, 13]
        per_trial = [prepared_stage(small_path_net, seed=s) for s in seeds]
        batch = run_dissemination_batch(
            small_path_net.adjacency,
            0,
            [colors for colors, _ in per_trial],
            [dedicated for _, dedicated in per_trial],
            knowledge=small_path_net.knowledge(),
            seeds=seeds,
        )
        for s, (colors, dedicated), got in zip(seeds, per_trial, batch):
            ref = reference_dissemination(
                small_path_net, 0, colors, dedicated, seed=s
            )
            assert_dissemination_equal(got, ref)
            one = run_dissemination(
                small_path_net, 0, colors, dedicated, seed=s
            )
            assert_dissemination_equal(one, ref)

    def test_per_trial_sources_and_adjacency_stack(self, small_path_net):
        seeds = [4, 6]
        sources = [0, 3]
        colors, dedicated = prepared_stage(small_path_net, seed=14)
        adjacency = np.broadcast_to(
            small_path_net.adjacency,
            (2, small_path_net.n, small_path_net.n),
        ).copy()
        batch = run_dissemination_batch(
            adjacency,
            sources,
            [colors, colors],
            [dedicated, dedicated],
            knowledge=small_path_net.knowledge(),
            seeds=seeds,
        )
        for s, source, got in zip(seeds, sources, batch):
            ref = reference_dissemination(
                small_path_net, source, colors, dedicated, seed=s
            )
            assert_dissemination_equal(got, ref)

    def test_ragged_schedules_keep_rng_alignment(self, small_path_net):
        # One trial's schedule misses colors another trial has: the
        # absent-color trial must draw nothing in that step, keeping
        # its stream aligned with the serial run.
        seeds = [3, 9]
        colors_full, dedicated_full = prepared_stage(small_path_net, seed=15)
        colors_one = {(0, 1): max(colors_full.values())}
        dedicated_one = {
            (0, 1): next(iter(small_path_net.shared_channels(0, 1)))
        }
        batch = run_dissemination_batch(
            small_path_net.adjacency,
            0,
            [colors_full, colors_one],
            [dedicated_full, dedicated_one],
            knowledge=small_path_net.knowledge(),
            seeds=seeds,
            early_stop=False,
        )
        for s, colors, dedicated, got in zip(
            seeds,
            (colors_full, colors_one),
            (dedicated_full, dedicated_one),
            batch,
        ):
            ref = reference_dissemination(
                small_path_net,
                0,
                colors,
                dedicated,
                seed=s,
                early_stop=False,
            )
            assert_dissemination_equal(got, ref)

    def test_rejects_empty_seeds(self, small_path_net):
        with pytest.raises(ProtocolError, match="at least one trial"):
            run_dissemination_batch(
                small_path_net.adjacency,
                0,
                [],
                [],
                knowledge=small_path_net.knowledge(),
                seeds=[],
            )
