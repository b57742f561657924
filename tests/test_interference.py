"""Unit tests for primary-user interference and jam-aware resolution."""

import numpy as np
import pytest

from repro.core import CSeek, verify_discovery
from repro.model import ProtocolError
from repro.sim import MarkovTraffic, resolve_step


def _stream(channel_ids, activity, mean_dwell=8.0, seed=0):
    """One trial's Markov occupancy stream, seeded directly by ``seed``."""
    return MarkovTraffic(
        channel_ids, activity, mean_dwell=mean_dwell, seed_offset=0
    ).stream(seed)


class TestPrimaryUserTraffic:
    """One trial's Markov primary-user traffic, seen through ``stream``."""

    def test_rejects_bad_params(self):
        with pytest.raises(ProtocolError):
            MarkovTraffic([0, 1], activity=1.0)
        with pytest.raises(ProtocolError):
            MarkovTraffic([0, 1], activity=-0.1)
        with pytest.raises(ProtocolError):
            MarkovTraffic([0, 1], activity=0.5, mean_dwell=0.5)
        with pytest.raises(ProtocolError):
            MarkovTraffic([], activity=0.5)
        with pytest.raises(ProtocolError):
            MarkovTraffic([-1], activity=0.5)

    def test_zero_activity_never_occupies(self):
        traffic = _stream([0, 1, 2], activity=0.0, seed=1)
        assert not traffic.occupied_block(200).any()

    def test_stationary_occupancy_near_target(self):
        traffic = _stream(
            list(range(20)), activity=0.4, mean_dwell=5.0, seed=2
        )
        block = traffic.occupied_block(4000)
        assert 0.3 <= block.mean() <= 0.5

    def test_bursts_have_requested_dwell(self):
        traffic = _stream([0], activity=0.3, mean_dwell=10.0, seed=3)
        series = traffic.occupied_block(20000)[:, 0]
        # Mean run length of ON bursts should be near mean_dwell.
        runs = []
        current = 0
        for on in series:
            if on:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs, "expected some ON bursts"
        mean_run = float(np.mean(runs))
        assert 5.0 <= mean_run <= 20.0

    def test_sequential_blocks_advance_state(self):
        t1 = _stream([0, 1], activity=0.5, seed=4)
        a = t1.occupied_block(50)
        b = t1.occupied_block(50)
        t2 = _stream([0, 1], activity=0.5, seed=4)
        c = t2.occupied_block(100)
        assert np.array_equal(np.vstack([a, b]), c)

    @pytest.mark.parametrize(
        "activity,mean_dwell",
        [(0.1, 1.5), (0.4, 2.0), (0.55, 1.5), (0.7, 8.0), (0.85, 8.0)],
    )
    def test_stationary_occupancy_converges_to_activity(
        self, activity, mean_dwell
    ):
        # The chains start at stationarity and must stay there: for
        # feasible targets (activity <= dwell / (dwell + 1)) the
        # long-run occupied fraction converges to the activity target
        # across the (activity, dwell) grid, not just one point.
        env = MarkovTraffic(
            list(range(16)),
            activity=activity,
            mean_dwell=mean_dwell,
            seed_offset=0,
        )
        assert env.realized_activity == pytest.approx(activity)
        block = env.stream(
            int(activity * 100) + int(mean_dwell)
        ).occupied_block(6000)
        assert abs(block.mean() - activity) < 0.05

    def test_infeasible_targets_saturate_at_the_dwell_cap(self):
        # activity > dwell / (dwell + 1) cannot be reached with
        # geometric ON bursts of that mean: the OFF->ON probability
        # clamps at 1 and occupancy plateaus at the cap.
        env = MarkovTraffic(
            list(range(16)), activity=0.9, mean_dwell=1.5, seed_offset=0
        )
        cap = 1.5 / 2.5
        assert env.realized_activity == pytest.approx(cap)
        block = env.stream(8).occupied_block(6000)
        assert abs(block.mean() - cap) < 0.05

    def test_chunked_consumption_bit_identical_to_one_shot(self):
        # Protocol executions consume occupancy slot by slot in uneven
        # step-sized chunks; the sequence must be exactly the one a
        # single generation from the same seed produces.
        chunks = [1, 7, 64, 3, 1, 100, 24]
        total = sum(chunks)
        chunked = _stream(
            [2, 5, 9], activity=0.35, mean_dwell=6.0, seed=13
        )
        parts = [chunked.occupied_block(size) for size in chunks]
        one_shot = _stream(
            [2, 5, 9], activity=0.35, mean_dwell=6.0, seed=13
        ).occupied_block(total)
        assert np.array_equal(np.vstack(parts), one_shot)

    def test_chunked_jam_masks_bit_identical_to_one_shot(self):
        # The jam_mask view (what the engine actually consumes) must
        # inherit the same chunking invariance.
        channels = np.array([2, 9, -1, 5])
        chunks = [5, 1, 30, 14]
        chunked = _stream(
            [2, 5, 9], activity=0.5, mean_dwell=3.0, seed=21
        )
        parts = [chunked.jam_mask(channels, size) for size in chunks]
        one_shot = _stream(
            [2, 5, 9], activity=0.5, mean_dwell=3.0, seed=21
        ).jam_mask(channels, sum(chunks))
        assert np.array_equal(np.vstack(parts), one_shot)

    def test_jam_mask_covers_tuned_channels_only(self):
        traffic = _stream([5], activity=0.9, mean_dwell=2.0, seed=5)
        channels = np.array([5, 7, -1])
        mask = traffic.jam_mask(channels, 300)
        assert mask[:, 0].mean() > 0.3  # channel 5 is managed
        assert not mask[:, 1].any()  # channel 7 is outside the set
        assert not mask[:, 2].any()  # idle node never jammed

    def test_jam_mask_rejects_bad_slots(self):
        traffic = _stream([0], activity=0.1)
        with pytest.raises(ProtocolError):
            traffic.occupied_block(0)


class TestJamAwareEngine:
    def test_full_jam_silences_reception(self):
        adj = np.array([[False, True], [True, False]])
        channels = np.array([3, 3])
        tx_role = np.array([True, False])
        coins = np.ones((5, 2), dtype=bool)
        jam = np.ones((5, 2), dtype=bool)
        out = resolve_step(adj, channels, tx_role, coins, jam=jam)
        assert (out.heard_from == -1).all()

    def test_partial_jam_kills_exact_slots(self):
        adj = np.array([[False, True], [True, False]])
        channels = np.array([3, 3])
        tx_role = np.array([True, False])
        coins = np.ones((4, 2), dtype=bool)
        jam = np.zeros((4, 2), dtype=bool)
        jam[1, 1] = True
        out = resolve_step(adj, channels, tx_role, coins, jam=jam)
        assert out.heard_from[0, 1] == 0
        assert out.heard_from[1, 1] == -1
        assert out.heard_from[2, 1] == 0

    def test_jam_shape_validated(self):
        adj = np.array([[False, True], [True, False]])
        with pytest.raises(ProtocolError):
            resolve_step(
                adj,
                np.array([1, 1]),
                np.array([True, False]),
                np.ones((3, 2), dtype=bool),
                jam=np.ones((2, 2), dtype=bool),
            )


class TestCSeekUnderInterference:
    @pytest.mark.integration
    def test_short_bursts_are_absorbed(self, small_regular_net):
        net = small_regular_net
        # Stream seed 1 + 6 = 7.
        traffic = MarkovTraffic(
            sorted(net.assignment.universe()),
            activity=0.3,
            mean_dwell=4.0,
            seed_offset=6,
        )
        result = CSeek(net, seed=1, environment=traffic).run()
        assert verify_discovery(result, net).success

    @pytest.mark.integration
    def test_heavy_long_bursts_break_discovery(self, small_regular_net):
        net = small_regular_net
        failures = 0
        traffic = MarkovTraffic(
            sorted(net.assignment.universe()),
            activity=0.9,
            mean_dwell=2000.0,
            seed_offset=0,
        )
        for s in range(3):
            result = CSeek(net, seed=s, environment=traffic).run()
            if not verify_discovery(result, net).success:
                failures += 1
        assert failures > 0
