"""The spectrum-environment subsystem (repro.sim.environment).

Three invariant families: (1) the closed-form ``markov_run`` scan
behind ``MarkovTraffic`` and ``PrimaryUserTraffic`` is bit-identical to
the per-slot ON/OFF recurrence it replaced (kept below as the oracle),
and the batched stream matches the single-trial one per trial; (2) the
gather-based ``jam_mask`` equals the old per-node loop on every channel
shape; and (3) the protocol layer produces identical results whether
traffic arrives via ``environment=``, the deprecated ``jammer=`` alias,
or the trial-batched runner.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CGCast, CSeek, CSeekBatch, batched_discovery
from repro.model import ProtocolError
from repro.sim import (
    MarkovTraffic,
    PoissonTraffic,
    PrimaryUserTraffic,
    StaticMask,
    make_environment,
)
from repro.sim.environment import markov_run

IDS = [2, 5, 9, 14]
SEEDS = [3, 17, 99]


def reference_jam_mask(occupied, channel_ids, channels):
    """The pre-refactor per-node loop, kept as the test oracle."""
    column = {g: i for i, g in enumerate(channel_ids)}
    num_slots = occupied.shape[0]
    mask = np.zeros((num_slots, len(channels)), dtype=bool)
    for u, ch in enumerate(channels):
        col = column.get(int(ch))
        if col is not None:
            mask[:, u] = occupied[:, col]
    return mask


def reference_markov_run(state, flips, on_prob, off_prob):
    """The pre-scan per-slot ON/OFF recurrence, kept as the test oracle.

    ``state`` is ``(B, C)``, ``flips`` ``(B, T, C)``; returns the
    ``(B, T, C)`` occupancy and the carried-out state.
    """
    out = np.empty(flips.shape, dtype=bool)
    for t in range(flips.shape[1]):
        f = flips[:, t]
        turn_off = state & (f < off_prob)
        turn_on = ~state & (f < on_prob)
        state = (state & ~turn_off) | turn_on
        out[:, t] = state
    return out, state


def on_probabilities(activity, dwell):
    """Per-channel OFF->ON probabilities, as ``MarkovTraffic`` tunes them."""
    env = MarkovTraffic(
        list(range(len(activity))), activity=activity, mean_dwell=dwell
    )
    return env._on_prob, env._off_prob


@st.composite
def markov_case(draw):
    """Random chains, with uniforms that often sit exactly on a threshold.

    Activities mix zero, ``on < off``, ``on == off`` and saturated
    ``on = 1 > off`` channels in one per-channel vector.
    """
    trials = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 40))
    width = draw(st.integers(1, 5))
    dwell = draw(st.sampled_from([1.0, 1.5, 8.0]))
    activity = draw(
        st.lists(
            st.sampled_from([0.0, 0.05, 0.5, 0.9, 0.99]),
            min_size=width,
            max_size=width,
        )
    )
    on_prob, off_prob = on_probabilities(activity, dwell)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flips = rng.random((trials, slots, width))
    ties = np.concatenate([[0.0, off_prob, np.nextafter(1.0, 0.0)], on_prob])
    flips = np.where(
        rng.random(flips.shape) < 0.3, rng.choice(ties, flips.shape), flips
    )
    state = rng.random((trials, width)) < 0.5
    cuts = sorted(draw(st.sets(st.integers(1, slots), max_size=4)) - {slots})
    return state, flips, on_prob, off_prob, cuts


class TestMarkovKernel:
    """``markov_run`` against the per-slot reference recurrence."""

    @given(markov_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, case):
        state, flips, on_prob, off_prob, _ = case
        got, final = markov_run(state, flips, on_prob, off_prob)
        ref, ref_final = reference_markov_run(state, flips, on_prob, off_prob)
        assert got.shape == flips.shape and got.dtype == bool
        assert np.array_equal(got, ref)
        assert np.array_equal(final, ref_final)

    @given(markov_case())
    @settings(max_examples=80, deadline=None)
    def test_chunked_runs_equal_one_shot(self, case):
        state, flips, on_prob, off_prob, cuts = case
        one_shot, final = markov_run(state, flips, on_prob, off_prob)
        parts = []
        for block in np.split(flips, cuts, axis=1):
            part, state = markov_run(state, block, on_prob, off_prob)
            parts.append(part)
        assert np.array_equal(np.concatenate(parts, axis=1), one_shot)
        assert np.array_equal(state, final)

    @pytest.mark.parametrize("on_prob", [0.0, 1.0])
    def test_degenerate_on_probabilities(self, on_prob):
        # on = 0: OFF is absorbing; on = 1 (saturated): every OFF slot
        # turns ON, so OFF never lasts two slots.
        rng = np.random.default_rng(4)
        flips = rng.random((2, 300, 3))
        state = np.array([[True, False, True], [False, False, True]])
        got, final = markov_run(state, flips, on_prob, 0.25)
        ref, ref_final = reference_markov_run(state, flips, on_prob, 0.25)
        assert np.array_equal(got, ref) and np.array_equal(final, ref_final)

    def test_stream_matches_reference_per_trial(self):
        # End to end through the stream: same generator, same draw
        # order, uneven chunks, a mixed per-channel activity vector
        # (zero, on < off, saturated on > off).
        activity, dwell, chunks = [0.0, 0.1, 0.9], 1.5, [1, 9, 40, 2]
        on_prob, off_prob = on_probabilities(activity, dwell)
        stream = MarkovTraffic(
            IDS[:3], activity=activity, mean_dwell=dwell, seed_offset=0
        ).streams(SEEDS)
        got = np.concatenate(
            [stream.occupied_block(size) for size in chunks], axis=1
        )
        for b, seed in enumerate(SEEDS):
            rng = np.random.default_rng(seed)
            state = (rng.random(3) < np.asarray(activity))[None]
            flips = rng.random((sum(chunks), 3))[None]
            ref, _ = reference_markov_run(state, flips, on_prob, off_prob)
            assert np.array_equal(got[b], ref[0])


class TestMarkovBitIdentity:
    """Batched MarkovTraffic streams vs the single-trial PrimaryUserTraffic."""

    def legacy(self, seed, activity=0.4, dwell=6.0):
        return PrimaryUserTraffic(
            IDS, activity=activity, mean_dwell=dwell, seed=seed
        )

    def env(self, activity=0.4, dwell=6.0):
        return MarkovTraffic(
            IDS, activity=activity, mean_dwell=dwell, seed_offset=0
        )

    def test_plain_occupancy_matches_per_trial(self):
        block = self.env().streams(SEEDS).occupied_block(300)
        for b, s in enumerate(SEEDS):
            ref = self.legacy(s).occupied_block(300)
            assert np.array_equal(block[b], ref)

    def test_saturated_activity_matches_per_trial(self):
        # activity > dwell/(dwell+1): the OFF->ON probability clamps at
        # 1, the recurrence's saturation branch.
        env = self.env(activity=0.9, dwell=1.5)
        assert env.realized_activity == pytest.approx(1.5 / 2.5)
        block = env.streams(SEEDS).occupied_block(400)
        for b, s in enumerate(SEEDS):
            ref = self.legacy(s, activity=0.9, dwell=1.5)
            assert np.array_equal(block[b], ref.occupied_block(400))

    def test_chunked_blocks_match_per_trial(self):
        # Protocols consume occupancy in uneven step-sized chunks; the
        # batched stream must carry state across blocks exactly as the
        # sequential one does.
        chunks = [1, 7, 64, 3, 1, 100, 24]
        stream = self.env().streams(SEEDS)
        parts = [stream.occupied_block(size) for size in chunks]
        stacked = np.concatenate(parts, axis=1)
        for b, s in enumerate(SEEDS):
            ref = self.legacy(s).occupied_block(sum(chunks))
            assert np.array_equal(stacked[b], ref)

    def test_serial_stream_matches_legacy_jam_mask(self):
        channels = np.array([2, 14, -1, 7, 5])
        env_mask = self.env().stream(SEEDS[0]).jam_mask(channels, 150)
        ref_mask = self.legacy(SEEDS[0]).jam_mask(channels, 150)
        assert env_mask.shape == (150, 5)
        assert np.array_equal(env_mask, ref_mask)

    def test_zero_activity_never_occupies(self):
        env = self.env(activity=0.0)
        assert not env.streams(SEEDS).occupied_block(200).any()
        assert env.realized_activity == 0.0


class TestPoissonTraffic:
    def test_stationary_occupancy_matches_activity(self):
        env = PoissonTraffic(list(range(16)), activity=0.35, seed_offset=0)
        block = env.streams([1, 2]).occupied_block(5000)
        assert abs(block.mean() - 0.35) == pytest.approx(0, abs=0.02)
        assert env.realized_activity == 0.35

    def test_memoryless_slots_are_uncorrelated(self):
        # Consecutive-slot correlation ~0 distinguishes Poisson from a
        # Markov chain at the same occupancy (whose correlation is
        # 1 - on_prob - off_prob > 0 for long dwells).
        env = PoissonTraffic([0], activity=0.5, seed_offset=0)
        series = env.streams([7]).occupied_block(20000)[0, :, 0]
        corr = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert abs(corr) < 0.03
        markov = MarkovTraffic(
            [0], activity=0.5, mean_dwell=16.0, seed_offset=0
        )
        mseries = markov.streams([7]).occupied_block(20000)[0, :, 0]
        mcorr = np.corrcoef(mseries[:-1], mseries[1:])[0, 1]
        assert mcorr > 0.5

    def test_chunked_blocks_bit_identical_to_one_shot(self):
        chunks = [5, 1, 30, 14]
        env = PoissonTraffic(IDS, activity=0.4, seed_offset=0)
        stream = env.streams(SEEDS)
        parts = [stream.occupied_block(c) for c in chunks]
        one_shot = env.streams(SEEDS).occupied_block(sum(chunks))
        assert np.array_equal(np.concatenate(parts, axis=1), one_shot)

    def test_rejects_bad_activity(self):
        with pytest.raises(ProtocolError):
            PoissonTraffic(IDS, activity=1.0)
        with pytest.raises(ProtocolError):
            PoissonTraffic(IDS, activity=-0.1)


class TestStaticMask:
    def test_blocked_channels_always_jammed(self):
        env = StaticMask([2, 5])
        channels = np.array([2, 3, -1, 5])
        mask = env.streams([0, 1]).jam_mask(channels, 4)
        assert mask.shape == (2, 4, 4)
        assert mask[:, :, 0].all() and mask[:, :, 3].all()
        assert not mask[:, :, 1].any() and not mask[:, :, 2].any()

    def test_deterministic_across_seeds(self):
        env = StaticMask([1])
        a = env.streams([0]).occupied_block(10)
        b = env.streams([12345]).occupied_block(10)
        assert np.array_equal(a, b)

    def test_empty_blocked_set_is_all_clear(self):
        env = StaticMask([])
        mask = env.streams([0]).jam_mask(np.array([0, 1, -1]), 6)
        assert mask.shape == (1, 6, 3) and not mask.any()
        rows = env.streams([0, 1]).jam_mask(np.array([[0, -1], [3, 1]]), 6)
        assert rows.shape == (2, 6, 2) and not rows.any()


class TestJamMaskGather:
    @pytest.mark.parametrize(
        "env_factory",
        [
            lambda: MarkovTraffic(
                IDS, activity=0.5, mean_dwell=3.0, seed_offset=0
            ),
            lambda: PoissonTraffic(IDS, activity=0.5, seed_offset=0),
            lambda: StaticMask(IDS),
        ],
        ids=["markov", "poisson", "static"],
    )
    def test_gather_matches_per_node_loop(self, env_factory):
        # Idle (-1), managed, unmanaged and above-max channel ids, with
        # per-trial channel rows.
        rng = np.random.default_rng(0)
        channels = np.stack(
            [
                rng.choice([-1, 0, 2, 5, 7, 9, 14, 99], size=6)
                for _ in SEEDS
            ]
        )
        occ_stream = env_factory().streams(SEEDS)
        mask_stream = env_factory().streams(SEEDS)
        occupied = occ_stream.occupied_block(40)
        mask = mask_stream.jam_mask(channels, 40)
        for b in range(len(SEEDS)):
            ref = reference_jam_mask(occupied[b], IDS, channels[b])
            assert np.array_equal(mask[b], ref)

    def test_shared_row_equals_repeated_rows(self):
        # A (n,) channel row takes the shared-row gather, a (B, n)
        # stack the flat-index one; both must read the same occupancy.
        env = MarkovTraffic(IDS, activity=0.5, mean_dwell=3.0, seed_offset=0)
        channels = np.array([14, -1, 2, 99, 9, 5, 0])
        shared = env.streams(SEEDS).jam_mask(channels, 30)
        stacked = env.streams(SEEDS).jam_mask(
            np.tile(channels, (len(SEEDS), 1)), 30
        )
        assert shared.any() and np.array_equal(shared, stacked)

    def test_shared_channel_row_broadcasts(self):
        channels = np.array([2, 9, -1])
        env = StaticMask([2, 9])
        mask = env.streams(SEEDS).jam_mask(channels, 5)
        assert mask.shape == (len(SEEDS), 5, 3)
        assert mask[:, :, :2].all() and not mask[:, :, 2].any()

    def test_trial_count_mismatch_rejected(self):
        env = StaticMask([2])
        with pytest.raises(ProtocolError):
            env.streams([0, 1]).jam_mask(np.zeros((3, 4), dtype=int), 5)

    def test_legacy_jam_mask_still_matches_loop(self):
        # PrimaryUserTraffic.jam_mask was vectorized too; pin it
        # against the loop oracle through its own occupancy stream.
        channels = np.array([2, 9, -1, 7, 14, 5])
        occ = PrimaryUserTraffic(
            IDS, activity=0.5, mean_dwell=3.0, seed=21
        ).occupied_block(60)
        got = PrimaryUserTraffic(
            IDS, activity=0.5, mean_dwell=3.0, seed=21
        ).jam_mask(channels, 60)
        assert np.array_equal(got, reference_jam_mask(occ, IDS, channels))


class TestEnvironmentValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ProtocolError):
            MarkovTraffic([], activity=0.5)
        with pytest.raises(ProtocolError):
            MarkovTraffic([-1], activity=0.5)
        with pytest.raises(ProtocolError):
            MarkovTraffic([0], activity=0.5, mean_dwell=0.5)
        with pytest.raises(ProtocolError):
            MarkovTraffic([0], activity=1.0)

    def test_empty_seed_list_rejected(self):
        for env in (
            MarkovTraffic(IDS, activity=0.5),
            PoissonTraffic(IDS, activity=0.5),
            StaticMask(IDS),
        ):
            with pytest.raises(ProtocolError):
                env.streams([])

    def test_make_environment_lowering(self):
        assert isinstance(
            make_environment("markov", IDS, activity=0.5), MarkovTraffic
        )
        assert isinstance(
            make_environment("poisson", IDS, activity=0.5), PoissonTraffic
        )
        assert isinstance(
            make_environment("static", IDS, blocked=[2]), StaticMask
        )
        # Disabled configurations lower to None.
        assert make_environment("markov", IDS, activity=0.0) is None
        assert make_environment("poisson", IDS, activity=0.0) is None
        assert make_environment("static", IDS, blocked=[]) is None
        assert make_environment("static", IDS) is None
        with pytest.raises(ProtocolError, match="unknown interference"):
            make_environment("fractal", IDS, activity=0.5)


class TestProtocolIntegration:
    def _env(self, net, model="markov"):
        ids = sorted(net.assignment.universe())
        if model == "poisson":
            return PoissonTraffic(ids, activity=0.5)
        return MarkovTraffic(ids, activity=0.5, mean_dwell=6.0)

    def test_environment_equals_legacy_jammer(self, small_path_net):
        env = self._env(small_path_net)
        ids = sorted(small_path_net.assignment.universe())
        for s in SEEDS:
            via_env = CSeek(
                small_path_net, seed=s, environment=env
            ).run()
            via_jammer = CSeek(
                small_path_net,
                seed=s,
                jammer=PrimaryUserTraffic(
                    ids, activity=0.5, mean_dwell=6.0, seed=s + 1000
                ),
            ).run()
            assert via_env.discovered == via_jammer.discovered
            assert (
                via_env.trace.first_heard == via_jammer.trace.first_heard
            )

    @pytest.mark.parametrize("model", ["markov", "poisson"])
    def test_batched_environment_matches_serial(
        self, small_path_net, model
    ):
        env = self._env(small_path_net, model)
        batch = CSeekBatch(small_path_net, environment=env).run(SEEDS)
        for b, s in enumerate(SEEDS):
            ref = CSeek(small_path_net, seed=s, environment=env).run()
            assert batch[b].discovered == ref.discovered
            assert np.array_equal(batch[b].counts, ref.counts)
            assert batch[b].trace.first_heard == ref.trace.first_heard
            assert batch[b].ledger.as_dict() == ref.ledger.as_dict()

    def test_environment_changes_outcomes(self, small_path_net):
        env = self._env(small_path_net)
        jammed = CSeekBatch(small_path_net, environment=env).run(SEEDS)
        clear = CSeekBatch(small_path_net).run(SEEDS)
        assert any(
            jammed[b].trace.first_heard != clear[b].trace.first_heard
            for b in range(len(SEEDS))
        )

    def test_static_environment_blocks_channels(self, small_path_net):
        # Blocking every channel silences all reception.
        env = StaticMask(sorted(small_path_net.assignment.universe()))
        result = CSeek(small_path_net, seed=1, environment=env).run()
        assert all(not d for d in result.discovered)

    def test_jammer_and_environment_mutually_exclusive(
        self, small_path_net
    ):
        ids = sorted(small_path_net.assignment.universe())
        jammer = PrimaryUserTraffic(ids, activity=0.5, seed=0)
        env = self._env(small_path_net)
        with pytest.raises(ProtocolError, match="not both"):
            CSeek(small_path_net, jammer=jammer, environment=env)
        with pytest.raises(ProtocolError, match="not both"):
            CSeekBatch(
                small_path_net,
                jammer_factory=lambda s: jammer,
                environment=env,
            )

    def test_batch_inherits_prototype_environment(self, small_path_net):
        env = self._env(small_path_net)
        proto = CSeek(small_path_net, seed=0, environment=env)
        batch = proto.batch()
        assert batch.environment is env
        got = batch.run([SEEDS[0]])[0]
        ref = CSeek(
            small_path_net, seed=SEEDS[0], environment=env
        ).run()
        assert got.trace.first_heard == ref.trace.first_heard

    @pytest.mark.integration
    def test_cgcast_discovery_injection_with_environment(
        self, clique_chain_net
    ):
        env = MarkovTraffic(
            sorted(clique_chain_net.assignment.universe()),
            activity=0.4,
            mean_dwell=6.0,
        )
        discoveries = batched_discovery(
            clique_chain_net, SEEDS, environment=env
        )
        for s, disc in zip(SEEDS, discoveries):
            plain = CGCast(
                clique_chain_net, source=0, seed=s, environment=env
            ).run()
            injected = CGCast(
                clique_chain_net,
                source=0,
                seed=s,
                environment=env,
                discovery=disc,
            ).run()
            assert np.array_equal(injected.informed, plain.informed)
            assert injected.ledger.as_dict() == plain.ledger.as_dict()


class TestActivityVectors:
    """Per-channel heterogeneous activity targets (scalar path pinned)."""

    def test_markov_uniform_vector_is_bit_identical_to_scalar(self):
        scalar = MarkovTraffic(IDS, activity=0.4, mean_dwell=6.0)
        vector = MarkovTraffic(
            IDS, activity=[0.4] * len(IDS), mean_dwell=6.0
        )
        a = scalar.streams(SEEDS).occupied_block(400)
        b = vector.streams(SEEDS).occupied_block(400)
        assert np.array_equal(a, b)

    def test_poisson_uniform_vector_is_bit_identical_to_scalar(self):
        scalar = PoissonTraffic(IDS, activity=0.3)
        vector = PoissonTraffic(IDS, activity=[0.3] * len(IDS))
        a = scalar.streams(SEEDS).occupied_block(400)
        b = vector.streams(SEEDS).occupied_block(400)
        assert np.array_equal(a, b)

    def test_scalar_activity_stays_a_plain_float(self):
        # The historical scalar surface must not silently become an
        # array (reprs, JSON manifests and realized_activity rely on it).
        env = MarkovTraffic(IDS, activity=0.4)
        assert isinstance(env.activity, float)
        assert isinstance(env.realized_activity, float)

    @pytest.mark.parametrize("cls", [MarkovTraffic, PoissonTraffic])
    def test_zero_entries_never_occupy_their_channel(self, cls):
        env = cls(IDS, activity=[0.0, 0.5, 0.0, 0.8])
        block = env.streams([7]).occupied_block(600)[0]
        assert not block[:, 0].any()
        assert not block[:, 2].any()
        assert block[:, 1].any() and block[:, 3].any()

    @pytest.mark.parametrize("cls", [MarkovTraffic, PoissonTraffic])
    def test_per_channel_occupancy_tracks_targets(self, cls):
        targets = [0.1, 0.5, 0.8, 0.3]
        env = cls(IDS, activity=targets)
        block = env.streams(list(range(8))).occupied_block(800)
        means = block.reshape(-1, len(IDS)).mean(axis=0)
        assert np.allclose(means, targets, atol=0.06)

    def test_markov_vector_realized_activity_per_channel(self):
        env = MarkovTraffic(IDS, activity=[0.0, 0.4, 0.6, 0.9],
                            mean_dwell=4.0)
        realized = env.realized_activity
        assert realized.shape == (len(IDS),)
        assert realized[0] == 0.0
        # 0.9 exceeds the dwell/(dwell+1) = 0.8 cap; others are exact.
        assert realized[1] == pytest.approx(0.4)
        assert realized[2] == pytest.approx(0.6)
        assert realized[3] == pytest.approx(0.8)

    @pytest.mark.parametrize("cls", [MarkovTraffic, PoissonTraffic])
    def test_wrong_length_vector_rejected(self, cls):
        with pytest.raises(ProtocolError, match="one entry per"):
            cls(IDS, activity=[0.5] * (len(IDS) + 1))

    @pytest.mark.parametrize("cls", [MarkovTraffic, PoissonTraffic])
    def test_out_of_range_entries_rejected(self, cls):
        with pytest.raises(ProtocolError, match="\\[0, 1\\)"):
            cls(IDS, activity=[0.5, 1.0, 0.2, 0.3])

    def test_make_environment_accepts_vectors(self):
        env = make_environment("poisson", IDS,
                               activity=[0.0, 0.2, 0.0, 0.4])
        assert isinstance(env, PoissonTraffic)
        assert make_environment(
            "markov", IDS, activity=[0.0] * len(IDS)
        ) is None

    def test_jam_mask_respects_heterogeneous_channels(self):
        env = PoissonTraffic(IDS, activity=[0.0, 0.9, 0.0, 0.9])
        channels = np.array([IDS[0], IDS[1], -1, IDS[3]])
        mask = env.streams([5]).jam_mask(channels, 500)[0]
        assert not mask[:, 0].any()  # zero-activity channel
        assert not mask[:, 2].any()  # idle node
        assert mask[:, 1].any() and mask[:, 3].any()

    def test_make_environment_rejects_mis_sized_zero_vector(self):
        # An all-zero vector of the wrong length is a spec error, not a
        # silent interference-free run.
        with pytest.raises(ProtocolError, match="one entry per"):
            make_environment("markov", IDS, activity=[0.0, 0.0])

    @pytest.mark.parametrize("cls", [MarkovTraffic, PoissonTraffic])
    def test_nan_activity_entries_rejected(self, cls):
        with pytest.raises(ProtocolError, match="\\[0, 1\\)"):
            cls(IDS, activity=[0.4, float("nan"), 0.2, 0.1])
