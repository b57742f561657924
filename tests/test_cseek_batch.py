"""Batched-vs-serial CSEEK equivalence (the CSeekBatch contract).

Every test pins the same invariant from a different angle: running ``B``
trials through :class:`repro.core.cseek_batch.CSeekBatch` must be
bit-identical, per trial, to ``B`` step-by-step executions of the
reference program in ``cseek_reference.py`` — including the hard paths
(primary-user jamming, the uniform-listener ablation, CKSEEK budgets,
CGCAST's embedded discovery).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CGCast,
    CKSeek,
    CSeek,
    CSeekBatch,
    batched_discovery,
)
from repro.harness import run_trials
from repro.harness.executor import BatchedExecutor, get_executor
from repro.model import HarnessError, ProtocolError
from repro.core.cseek_batch import LockstepMember, run_cseek_lockstep
from repro.sim import MarkovTraffic
from repro.sim.trace import TraceRecorder, record_step_batch

from cseek_reference import assert_results_equal, reference_cseek

SEEDS = [3, 17, 99]


class TestPlainEquivalence:
    def test_full_budget_matches_serial(self, small_path_net):
        batch = CSeekBatch(small_path_net).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(
                batch[b], reference_cseek(CSeek(small_path_net, seed=s))
            )

    def test_regular_net_reduced_budget(self, small_regular_net):
        kwargs = dict(part1_steps=25, part2_steps=40)
        batch = CSeekBatch(small_regular_net, **kwargs).run(SEEDS)
        for b, s in enumerate(SEEDS):
            ref = reference_cseek(CSeek(small_regular_net, seed=s, **kwargs))
            assert_results_equal(batch[b], ref)

    def test_zero_budgets(self, small_path_net):
        kwargs = dict(part1_steps=0, part2_steps=0)
        batch = CSeekBatch(small_path_net, **kwargs).run([5])
        ref = reference_cseek(CSeek(small_path_net, seed=5, **kwargs))
        assert_results_equal(batch[0], ref)
        assert batch[0].total_slots == 0

    def test_single_trial(self, small_path_net):
        batch = CSeekBatch(small_path_net).run([42])
        ref = reference_cseek(CSeek(small_path_net, seed=42))
        assert_results_equal(batch[0], ref)

    def test_empty_seed_list_rejected(self, small_path_net):
        with pytest.raises(ProtocolError):
            CSeekBatch(small_path_net).run([])


class TestJammedEquivalence:
    def _environment(self, net):
        # Default seed_offset: trial s streams from seed s + 1000.
        return MarkovTraffic(
            sorted(net.assignment.universe()), activity=0.5, mean_dwell=6.0
        )

    def test_primary_user_traffic_matches_serial(self, small_path_net):
        env = self._environment(small_path_net)
        batch = CSeekBatch(small_path_net, environment=env).run(SEEDS)
        for b, s in enumerate(SEEDS):
            ref = reference_cseek(
                CSeek(small_path_net, seed=s, environment=env)
            )
            assert_results_equal(batch[b], ref)

    def test_jamming_changes_outcomes(self, small_path_net):
        """The jam mask must actually reach the batched engine."""
        env = self._environment(small_path_net)
        jammed = CSeekBatch(small_path_net, environment=env).run(SEEDS)
        clear = CSeekBatch(small_path_net).run(SEEDS)
        assert any(
            jammed[b].trace.first_heard != clear[b].trace.first_heard
            for b in range(len(SEEDS))
        )

    def test_mixed_jammed_and_clear_trials(self, small_path_net):
        """A lockstep group may mix a jammed and a clear member; each
        trial must still match its own serial counterpart."""
        env = self._environment(small_path_net)
        jammed_seeds, clear_seeds = [17, 99], [3, 41]
        jammed, clear = run_cseek_lockstep(
            [
                LockstepMember(
                    CSeekBatch(small_path_net, environment=env),
                    jammed_seeds,
                ),
                LockstepMember(CSeekBatch(small_path_net), clear_seeds),
            ]
        )
        for got, s in zip(jammed, jammed_seeds):
            ref = reference_cseek(
                CSeek(small_path_net, seed=s, environment=env)
            )
            assert_results_equal(got, ref)
        for got, s in zip(clear, clear_seeds):
            ref = reference_cseek(CSeek(small_path_net, seed=s))
            assert_results_equal(got, ref)

    @pytest.mark.parametrize("kind", ["cseek", "ckseek"])
    def test_rerun_is_reproducible(self, small_path_net, kind):
        """Each run() opens a fresh traffic stream, so one instance
        reruns identically and matches its one-trial batch."""
        env = self._environment(small_path_net)
        if kind == "cseek":
            proto = CSeek(small_path_net, seed=17, environment=env)
        else:
            proto = CKSeek(small_path_net, khat=2, seed=17, environment=env)
        first = proto.run()
        assert_results_equal(first, reference_cseek(proto))
        assert_results_equal(proto.run(), first)
        assert_results_equal(proto.batch().run([17])[0], first)


class TestUniformListenerEquivalence:
    def test_ablation_matches_serial(self, star_net):
        kwargs = dict(
            part1_steps=20, part2_steps=60, part2_listener="uniform"
        )
        batch = CSeekBatch(star_net, **kwargs).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(
                batch[b], reference_cseek(CSeek(star_net, seed=s, **kwargs))
            )

    def test_weighted_starved_star_matches_serial(self, star_net):
        """The weighted listener's count-proportional draws are the
        state-dependent path; pin it on a crowded hub."""
        kwargs = dict(part1_steps=20, part2_steps=60)
        batch = CSeekBatch(star_net, **kwargs).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(
                batch[b], reference_cseek(CSeek(star_net, seed=s, **kwargs))
            )


class TestProtocolReuse:
    def test_ckseek_budgets_via_from_serial(self, hetero_net):
        khat = 3
        delta_khat = hetero_net.max_good_degree(khat)
        make = lambda s: CKSeek(  # noqa: E731
            hetero_net, khat=khat, delta_khat=delta_khat, seed=s
        )
        proto = make(0)
        batch = proto.batch().run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(batch[b], reference_cseek(make(s)))

    def test_from_serial_copies_configuration(self, small_path_net):
        proto = CSeek(
            small_path_net,
            seed=123,
            part1_steps=7,
            part2_steps=9,
            part2_listener="uniform",
            rng_label="custom",
        )
        batch = CSeekBatch.from_serial(proto)
        assert batch.part1_step_budget == 7
        assert batch.part2_step_budget == 9
        assert batch.part2_listener == "uniform"
        assert_results_equal(
            batch.run([55])[0],
            reference_cseek(
                CSeek(
                    small_path_net,
                    seed=55,
                    part1_steps=7,
                    part2_steps=9,
                    part2_listener="uniform",
                    rng_label="custom",
                )
            ),
        )

    def test_cgcast_discovery_injection(self, clique_chain_net):
        net = clique_chain_net
        discoveries = batched_discovery(net, SEEDS)
        for s, disc in zip(SEEDS, discoveries):
            plain = CGCast(net, source=0, seed=s).run()
            injected = CGCast(
                net, source=0, seed=s, discovery=disc
            ).run()
            assert np.array_equal(injected.informed, plain.informed)
            assert np.array_equal(
                injected.informed_slot, plain.informed_slot
            )
            assert injected.ledger.as_dict() == plain.ledger.as_dict()
            assert injected.edge_colors == plain.edge_colors
            assert injected.dedicated == plain.dedicated


class TestExecutorIntegration:
    def _make_trial(self, net):
        def trial(s: int):
            result = CSeek(net, seed=s, part1_steps=10, part2_steps=15).run()
            return sorted(map(sorted, result.discovered))

        def run_batch(seeds):
            batch = CSeekBatch(net, part1_steps=10, part2_steps=15)
            return [
                sorted(map(sorted, r.discovered))
                for r in batch.run(seeds)
            ]

        trial.run_batch = run_batch
        return trial

    def test_run_trials_batch_matches_serial(self, small_path_net):
        trial = self._make_trial(small_path_net)
        serial = run_trials(trial, 5, 7, executor=None)
        batched = run_trials(trial, 5, 7, executor="batch")
        assert serial == batched

    def test_chunked_batches_match_unchunked(self, small_path_net):
        trial = self._make_trial(small_path_net)
        full = run_trials(trial, 5, 7, executor="batch")
        chunked = run_trials(trial, 5, 7, executor="batch:2")
        assert full == chunked

    def test_get_executor_parses_batch_size(self):
        ex = get_executor("batch:16")
        assert isinstance(ex, BatchedExecutor)
        assert ex.batch_size == 16
        assert get_executor("batch").batch_size is None

    def test_get_executor_rejects_bad_batch_size(self):
        with pytest.raises(HarnessError):
            get_executor("batch:0")
        with pytest.raises(HarnessError):
            get_executor("batch:nope")

    def test_batched_executor_rejects_bad_batch_size(self):
        with pytest.raises(HarnessError):
            BatchedExecutor(batch_size=0)


class TestRecordStepBatch:
    def _batch_outcome(self, seeds, net):
        from repro.core.cseek import resolve_backoff_batch

        rng = np.random.default_rng(0)
        n = net.n
        channels = np.stack(
            [rng.integers(0, 3, size=n) for _ in seeds]
        )
        tx_role = np.stack([rng.random(n) < 0.5 for _ in seeds])
        return (
            resolve_backoff_batch(
                net.adjacency,
                channels,
                tx_role,
                4,
                [np.random.default_rng(s) for s in seeds],
            ),
            channels,
        )

    def test_matches_per_trial_record_step(self, small_path_net):
        outcome, channels = self._batch_outcome(SEEDS, small_path_net)
        batched = [TraceRecorder() for _ in SEEDS]
        record_step_batch(batched, outcome, 100, "test", channels=channels)
        for b in range(len(SEEDS)):
            ref = TraceRecorder()
            ref.record_step(
                outcome.trial(b), 100, "test", channels=channels[b]
            )
            assert batched[b].first_heard == ref.first_heard

    def test_verbose_fallback_matches(self, small_path_net):
        outcome, channels = self._batch_outcome(SEEDS, small_path_net)
        batched = [TraceRecorder(verbose=True) for _ in SEEDS]
        record_step_batch(batched, outcome, 0, "test", channels=channels)
        for b in range(len(SEEDS)):
            ref = TraceRecorder(verbose=True)
            ref.record_step(
                outcome.trial(b), 0, "test", channels=channels[b]
            )
            assert batched[b].events == ref.events
            assert batched[b].first_heard == ref.first_heard

    def test_recorder_count_mismatch_rejected(self, small_path_net):
        outcome, channels = self._batch_outcome(SEEDS, small_path_net)
        with pytest.raises(ValueError):
            record_step_batch(
                [TraceRecorder()], outcome, 0, "test", channels=channels
            )
