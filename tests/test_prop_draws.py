"""Property-based tests on CSEEK's bulk-decoded draws (hypothesis).

:func:`repro.core.cseek_batch.run_cseek_lockstep` reads each trial's
chunk of draws from one raw PCG64 fill (:class:`repro.sim.rng.BulkDraws`)
instead of per-step ``Generator`` calls. These tests hold the decoder
to the calls it replaces: the same labels, doubles, roles and coins, in
the same stream positions, across odd and even ``n``, label ranges with
and without Lemire rejections, buffered halves carried into a chunk and
any chunk split.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CSeek, CSeekBatch
from repro.core.cseek import backoff_probabilities, choose_part2_labels
from repro.core.cseek_batch import _part1_draws, _part2_draws, _part2_labels
from repro.graphs import build_network, cycle
from repro.sim import MarkovTraffic
from repro.sim import rng as rng_module
from repro.sim.rng import BulkDraws, _word_doubles, _word_thresholds

from cseek_reference import assert_results_equal, chunk_cells, reference_cseek

#: Label ranges: 1 draws nothing, powers of two never reject, and
#: 2**31 + 1 rejects about half its values (the redraw path).
LABEL_RANGES = [1, 2, 4, 8, 3, 5, 6, 7, 12, 2**31 + 1]


@st.composite
def draw_case(draw, label_ranges=LABEL_RANGES):
    """Trials, label layout, chunk split and carried-in halves."""
    trials = draw(st.integers(min_value=1, max_value=3))
    return dict(
        seeds=draw(
            st.lists(
                st.integers(min_value=0, max_value=2**32),
                min_size=trials,
                max_size=trials,
            )
        ),
        # Per trial: draw one 32-bit value first, so a buffered half is
        # carried into the decoder's first chunk.
        carried=draw(
            st.lists(st.booleans(), min_size=trials, max_size=trials)
        ),
        n=draw(st.integers(min_value=1, max_value=11)),
        c=draw(st.sampled_from(label_ranges)),
        chunks=draw(
            st.lists(
                st.integers(min_value=1, max_value=4), min_size=1, max_size=4
            )
        ),
    )


def generators(case):
    """Fresh generators per trial, with the case's carried-in halves."""
    gens = [np.random.default_rng(seed) for seed in case["seeds"]]
    for gen, carried in zip(gens, case["carried"]):
        if carried:
            gen.integers(0, 2, size=1)
    return gens


class TestBulkDrawsContract:
    def test_word_thresholds_match_double_comparisons(self):
        probs = np.array([1.0, 0.5, 0.25, 2.0**-20, 0.3, 1e-9])
        words = np.random.default_rng(4).integers(
            0, 2**64, size=4096, dtype=np.uint64
        )
        # Words right at each bound, and one past it.
        bounds = _word_thresholds(probs)
        edges = np.concatenate([bounds, bounds[1:] + np.uint64(1)])
        words = np.concatenate([words, edges])[:, None]
        assert np.array_equal(words <= bounds, _word_doubles(words) < probs)

    @given(
        draw_case(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_take_matches_generator_calls(self, case, lead, rows, layout_seed):
        """Any layout: lead doubles with distinct probabilities, labels,
        extra doubles for flagged lead doubles, trailing doubles."""
        n, c = case["n"], case["c"]
        layout = np.random.default_rng(layout_seed)
        before = 1.0 - layout.random(lead)
        extra = layout.random((len(case["seeds"]), lead)) < 0.6
        after = 1.0 - layout.random((rows, n))
        draws = BulkDraws(
            generators(case), c, n, after=after, before=before, extra=extra
        )
        reference = generators(case)
        for steps in case["chunks"]:
            chunk = draws.take(steps)
            for b, gen in enumerate(reference):
                for s in range(steps):
                    below = gen.random(lead) < before
                    assert np.array_equal(chunk.before[b, s], below)
                    assert np.array_equal(
                        chunk.labels[b, s], gen.integers(0, c, size=n)
                    )
                    picks = extra[b] & ~below
                    expected = np.full(lead, np.nan)
                    expected[picks] = gen.random(int(picks.sum()))
                    assert np.array_equal(
                        chunk.extra[b, s], expected, equal_nan=True
                    )
                    assert np.array_equal(
                        chunk.after[b, s], gen.random((rows, n)) < after
                    )

    @given(
        draw_case(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_part_one_matches_generator_calls(self, case, slots, probs_seed):
        n, c = case["n"], case["c"]
        # COUNT's first round has probability 1.
        count_probs = 1.0 - np.random.default_rng(probs_seed).random(slots)
        count_probs[0] = 1.0
        draws = _part1_draws(generators(case), c, n, count_probs)
        reference = generators(case)
        probs = np.concatenate([[0.5], count_probs])[:, None]
        for steps in case["chunks"]:
            chunk = draws.take(steps)
            for b, gen in enumerate(reference):
                for s in range(steps):
                    assert np.array_equal(
                        chunk.labels[b, s], gen.integers(0, c, size=n)
                    )
                    assert np.array_equal(
                        chunk.after[b, s], gen.random((slots + 1, n)) < probs
                    )

    @given(
        # A (B, n, c) score table needs a small c; the forced-rejection
        # test below covers part two's redraw.
        draw_case(label_ranges=LABEL_RANGES[:-1]),
        st.sampled_from(["weighted", "uniform"]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_part_two_matches_generator_calls(
        self, case, policy, backoff_len, counts_seed
    ):
        n, c = case["n"], case["c"]
        trials = len(case["seeds"])
        # Part-one scores: some rows all zero (those listeners pick
        # uniformly), the rest a mix of zero and positive entries.
        scores = np.random.default_rng(counts_seed)
        shape = (trials, n, c)
        counts = scores.integers(0, 3, size=shape) * scores.random(shape)
        counts[scores.random((trials, n)) < 0.3] = 0.0
        draws, weighted = _part2_draws(
            generators(case), counts, backoff_len, policy
        )
        reference = generators(case)
        probs = backoff_probabilities(backoff_len)[:, None]
        for steps in case["chunks"]:
            chunk = draws.take(steps)
            labels = _part2_labels(chunk, counts, weighted)
            for b, gen in enumerate(reference):
                for s in range(steps):
                    role = gen.random(n) < 0.5
                    assert np.array_equal(chunk.before[b, s], role)
                    expected = choose_part2_labels(
                        gen, role, counts[b], policy=policy
                    )
                    assert np.array_equal(labels[b, s], expected)
                    assert np.array_equal(
                        chunk.after[b, s],
                        gen.random((backoff_len, n)) < probs,
                    )


class TestRejectionRedraw:
    @given(
        st.sampled_from(["weighted", "uniform"]),
        st.sampled_from([None, 64, 1]),
        st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_forced_rejections_match_reference(self, policy, cells, markov):
        """Every label of the odd trials reads as rejected, so those
        trials redraw each chunk with the generator's own calls while
        the even ones decode; all must match the step reference."""
        net = build_network(cycle(9), c=6, k=1, seed=2)
        env = (
            MarkovTraffic(sorted(net.assignment.universe()), activity=0.4)
            if markov
            else None
        )
        budgets = dict(
            part1_steps=9,
            part2_steps=11,
            part2_listener=policy,
            environment=env,
        )
        seeds = [3, 17, 99, 5]
        redrawn = []
        redraw = BulkDraws._redraw

        def recording_redraw(self, b, used, chunk):
            redrawn.append(int(b))
            return redraw(self, b, used, chunk)

        def odd_trials_rejected(scaled, c):
            odd = np.arange(scaled.shape[0]) % 2 == 1
            return np.broadcast_to(odd[:, None, None], scaled.shape)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_lemire_rejected", odd_trials_rejected)
            patch.setattr(BulkDraws, "_redraw", recording_redraw)
            with chunk_cells(cells):
                got = CSeekBatch(net, **budgets).run(seeds)
        assert set(redrawn) == {1, 3}
        for result, seed in zip(got, seeds):
            ref = reference_cseek(CSeek(net, seed=seed, **budgets))
            assert_results_equal(result, ref)
