"""Property-based tests on protocol invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CSeek,
    ProtocolConstants,
    run_count_step,
    run_dissemination_batch,
)
from repro.graphs import build_network, cycle, path, random_regular
from repro.sim import MarkovTraffic

from cgcast_reference import assert_dissemination_equal, reference_dissemination
from cseek_reference import assert_results_equal, chunk_cells, reference_cseek


@st.composite
def small_network(draw):
    """A small exact-overlap network with feasible parameters."""
    kind = draw(st.sampled_from(["path", "cycle", "regular"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if kind == "path":
        n = draw(st.integers(min_value=3, max_value=10))
        graph = path(n)
    elif kind == "cycle":
        n = draw(st.integers(min_value=4, max_value=10))
        graph = cycle(n)
    else:
        n = draw(st.sampled_from([6, 8, 10]))
        graph = random_regular(n, 3, seed=seed)
    delta = max(d for _, d in graph.degree())
    k = draw(st.integers(min_value=1, max_value=2))
    c = draw(st.integers(min_value=delta * k, max_value=delta * k + 4))
    return build_network(graph, c=c, k=k, seed=seed), seed


class TestCSeekInvariants:
    @given(small_network())
    @settings(max_examples=15, deadline=None)
    def test_discovered_always_true_neighbors(self, case):
        """Soundness: CSEEK never reports a non-neighbor (receptions can
        only come from graph neighbors on shared channels)."""
        net, seed = case
        result = CSeek(
            net, seed=seed, part1_steps=30, part2_steps=10
        ).run()
        truth = net.true_neighbor_sets()
        for u in range(net.n):
            assert result.discovered[u] <= set(truth[u])

    @given(small_network())
    @settings(max_examples=10, deadline=None)
    def test_ledger_matches_slots(self, case):
        net, seed = case
        result = CSeek(
            net, seed=seed, part1_steps=10, part2_steps=5
        ).run()
        assert result.ledger.total == result.total_slots
        assert result.step_start_slots.shape[0] == 15

    @given(small_network())
    @settings(max_examples=10, deadline=None)
    def test_first_heard_channels_are_shared(self, case):
        net, seed = case
        result = CSeek(
            net, seed=seed, part1_steps=30, part2_steps=10
        ).run()
        for (u, v), event in result.trace.first_heard.items():
            assert event.channel in net.shared_channels(u, v)
            assert 0 <= event.slot < result.total_slots

    @given(small_network(), st.sampled_from([1, 64, None]))
    @settings(max_examples=15, deadline=None)
    def test_chunked_run_matches_step_by_step_reference(self, case, cells):
        """Serial CSEEK resolves chunks of steps per engine call; any
        chunking (one step, a few, the default) must reproduce the
        one-step-at-a-time program."""
        net, seed = case
        proto = CSeek(net, seed=seed, part1_steps=7, part2_steps=11)
        with chunk_cells(cells):
            got = proto.run()
        assert_results_equal(got, reference_cseek(proto))


@st.composite
def dissemination_schedule(draw, net):
    """One trial's inputs: a greedy proper coloring of a random subset
    of the edges, colors relabelled at random inside ``[0, 2*Delta)``
    (so trials wear ragged color sets), a shared dedicated channel per
    edge, and a source."""
    num_colors = 2 * net.knowledge().max_degree
    edges = draw(st.permutations(net.edges()))
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    relabel = draw(st.permutations(range(num_colors)))
    used = {u: set() for u in range(net.n)}
    colors, dedicated = {}, {}
    for (u, v), kept in zip(edges, keep):
        if not kept:
            continue
        color = min(set(range(num_colors)) - used[u] - used[v])
        used[u].add(color)
        used[v].add(color)
        colors[(u, v)] = relabel[color]
        dedicated[(u, v)] = draw(
            st.sampled_from(sorted(net.shared_channels(u, v)))
        )
    source = draw(st.integers(min_value=0, max_value=net.n - 1))
    return colors, dedicated, source


class TestDisseminationInvariants:
    @given(small_network(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_reference_per_trial(self, case, data):
        """The lockstep program equals the one-step-at-a-time reference
        trial for trial, whatever the other trials in the batch do."""
        net, _ = case
        num_trials = data.draw(st.integers(min_value=1, max_value=4))
        early_stop = data.draw(st.booleans())
        stacked = data.draw(st.booleans())
        schedules = [
            data.draw(dissemination_schedule(net)) for _ in range(num_trials)
        ]
        seeds = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**16),
                min_size=num_trials,
                max_size=num_trials,
            )
        )
        adjacency = (
            np.broadcast_to(net.adjacency, (num_trials, net.n, net.n))
            if stacked
            else net.adjacency
        )
        got = run_dissemination_batch(
            adjacency,
            [source for _, _, source in schedules],
            [colors for colors, _, _ in schedules],
            [dedicated for _, dedicated, _ in schedules],
            knowledge=net.knowledge(),
            seeds=seeds,
            early_stop=early_stop,
        )
        for (colors, dedicated, source), seed, g in zip(
            schedules, seeds, got
        ):
            ref = reference_dissemination(
                net,
                source,
                colors,
                dedicated,
                seed=seed,
                early_stop=early_stop,
            )
            assert_dissemination_equal(g, ref)


class TestCountInvariants:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_estimates_nonnegative_and_silent_zero(self, m, seed):
        n = m + 1
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1:] = True
        adj[1:, 0] = True
        channels = np.zeros(n, dtype=np.int64)
        tx_role = np.ones(n, dtype=bool)
        tx_role[0] = False
        out = run_count_step(
            adj, channels, tx_role,
            max_count=16, log_n=4,
            constants=ProtocolConstants(),
            rng=np.random.default_rng(seed),
        )
        assert (out.estimates >= 0).all()
        # Broadcasters never estimate.
        assert (out.estimates[1:] == 0).all()
        # Reception counts match the raw step outcome.
        received = (out.step.heard_from >= 0).sum()
        assert out.round_receptions.sum() == received


class TestInterferenceInvariants:
    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=1.0, max_value=50.0),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_occupancy_blocks_are_boolean_and_bounded(
        self, activity, dwell, seed
    ):
        traffic = MarkovTraffic(
            list(range(8)), activity=activity, mean_dwell=dwell, seed_offset=0
        ).stream(seed)
        block = traffic.occupied_block(64)
        assert block.shape == (64, 8)
        assert block.dtype == bool

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_jamming_only_removes_part_one_receptions(self, seed):
        """A jammed part-one run's receptions are a subset of the clean
        run's.

        Restricted to part one: with the same seed, part one makes
        identical channel/role/coin choices and jamming purely filters
        receptions. Part two is *adaptive* (its listener weights come
        from the jam-affected COUNT estimates), so its choices — and
        hence its receptions — legitimately diverge.
        """
        network = build_network(path(6), c=6, k=2, seed=seed)
        clean = CSeek(
            network, seed=seed, part1_steps=20, part2_steps=0
        ).run()
        traffic = MarkovTraffic(
            sorted(network.assignment.universe()),
            activity=0.5,
            mean_dwell=6.0,
            seed_offset=1,
        )
        jammed = CSeek(
            network,
            seed=seed,
            part1_steps=20,
            part2_steps=0,
            environment=traffic,
        ).run()
        for u in range(network.n):
            assert jammed.discovered[u] <= clean.discovered[u]
