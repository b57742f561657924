"""Property-based tests: engine semantics vs a brute-force reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import resolve_slot, resolve_step
from repro.sim.engine import resolve_step_batch, resolve_varying


def reference_slot(adj, channels, tx):
    """O(n^2) straight-line reimplementation of the model semantics."""
    n = adj.shape[0]
    heard = np.full(n, -1, dtype=np.int64)
    for u in range(n):
        if channels[u] < 0 or tx[u]:
            continue
        senders = [
            v
            for v in range(n)
            if adj[u, v] and tx[v] and channels[v] == channels[u]
        ]
        if len(senders) == 1:
            heard[u] = senders[0]
    return heard


@st.composite
def slot_case(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < draw(
        st.floats(min_value=0.1, max_value=0.9)
    )
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(-1, 4, size=n)
    tx = rng.random(n) < 0.5
    return adj, channels, tx


class TestSlotSemantics:
    @given(slot_case())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, case):
        adj, channels, tx = case
        out = resolve_slot(adj, channels, tx)
        assert np.array_equal(out.heard_from, reference_slot(adj, channels, tx))

    @given(slot_case())
    @settings(max_examples=60, deadline=None)
    def test_broadcasters_hear_nothing(self, case):
        adj, channels, tx = case
        out = resolve_slot(adj, channels, tx)
        assert (out.heard_from[tx] == -1).all()

    @given(slot_case())
    @settings(max_examples=60, deadline=None)
    def test_heard_sender_is_neighbor_on_same_channel(self, case):
        adj, channels, tx = case
        out = resolve_slot(adj, channels, tx)
        for u in np.flatnonzero(out.heard_from >= 0):
            v = out.heard_from[u]
            assert adj[u, v]
            assert tx[v]
            assert channels[u] == channels[v]


@st.composite
def step_case(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    slots = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    # Besides random graphs, draw masks with no live row (no edges),
    # with exactly one (node 0 listening to broadcasting leaves) and
    # with every row live (node 0 listening on a complete graph).
    shape = draw(st.sampled_from(["random", "empty", "star", "complete"]))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.5
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(-1, 3, size=n)
    tx_role = rng.random(n) < 0.5
    if shape == "empty":
        adj[:] = False
    elif shape in ("star", "complete"):
        adj[:] = shape == "complete"
        adj[0, 1:] = adj[1:, 0] = True
        np.fill_diagonal(adj, False)
        channels[:] = 0
        tx_role[:] = True
        tx_role[0] = False
    coins = rng.random((slots, n)) < 0.6
    return adj, channels, tx_role, coins


class TestStepSemantics:
    @given(step_case())
    @settings(max_examples=80, deadline=None)
    def test_step_equals_slotwise_reference(self, case):
        adj, channels, tx_role, coins = case
        out = resolve_step(adj, channels, tx_role, coins)
        for t in range(coins.shape[0]):
            tx = tx_role & coins[t]
            expected = reference_slot(adj, channels, tx)
            # Broadcasters who happen not to transmit this slot still do
            # not listen mid-step; mask them out of the reference.
            expected[tx_role] = -1
            assert np.array_equal(out.heard_from[t], expected)

    @given(step_case(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_jammed_batch_equals_per_trial_steps(self, case, trials):
        adj, channels, tx_role, coins = case
        rng = np.random.default_rng(coins.size + trials)
        batch_coins = rng.random((trials, *coins.shape)) < 0.6
        jam = rng.random(batch_coins.shape) < 0.3
        out = resolve_step_batch(adj, channels, tx_role, batch_coins, jam=jam)
        for b in range(trials):
            step = resolve_step(adj, channels, tx_role, batch_coins[b], jam[b])
            assert np.array_equal(out.heard_from[b], step.heard_from)
            assert np.array_equal(out.contenders[b], step.contenders)


@st.composite
def varying_case(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    slots = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.5
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(-1, 3, size=(slots, n))
    tx = rng.random((slots, n)) < 0.5
    chunk = draw(st.integers(min_value=1, max_value=5))
    return adj, channels, tx, chunk


class TestVaryingSemantics:
    @given(varying_case())
    @settings(max_examples=80, deadline=None)
    def test_varying_equals_slotwise_reference(self, case):
        adj, channels, tx, chunk = case
        out = resolve_varying(adj, channels, tx, chunk=chunk)
        for t in range(channels.shape[0]):
            expected = reference_slot(adj, channels[t], tx[t])
            assert np.array_equal(out.heard_from[t], expected)
