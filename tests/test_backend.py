"""The contention GEMM against a naive integer reference.

:class:`NumpyBackend` computes exact integer products (counts and
id-sums) through float64 BLAS GEMMs, so it must match an int64 matmul
bit for bit — on a shared mask's live rows (empty, one-row, sparse and
dense masks), across GEMM block boundaries, for per-trial mask stacks,
and end to end through the engine and a scenario's rows. The
live-operand and engine reception caches are pinned here too.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.scenarios import run_scenario_spec
from repro.sim.backend import NumpyBackend, active_backend
from repro.sim.engine import _reception_matrix, resolve_step

from tests.test_xbatch import tiny_cseek_sweep


def reference_products(reach, coins):
    """Naive integer loop — the semantics the GEMM must match."""
    contenders = coins.astype(np.int64) @ reach.T.astype(np.int64)
    ids = np.arange(reach.shape[-1], dtype=np.int64)
    idsum = coins.astype(np.int64) @ (reach.astype(np.int64) * ids).T
    return contenders, idsum


def assert_live_products_match(backend, reach, coins):
    """Live-row products equal the reference; dead rows have none."""
    rows, contenders, idsum = backend.step_products(reach, coins)
    ref_c, ref_i = reference_products(reach, coins)
    n = reach.shape[0]
    assert np.array_equal(np.arange(n)[rows], np.flatnonzero(reach.any(1)))
    assert contenders.dtype == np.int64 and idsum.dtype == np.int64
    assert np.array_equal(contenders, ref_c[:, rows])
    assert np.array_equal(idsum, ref_i[:, rows])
    dead = np.ones(n, dtype=bool)
    dead[rows] = False
    assert not ref_c[:, dead].any()
    return rows


def reference_step(adj, channels, tx_role, coins, jam=None):
    """The dense engine semantics: full-width products, then gating."""
    reach = _reception_matrix(adj, channels, tx_role)
    contenders, idsum = reference_products(reach, coins)
    receivable = ((channels >= 0) & ~tx_role) & (contenders == 1)
    if jam is not None:
        receivable &= ~jam
    return np.where(receivable, idsum, -1), contenders


def star(n):
    """Node 0 listens to n - 1 broadcasting leaves: one live row."""
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    tx_role = np.ones(n, dtype=bool)
    tx_role[0] = False
    return adj, np.zeros(n, dtype=np.int64), tx_role


def test_active_backend_is_the_numpy_gemm():
    assert type(active_backend()) is NumpyBackend
    assert active_backend() is active_backend()


class TestBackendEquivalence:
    def test_step_products_match_reference(self):
        rng = np.random.default_rng(5)
        reach = rng.random((7, 7)) < 0.4
        coins = rng.random((23, 7)) < 0.5
        assert_live_products_match(active_backend(), reach, coins)

    def test_step_products_across_gemm_blocks(self):
        rows = NumpyBackend._GEMM_ROWS
        rng = np.random.default_rng(13)
        reach = rng.random((5, 5)) < 0.5
        coins = rng.random((2 * rows + 5, 5)) < 0.5
        with obs.capture() as tel:
            assert_live_products_match(NumpyBackend(), reach, coins)
        assert tel.counters["backend.gemm_blocks"] == 3

    def test_star_across_gemm_blocks(self):
        rows = NumpyBackend._GEMM_ROWS
        adj, channels, tx_role = star(6)
        reach = _reception_matrix(adj, channels, tx_role)
        coins = np.random.default_rng(14).random((2 * rows + 5, 6)) < 0.5
        with obs.capture() as tel:
            live = assert_live_products_match(NumpyBackend(), reach, coins)
        assert tel.counters["backend.gemm_blocks"] == 3
        assert list(live) == [0]

    def test_empty_mask_has_no_live_row(self):
        reach = np.zeros((5, 5), dtype=bool)
        coins = np.random.default_rng(15).random((9, 5)) < 0.5
        live = assert_live_products_match(NumpyBackend(), reach, coins)
        assert len(live) == 0

    def test_complete_graph_has_every_row_live(self):
        # The engine's mask of a complete graph on one channel: every
        # node is reached, and only the broadcasters are columns.
        n = 5
        tx_role = np.arange(n) % 2 == 1
        reach = _reception_matrix(
            ~np.eye(n, dtype=bool), np.zeros(n, dtype=np.int64), tx_role
        )
        coins = np.random.default_rng(16).random((9, n)) < 0.5
        backend = NumpyBackend()
        rows, cols, weights = backend.live_operands(reach)
        assert list(rows) == list(range(n))
        assert list(cols) == [1, 3]
        assert weights.shape == (2, 2 * n)
        assert_live_products_match(backend, reach, coins)

    def test_random_sparse_masks(self):
        rng = np.random.default_rng(17)
        backend = NumpyBackend()
        for density in (0.02, 0.05, 0.1, 0.2):
            reach = rng.random((12, 12)) < density
            coins = rng.random((31, 12)) < 0.5
            assert_live_products_match(backend, reach, coins)

    def test_batch_step_products_match_reference(self):
        rng = np.random.default_rng(6)
        reach = rng.random((4, 6, 6)) < 0.4
        coins = rng.random((4, 9, 6)) < 0.5
        contenders, idsum = active_backend().batch_step_products(reach, coins)
        for b in range(4):
            ref_c, ref_i = reference_products(reach[b], coins[b])
            assert np.array_equal(contenders[b], ref_c)
            assert np.array_equal(idsum[b], ref_i)

    def test_scenario_rows_identical(self):
        spec = tiny_cseek_sweep()
        reference = run_scenario_spec(spec, seed=2, jobs="batch")
        got = run_scenario_spec(spec, seed=2, jobs="xbatch")
        assert got.rows == reference.rows


class TestNumpyFloatCache:
    def test_same_mask_object_hits_cache(self):
        backend = NumpyBackend()
        reach = np.random.default_rng(7).random((5, 5)) < 0.5
        first = backend.live_operands(reach)
        second = backend.live_operands(reach)
        assert all(a is b for a, b in zip(first, second))

    def test_cache_is_bounded(self):
        backend = NumpyBackend()
        masks = [
            np.random.default_rng(i).random((4, 4)) < 0.5
            for i in range(NumpyBackend._CACHE_ENTRIES + 3)
        ]
        for mask in masks:
            backend.live_operands(mask)
        assert len(backend._operands) == NumpyBackend._CACHE_ENTRIES

    def test_distinct_objects_get_distinct_casts(self):
        backend = NumpyBackend()
        reach = np.random.default_rng(8).random((5, 5)) < 0.5
        copy = reach.copy()
        _, _, w1 = backend.live_operands(reach)
        _, _, w2 = backend.live_operands(copy)
        assert w1 is not w2
        assert np.array_equal(w1, w2)

    def test_hit_miss_counters(self):
        backend = NumpyBackend()
        reach = np.random.default_rng(11).random((5, 5)) < 0.5
        with obs.capture() as tel:
            backend.live_operands(reach)
            backend.live_operands(reach)
            backend.live_operands(reach)
        assert tel.counters["backend.float_cache.misses"] == 1
        assert tel.counters["backend.float_cache.hits"] == 2
        assert "backend.float_cache.evictions" not in tel.counters

    def test_eviction_counter_matches_bound(self):
        backend = NumpyBackend()
        extra = 3
        masks = [
            np.random.default_rng(i).random((4, 4)) < 0.5
            for i in range(NumpyBackend._CACHE_ENTRIES + extra)
        ]
        with obs.capture() as tel:
            for mask in masks:
                backend.live_operands(mask)
        assert tel.counters["backend.float_cache.misses"] == len(masks)
        assert tel.counters["backend.float_cache.evictions"] == extra


class TestSharedMaskEngine:
    """Engine outputs on one shared mask, live rows scattered back."""

    def cases(self):
        rng = np.random.default_rng(18)
        n = 7
        empty = np.zeros((n, n), dtype=bool)
        yield empty, rng.integers(0, 2, n), rng.random(n) < 0.5
        yield star(n)
        # Node 0 listens to all others; every row is live.
        complete = ~np.eye(n, dtype=bool)
        yield complete, np.zeros(n, dtype=np.int64), np.arange(n) > 0
        for density in (0.1, 0.3, 0.8):
            adj = np.triu(rng.random((n, n)) < density, 1)
            yield adj | adj.T, rng.integers(-1, 2, n), rng.random(n) < 0.5

    def test_step_matches_dense_reference(self):
        rng = np.random.default_rng(19)
        for adj, channels, tx_role in self.cases():
            coins = rng.random((11, adj.shape[0])) < 0.6
            jam = rng.random(coins.shape) < 0.3
            for j in (None, jam):
                out = resolve_step(adj, channels, tx_role, coins, jam=j)
                heard, contenders = reference_step(
                    adj, channels, tx_role, coins, j
                )
                assert np.array_equal(out.heard_from, heard)
                assert np.array_equal(out.contenders, contenders)
                assert out.heard_from.dtype == np.int64
                assert out.contenders.dtype == np.int64


class TestEngineReachCache:
    def test_repeated_steps_reuse_one_reception_matrix(self):
        from repro.sim.engine import _cached_reception_matrix

        rng = np.random.default_rng(9)
        n = 6
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 3, size=n)
        tx_role = rng.random(n) < 0.5
        first = _cached_reception_matrix(adj, channels, tx_role)
        second = _cached_reception_matrix(adj, channels, tx_role)
        assert first is second

    def test_hit_miss_counters(self):
        from repro.sim.engine import _cached_reception_matrix

        rng = np.random.default_rng(12)
        n = 5
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 2, size=n)
        tx_role = rng.random(n) < 0.5
        # Fresh arrays cannot already sit in the module-level cache
        # (adjacency matches by identity), so the first call is exactly
        # one miss and the repeats are exactly hits.
        with obs.capture() as tel:
            _cached_reception_matrix(adj, channels, tx_role)
            _cached_reception_matrix(adj, channels, tx_role)
            _cached_reception_matrix(adj, channels, tx_role)
        assert tel.counters["engine.reach_cache.misses"] == 1
        assert tel.counters["engine.reach_cache.hits"] == 2

    def test_changed_channels_miss(self):
        from repro.sim.engine import _cached_reception_matrix, _reception_matrix

        rng = np.random.default_rng(10)
        n = 6
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        tx_role = np.ones(n, dtype=bool)
        ch_a = np.zeros(n, dtype=np.int64)
        ch_b = np.arange(n, dtype=np.int64) % 2
        cached_a = _cached_reception_matrix(adj, ch_a, tx_role)
        cached_b = _cached_reception_matrix(adj, ch_b, tx_role)
        assert np.array_equal(cached_a, _reception_matrix(adj, ch_a, tx_role))
        assert np.array_equal(cached_b, _reception_matrix(adj, ch_b, tx_role))
