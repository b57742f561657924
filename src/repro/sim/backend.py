"""The contention GEMM every engine step reduces to.

Every engine entry point ultimately reduces to the same two products
per step: for each (trial, slot) coin row, the number of reachable
broadcasting neighbors per listener (``contenders``) and the id-sum of
those neighbors (``idsum`` — the sender's identity whenever exactly one
neighbor transmits). :class:`NumpyBackend` computes exactly that pair,
so the surrounding protocol semantics (reception masks, listener
gating, jamming) stay in :mod:`repro.sim.engine`.

A shared ``(n, n)`` reception mask is resolved over its *live* part
only: the nodes some broadcaster reaches (rows) and the broadcasters
that reach someone (columns). Both weight matrices are stacked into
one float64 operand per distinct mask (cached — see
:meth:`NumpyBackend.live_operands`), so each block of coin rows costs
one BLAS GEMM of width ``|cols|`` instead of two of width ``n``; a
COUNT star (one listener, ``m`` broadcasters) multiplies ``(T, m)`` by
``(m, 2)``. All operands are 0/1 coins or ids ``< n``, so every product
is an exact integer ``< n^2 << 2^53`` — float64 round-trips are
lossless and results are bit-identical regardless of blocking.
:func:`active_backend` returns the one instance the engine calls.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import obs

__all__ = ["NumpyBackend", "active_backend"]


class NumpyBackend:
    """Contender counts and id-sums as exact BLAS GEMMs.

    The live operands of a shared reception mask (:meth:`live_operands`)
    are memoized per mask object: protocol runs resolve many steps
    against the same mask (COUNT trials re-use one star; cached
    reception matrices in the engine return the same object), and
    rebuilding them per call was measurable on small-n sweeps. The
    cache keys on object identity and holds strong references, so an
    entry can never alias a different (freed) array.
    """

    name = "numpy"

    #: Distinct reach masks memoized at once. Protocol runs alternate
    #: between at most a couple of masks; keep this tiny.
    _CACHE_ENTRIES = 4

    #: Rows per GEMM block — big enough to amortize dispatch, small
    #: enough to stay cache-resident (one huge GEMM with this skinny
    #: inner dimension is memory-bound and loses).
    _GEMM_ROWS = 16384

    def __init__(self) -> None:
        # (mask, rows, cols, W), most recently used first.
        self._operands: List[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []

    def live_operands(
        self, reach: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, W)`` of an ``(n, n)`` mask, memoized per mask.

        ``rows`` are the sorted indices of the nodes any broadcaster
        reaches, ``cols`` those of the broadcasters that reach anyone,
        and ``W`` the float64 ``(|cols|, 2 * |rows|)`` stack of count
        weights (left half) and id weights (right half) of the live
        block.
        """
        for i, (obj, rows, cols, weights) in enumerate(self._operands):
            if obj is reach:
                if i:  # move-to-front; the hot mask stays first
                    self._operands.insert(0, self._operands.pop(i))
                obs.count("backend.float_cache.hits")
                return rows, cols, weights
        obs.count("backend.float_cache.misses")
        rows, cols = np.flatnonzero(reach.any(1)), np.flatnonzero(reach.any(0))
        live_t = reach[np.ix_(rows, cols)].T.astype(np.float64)
        ids = np.arange(reach.shape[-1], dtype=np.float64)[cols]
        weights = np.hstack([live_t, live_t * ids[:, None]])
        self._operands.insert(0, (reach, rows, cols, weights))
        if len(self._operands) > self._CACHE_ENTRIES:
            obs.count(
                "backend.float_cache.evictions",
                len(self._operands) - self._CACHE_ENTRIES,
            )
        del self._operands[self._CACHE_ENTRIES :]
        return rows, cols, weights

    def step_products(
        self, reach: np.ndarray, coins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Products for a shared ``(n, n)`` reception mask's live rows.

        Args:
            reach: ``(n, n)`` boolean; ``[u, v]`` = v's broadcasts
                reach u.
            coins: ``(M, n)`` boolean transmission coins (any flattened
                trial/slot axis).

        Returns:
            ``(rows, contenders, idsum)``: the live rows and int64
            ``(M, |rows|)`` products for them. No broadcaster reaches
            a node outside ``rows``, so such a node has 0 contenders.
        """
        rows, cols, weights = self.live_operands(reach)
        m = coins.shape[0]
        live = weights.shape[1] // 2
        contenders = np.empty((m, live), dtype=np.int64)
        idsum = np.empty((m, live), dtype=np.int64)
        step = self._GEMM_ROWS
        obs.count("backend.gemm_blocks", -(-m // step))
        for i in range(0, m, step):
            block = coins[i : i + step][:, cols].astype(np.float64)
            products = block @ weights
            contenders[i : i + step] = products[:, :live]
            idsum[i : i + step] = products[:, live:]
        return rows, contenders, idsum

    def batch_step_products(
        self, reach: np.ndarray, coins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Products for per-trial ``(B, n, n)`` reception masks.

        Args:
            reach: ``(B, n, n)`` boolean per-trial reception masks.
            coins: ``(B, T, n)`` boolean per-trial per-slot coins.

        Returns:
            ``(contenders, idsum)`` int64 arrays of shape ``(B, T, n)``.
        """
        # Batched BLAS GEMMs over the trial axis (matmul beats einsum
        # ~5x on these shapes). Per-trial masks are fresh arrays every
        # step, so there is nothing to memoize here.
        obs.count("backend.gemm_batches")
        ids = np.arange(reach.shape[-1], dtype=np.float64)
        reach_t = reach.astype(np.float64).transpose(0, 2, 1)
        coins_f = coins.astype(np.float64)
        contenders = (coins_f @ reach_t).astype(np.int64)
        idsum = (coins_f @ (reach_t * ids[:, None])).astype(np.int64)
        return contenders, idsum


_ACTIVE = NumpyBackend()


def active_backend() -> NumpyBackend:
    """The process-wide instance engine calls resolve against."""
    return _ACTIVE
