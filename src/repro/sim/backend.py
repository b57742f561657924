"""The contention GEMM every engine step reduces to.

Every engine entry point ultimately reduces to the same two products
per step: for each (trial, slot) coin row, the number of reachable
broadcasting neighbors per listener (``contenders``) and the id-sum of
those neighbors (``idsum`` — the sender's identity whenever exactly one
neighbor transmits). :class:`NumpyBackend` computes exactly that pair,
so the surrounding protocol semantics (reception masks, listener
gating, jamming) stay in :mod:`repro.sim.engine`.

It casts the boolean reception mask to float64 once per distinct mask
(cached — see :meth:`NumpyBackend.reach_floats`) so the products
dispatch to BLAS GEMMs. All operands are 0/1 coins or ids ``< n``, so
every product is an exact integer ``< n^2 << 2^53`` — float64
round-trips are lossless and results are bit-identical regardless of
blocking. :func:`active_backend` returns the one instance the engine
calls.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import obs

__all__ = ["NumpyBackend", "active_backend"]


class NumpyBackend:
    """Contender counts and id-sums as exact BLAS GEMMs.

    Float64 casts of a reception mask are memoized per mask object
    (:meth:`reach_floats`): protocol runs resolve many steps against
    the same mask (COUNT trials re-use one star; cached reception
    matrices in the engine return the same object), and re-materializing
    ``reach.astype(np.float64)`` per call was measurable on small-n
    sweeps. The cache keys on object identity and holds strong
    references, so an entry can never alias a different (freed) array.
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
        self._floats: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def reach_floats(
        self, reach: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(reach_f, reach_ids)`` float64 casts, memoized per mask."""
        for i, (obj, reach_f, reach_ids) in enumerate(self._floats):
            if obj is reach:
                if i:  # move-to-front; the hot mask stays first
                    self._floats.insert(0, self._floats.pop(i))
                obs.count("backend.float_cache.hits")
                return reach_f, reach_ids
        obs.count("backend.float_cache.misses")
        reach_f = reach.astype(np.float64)
        ids = np.arange(reach.shape[-1], dtype=np.float64)
        reach_ids = reach_f * ids[None, :]
        self._floats.insert(0, (reach, reach_f, reach_ids))
        if len(self._floats) > self._CACHE_ENTRIES:
            obs.count(
                "backend.float_cache.evictions",
                len(self._floats) - self._CACHE_ENTRIES,
            )
        del self._floats[self._CACHE_ENTRIES :]
        return reach_f, reach_ids

    def step_products(
        self, reach: np.ndarray, coins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Products for a shared ``(n, n)`` reception mask.

        Args:
            reach: ``(n, n)`` boolean; ``[u, v]`` = v's broadcasts
                reach u.
            coins: ``(M, n)`` boolean transmission coins (any flattened
                trial/slot axis).

        Returns:
            ``(contenders, idsum)`` int64 arrays of shape ``(M, n)``.
        """
        reach_f, reach_ids = self.reach_floats(reach)
        m, n = coins.shape
        contenders = np.empty((m, n), dtype=np.int64)
        idsum = np.empty((m, n), dtype=np.int64)
        rows = self._GEMM_ROWS
        obs.count("backend.gemm_blocks", -(-m // rows))
        for i in range(0, m, rows):
            block = coins[i : i + rows].astype(np.float64)
            contenders[i : i + rows] = (block @ reach_f.T).astype(np.int64)
            idsum[i : i + rows] = (block @ reach_ids.T).astype(np.int64)
        return contenders, idsum

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
