"""Pluggable spectrum environments — batched primary-user traffic.

The paper motivates every primitive with licensed (primary) users
disrupting channel availability: a slot spent listening on an occupied
channel is lost (Section 1). This module makes that disruption a
first-class, pluggable subsystem:

* A :class:`SpectrumEnvironment` is an immutable *description* of a
  traffic process over a set of global channels. It knows nothing about
  trials; it opens stateful occupancy streams on demand.
* :meth:`SpectrumEnvironment.streams` opens one :class:`TrafficStream`
  covering ``B`` Monte Carlo trials at once. The stream produces
  ``(B, num_slots, num_channels)`` occupancy blocks and
  ``(B, num_slots, n)`` per-node reception-kill masks — or
  ``(B, K, num_slots, n)`` for ``K`` consecutive steps — advancing all
  trials' chains in lockstep. This is what lets
  :func:`repro.core.cseek_batch.run_cseek_lockstep` jam a whole trial
  axis and a whole chunk of steps with one call instead of a per-trial,
  per-step Python loop.
* :meth:`SpectrumEnvironment.stream` is the single-trial view
  (``(num_slots, num_channels)`` / ``(num_slots, n)`` shapes), used by
  single-trial runners (serial COUNT trials, the naive baseline).

Three models ship:

* :class:`MarkovTraffic` — per-channel ON/OFF Markov chains with a
  target stationary occupancy and geometric dwell times. Blocks of
  any length advance by a log-depth scan of per-slot ``(keep, flip)``
  maps (:func:`markov_run`), bit-identical to the per-slot recurrence
  kept as the oracle in ``tests/test_environment.py``. Bursty: a
  single long ON burst can erase a whole meeting step.
* :class:`PoissonTraffic` — memoryless per-slot occupancy (each channel
  occupied independently each slot with probability ``activity``).
  Same stationary occupancy as a Markov model with ``mean_dwell``
  ``1/(1-activity)``, but losses spread evenly across slots — the
  Poissonian counterpoint the dynamic-spectrum-access literature
  contrasts with Markovian traffic.
* :class:`StaticMask` — a fixed set of blocked channels (a licensed
  band that is simply never available). Deterministic; trial seeds are
  ignored.

Per-trial stream seeds derive as ``trial_seed + seed_offset`` so the
traffic stays decorrelated from protocol coins; ``seed_offset``
defaults to 1000, the convention the scenario layer and experiment E12
have always used.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from repro.model.errors import ProtocolError

__all__ = [
    "MarkovTraffic",
    "PoissonTraffic",
    "SpectrumEnvironment",
    "StaticMask",
    "TrafficStream",
    "make_environment",
    "markov_run",
]

ENVIRONMENT_MODELS = ("markov", "poisson", "static")


def _validated_channel_ids(
    channel_ids: Sequence[int], allow_empty: bool = False
) -> List[int]:
    ids = sorted(set(int(g) for g in channel_ids))
    if not ids and not allow_empty:
        raise ProtocolError("need at least one channel id")
    if any(g < 0 for g in ids):
        raise ProtocolError("channel ids must be non-negative")
    return ids


def _validated_activity(
    activity: "float | Sequence[float]", num_channels: int
) -> "float | np.ndarray":
    """Normalize a scalar or per-channel activity target.

    Scalars stay plain Python floats (the historical homogeneous path,
    bit-identical to before vectors existed). A sequence becomes a
    float64 vector of one activity per managed channel, aligned with
    the environment's *sorted, deduplicated* ``channel_ids``.
    """
    if np.ndim(activity) == 0:
        value = float(activity)  # type: ignore[arg-type]
        if not 0.0 <= value < 1.0:
            raise ProtocolError(
                f"activity must be in [0, 1), got {value}"
            )
        return value
    vector = np.asarray(activity, dtype=float)
    if vector.shape != (num_channels,):
        raise ProtocolError(
            f"activity vector must have one entry per managed channel "
            f"({num_channels}), got shape {vector.shape}"
        )
    # ~isfinite catches NaN, which slips through both comparisons.
    if np.any((vector < 0.0) | (vector >= 1.0) | ~np.isfinite(vector)):
        raise ProtocolError(
            "every activity entry must be in [0, 1), got "
            f"{vector.tolist()}"
        )
    return vector


def build_column_lut(channel_ids: Sequence[int]) -> np.ndarray:
    """Lookup table mapping global channel id ``g`` -> occupancy column.

    ``lut[g + 1]`` is the column of managed channel ``g``; every other
    entry (``lut[0]`` for idle ``-1`` included) holds ``len(channel_ids)``,
    a column past the block, so :func:`gather_occupancy` reads it as
    never occupied.
    """
    ids = np.asarray(list(channel_ids), dtype=np.int64)
    lut = np.full((ids[-1] if ids.size else -1) + 2, ids.size, np.int64)
    lut[ids + 1] = np.arange(ids.size)
    return lut


def gather_occupancy(
    occupied: np.ndarray, column_lut: np.ndarray, channels: np.ndarray
) -> np.ndarray:
    """Per-node occupancy: ``(R, S, n)`` from ``(R, S, C)`` blocks.

    ``channels`` is ``(n,)`` (shared by every row) or ``(R, n)``;
    ``out[r, s, j]`` is ``occupied[r, s, column of channels[r, j]]``,
    with idle nodes (``-1``) and channels outside the managed set read
    as clear. A masked gather with no sentinel-column copy: a shared
    row indexes the channel axis directly, per-row channels take one
    flat-index gather.
    """
    rows, slots, width = occupied.shape
    in_range = (channels >= 0) & (channels < column_lut.size - 1)
    cols = column_lut[np.where(in_range, channels + 1, 0)]
    managed = cols < width
    if width == 0:
        return np.zeros((rows, slots, channels.shape[-1]), dtype=bool)
    cols[~managed] = 0
    if channels.ndim == 1:
        gathered = occupied[..., cols]
    else:
        cols += np.arange(0, rows * slots * width, slots * width)[:, None]
        step = np.arange(0, slots * width, width)[:, None]
        gathered = occupied.ravel()[cols[:, None, :] + step]
    # Indexing the last axis lays its result out node-major; order="C"
    # hands consumers the row-major mask they scan slot by slot.
    return np.logical_and(gathered, managed[..., None, :], order="C")


def markov_run(
    state: np.ndarray,
    flips: np.ndarray,
    on_prob: "float | np.ndarray",
    off_prob: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """Advance ``(B, C)`` ON/OFF chains through ``(B, T, C)`` uniforms.

    The per-slot rule ``s_t = f_t >= off_prob if s_{t-1} else
    f_t < on_prob`` is one of four maps of the state: hold, toggle,
    or reset to 0 or 1. Each is a pair ``(keep, flip)``, applied as
    ``s' = (s & keep) ^ flip``, with ``flip = f_t < on_prob`` and
    ``keep = flip == (f_t < off_prob)``. ``(k1, f1)`` then ``(k2, f2)``
    composes to ``(k1 & k2, (f1 & k2) ^ f2)``, so a doubling scan along
    the slot axis builds every slot's prefix map in ``ceil(log2(T))``
    rounds of bool ops, applied to the carried-in state. ``on_prob``
    is a scalar or a per-channel ``(C,)`` vector.

    Returns ``(occupancy (B, T, C), final state (B, C))``.
    """
    num_slots = flips.shape[1]
    flip = flips < on_prob
    keep = flip == (flips < off_prob)
    spare_keep, spare_flip = np.empty_like(keep), np.empty_like(flip)
    span = 1
    while span < num_slots:
        # Slot t >= span composes the map covering the span slots
        # before it with its own; earlier slots hold their full prefix.
        new_keep, new_flip = spare_keep[:, span:], spare_flip[:, span:]
        np.logical_and(keep[:, :-span], keep[:, span:], out=new_keep)
        np.logical_and(flip[:, :-span], keep[:, span:], out=new_flip)
        new_flip ^= flip[:, span:]
        spare_keep[:, :span] = keep[:, :span]
        spare_flip[:, :span] = flip[:, :span]
        keep, spare_keep = spare_keep, keep
        flip, spare_flip = spare_flip, flip
        span *= 2
    occupancy = np.logical_and(state[:, None, :], keep, out=keep)
    occupancy ^= flip
    return occupancy, occupancy[:, -1].copy()


def _draw_uniform(
    rngs: Sequence[np.random.Generator], num_slots: int, num_channels: int
) -> np.ndarray:
    """``(B, num_slots, C)`` uniforms, trial ``b`` drawn from ``rngs[b]``.

    Byte-identical to stacking ``rng.random((num_slots, C))`` per trial,
    without the stack copy.
    """
    flips = np.empty((len(rngs), num_slots, num_channels))
    for rng, block in zip(rngs, flips):
        rng.random(out=block)
    return flips


class TrafficStream(ABC):
    """A stateful occupancy stream over ``B`` trials in lockstep.

    Subclasses implement :meth:`occupied_block`; the per-node
    :meth:`jam_mask` view is shared, built on a vectorized
    channel-column gather (no per-node Python loop).
    """

    def __init__(self, channel_ids: Sequence[int], num_trials: int) -> None:
        if num_trials < 1:
            raise ProtocolError(
                f"a stream needs at least one trial, got {num_trials}"
            )
        self.channel_ids = _validated_channel_ids(
            channel_ids, allow_empty=True
        )
        self.num_trials = num_trials
        self._column_lut = build_column_lut(self.channel_ids)

    @property
    def num_channels(self) -> int:
        """Channels under primary-user control."""
        return len(self.channel_ids)

    @abstractmethod
    def occupied_block(self, num_slots: int) -> np.ndarray:
        """Advance all trials; return ``(B, num_slots, C)`` occupancy.

        Column order matches ``self.channel_ids``; trial ``b``'s slice
        continues exactly where its previous block ended.
        """

    def _check_slots(self, num_slots: int) -> None:
        if num_slots < 1:
            raise ProtocolError(
                f"num_slots must be >= 1, got {num_slots}"
            )

    def jam_mask(
        self, channels: np.ndarray, num_slots: int
    ) -> np.ndarray:
        """Per-node reception-kill masks for fixed-channel steps.

        Args:
            channels: ``(n,)`` (shared by every trial) or ``(B, n)``
                global channel per node for one step, or ``(B, K, n)``
                for ``K`` consecutive steps (``-1`` idle; idle nodes and
                channels outside the managed set are never jammed).
            num_slots: Step length; every trial's traffic advances by
                this much per step.

        Returns:
            ``(B, num_slots, n)`` boolean — ``(B, K, num_slots, n)`` for
            ``K`` steps — True where the node's channel is occupied
            that slot in that trial. ``K`` steps draw one
            ``occupied_block(K * num_slots)``, which equals ``K``
            successive blocks: occupancy never depends on the channels.
        """
        channels = np.asarray(channels)
        if channels.ndim >= 2 and channels.shape[0] != self.num_trials:
            raise ProtocolError(
                f"channels covers {channels.shape[0]} trials, stream "
                f"has {self.num_trials}"
            )
        if channels.ndim < 3:
            occupied = self.occupied_block(num_slots)
            return gather_occupancy(occupied, self._column_lut, channels)
        trials, steps, n = channels.shape
        occupied = self.occupied_block(steps * num_slots).reshape(
            trials * steps, num_slots, self.num_channels
        )
        mask = gather_occupancy(
            occupied, self._column_lut, channels.reshape(trials * steps, n)
        )
        return mask.reshape(trials, steps, num_slots, n)


class _SerialStream:
    """Single-trial view of a :class:`TrafficStream`.

    Wraps a one-trial stream, dropping the leading trial axis so a
    single-trial caller consumes occupancy blocks
    ``(num_slots, num_channels)`` and jam masks ``(num_slots, n)``.
    """

    def __init__(self, stream: TrafficStream) -> None:
        if stream.num_trials != 1:
            raise ProtocolError(
                "a serial view needs a single-trial stream, got "
                f"{stream.num_trials} trials"
            )
        self._stream = stream
        self.channel_ids = stream.channel_ids

    def occupied_block(self, num_slots: int) -> np.ndarray:
        """``(num_slots, num_channels)`` occupancy, trial axis dropped."""
        return self._stream.occupied_block(num_slots)[0]

    def jam_mask(
        self, channels: np.ndarray, num_slots: int
    ) -> np.ndarray:
        """``(num_slots, n)`` reception-kill mask, trial axis dropped."""
        return self._stream.jam_mask(channels, num_slots)[0]


class SpectrumEnvironment(ABC):
    """One primary-user traffic model over a set of global channels.

    Environments are immutable descriptions; all mutable state lives in
    the streams they open. One environment therefore serves any number
    of trials, serial or batched, without cross-trial contamination,
    and every protocol execution opens its own fresh stream — a rerun
    with the same seed sees the same occupancy.
    """

    kind: str = "abstract"

    def __init__(
        self, channel_ids: Sequence[int], seed_offset: int = 1000
    ) -> None:
        self.channel_ids = _validated_channel_ids(channel_ids)
        self.seed_offset = int(seed_offset)

    @property
    def num_channels(self) -> int:
        """Channels under primary-user control."""
        return len(self.channel_ids)

    @abstractmethod
    def streams(self, seeds: Sequence[int]) -> TrafficStream:
        """Open one batched occupancy stream over these trial seeds.

        Trial ``b``'s chain seeds from ``seeds[b] + seed_offset``; its
        slice of every block is bit-identical to the stream
        ``self.stream(seeds[b])`` would produce on its own.
        """

    def stream(self, seed: int) -> _SerialStream:
        """The single-trial serial view for one trial seed."""
        return _SerialStream(self.streams([seed]))

    def _stream_seeds(self, seeds: Sequence[int]) -> List[int]:
        if len(seeds) == 0:
            raise ProtocolError("seeds must name at least one trial")
        return [int(s) + self.seed_offset for s in seeds]


class MarkovTraffic(SpectrumEnvironment):
    """Per-channel ON/OFF Markov chains (bursty licensed traffic).

    Each channel is an independent ON/OFF chain with target stationary
    occupancy ``activity`` and geometric ON bursts of mean
    ``mean_dwell`` slots. Streams draw each trial's uniforms into one
    ``(B, T, C)`` block and advance every chain through it with one
    :func:`markov_run` map-composition scan; trial ``b``'s slice is
    bit-identical to the single-trial ``stream(seeds[b])`` (same
    generator, same draw order, same kernel), so batching changes
    throughput, not results.

    Feasibility: the OFF->ON probability needed for stationarity
    saturates at 1, capping reachable occupancy at
    ``mean_dwell / (mean_dwell + 1)``; :attr:`realized_activity`
    reports the fraction the chains actually attain.
    """

    kind = "markov"

    def __init__(
        self,
        channel_ids: Sequence[int],
        activity: "float | Sequence[float]",
        mean_dwell: float = 8.0,
        seed_offset: int = 1000,
    ) -> None:
        if mean_dwell < 1.0:
            raise ProtocolError(
                f"mean_dwell must be >= 1 slot, got {mean_dwell}"
            )
        super().__init__(channel_ids, seed_offset=seed_offset)
        # A scalar targets every channel uniformly (the historical
        # path, kept bit-identical); a length-C vector gives each
        # channel its own stationary occupancy — heterogeneous licensed
        # bands, aligned with the sorted channel_ids.
        self.activity = _validated_activity(activity, self.num_channels)
        self.mean_dwell = float(mean_dwell)
        # ON -> OFF with prob 1/dwell; OFF -> ON tuned for stationarity.
        self._off_prob = 1.0 / self.mean_dwell
        if isinstance(self.activity, float):
            if self.activity == 0.0:
                self._on_prob = 0.0
            else:
                self._on_prob = min(
                    1.0,
                    self.activity
                    * self._off_prob
                    / (1.0 - self.activity),
                )
        else:
            self._on_prob = np.where(
                self.activity == 0.0,
                0.0,
                np.minimum(
                    1.0,
                    self.activity
                    * self._off_prob
                    / (1.0 - self.activity),
                ),
            )

    @property
    def realized_activity(self) -> "float | np.ndarray":
        """The stationary occupancy the chains actually attain.

        A float for scalar targets; a per-channel vector when the
        target was a vector.
        """
        if isinstance(self._on_prob, float):
            if self._on_prob == 0.0:
                return 0.0
            return self._on_prob / (self._on_prob + self._off_prob)
        return np.where(
            self._on_prob == 0.0,
            0.0,
            self._on_prob / (self._on_prob + self._off_prob),
        )

    def streams(self, seeds: Sequence[int]) -> "_MarkovStream":
        return _MarkovStream(self, self._stream_seeds(seeds))


class _MarkovStream(TrafficStream):
    def __init__(
        self, env: MarkovTraffic, stream_seeds: Sequence[int]
    ) -> None:
        super().__init__(env.channel_ids, len(stream_seeds))
        self._rngs = [np.random.default_rng(s) for s in stream_seeds]
        self._off_prob = env._off_prob
        self._on_prob = env._on_prob
        # Every trial starts at stationarity: one uniform per channel
        # from the trial's own generator, drawn before any block.
        self._state = np.stack(
            [rng.random(self.num_channels) < env.activity
             for rng in self._rngs]
        )

    def occupied_block(self, num_slots: int) -> np.ndarray:
        self._check_slots(num_slots)
        flips = _draw_uniform(self._rngs, num_slots, self.num_channels)
        occupancy, self._state = markov_run(
            self._state, flips, self._on_prob, self._off_prob
        )
        return occupancy


class PoissonTraffic(SpectrumEnvironment):
    """Memoryless per-slot occupancy (Poissonian licensed traffic).

    Each channel is occupied independently every slot with probability
    ``activity`` — mean burst length ``1/(1-activity)`` slots, no
    memory between slots. At matched stationary occupancy this spreads
    losses evenly where :class:`MarkovTraffic` concentrates them into
    bursts, which is exactly the contrast the Markov-vs-Poisson
    scenarios measure.
    """

    kind = "poisson"

    def __init__(
        self,
        channel_ids: Sequence[int],
        activity: "float | Sequence[float]",
        seed_offset: int = 1000,
    ) -> None:
        super().__init__(channel_ids, seed_offset=seed_offset)
        # Scalar or per-channel vector, as for MarkovTraffic.
        self.activity = _validated_activity(activity, self.num_channels)

    @property
    def realized_activity(self) -> "float | np.ndarray":
        """Stationary occupancy (every target is feasible here)."""
        return self.activity

    def streams(self, seeds: Sequence[int]) -> "_PoissonStream":
        return _PoissonStream(self, self._stream_seeds(seeds))


class _PoissonStream(TrafficStream):
    def __init__(
        self, env: PoissonTraffic, stream_seeds: Sequence[int]
    ) -> None:
        super().__init__(env.channel_ids, len(stream_seeds))
        self._rngs = [np.random.default_rng(s) for s in stream_seeds]
        self._activity = env.activity

    def occupied_block(self, num_slots: int) -> np.ndarray:
        self._check_slots(num_slots)
        flips = _draw_uniform(self._rngs, num_slots, self.num_channels)
        return flips < self._activity


class StaticMask(SpectrumEnvironment):
    """A fixed set of permanently blocked channels.

    Deterministic: the blocked channels are occupied every slot of
    every trial and everything else is always clear, so trial seeds and
    ``seed_offset`` are irrelevant. Models a licensed band that is
    simply off-limits (the paper's heterogeneous-availability setting
    in its most extreme form).
    """

    kind = "static"

    def __init__(self, blocked_channels: Sequence[int]) -> None:
        # An empty blocked set is a valid (no-op) environment.
        self.channel_ids = _validated_channel_ids(
            blocked_channels, allow_empty=True
        )
        self.seed_offset = 0

    @property
    def blocked_channels(self) -> List[int]:
        return list(self.channel_ids)

    def streams(self, seeds: Sequence[int]) -> "_StaticStream":
        if len(seeds) == 0:
            raise ProtocolError("seeds must name at least one trial")
        return _StaticStream(self.channel_ids, len(seeds))


class _StaticStream(TrafficStream):
    def occupied_block(self, num_slots: int) -> np.ndarray:
        self._check_slots(num_slots)
        return np.ones(
            (self.num_trials, num_slots, self.num_channels), dtype=bool
        )


def make_environment(
    model: str,
    channel_ids: Sequence[int],
    activity: "float | Sequence[float]" = 0.0,
    mean_dwell: float = 8.0,
    seed_offset: int = 1000,
    blocked: Optional[Sequence[int]] = None,
) -> Optional[SpectrumEnvironment]:
    """Build an environment from plain (JSON-friendly) parameters.

    The single lowering point shared by the scenario compiler and any
    ad-hoc caller: returns None for configurations that disable
    interference (zero activity for the stochastic models, an empty
    ``blocked`` set for ``static``), so callers can treat "no
    environment" and "inactive environment" the same way.

    ``activity`` is a scalar (every channel shares one stationary
    occupancy) or a per-channel vector aligned with the sorted
    ``channel_ids`` — heterogeneous licensed bands. An all-zero vector
    disables interference like a zero scalar does.

    Raises:
        ProtocolError: on an unknown model name or invalid parameters.
    """
    name = str(model).lower()
    if name not in ENVIRONMENT_MODELS:
        raise ProtocolError(
            f"unknown interference model {model!r}; valid: "
            f"{', '.join(ENVIRONMENT_MODELS)}"
        )
    if name == "static":
        ids = list(blocked) if blocked is not None else []
        if not ids:
            return None
        return StaticMask(ids)
    if np.ndim(activity) == 0:
        if float(activity) <= 0.0:  # type: ignore[arg-type]
            return None
    else:
        # Validate the vector (length included) before the all-zero
        # short-circuit: a mis-sized zero vector is a spec error, not a
        # silent interference-free run.
        vector = _validated_activity(
            activity, len({int(g) for g in channel_ids})
        )
        if not np.any(vector > 0.0):
            return None
    if name == "poisson":
        return PoissonTraffic(
            channel_ids, activity=activity, seed_offset=seed_offset
        )
    return MarkovTraffic(
        channel_ids,
        activity=activity,
        mean_dwell=mean_dwell,
        seed_offset=seed_offset,
    )
