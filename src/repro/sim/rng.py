"""Deterministic randomness management.

The paper assumes every node "can independently generate random bits".
We reproduce that with a :class:`RngHub`: one experiment seed fans out to
independent, *named* :class:`numpy.random.Generator` streams — one per
node, per protocol phase. Names are hashed with CRC32 (stable across
processes, unlike Python's salted ``hash``) into
:class:`numpy.random.SeedSequence` spawn keys, so

* the same experiment seed always reproduces the same run, and
* streams for different nodes/phases are statistically independent.

:class:`BulkDraws` reads a batch of those generators' upcoming draws
from one raw fill each and decodes them into exactly the values the
per-draw ``Generator`` calls would return, so a lockstep runner can
draw a whole chunk of steps per trial at once without changing a bit.
"""

from __future__ import annotations

import zlib
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BulkDraws",
    "ChunkDraws",
    "RngHub",
    "SeedStream",
]

_LOW32 = np.uint64(0xFFFFFFFF)


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 32-bit key."""
    return zlib.crc32(name.encode("utf-8"))


class RngHub:
    """A tree of named, independent random generators from one seed.

    Example:
        >>> hub = RngHub(seed=7)
        >>> part_one = hub.child("cseek-part-one")
        >>> node_rng = part_one.node_generator(3)
        >>> coin = node_rng.random() < 0.5
    """

    def __init__(self, seed: int, _path: Tuple[int, ...] = ()) -> None:
        self._seed = int(seed)
        self._path = _path

    @property
    def seed(self) -> int:
        """The root experiment seed."""
        return self._seed

    def child(self, name: str) -> "RngHub":
        """A sub-hub for a named protocol phase."""
        return RngHub(self._seed, self._path + (_stable_key(name),))

    def generator(self, name: str = "root") -> np.random.Generator:
        """A generator for a named stream under this hub."""
        seq = np.random.SeedSequence(
            entropy=self._seed, spawn_key=self._path + (_stable_key(name),)
        )
        return np.random.default_rng(seq)

    def node_generator(self, node: int) -> np.random.Generator:
        """A generator private to one node under this hub."""
        seq = np.random.SeedSequence(
            entropy=self._seed, spawn_key=self._path + (int(node),)
        )
        return np.random.default_rng(seq)

    def node_generators(self, n: int) -> Iterator[np.random.Generator]:
        """Generators for nodes ``0 .. n-1`` under this hub."""
        for u in range(n):
            yield self.node_generator(u)

    def spawn_seeds(self, count: int, name: str = "trials") -> list[int]:
        """Derive ``count`` independent integer seeds (for repeated trials)."""
        gen = self.generator(name)
        return [int(s) for s in gen.integers(0, 2**63 - 1, size=count)]

    def seed_stream(self, name: str = "trials") -> "SeedStream":
        """An incremental view of the same stream :meth:`spawn_seeds` draws.

        The stream is *prefix-stable*: the concatenation of successive
        :meth:`SeedStream.take` calls equals ``spawn_seeds(total, name)``
        for the same total, regardless of how the draws are chunked. A
        chunked (streaming) run therefore hands trial ``i`` exactly the
        seed a one-shot run would — chunk size is invisible to results.
        """
        return SeedStream(self.generator(name))


class SeedStream:
    """Chunked, prefix-stable trial-seed derivation.

    Wraps one named generator; each :meth:`take` continues where the
    previous call stopped. numpy's bounded-integer sampling draws one
    64-bit word per value for a ``2**63`` range, so chunk boundaries
    never change which seed lands at which trial index (pinned by
    ``tests/test_streaming.py``).
    """

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        self._drawn = 0

    @property
    def drawn(self) -> int:
        """Total seeds handed out so far."""
        return self._drawn

    def take(self, count: int) -> list[int]:
        """The next ``count`` seeds of the stream."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return []
        self._drawn += count
        return [
            int(s)
            for s in self._generator.integers(0, 2**63 - 1, size=count)
        ]


def _word_thresholds(probs) -> np.ndarray:
    """Raw-word bounds that stand in for ``Generator.random() < p``.

    ``Generator.random()`` turns the bit generator's next 64-bit word
    ``w`` into the double ``(w >> 11) * 2**-53``. So for ``0 < p <= 1``,
    ``random() < p`` iff ``w <= (ceil(p * 2**53) << 11) - 1``, and
    comparing raw words against these bounds gives the same booleans
    without building a double. ``p = 1`` wraps to ``2**64 - 1``: every
    word passes.

    Args:
        probs: Probabilities in ``(0, 1]``, any shape.

    Returns:
        ``uint64`` bounds of the same shape.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs <= 0) or np.any(probs > 1):
        raise ValueError("word thresholds need probabilities in (0, 1]")
    # p * 2**53 is exact and at most 2**53, so the ceiling is exact too.
    scaled = np.ceil(probs * 2.0**53).astype(np.uint64)
    return (scaled << np.uint64(11)) - np.uint64(1)


def _word_doubles(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random()`` makes of raw 64-bit words."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _lemire_rejected(scaled: np.ndarray, c: int) -> np.ndarray:
    """Which ``u32 * c`` products Lemire's method rejects and redraws."""
    return (scaled & _LOW32) < np.uint64((2**32 - c) % c)


def _runs_below(
    words: np.ndarray, at: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """``(B, K) + bounds.shape`` tests ``word <= bound`` of a fill's runs.

    Trial ``b``'s step ``s`` run is the ``bounds.size`` words from
    ``at[b, s]`` on, each compared with its bound. Indexing a sliding
    window view copies each run as one contiguous block.
    """
    trials, steps = at.shape
    windows = np.lib.stride_tricks.sliding_window_view(
        words, bounds.size, axis=1
    )
    runs = windows[np.arange(trials)[:, None], at]
    return runs.reshape((trials, steps) + bounds.shape) <= bounds


class ChunkDraws(NamedTuple):
    """One chunk of per-step draws, as :meth:`BulkDraws.take` decodes it.

    Attributes:
        before: ``(B, K, L)`` whether each lead double fell below its
            probability.
        labels: ``(B, K, n)`` int64 labels.
        extra: ``(B, K, L)`` the extra double drawn for a flagged lead
            double that did not fall below its probability; NaN where
            none was drawn.
        after: ``(B, K) + after.shape`` whether each trailing double
            fell below its probability.
    """

    before: np.ndarray
    labels: np.ndarray
    extra: np.ndarray
    after: np.ndarray


class BulkDraws:
    """Per-trial ``Generator`` draws decoded from one raw fill per chunk.

    Each of ``B`` trials draws, per step and from its own PCG64
    generator:

    1. ``random(L)``, one double per entry of ``before``, each tested
       ``< p``;
    2. ``integers(0, c, n)``, the step's labels;
    3. ``random(m)``, one double per ``before`` entry flagged in
       ``extra`` that did *not* fall below its probability, in order;
    4. ``random(after.shape)``, each tested ``< p``.

    Per call, those cost microseconds of overhead. :meth:`take` instead
    takes each trial's next raw 64-bit words with one ``random_raw``
    call per chunk of steps and decodes exactly the values the calls
    would return:

    * A double is ``(w >> 11) * 2**-53`` of one word, so ``random() <
      p`` is a comparison of the word against :func:`_word_thresholds`.
    * A label is Lemire's ``(u32 * c) >> 32`` of the next 32-bit draw.
      A fresh word serves its low half; its high half stays buffered
      in the bit generator and serves the next 32-bit draw, however
      many doubles come in between. This object keeps that buffered
      half per trial across chunks. ``c == 1`` draws nothing.
    * A step's length depends on how many extra doubles its lead
      doubles call for, so the fill is sized for the most and the
      unused tail goes back with ``PCG64.advance``.
    * Lemire rejects a value iff ``(u32 * c) mod 2**32 < (2**32 - c)
      mod c`` (never when ``c`` is a power of two) and draws again,
      which shifts the rest of the stream. A trial where that happened
      goes back to its chunk start and redraws the chunk with the
      generator's own calls.

    Args:
        generators: One PCG64 generator per trial; nothing else may
            draw from them while this object is in use.
        c: The label range, ``1 <= c < 2**32``.
        n: Labels per step.
        after: Probabilities in ``(0, 1]`` of the trailing doubles,
            any shape.
        before: ``(L,)`` probabilities in ``(0, 1]`` of the lead
            doubles; none by default.
        extra: ``(B, L)`` bool, which lead doubles call for an extra
            double when they do not fall below their probability.
    """

    def __init__(
        self,
        generators: Sequence[np.random.Generator],
        c: int,
        n: int,
        after: np.ndarray,
        before: Optional[np.ndarray] = None,
        extra: Optional[np.ndarray] = None,
    ) -> None:
        self._generators = list(generators)
        self._bitgens = [g.bit_generator for g in self._generators]
        if not all(isinstance(bg, np.random.PCG64) for bg in self._bitgens):
            raise TypeError("BulkDraws decodes PCG64 generators only")
        c = int(c)
        if not 1 <= c < 2**32:
            raise ValueError(f"label range must be in [1, 2**32), got {c}")
        self.c = c
        self.n = int(n)
        trials = len(self._generators)
        self._after_p = np.asarray(after, dtype=np.float64)
        self._after = _word_thresholds(self._after_p)
        self._before_p = np.asarray(
            [] if before is None else before, dtype=np.float64
        )
        self._before = _word_thresholds(self._before_p)
        self._extra = (
            np.zeros((trials, self._before.size), dtype=bool)
            if extra is None
            else np.asarray(extra, dtype=bool)
        )
        # Start from whatever half the generators already buffer.
        states = [bg.state for bg in self._bitgens]
        self._has_half = np.array(
            [st["has_uint32"] for st in states], dtype=bool
        )
        self._half = np.array([st["uinteger"] for st in states], dtype=np.uint64)

    def take(self, steps: int) -> ChunkDraws:
        """Decode each trial's next ``steps`` steps of draws."""
        lead, trail = self._before.size, self._after.size
        fresh = self._label_words(steps)
        fixed = lead + fresh + trail
        most = fixed.sum(axis=1) + steps * self._extra.sum(axis=1)
        words = np.empty((len(self._bitgens), int(most.max())), np.uint64)
        for b, bitgen in enumerate(self._bitgens):
            words[b] = bitgen.random_raw(words.shape[1])
        starts = self._step_starts(words, fixed)
        before = _runs_below(words, starts[:, :-1], self._before)
        labels, ok = self._labels(words, starts[:, :-1] + lead)
        extra = np.full(before.shape, np.nan)
        picks = ~before & self._extra[:, None, :]
        b_idx, s_idx, i_idx = np.nonzero(picks)
        rank = np.cumsum(picks, axis=2)[b_idx, s_idx, i_idx] - 1
        at = starts[b_idx, s_idx] + lead + fresh[b_idx, s_idx] + rank
        extra[b_idx, s_idx, i_idx] = _word_doubles(words[b_idx, at])
        after = _runs_below(words, starts[:, 1:] - trail, self._after)
        chunk = ChunkDraws(before, labels, extra, after)
        for b, used in enumerate(starts[:, -1].tolist()):
            if used != words.shape[1]:
                # PCG64.advance wraps its argument modulo 2**128, the
                # generator's period, so a negative step goes back.
                self._bitgens[b].advance(used - words.shape[1])
        for b in np.flatnonzero(~ok):
            self._redraw(int(b), int(starts[b, -1]), chunk)
        return chunk

    def _words_before(self, steps: int) -> np.ndarray:
        """``(B, steps + 1)`` fresh label words drawn before each step."""
        values = np.arange(steps + 1, dtype=np.int64) * self.n
        return (values - self._has_half[:, None] + 1) // 2

    def _label_words(self, steps: int) -> np.ndarray:
        """``(B, steps)`` fresh words each step's ``integers(0, c, n)`` takes.

        With ``n`` odd the count alternates between steps, as the
        buffered half is used up and refilled.
        """
        if self.c == 1:
            return np.zeros((len(self._bitgens), steps), dtype=np.int64)
        return np.diff(self._words_before(steps), axis=1)

    def _step_starts(self, words: np.ndarray, fixed: np.ndarray) -> np.ndarray:
        """``(B, K + 1)`` fill offsets where each step begins.

        A step takes ``fixed[b, s]`` words plus one per flagged lead
        word above its bound. So one correlation per distinct bound
        gives, for every offset a step could start at, how many extra
        words it would take, and a scalar scan per trial walks the
        steps through it.
        """
        starts = np.zeros((fixed.shape[0], fixed.shape[1] + 1), dtype=np.int64)
        np.cumsum(fixed, axis=1, out=starts[:, 1:])
        lead = self._before.size
        for b in np.flatnonzero(self._extra.any(axis=1)):
            extras = np.zeros(words.shape[1] - lead + 1, dtype=np.int64)
            for bound in np.unique(self._before):
                above = (words[b] > bound).astype(np.int64)
                flags = self._extra[b] & (self._before == bound)
                extras += np.correlate(above, flags.astype(np.int64))
            extras = extras.tolist()
            at, row = 0, [0]
            for length in fixed[b].tolist():
                at += length + extras[at]
                row.append(at)
            starts[b] = row
        return starts

    def _labels(
        self, words: np.ndarray, starts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode each step's ``integers(0, c, n)`` from a fill.

        Args:
            words: The chunk's fill, ``(B, W)``.
            starts: ``(B, K)`` index in ``words`` of each step's first
                fresh label word.

        Returns:
            ``(labels, ok)``: ``(B, K, n)`` int64 labels, and per trial
            whether no value was rejected. Only ``ok`` trials' labels
            are exact and only their buffered halves advance; the
            others are redrawn.
        """
        trials, steps = starts.shape
        n = self.n
        if self.c == 1:
            return (
                np.zeros((trials, steps, n), dtype=np.int64),
                np.ones(trials, dtype=bool),
            )
        # Value v of the chunk is the carried-in half when t = v - has is
        # -1, else half (t & 1) of fresh word j = t >> 1. Word j's low
        # half is value 2j + has, so it sits in step (2j + has) // n —
        # a high half can be the previous step's last word.
        has = self._has_half.astype(np.int64)[:, None]
        t = np.arange(steps * n, dtype=np.int64) - has
        j = np.maximum(t >> 1, 0)
        owner = np.minimum((2 * j + has) // n, steps - 1)
        before = self._words_before(steps)
        rows = np.arange(trials)[:, None]
        at = starts[rows, owner] + j - before[rows, owner]
        t = t.reshape(trials, steps, n)
        w = words[rows, at].reshape(trials, steps, n)
        u32 = np.where(t & 1, w >> np.uint64(32), w & _LOW32)
        u32 = np.where(t < 0, self._half[:, None, None], u32)
        scaled = u32 * np.uint64(self.c)
        labels = (scaled >> np.uint64(32)).astype(np.int64)
        rejected = _lemire_rejected(scaled, self.c)
        ok = ~rejected.reshape(trials, -1).any(axis=1)
        # An odd number of fresh halves leaves the last word's high half.
        has_half = ((steps * n - has[:, 0]) & 1).astype(bool)
        self._has_half = np.where(ok, has_half, self._has_half)
        self._half = np.where(ok, w[:, -1, -1] >> np.uint64(32), self._half)
        return labels, ok

    def _redraw(self, b: int, used: int, chunk: ChunkDraws) -> None:
        """Redraw trial ``b``'s chunk with its generator's own calls.

        The generator goes back ``used`` words, to its chunk start, with
        the buffered half it had then; afterwards, its buffered half is
        what the next chunk decodes with.
        """
        bitgen = self._bitgens[b]
        bitgen.advance(-used)
        state = bitgen.state
        state["has_uint32"] = int(self._has_half[b])
        state["uinteger"] = int(self._half[b])
        bitgen.state = state
        rng = self._generators[b]
        for s in range(chunk.labels.shape[1]):
            chunk.before[b, s] = rng.random(self._before.size) < self._before_p
            chunk.labels[b, s] = rng.integers(0, self.c, size=self.n)
            picks = self._extra[b] & ~chunk.before[b, s]
            chunk.extra[b, s] = np.nan
            chunk.extra[b, s, picks] = rng.random(int(picks.sum()))
            chunk.after[b, s] = rng.random(self._after_p.shape) < self._after_p
        state = bitgen.state
        self._has_half[b] = bool(state["has_uint32"])
        self._half[b] = state["uinteger"]
