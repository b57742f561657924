"""COUNT — the broadcaster-counting procedure (Lemma 1, Appendix A).

Problem: on a channel there is one listener and an unknown number
``m <= Delta`` of broadcasters; the listener wants a constant-factor
estimate of ``m``.

Structure (paper, Appendix A): ``lg Delta`` rounds of ``Theta(lg n)``
slots. In round ``i`` the working estimate is ``2^(i-1)``; every
broadcaster transmits its identity with probability ``1 / 2^(i-1)`` per
slot, and the listener counts clear receptions. The reception rate
``m * p * (1-p)^(m-1)`` is unimodal in ``p`` and peaks when ``p ~ 1/m``,
which is what both estimation rules exploit:

* ``first_crossing`` (the paper's rule): accept the first round whose
  clear-reception fraction exceeds ``(1 + delta) * 8 e^{-7}``; the
  estimate is ``2^(i+1)`` and lands in ``[m, 4m]`` w.h.p. when rounds are
  long enough.
* ``argmax`` (robust variant for short rounds): accept the round with
  the most clear receptions; the estimate ``2^(i-1)`` lands within a
  small constant factor of ``m``.

This module runs COUNT for the *whole network at once*: every listener
concurrently runs the procedure on its own channel while every
broadcaster follows the round schedule. That is exactly how CSEEK part
one invokes it (one COUNT execution per part-one step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.model.errors import ProtocolError
from repro.model.spec import ceil_log2
from repro.sim.engine import (
    BatchStepOutcome,
    StepOutcome,
    resolve_step,
    resolve_step_batch,
)

__all__ = [
    "CountBatchOutcome",
    "CountOutcome",
    "count_probabilities",
    "count_schedule",
    "resolve_count_step_batch",
    "run_count_step",
    "run_count_step_batch",
]


@dataclass(frozen=True)
class CountOutcome:
    """Result of one network-wide COUNT execution.

    Attributes:
        estimates: ``(n,)`` float array; listener ``u``'s broadcaster
            estimate for its channel (0.0 when nothing was ever heard, or
            when ``u`` was a broadcaster/idle).
        step: The raw engine outcome (``heard_from`` has shape
            ``(rounds * round_length, n)``), for identity harvesting and
            tracing by the caller.
        round_receptions: ``(rounds, n)`` int array of per-round clear
            reception counts (diagnostic).
        num_slots: Total slots consumed (``rounds * round_length``).
    """

    estimates: np.ndarray
    step: StepOutcome
    round_receptions: np.ndarray
    num_slots: int


@dataclass(frozen=True)
class CountBatchOutcome:
    """Result of ``B`` independent COUNT trials on one topology.

    Attributes:
        estimates: ``(B, n)`` float array; trial ``b``'s listener
            estimates (see :class:`CountOutcome`).
        step: The batched engine outcome (``heard_from`` has shape
            ``(B, rounds * round_length, n)``).
        round_receptions: ``(B, rounds, n)`` per-trial per-round clear
            reception counts.
        num_slots: Slots consumed *per trial*.
    """

    estimates: np.ndarray
    step: BatchStepOutcome
    round_receptions: np.ndarray
    num_slots: int

    @property
    def num_trials(self) -> int:
        return int(self.estimates.shape[0])

    def trial(self, b: int) -> CountOutcome:
        """Trial ``b``'s slice as a plain :class:`CountOutcome`."""
        return CountOutcome(
            estimates=self.estimates[b],
            step=self.step.trial(b),
            round_receptions=self.round_receptions[b],
            num_slots=self.num_slots,
        )


def count_schedule(
    max_count: int, log_n: int, constants: ProtocolConstants
) -> tuple[int, int]:
    """Return ``(rounds, round_length)`` for a COUNT execution.

    ``rounds = ceil(lg max_count) + 1`` so the probe probabilities
    ``1/2^(i-1)`` sweep down to ``~1/max_count`` (the paper's ``lg Delta``
    with its hidden constant made explicit); ``round_length =
    ceil(a * lg n)``.
    """
    if max_count < 1:
        raise ProtocolError(f"max_count must be >= 1, got {max_count}")
    rounds = ceil_log2(max_count) + 1
    return rounds, constants.count_round_length(log_n)


def _estimate_first_crossing(
    round_receptions: np.ndarray, round_length: int, threshold: float
) -> np.ndarray:
    """Paper rule: first round whose clear fraction exceeds the threshold.

    The estimate is ``2^(i+1)`` for 1-based round ``i`` (Appendix A); a
    listener that never crosses reports 0. Accepts ``(rounds, n)`` or a
    batched ``(B, rounds, n)`` — the rounds axis is always ``-2``.
    """
    # Required receptions; at least one message is always required.
    needed = max(1.0, threshold * round_length)
    crossed = round_receptions > needed
    any_crossed = crossed.any(axis=-2)
    first = np.argmax(crossed, axis=-2)  # 0-based round index
    estimates = np.where(any_crossed, 2.0 ** (first.astype(float) + 2.0), 0.0)
    return estimates


def _estimate_argmax(round_receptions: np.ndarray) -> np.ndarray:
    """Robust rule: the round with the most receptions names the estimate.

    The estimate is that round's probe value ``2^(i-1)``; ties resolve to
    the earliest round (the smaller estimate). Listeners that heard
    nothing report 0. Accepts ``(rounds, n)`` or a batched
    ``(B, rounds, n)`` — the rounds axis is always ``-2``.
    """
    heard_any = round_receptions.sum(axis=-2) > 0
    best = np.argmax(round_receptions, axis=-2)  # first max wins ties
    estimates = np.where(heard_any, 2.0 ** best.astype(float), 0.0)
    return estimates


def count_probabilities(
    max_count: int, log_n: int, constants: ProtocolConstants
) -> np.ndarray:
    """Per-slot broadcaster transmission probability of one execution.

    ``1/2^(i-1)`` in every slot of (1-based) round ``i``; shape
    ``(rounds * round_length,)``.
    """
    rounds, round_length = count_schedule(max_count, log_n, constants)
    return np.repeat(2.0 ** -np.arange(rounds, dtype=float), round_length)


def _estimate(
    heard_from: np.ndarray,
    max_count: int,
    log_n: int,
    constants: ProtocolConstants,
) -> tuple[np.ndarray, np.ndarray]:
    """``(round_receptions, estimates)`` from ``(..., slots, n)`` receptions.

    Leading axes (none, or a trial axis) pass through; the estimation
    rule is ``constants.count_rule``.
    """
    rounds, round_length = count_schedule(max_count, log_n, constants)
    received = (heard_from >= 0).astype(np.int64)
    round_receptions = received.reshape(
        *received.shape[:-2], rounds, round_length, received.shape[-1]
    ).sum(axis=-2)
    if constants.count_rule == "first_crossing":
        estimates = _estimate_first_crossing(
            round_receptions, round_length, constants.count_threshold()
        )
    else:
        estimates = _estimate_argmax(round_receptions)
    return round_receptions, estimates


def run_count_step(
    adjacency: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    max_count: int,
    log_n: int,
    constants: ProtocolConstants,
    rng: np.random.Generator,
    jam: np.ndarray | None = None,
) -> CountOutcome:
    """Execute COUNT once, network-wide, on fixed channels and roles.

    Args:
        adjacency: ``(n, n)`` boolean adjacency matrix.
        channels: ``(n,)`` global channel per node (``-1`` idle), fixed
            for the whole execution.
        tx_role: ``(n,)`` boolean; True = broadcaster for the execution.
        max_count: A-priori bound on the broadcaster count (the paper
            uses the degree bound ``Delta``).
        log_n: ``ceil(lg n)`` for round sizing.
        constants: Schedule constants and estimation rule.
        rng: Randomness for broadcaster coins.
        jam: Optional ``(total_slots, n)`` primary-user reception-kill
            mask (see :mod:`repro.sim.environment`).

    Returns:
        A :class:`CountOutcome`; ``estimates[u] > 0`` only for listeners
        that heard at least one clear message.
    """
    n = adjacency.shape[0]
    probs = count_probabilities(max_count, log_n, constants)
    coins = rng.random((probs.size, n)) < probs[:, None]
    step = resolve_step(adjacency, channels, tx_role, coins, jam=jam)
    round_receptions, estimates = _estimate(
        step.heard_from, max_count, log_n, constants
    )
    return CountOutcome(
        estimates=estimates,
        step=step,
        round_receptions=round_receptions,
        num_slots=probs.size,
    )


def resolve_count_step_batch(
    adjacency: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    coins: np.ndarray,
    max_count: int,
    log_n: int,
    constants: ProtocolConstants,
    jam: np.ndarray | None = None,
) -> CountBatchOutcome:
    """Resolve and estimate ``B`` COUNT executions from given coins.

    The resolving half of :func:`run_count_step_batch`, for callers
    that draw the broadcaster coins themselves — CSEEK part one
    interleaves them with each step's channel and role draws. Row ``b``
    is bit-identical to :func:`run_count_step` on row ``b``'s inputs
    when its coins are ``rng.random((slots, n)) < count_probabilities``.

    Args:
        adjacency: ``(n, n)`` shared or ``(B, n, n)`` per-row boolean
            adjacency.
        channels: ``(n,)`` shared or ``(B, n)`` per-row global channel
            per node (``-1`` idle).
        tx_role: ``(n,)`` shared or ``(B, n)`` per-row broadcaster
            roles.
        coins: ``(B, total_slots, n)`` boolean transmission coins.
        max_count: A-priori bound on the broadcaster count.
        log_n: ``ceil(lg n)`` for round sizing.
        constants: Schedule constants and estimation rule.
        jam: Optional ``(B, total_slots, n)`` reception-kill mask.

    Returns:
        A :class:`CountBatchOutcome` over all ``B`` rows.
    """
    step = resolve_step_batch(adjacency, channels, tx_role, coins, jam=jam)
    round_receptions, estimates = _estimate(
        step.heard_from, max_count, log_n, constants
    )
    return CountBatchOutcome(
        estimates=estimates,
        step=step,
        round_receptions=round_receptions,
        num_slots=coins.shape[1],
    )


def run_count_step_batch(
    adjacency: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    max_count: int,
    log_n: int,
    constants: ProtocolConstants,
    rngs: list[np.random.Generator],
    jam: np.ndarray | None = None,
) -> CountBatchOutcome:
    """Execute ``B`` independent COUNT trials as one batched resolve.

    The trials share the topology and the schedule and differ in their
    broadcaster coins — and, optionally, in per-trial channels and roles
    (2-D inputs): every trial tunes its own way, but all resolve in one
    engine call. Each trial's coins are drawn from its own generator
    exactly as :func:`run_count_step` would draw them, so trial ``b`` of
    the result is bit-identical to a serial call with ``rngs[b]`` —
    batching is a pure throughput decision. Draws the coins, then hands
    them to :func:`resolve_count_step_batch`.

    Args:
        adjacency: ``(n, n)`` shared or ``(B, n, n)`` per-trial boolean
            adjacency (the cross-point batching path).
        channels: ``(n,)`` shared or ``(B, n)`` per-trial global channel
            per node (``-1`` idle).
        tx_role: ``(n,)`` shared or ``(B, n)`` per-trial broadcaster
            roles.
        max_count: A-priori bound on the broadcaster count.
        log_n: ``ceil(lg n)`` for round sizing.
        constants: Schedule constants and estimation rule.
        rngs: One generator per trial (length ``B``).
        jam: Optional ``(B, total_slots, n)`` per-trial reception-kill
            mask.

    Returns:
        A :class:`CountBatchOutcome` over all ``B`` trials.
    """
    if not rngs:
        raise ProtocolError("rngs must name at least one trial generator")
    n = adjacency.shape[-1]
    probs = count_probabilities(max_count, log_n, constants)
    coins = np.stack(
        [rng.random((probs.size, n)) < probs[:, None] for rng in rngs]
    )
    return resolve_count_step_batch(
        adjacency,
        channels,
        tx_role,
        coins,
        max_count=max_count,
        log_n=log_n,
        constants=constants,
        jam=jam,
    )
