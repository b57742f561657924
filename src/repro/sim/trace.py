"""Reception tracing.

A :class:`TraceRecorder` captures *who heard whom when* during a protocol
execution. Protocols feed it step outcomes; experiments use it to compute
time-to-completion (e.g. "the slot at which the last node discovered its
last neighbor"), which is the tight empirical counterpart of the paper's
schedule-length bounds.

Recording distinct-first receptions only keeps traces small even for long
runs: the recorder stores the first slot each ordered pair ``(listener,
sender)`` was heard, plus optional full event logs when ``verbose``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import BatchStepOutcome, StepOutcome

__all__ = ["ReceptionEvent", "TraceRecorder", "record_step_batch"]


@dataclass(frozen=True)
class ReceptionEvent:
    """One successful reception.

    Attributes:
        slot: Global slot index at which the message was heard.
        listener: Receiving node id.
        sender: Broadcasting node id.
        channel: Global channel id the exchange happened on (``-1`` if the
            caller did not supply channels).
        phase: Protocol phase label.
    """

    slot: int
    listener: int
    sender: int
    channel: int
    phase: str


@dataclass
class TraceRecorder:
    """Accumulates reception events across protocol phases.

    Attributes:
        verbose: When True, every reception is stored as an event; when
            False only first receptions per ordered pair are kept.
    """

    verbose: bool = False
    first_heard: Dict[Tuple[int, int], ReceptionEvent] = field(
        default_factory=dict
    )
    events: List[ReceptionEvent] = field(default_factory=list)

    def record_step(
        self,
        outcome: StepOutcome,
        start_slot: int,
        phase: str,
        channels: Optional[np.ndarray] = None,
    ) -> None:
        """Ingest a :class:`StepOutcome` whose first slot is ``start_slot``.

        Args:
            outcome: Engine result for the step (or for ``K``
                consecutive equal-length steps, slots concatenated).
            start_slot: Global slot index of the step's slot 0.
            phase: Phase label for bookkeeping.
            channels: Optional ``(n,)`` global channel per node during the
                step (fixed-channel steps), or ``(K, n)`` per step when
                the outcome spans ``K`` steps; used to annotate events.
        """
        heard = outcome.heard_from
        slots, listeners = np.nonzero(heard >= 0)
        if slots.size == 0:
            return
        senders = heard[slots, listeners]
        event_channels = _event_channels(
            channels, slots, listeners, heard.shape[0]
        )
        if self.verbose:
            for t, u, s, g in zip(
                slots.tolist(),
                listeners.tolist(),
                senders.tolist(),
                event_channels.tolist(),
            ):
                self.events.append(
                    ReceptionEvent(
                        slot=start_slot + t,
                        listener=u,
                        sender=s,
                        channel=g,
                        phase=phase,
                    )
                )
        # Vectorized first-reception extraction: slot order is already
        # ascending within np.nonzero output (row-major), so np.unique's
        # first occurrence per (listener, sender) key is the earliest.
        n = heard.shape[1]
        keys = listeners.astype(np.int64) * n + senders.astype(np.int64)
        _, first_idx = np.unique(keys, return_index=True)
        for i in first_idx.tolist():
            key = (int(listeners[i]), int(senders[i]))
            if key in self.first_heard:
                continue
            self.first_heard[key] = ReceptionEvent(
                slot=start_slot + int(slots[i]),
                listener=key[0],
                sender=key[1],
                channel=int(event_channels[i]),
                phase=phase,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def first_reception(self, listener: int, sender: int) -> Optional[ReceptionEvent]:
        """First time ``listener`` heard ``sender``, or None."""
        return self.first_heard.get((listener, sender))

    def heard_by(self, listener: int) -> List[int]:
        """Sorted sender ids that ``listener`` has heard at least once."""
        return sorted(s for (u, s) in self.first_heard if u == listener)

    def completion_slot(self) -> Optional[int]:
        """Slot of the last *first* reception (None if nothing was heard).

        For discovery protocols this is the empirical time-to-completion:
        after this slot no listener learns anything new.
        """
        if not self.first_heard:
            return None
        return max(e.slot for e in self.first_heard.values())

    def reception_count(self) -> int:
        """Number of distinct ordered ``(listener, sender)`` pairs heard."""
        return len(self.first_heard)


def _event_channels(
    channels: Optional[np.ndarray],
    slots: np.ndarray,
    listeners: np.ndarray,
    num_slots: int,
    trials: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Global channel of each reception ``(trial, slot, listener)``.

    ``channels`` holds one channel per node (last axis), optionally per
    trial (leading axis, when ``trials`` is given) and per step: with
    ``K`` steps over ``num_slots`` slots, slot ``t`` lies in step
    ``t // (num_slots // K)``. None annotates every event with ``-1``.
    """
    if channels is None:
        return np.full(slots.shape, -1, dtype=np.int64)
    index = (listeners,)
    if channels.ndim == (2 if trials is None else 3):
        index = (slots // (num_slots // channels.shape[-2]),) + index
    if trials is not None:
        index = (trials,) + index
    return channels[index]


def record_step_batch(
    recorders: Sequence[TraceRecorder],
    outcome: BatchStepOutcome,
    start_slot: int,
    phase: str,
    channels: Optional[np.ndarray] = None,
) -> None:
    """Ingest one batched step into per-trial recorders in a single pass.

    Equivalent to ``recorders[b].record_step(outcome.trial(b), ...)`` for
    every trial ``b``, but the reception scan (the per-step cost that
    dominates protocol bookkeeping once the engine is batched) runs once
    over the whole ``(B, T, n)`` block instead of ``B`` times. Verbose
    recorders fall back to the per-trial path — event logs need every
    reception, not just firsts.

    Args:
        recorders: One recorder per trial (length ``B``).
        outcome: Batched engine result for the step — or for ``K``
            consecutive equal-length steps, slots concatenated.
        start_slot: Global slot index of the step's slot 0 (shared by all
            trials — they run in lockstep).
        phase: Phase label for bookkeeping.
        channels: Optional ``(B, n)`` per-trial global channels during
            the step, or ``(B, K, n)`` per step when the outcome spans
            ``K`` steps; used to annotate events.
    """
    heard = outcome.heard_from
    if len(recorders) != heard.shape[0]:
        raise ValueError(
            f"{len(recorders)} recorders for {heard.shape[0]} trials"
        )
    if any(rec.verbose for rec in recorders):
        for b, rec in enumerate(recorders):
            rec.record_step(
                outcome.trial(b),
                start_slot,
                phase,
                channels=channels[b] if channels is not None else None,
            )
        return
    trials, slots, listeners = np.nonzero(heard >= 0)
    if trials.size == 0:
        return
    senders = heard[trials, slots, listeners]
    # np.nonzero walks row-major — (trial, slot, listener) ascending — so
    # np.unique's first occurrence per (trial, listener, sender) key is
    # that trial's earliest slot, exactly as in record_step.
    n = heard.shape[2]
    keys = (
        trials.astype(np.int64) * n + listeners.astype(np.int64)
    ) * n + senders.astype(np.int64)
    _, first_idx = np.unique(keys, return_index=True)
    trials, slots = trials[first_idx], slots[first_idx]
    listeners, senders = listeners[first_idx], senders[first_idx]
    event_channels = _event_channels(
        channels, slots, listeners, heard.shape[1], trials=trials
    )
    for b, t, u, s, g in zip(
        trials.tolist(),
        slots.tolist(),
        listeners.tolist(),
        senders.tolist(),
        event_channels.tolist(),
    ):
        first_heard = recorders[b].first_heard
        if (u, s) in first_heard:
            continue
        first_heard[(u, s)] = ReceptionEvent(
            slot=start_slot + t,
            listener=u,
            sender=s,
            channel=g,
            phase=phase,
        )
