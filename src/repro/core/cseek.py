"""CSEEK — randomized neighbor discovery (Section 4.2, Figure 1).

CSEEK runs in two parts:

**Part one** (``Theta((c^2/k) lg n)`` steps of one COUNT execution each).
Every step, every node tunes to one of its ``c`` channels uniformly at
random and flips a fair coin to be broadcaster or listener, then the
network runs :func:`repro.core.count.run_count_step`. Listeners
accumulate the channel's broadcaster estimate into a per-channel score
(the "density sample") and record every identity they hear. Lemma 2:
neighbors overlapping on *un*-crowded channels are discovered here.

**Part two** (``Theta((kmax/k) Delta lg n)`` steps of ``lg Delta`` slots
each). Every step, broadcasters pick a uniform channel while listeners
pick a channel *proportionally to the part-one scores* — they revisit
crowded channels more often. Broadcasters run an exponential back-off:
in slot ``j = lg Delta .. 1`` they transmit with probability ``1/2^j``
(Figure 1, line 14). Lemma 3: neighbors overlapping only on crowded
channels are discovered here.

The ``part2_listener="uniform"`` ablation disables the density-weighted
channel choice (turning part two into more naive hopping); experiment
E10 uses it to show the weighting is what makes part two work.

This class is also reused by CKSEEK (different step budgets) and as
CGCAST's pairwise-exchange primitive (hearing a node's identity means
receiving its current payload).

Execution: the schedule is open-loop — no step looks at an earlier
step's outcome, and part two reads only part one's final scores — so
:meth:`CSeek.run` is the one-trial case of
:func:`repro.core.cseek_batch.run_cseek_lockstep`, which decodes each
chunk of consecutive steps' draws in schedule order and resolves it
with one engine call. This module holds the protocol's configuration, its
per-step building blocks (:func:`choose_part2_labels`,
:func:`backoff_probabilities`) and the result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Set, Tuple

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.engine import BatchStepOutcome, resolve_step_batch
from repro.sim.environment import SpectrumEnvironment
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.trace import TraceRecorder

__all__ = [
    "CSeek",
    "CSeekResult",
    "DiscoveryReport",
    "backoff_probabilities",
    "choose_part2_labels",
    "resolve_backoff_batch",
    "verify_discovery",
]

ListenerPolicy = Literal["weighted", "uniform"]


def choose_part2_labels(
    rng: np.random.Generator,
    tx_role: np.ndarray,
    counts: np.ndarray,
    policy: ListenerPolicy = "weighted",
) -> np.ndarray:
    """Per-node local channel labels for a CSEEK part-two step.

    Broadcasters choose uniformly (Figure 1, line 12). Listeners choose
    label ``ch`` with probability proportional to the accumulated score
    ``counts[u, ch]`` (Figure 1, lines 16-18), falling back to uniform
    when a node accumulated nothing — or for everyone under the
    ``uniform`` ablation policy.

    Its draws — ``integers(0, c, n)``, then one double per weighted
    listener — sit between the step's role draws and its back-off coins
    in every trial's random stream. This is the step-by-step form of
    the rule: :func:`repro.core.cseek_batch.run_cseek_lockstep` decodes
    the same draws for a whole chunk of steps at once (see
    :class:`repro.sim.rng.BulkDraws`) and picks the weighted labels
    from them with the same arithmetic.
    """
    n, c = counts.shape
    labels = rng.integers(0, c, size=n)
    if policy == "uniform":
        return labels
    listeners = ~tx_role
    row_sums = counts.sum(axis=1)
    use_weighted = listeners & (row_sums > 0)
    if not use_weighted.any():
        return labels
    rows = np.flatnonzero(use_weighted)
    cdf = np.cumsum(counts[rows], axis=1)
    targets = rng.random(rows.size) * row_sums[rows]
    weighted_labels = (cdf < targets[:, None]).sum(axis=1)
    labels[rows] = np.minimum(weighted_labels, c - 1)
    return labels


def backoff_probabilities(backoff_len: int) -> np.ndarray:
    """Figure 1 line 14's per-slot transmission probabilities.

    Slot ``j = lg Delta .. 1`` of a part-two back-off window transmits
    with probability ``1/2^j`` (ascending across the window).
    """
    if backoff_len < 1:
        raise ProtocolError(
            f"backoff_len must be >= 1, got {backoff_len}"
        )
    return 2.0 ** -np.arange(backoff_len, 0, -1, dtype=float)


def resolve_backoff_batch(
    adjacency: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    backoff_len: int,
    rngs: List[np.random.Generator],
    jam: np.ndarray | None = None,
) -> BatchStepOutcome:
    """Resolve ``B`` independent part-two back-off windows in one shot.

    The trials share one adjacency; channels and roles may be shared
    (1-D) or per-trial (2-D), and each trial's Figure-1 coins come from
    its own generator — drawn exactly as a CSEEK part-two step draws
    them. A standalone back-off primitive for homogeneous-trial
    experiments and benchmarks.

    Args:
        adjacency: ``(n, n)`` shared or ``(B, n, n)`` per-trial boolean
            adjacency (the cross-point batching path).
        channels: ``(n,)`` or ``(B, n)`` global channel per node.
        tx_role: ``(n,)`` or ``(B, n)`` broadcaster roles.
        backoff_len: Window length (``lg Delta`` in the paper).
        rngs: One generator per trial (length ``B``).
        jam: Optional ``(B, backoff_len, n)`` reception-kill mask.

    Returns:
        A :class:`~repro.sim.engine.BatchStepOutcome` over all trials.
    """
    if not rngs:
        raise ProtocolError("rngs must name at least one trial generator")
    n = adjacency.shape[-1]
    probs = backoff_probabilities(backoff_len)
    coins = np.stack(
        [rng.random((backoff_len, n)) < probs[:, None] for rng in rngs]
    )
    return resolve_step_batch(adjacency, channels, tx_role, coins, jam=jam)


@dataclass
class CSeekResult:
    """Everything a CSEEK execution produced.

    Attributes:
        discovered: Per-node sets of neighbor identities heard (paper's
            ``ids``); populated by both parts.
        discovered_part_one: Snapshot of ``discovered`` at the end of
            part one (for the Lemma 2 / Lemma 3 split, experiment E3).
        counts: ``(n, c)`` per-node per-local-channel accumulated COUNT
            scores (paper's ``counts`` dictionary).
        trace: First-reception events with slots and global channels.
        ledger: Slots charged, split into ``part1`` and ``part2``.
        step_start_slots: ``(S,)`` global slot at which each step began.
        step_channels: ``(S, n)`` global channel of every node in every
            step (``-1`` never occurs — nodes always tune somewhere).
            Needed by CGCAST's dedicated-channel agreement (a node must
            recall which channel it used in any given slot).
        total_slots: Total slots consumed.
    """

    discovered: List[Set[int]]
    discovered_part_one: List[Set[int]]
    counts: np.ndarray
    trace: TraceRecorder
    ledger: SlotLedger
    step_start_slots: np.ndarray
    step_channels: np.ndarray
    total_slots: int

    def channel_at_slot(self, node: int, slot: int) -> int:
        """Global channel ``node`` was tuned to during ``slot``.

        Raises:
            ProtocolError: if the slot is outside the execution.
        """
        if not 0 <= slot < self.total_slots:
            raise ProtocolError(
                f"slot {slot} outside execution of {self.total_slots} slots"
            )
        idx = int(
            np.searchsorted(self.step_start_slots, slot, side="right") - 1
        )
        return int(self.step_channels[idx, node])


@dataclass(frozen=True)
class DiscoveryReport:
    """Verification of a discovery execution against ground truth.

    Attributes:
        success: True iff every node discovered every required neighbor.
        missing: Ordered ``(listener, undiscovered neighbor)`` pairs.
        completion_slot: Slot of the last first-reception among required
            pairs (None when nothing was required or heard).
        scheduled_slots: The full schedule length that was run.
    """

    success: bool
    missing: Tuple[Tuple[int, int], ...]
    completion_slot: Optional[int]
    scheduled_slots: int


class CSeek:
    """One configurable CSEEK execution over a network.

    Args:
        network: Ground-truth network to run against.
        knowledge: Global parameters handed to nodes; defaults to the
            network's realized parameters.
        constants: Schedule constants; defaults to
            :meth:`ProtocolConstants.fast`.
        seed: Experiment seed (fans out via :class:`RngHub`).
        part1_steps: Override the part-one step budget (CKSEEK uses
            this); default per ``constants.part1_steps``.
        part2_steps: Override the part-two step budget; default per
            ``constants.part2_steps``.
        part2_listener: ``"weighted"`` (paper) or ``"uniform"``
            (ablation).
        rng_label: Namespace for randomness, so repeated CSEEK
            executions inside one protocol (CGCAST runs it several
            times) draw independent coins from the same seed.
        environment: Optional spectrum environment
            (:class:`repro.sim.environment.SpectrumEnvironment`);
            each execution opens a fresh traffic stream seeded from
            this protocol's ``seed``, and receptions on occupied
            channels are lost. Robustness extension — the paper
            analyzes the interference-free model.
    """

    def __init__(
        self,
        network: CRNetwork,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        seed: int = 0,
        part1_steps: Optional[int] = None,
        part2_steps: Optional[int] = None,
        part2_listener: ListenerPolicy = "weighted",
        rng_label: str = "cseek",
        environment: Optional[SpectrumEnvironment] = None,
    ) -> None:
        self.network = network
        self.knowledge = knowledge or network.knowledge()
        self.constants = constants or ProtocolConstants.fast()
        if part2_listener not in ("weighted", "uniform"):
            raise ProtocolError(
                f"unknown part2_listener policy: {part2_listener!r}"
            )
        self.part2_listener = part2_listener
        kn = self.knowledge
        self.part1_step_budget = (
            part1_steps
            if part1_steps is not None
            else self.constants.part1_steps(kn.c, kn.k, kn.log_n)
        )
        self.part2_step_budget = (
            part2_steps
            if part2_steps is not None
            else self.constants.part2_steps(
                kn.kmax, kn.k, kn.max_degree, kn.log_n
            )
        )
        if self.part1_step_budget < 0 or self.part2_step_budget < 0:
            raise ProtocolError("step budgets must be non-negative")
        self.environment = environment
        self.seed = seed
        self.rng_label = rng_label

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> CSeekResult:
        """Execute part one then part two; return the full result.

        The one-member, one-seed case of
        :func:`~repro.core.cseek_batch.run_cseek_lockstep`, which also
        opens the telemetry stage span.
        """
        from repro.core.cseek_batch import (
            CSeekBatch,
            LockstepMember,
            run_cseek_lockstep,
        )

        member = LockstepMember(CSeekBatch.from_serial(self), [self.seed])
        return run_cseek_lockstep([member])[0][0]

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def batch(self) -> "object":
        """A :class:`~repro.core.cseek_batch.CSeekBatch` with this
        configuration.

        The returned runner executes many trial seeds of this exact
        protocol (budgets, listener policy, rng namespace) in lockstep
        across the trial axis; ``batch().run([s])[0]`` is bit-identical
        to ``CSeek(..., seed=s).run()``. Works on subclasses too —
        a :class:`~repro.core.ckseek.CKSeek` prototype hands its
        Section 4.4 budgets to the batch. The prototype's
        ``environment`` carries over (environments open per-trial
        streams on demand).
        """
        from repro.core.cseek_batch import CSeekBatch

        return CSeekBatch.from_serial(self)


def verify_discovery(
    result: CSeekResult,
    network: CRNetwork,
    required: Optional[List[Set[int]]] = None,
) -> DiscoveryReport:
    """Check a discovery result against ground truth.

    Args:
        result: A CSEEK/CKSEEK execution result.
        network: The network it ran on.
        required: Per-node sets of neighbors that *must* be discovered;
            defaults to all true neighbors (plain neighbor discovery).
            CKSEEK passes the good-neighbor sets instead.

    Returns:
        A :class:`DiscoveryReport`; ``completion_slot`` only considers
        required pairs, so it measures time-to-goal rather than
        time-to-last-reception.
    """
    if required is None:
        required = [set(s) for s in network.true_neighbor_sets()]
    missing: List[Tuple[int, int]] = []
    completion: Optional[int] = None
    for u in range(network.n):
        for v in sorted(required[u]):
            if v not in result.discovered[u]:
                missing.append((u, v))
                continue
            event = result.trace.first_reception(u, v)
            if event is not None and (
                completion is None or event.slot > completion
            ):
                completion = event.slot
    return DiscoveryReport(
        success=not missing,
        missing=tuple(missing),
        completion_slot=completion,
        scheduled_slots=result.total_slots,
    )
