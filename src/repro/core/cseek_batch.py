"""Lockstep CSEEK execution: every CSEEK run goes through here.

CSEEK's schedule is open-loop (Figure 1): each part-one step picks a
channel, a role and COUNT coins without looking at any earlier outcome,
and part two reads only part one's final ``counts``. So the steps are
independent given their draws, and only the order of each trial's
generator draws is sequential. :func:`run_cseek_lockstep` exploits both
axes at once:

* **Trials.** ``B`` trials — of one sweep point or of several
  compatible points — run in lockstep.
* **Steps.** Each part runs in chunks of ``K`` consecutive steps, with
  ``K = max(1, _CHUNK_CELLS // (B * T * n))`` for step length ``T``.
  Every trial's chunk of labels, roles and coins is decoded in
  schedule order into ``(B, K, ...)`` arrays, and the whole chunk
  resolves as one
  :func:`repro.core.count.resolve_count_step_batch` (part one) or
  :func:`repro.sim.engine.resolve_step_batch` (part two) call over
  ``B * K`` rows, with one jam-mask gather and one trace scan.

Serial :meth:`CSeek.run <repro.core.cseek.CSeek.run>` is the one-member,
one-seed case (``B = 1``), and :meth:`CSeekBatch.run` the one-member
case.

Bit-exactness contract: trial ``b`` owns two generators,
``RngHub(seed_b).child(rng_label)``'s ``"part1"`` and ``"part2"``, and
its stream is exactly that of a step-by-step execution which calls, per
step:

* part one: ``integers(0, c, n)`` for the labels, then ``random`` for
  ``n`` roles and ``T * n`` COUNT coins (role row first);
* part two: ``random(n)`` for the roles, then
  :func:`~repro.core.cseek.choose_part2_labels` (``integers(0, c, n)``,
  then one double per listener with a nonzero ``counts`` row under the
  weighted policy), then ``random`` for the ``lg Delta * n`` back-off
  coins.

The runner does not make those calls. Per chunk,
:class:`~repro.sim.rng.BulkDraws` takes each trial's next raw 64-bit
words with one ``random_raw`` fill and decodes from them exactly the
values the calls would return: doubles as ``(w >> 11) * 2**-53``
(roles and coins as comparisons of the word against the probability's
bound), labels as Lemire's method on 32-bit halves, with the half-word
numpy buffers between label draws carried from step to step and chunk
to chunk. Part two's step length depends on how many weighted
listeners its role doubles produce; the decoder finds each step's
offset in the fill and hands the unused tail back with
``PCG64.advance``. A trial whose labels hit a Lemire rejection (a
redraw, which shifts the stream; never when ``c`` is a power of two)
goes back to the chunk start and redraws the chunk with the
generator's own calls. The runner then picks the weighted listeners'
labels from their target doubles with
:func:`~repro.core.cseek.choose_part2_labels`' rule. Per-trial traffic
streams advance independently, and occupancy never depends on the
channels. So results are field-for-field identical to the step-by-step
program whatever the trial grouping or the chunk size. Batching is a
pure throughput decision, which is what lets every executor strategy
route protocol runs through this module without perturbing any
experiment table. The step-by-step program survives as the test
reference (``tests/cseek_reference.py``), and
``tests/test_prop_draws.py`` holds the decoder to the generator calls.

The same runner serves CKSEEK (different budgets, same machinery — build
it from a :class:`~repro.core.ckseek.CKSeek` prototype via
:meth:`CSeek.batch` / :meth:`CSeekBatch.from_serial`) and CGCAST's
discovery phase (:func:`batched_discovery` + the ``discovery=``
injection parameter on :class:`~repro.core.cgcast.CGCast`).

Cross-point batching: members of one lockstep run must share a
compatibility signature (:func:`lockstep_signature`: node/channel
counts, step budgets, listener policy, rng namespace, knowledge,
constants). Member networks may differ: the engine then resolves
against a per-trial ``(B * K, n, n)`` adjacency stack. The trial axis
is the plain concatenation of every member's seeds, so ragged
per-point trial counts need no padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.constants import ProtocolConstants
from repro.core.count import count_probabilities, resolve_count_step_batch
from repro.core.cseek import (
    CSeek,
    CSeekResult,
    ListenerPolicy,
    backoff_probabilities,
)
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.engine import BatchStepOutcome, resolve_step_batch
from repro.sim.environment import SpectrumEnvironment
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.rng import BulkDraws, ChunkDraws, RngHub
from repro.sim.trace import TraceRecorder, record_step_batch

__all__ = [
    "CSeekBatch",
    "LockstepMember",
    "batched_discovery",
    "lockstep_signature",
    "run_cseek_lockstep",
]

class CSeekBatch:
    """Run many homogeneous CSEEK trials in lockstep across the trial axis.

    All trials share the network, knowledge, constants, step budgets and
    listener policy; only the per-trial seed (and with it each trial's
    primary-user traffic stream) varies.
    Heterogeneous sweeps belong on the serial or process-pool executors.

    Args:
        network: Ground-truth network shared by every trial.
        knowledge: Global parameters handed to nodes; defaults to the
            network's realized parameters.
        constants: Schedule constants; defaults to
            :meth:`ProtocolConstants.fast`.
        part1_steps: Override the part-one step budget (CKSEEK budgets
            enter here); default per ``constants.part1_steps``.
        part2_steps: Override the part-two step budget; default per
            ``constants.part2_steps``.
        part2_listener: ``"weighted"`` (paper) or ``"uniform"``
            (ablation) — the E10 ablation path batches like any other.
        rng_label: Randomness namespace, as on :class:`CSeek` (CGCAST's
            embedded discovery uses ``"cgcast.discovery"``).
        environment: Optional spectrum environment
            (:class:`~repro.sim.environment.SpectrumEnvironment`); one
            batched traffic stream covers all trials, so every chunk
            of protocol steps jams the whole trial axis with a single
            call. Per trial, occupancy is bit-identical to a one-trial
            ``CSeek(..., environment=...)`` execution.
    """

    def __init__(
        self,
        network: CRNetwork,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        part1_steps: Optional[int] = None,
        part2_steps: Optional[int] = None,
        part2_listener: ListenerPolicy = "weighted",
        rng_label: str = "cseek",
        environment: Optional[SpectrumEnvironment] = None,
    ) -> None:
        # Delegate validation and budget resolution to the serial
        # protocol: one source of truth for schedule sizing.
        self._proto = CSeek(
            network,
            knowledge=knowledge,
            constants=constants,
            seed=0,
            part1_steps=part1_steps,
            part2_steps=part2_steps,
            part2_listener=part2_listener,
            rng_label=rng_label,
        )
        self.environment = environment

    @classmethod
    def from_serial(
        cls,
        proto: CSeek,
        environment: Optional[SpectrumEnvironment] = None,
    ) -> "CSeekBatch":
        """A batch runner with a serial protocol's resolved configuration.

        Works for any :class:`CSeek` instance, including subclasses that
        only reparameterize budgets (:class:`~repro.core.ckseek.CKSeek`):
        the *resolved* step budgets, listener policy and rng namespace
        are copied, so the prototype's seed is irrelevant. The
        prototype's ``environment`` carries over unless an explicit
        ``environment`` is given.
        """
        if environment is None:
            environment = proto.environment
        return cls(
            proto.network,
            knowledge=proto.knowledge,
            constants=proto.constants,
            part1_steps=proto.part1_step_budget,
            part2_steps=proto.part2_step_budget,
            part2_listener=proto.part2_listener,
            rng_label=proto.rng_label,
            environment=environment,
        )

    # Mirror the serial protocol's introspection surface.
    @property
    def network(self) -> CRNetwork:
        return self._proto.network

    @property
    def part1_step_budget(self) -> int:
        return self._proto.part1_step_budget

    @property
    def part2_step_budget(self) -> int:
        return self._proto.part2_step_budget

    @property
    def part2_listener(self) -> ListenerPolicy:
        return self._proto.part2_listener

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, seeds: Sequence[int]) -> List[CSeekResult]:
        """Execute one full CSEEK trial per seed, in lockstep.

        Returns per-trial :class:`CSeekResult` objects, in seed order,
        each bit-identical to ``CSeek(..., seed=seeds[b]).run()``.
        The single-member special case of :func:`run_cseek_lockstep`.
        """
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ProtocolError("seeds must name at least one trial")
        return run_cseek_lockstep([LockstepMember(self, seeds)])[0]


@dataclass
class LockstepMember:
    """One sweep point's contribution to a cross-point lockstep run.

    Attributes:
        batch: The point's configured :class:`CSeekBatch` (network,
            budgets, environment).
        seeds: The point's trial seeds — any count; the cross-point
            trial axis is the concatenation of every member's seeds, so
            ragged per-point counts need no padding.
    """

    batch: CSeekBatch
    seeds: Sequence[int]


def lockstep_signature(batch: CSeekBatch) -> tuple:
    """The compatibility key members of one lockstep run must share.

    Everything that shapes the lockstep schedule: node and channel
    counts, resolved step budgets, listener policy, rng namespace, the
    knowledge values the schedule derives from, and the constants
    profile. Networks are deliberately *not* part of the key — trials
    from different graphs resolve against a per-trial adjacency stack.
    Environments differ freely too (each member opens its own streams).
    """
    proto = batch._proto
    net = proto.network
    kn = proto.knowledge
    return (
        net.n,
        net.c,
        proto.part1_step_budget,
        proto.part2_step_budget,
        proto.part2_listener,
        proto.rng_label,
        kn.max_degree,
        kn.log_n,
        kn.log_delta,
        proto.constants,
    )


def _part1_draws(
    generators: Sequence[np.random.Generator],
    c: int,
    n: int,
    count_probs: np.ndarray,
) -> BulkDraws:
    """Part one's per-step draws.

    Per step: the labels, then per node the role double and one COUNT
    coin per slot (role row first).
    """
    return BulkDraws(
        generators,
        c,
        n,
        after=np.broadcast_to(
            np.concatenate([[0.5], count_probs])[:, None],
            (count_probs.size + 1, n),
        ),
    )


def _part2_draws(
    generators: Sequence[np.random.Generator],
    counts: np.ndarray,
    backoff_len: int,
    policy: ListenerPolicy,
) -> Tuple[BulkDraws, np.ndarray]:
    """Part two's per-step draws and the weighted listener mask.

    Per step: the role doubles, the labels with one target double per
    listener whose score row is nonzero under the weighted policy, then
    ``lg Delta`` back-off coins per node.
    """
    _, n, c = counts.shape
    weighted = (counts.sum(axis=2) > 0) & (policy == "weighted")
    draws = BulkDraws(
        generators,
        c,
        n,
        before=np.full(n, 0.5),
        extra=weighted,
        after=np.broadcast_to(
            backoff_probabilities(backoff_len)[:, None], (backoff_len, n)
        ),
    )
    return draws, weighted


def _part2_labels(
    chunk: ChunkDraws, counts: np.ndarray, weighted: np.ndarray
) -> np.ndarray:
    """A part-two chunk's labels, picked as in ``choose_part2_labels``.

    ``chunk.labels`` holds the uniform labels
    (:func:`~repro.core.cseek.choose_part2_labels`' ``integers`` draw).
    A listener with a weighted row instead takes the label where its
    target, its extra double times the row's total, falls in the row's
    cumulative scores.
    """
    labels = chunk.labels
    b_idx, s_idx, u_idx = np.nonzero(~chunk.before & weighted[:, None, :])
    if b_idx.size:
        row_sums = counts.sum(axis=2)
        targets = chunk.extra[b_idx, s_idx, u_idx] * row_sums[b_idx, u_idx]
        cdf = np.cumsum(counts[b_idx, u_idx], axis=1)
        picked = (cdf < targets[:, None]).sum(axis=1)
        labels[b_idx, s_idx, u_idx] = np.minimum(picked, counts.shape[2] - 1)
    return labels


#: Engine cells (trials x slots x nodes) one chunk of lockstep steps
#: resolves at once: each part runs in chunks of
#: ``K = max(1, _CHUNK_CELLS // (B * T * n))`` consecutive steps.
_CHUNK_CELLS = 2**16


def run_cseek_lockstep(
    members: Sequence[LockstepMember],
) -> List[List[CSeekResult]]:
    """Run every member's trials in one cross-point lockstep execution.

    All members must share :func:`lockstep_signature`; their networks
    and environments may differ. CSEEK's schedule is open-loop — no
    step looks at an earlier step's outcome, and part two reads only
    part one's final ``counts`` — so each part runs in chunks of ``K``
    consecutive steps: every trial's chunk of labels, roles and coins
    is decoded in schedule order from one raw fill of its own
    generators (:class:`~repro.sim.rng.BulkDraws`), then the whole
    ``(B * K)``-row chunk resolves as *one* engine call, against a
    shared adjacency when every member's network coincides (the
    single-point case) or a per-trial stack otherwise. Per trial,
    generator draws, jam masks and bookkeeping are those of a plain
    step-by-step execution, so results are bit-identical whatever the
    grouping or chunking — serial :meth:`CSeek.run` is the one-member,
    one-seed case.

    Returns:
        One result list per member, in member order, each in the
        member's seed order.
    """
    if not members:
        raise ProtocolError("lockstep run needs at least one member")
    signature = lockstep_signature(members[0].batch)
    for member in members[1:]:
        other = lockstep_signature(member.batch)
        if other != signature:
            raise ProtocolError(
                "lockstep members must share a compatibility signature "
                "(n, c, budgets, policy, rng label, knowledge, "
                f"constants); got {other} vs {signature}"
            )
    seed_lists = [[int(s) for s in m.seeds] for m in members]
    if any(not seeds for seeds in seed_lists):
        raise ProtocolError("seeds must name at least one trial")

    proto = members[0].batch._proto
    # Telemetry stage: plain CSEEK/CKSEEK runs and CGCAST's discovery
    # stage are "discovery"; the runner is also reused for simulated
    # meeting-time/color exchanges, which report as "oracle_exchange".
    stage = (
        "discovery"
        if proto.rng_label == "cseek"
        or proto.rng_label.endswith("discovery")
        else "oracle_exchange"
    )
    kn = proto.knowledge
    n, c = proto.network.n, proto.network.c
    per_member = [len(seeds) for seeds in seed_lists]
    num_trials = sum(per_member)
    offsets = np.concatenate([[0], np.cumsum(per_member)])
    slices = [
        slice(int(offsets[j]), int(offsets[j + 1]))
        for j in range(len(members))
    ]
    tables = [m.batch.network.channel_table() for m in members]
    adjacencies = [m.batch.network.adjacency for m in members]
    shared_graph = all(
        a is adjacencies[0] or np.array_equal(a, adjacencies[0])
        for a in adjacencies[1:]
    )
    rows = np.arange(n)

    def chunk_adjacency(steps: int) -> np.ndarray:
        """The engine adjacency for a ``(B * steps)``-row chunk.

        One shared graph (always true for a single member) keeps the
        2-D adjacency; otherwise trial ``b``'s graph repeats once per
        step of the chunk.
        """
        if shared_graph:
            return adjacencies[0]
        return np.concatenate(
            [
                np.broadcast_to(adj, (cnt * steps, n, n))
                for adj, cnt in zip(adjacencies, per_member)
            ]
        )

    hubs = [
        RngHub(s).child(proto.rng_label)
        for seeds in seed_lists
        for s in seeds
    ]
    # One batched stream per jammed member: a single jam-mask gather
    # per chunk, no per-trial loop.
    traffics = [
        m.batch.environment.streams(seeds)
        if m.batch.environment is not None
        else None
        for m, seeds in zip(members, seed_lists)
    ]

    def chunk_channels(labels: np.ndarray) -> np.ndarray:
        """``(B, K, n)`` global channels from per-member local labels."""
        channels = np.empty(labels.shape, dtype=np.int64)
        for sl, table in zip(slices, tables):
            channels[sl] = table[rows, labels[sl]]
        return channels

    def gather_jam(channels: np.ndarray, num_slots: int):
        """``(B * K, num_slots, n)`` jam masks over the full trial axis.

        Unjammed members contribute zeros, which the engine treats
        exactly like the no-jam path — so mixing jammed and unjammed
        points in one group perturbs nothing.
        """
        if all(t is None for t in traffics):
            return None
        trials, steps, _ = channels.shape
        jam = np.zeros((trials, steps, num_slots, n), dtype=bool)
        for sl, traffic in zip(slices, traffics):
            if traffic is not None:
                jam[sl] = traffic.jam_mask(channels[sl], num_slots)
        return jam.reshape(trials * steps, num_slots, n)

    counts = np.zeros((num_trials, n, c), dtype=np.float64)
    traces = [TraceRecorder() for _ in range(num_trials)]
    ledgers = [SlotLedger() for _ in range(num_trials)]
    step_starts: List[int] = []
    # Per-chunk (B, K, n) channel snapshots, joined per trial at the end.
    step_channels: List[np.ndarray] = []
    slot_cursor = 0

    def book_chunk(
        step: BatchStepOutcome, channels: np.ndarray, phase: str
    ) -> None:
        """Trace, ledger and step bookkeeping for one resolved chunk."""
        nonlocal slot_cursor
        trials, steps, _ = channels.shape
        step_len = step.num_slots
        span_slots = steps * step_len
        record_step_batch(
            traces,
            BatchStepOutcome(
                heard_from=step.heard_from.reshape(trials, span_slots, n),
                contenders=step.contenders.reshape(trials, span_slots, n),
            ),
            slot_cursor,
            f"cseek.{phase}",
            channels=channels,
        )
        step_starts.extend(
            range(slot_cursor, slot_cursor + span_slots, step_len)
        )
        step_channels.append(channels)
        slot_cursor += span_slots
        for ledger in ledgers:
            ledger.charge(phase, span_slots)

    def chunks(budget: int, step_len: int):
        """Step counts of the chunks that cover ``budget`` steps."""
        size = max(1, _CHUNK_CELLS // (num_trials * step_len * n))
        for done in range(0, budget, size):
            yield min(size, budget - done)

    count_probs = count_probabilities(
        kn.max_degree, kn.log_n, proto.constants
    )
    count_slots = count_probs.size
    draws1 = _part1_draws(
        [hub.generator("part1") for hub in hubs], c, n, count_probs
    )
    with obs.span(stage):
        for steps in chunks(proto.part1_step_budget, count_slots):
            chunk = draws1.take(steps)
            labels, below = chunk.labels, chunk.after
            tx_role = below[:, :, 0, :]
            channels = chunk_channels(labels)
            outcome = resolve_count_step_batch(
                chunk_adjacency(steps),
                channels.reshape(-1, n),
                tx_role.reshape(-1, n),
                below[:, :, 1:, :].reshape(-1, count_slots, n),
                max_count=kn.max_degree,
                log_n=kn.log_n,
                constants=proto.constants,
                jam=gather_jam(channels, count_slots),
            )
            estimates = outcome.estimates.reshape(num_trials, steps, n)
            b_idx, s_idx, u_idx = np.nonzero(~tx_role)
            # np.add.at accumulates unbuffered in index order — step
            # order per (trial, node) — exactly as per-step += would.
            np.add.at(
                counts,
                (b_idx, u_idx, labels[b_idx, s_idx, u_idx]),
                estimates[b_idx, s_idx, u_idx],
            )
            book_chunk(outcome.step, channels, "part1")

    discovered_part_one = [
        [set(trace.heard_by(u)) for u in range(n)] for trace in traces
    ]

    backoff_len = kn.log_delta
    draws2, weighted = _part2_draws(
        [hub.generator("part2") for hub in hubs],
        counts,
        backoff_len,
        proto.part2_listener,
    )
    with obs.span(stage):
        for steps in chunks(proto.part2_step_budget, backoff_len):
            chunk = draws2.take(steps)
            channels = chunk_channels(_part2_labels(chunk, counts, weighted))
            outcome = resolve_step_batch(
                chunk_adjacency(steps),
                channels.reshape(-1, n),
                chunk.before.reshape(-1, n),
                chunk.after.reshape(-1, backoff_len, n),
                jam=gather_jam(channels, backoff_len),
            )
            book_chunk(outcome, channels, "part2")

    all_channels = (
        np.concatenate(step_channels, axis=1)
        if step_channels
        else np.zeros((num_trials, 0, n), dtype=np.int64)
    )
    step_start_arr = np.array(step_starts, dtype=np.int64)
    results: List[List[CSeekResult]] = []
    for sl in slices:
        member_results: List[CSeekResult] = []
        for b in range(sl.start, sl.stop):
            member_results.append(
                CSeekResult(
                    discovered=[
                        set(traces[b].heard_by(u)) for u in range(n)
                    ],
                    discovered_part_one=discovered_part_one[b],
                    counts=counts[b].copy(),
                    trace=traces[b],
                    ledger=ledgers[b],
                    step_start_slots=step_start_arr,
                    step_channels=all_channels[b],
                    total_slots=slot_cursor,
                )
            )
        results.append(member_results)
    return results


def batched_discovery(
    network: CRNetwork,
    seeds: Sequence[int],
    knowledge: Optional[ModelKnowledge] = None,
    constants: Optional[ProtocolConstants] = None,
    environment: Optional[SpectrumEnvironment] = None,
) -> List[CSeekResult]:
    """Batch CGCAST's discovery phase across trial seeds.

    Returns one :class:`CSeekResult` per seed, bit-identical to the
    CSEEK execution :meth:`repro.core.cgcast.CGCast.run` performs
    internally for that seed (``environment`` must match the CGCAST
    instance's) — hand result ``b`` to
    ``CGCast(..., seed=seeds[b], discovery=results[b])`` and the rest of
    the pipeline proceeds unchanged. This is how E6-style sweeps ride
    the trial axis through their most expensive phase without batching
    the (heterogeneous) exchange/coloring stages.
    """
    batch = CSeekBatch(
        network,
        knowledge=knowledge,
        constants=constants,
        rng_label="cgcast.discovery",
        environment=environment,
    )
    return batch.run(seeds)
