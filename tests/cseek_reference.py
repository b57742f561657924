"""Step-by-step CSEEK: the reference the chunked lockstep runner must match.

:meth:`repro.core.cseek.CSeek.run` executes as the one-trial case of
:func:`repro.core.cseek_batch.run_cseek_lockstep`, which resolves whole
chunks of steps per engine call. This module keeps the plain program it
replaced — one :func:`run_count_step` per part-one step and one
:func:`resolve_step` per part-two window, drawing from the trial's
generators in schedule order — so the serial-vs-batch equivalence tests
compare two different programs rather than one program with itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

import numpy as np

from repro.core import cseek_batch
from repro.core.count import count_schedule, run_count_step
from repro.core.cseek import (
    CSeek,
    CSeekResult,
    backoff_probabilities,
    choose_part2_labels,
)
from repro.sim.engine import resolve_step
from repro.sim.metrics import SlotLedger
from repro.sim.rng import RngHub
from repro.sim.trace import TraceRecorder


def reference_cseek(proto: CSeek, verbose: bool = False) -> CSeekResult:
    """Run ``proto`` (a :class:`CSeek` or subclass) one step at a time.

    Args:
        proto: The configured protocol; its seed, budgets, listener
            policy, rng namespace and environment are used as-is.
        verbose: Record every reception event, not only first ones.
    """
    net = proto.network
    kn = proto.knowledge
    n, c = net.n, net.c
    table = net.channel_table()
    hub = RngHub(proto.seed).child(proto.rng_label)
    counts = np.zeros((n, c), dtype=np.float64)
    trace = TraceRecorder(verbose=verbose)
    ledger = SlotLedger()
    step_starts: List[int] = []
    step_channels: List[np.ndarray] = []
    slot_cursor = 0

    count_rounds, count_round_len = count_schedule(
        kn.max_degree, kn.log_n, proto.constants
    )
    count_slots = count_rounds * count_round_len
    traffic = (
        proto.environment.stream(proto.seed)
        if proto.environment is not None
        else None
    )
    rng1 = hub.generator("part1")
    for _ in range(proto.part1_step_budget):
        labels = rng1.integers(0, c, size=n)
        channels = table[np.arange(n), labels]
        tx_role = rng1.random(n) < 0.5
        jam = (
            traffic.jam_mask(channels, count_slots)
            if traffic is not None
            else None
        )
        outcome = run_count_step(
            net.adjacency,
            channels,
            tx_role,
            max_count=kn.max_degree,
            log_n=kn.log_n,
            constants=proto.constants,
            rng=rng1,
            jam=jam,
        )
        listeners = ~tx_role
        counts[np.arange(n)[listeners], labels[listeners]] += (
            outcome.estimates[listeners]
        )
        trace.record_step(
            outcome.step, slot_cursor, "cseek.part1", channels=channels
        )
        step_starts.append(slot_cursor)
        step_channels.append(channels)
        slot_cursor += outcome.num_slots
        ledger.charge("part1", outcome.num_slots)

    discovered_part_one = [set(trace.heard_by(u)) for u in range(n)]

    rng2 = hub.generator("part2")
    backoff_len = kn.log_delta
    backoff_probs = backoff_probabilities(backoff_len)
    for _ in range(proto.part2_step_budget):
        tx_role = rng2.random(n) < 0.5
        labels = choose_part2_labels(
            rng2, tx_role, counts, policy=proto.part2_listener
        )
        channels = table[np.arange(n), labels]
        coins = rng2.random((backoff_len, n)) < backoff_probs[:, None]
        jam = (
            traffic.jam_mask(channels, backoff_len)
            if traffic is not None
            else None
        )
        outcome = resolve_step(
            net.adjacency, channels, tx_role, coins, jam=jam
        )
        trace.record_step(
            outcome, slot_cursor, "cseek.part2", channels=channels
        )
        step_starts.append(slot_cursor)
        step_channels.append(channels)
        slot_cursor += backoff_len
        ledger.charge("part2", backoff_len)

    return CSeekResult(
        discovered=[set(trace.heard_by(u)) for u in range(n)],
        discovered_part_one=discovered_part_one,
        counts=counts,
        trace=trace,
        ledger=ledger,
        step_start_slots=np.array(step_starts, dtype=np.int64),
        step_channels=(
            np.vstack(step_channels)
            if step_channels
            else np.zeros((0, n), dtype=np.int64)
        ),
        total_slots=slot_cursor,
    )


def assert_results_equal(got: CSeekResult, ref: CSeekResult) -> None:
    """Field-for-field bit-identity of two CSEEK results."""
    assert got.discovered == ref.discovered
    assert got.discovered_part_one == ref.discovered_part_one
    assert np.array_equal(got.counts, ref.counts)
    assert np.array_equal(got.step_start_slots, ref.step_start_slots)
    assert np.array_equal(got.step_channels, ref.step_channels)
    assert got.total_slots == ref.total_slots
    assert got.ledger.as_dict() == ref.ledger.as_dict()
    assert got.trace.first_heard == ref.trace.first_heard
    assert got.trace.events == ref.trace.events


@contextmanager
def chunk_cells(cells: Optional[int]) -> Iterator[None]:
    """Run the lockstep runner with ``cells`` engine cells per chunk.

    ``None`` keeps the default. For use where pytest's ``monkeypatch``
    fixture is unavailable (inside hypothesis-driven tests).
    """
    saved = cseek_batch._CHUNK_CELLS
    if cells is not None:
        cseek_batch._CHUNK_CELLS = cells
    try:
        yield
    finally:
        cseek_batch._CHUNK_CELLS = saved
