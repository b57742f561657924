"""Cross-point batch groups: lockstep execution across sweep points.

:class:`~repro.core.cseek_batch.CSeekBatch` locksteps the trials of one
sweep point; a sweep grid still drains point by point, paying the
per-step Python and dispatch overhead once per point. This module is
the grouping layer on top of :func:`~repro.core.cseek_batch.
run_cseek_lockstep`: trial factories (:mod:`repro.scenarios.trials`)
attach an :class:`XBatchable` describing how their point can join a
cross-point group, points whose :meth:`XBatchable.signature` match are
concatenated along one trial axis, and :func:`run_group` executes the
whole group as a single lockstep run — one engine call per protocol
step for *every* compatible point of the scenario.

Three member kinds exist:

``"cseek"``
    Full CSEEK/CKSEEK executions (and anything built on
    :class:`CSeekBatch`); grouped points may have different networks
    and environments — the signature pins only the schedule shape (see
    :func:`~repro.core.cseek_batch.lockstep_signature`).
``"cgcast"``
    Full CGCAST executions, end-to-end through
    :func:`~repro.core.cgcast_batch.run_cgcast_lockstep`; the signature
    pins the discovery schedule plus the pipeline knobs (source,
    exchange mode, loss rate, early stop, knowledge — see
    :func:`~repro.core.cgcast_batch.cgcast_lockstep_signature`), while
    networks may differ per point.
``"count"``
    Single COUNT steps; the signature pins the rig (adjacency,
    channels, roles — content, not identity) and the schedule, so a
    grouped COUNT sweep (e.g. an activity axis on one star) rides the
    engine's fully homogeneous flattened-GEMM path as one giant call.

The trial axis is the concatenation of every member's seeds: ragged
per-point trial counts need no padding, and each trial's generator
draws are its own, so per-trial results are bit-identical to the
serial path — grouping, like batching, is a pure throughput decision.
A one-member group is the per-point batch: :meth:`XBatchable.run` is
what the trial factories hand the ``jobs="batch"`` executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cgcast import CGCast
from repro.core.cgcast_batch import (
    CGCastBatch,
    CGCastMember,
    cgcast_lockstep_signature,
    run_cgcast_lockstep,
)
from repro.core.constants import ProtocolConstants
from repro.core.count import count_schedule, run_count_step_batch
from repro.core.cseek import CSeek
from repro.core.cseek_batch import (
    CSeekBatch,
    LockstepMember,
    lockstep_signature,
    run_cseek_lockstep,
)
from repro.model.errors import ProtocolError
from repro.sim.environment import SpectrumEnvironment

__all__ = [
    "CGCastXBatch",
    "CSeekXBatch",
    "CountXBatch",
    "XBatchable",
    "run_group",
]


class XBatchable:
    """How one sweep point joins a cross-point lockstep group.

    Subclasses carry everything their group runner needs (protocol
    configuration, environment, postprocess) plus a :meth:`signature`
    naming the compatibility class: points whose signatures compare
    equal may run as one group; any difference splits them into
    separate groups (never an error — grouping degrades to per-point
    batching at worst).
    """

    kind: ClassVar[str] = ""

    def signature(self) -> tuple:
        raise NotImplementedError

    def run(self, seeds: Sequence[int]) -> List[object]:
        """This point's trials as a one-member group (``jobs="batch"``)."""
        return run_group([self], [list(seeds)])[0]


@dataclass
class CSeekXBatch(XBatchable):
    """Cross-point descriptor for CSEEK/CKSEEK trial factories.

    The :class:`CSeekBatch` is built lazily (first signature probe) so
    factories that never meet an xbatch executor pay nothing.
    """

    make_protocol: Callable[[int], CSeek]
    postprocess: Callable[..., object]
    environment: Optional[SpectrumEnvironment] = None
    _batch: Optional[CSeekBatch] = field(
        default=None, repr=False, compare=False
    )

    kind: ClassVar[str] = "cseek"

    @property
    def batch(self) -> CSeekBatch:
        if self._batch is None:
            self._batch = CSeekBatch.from_serial(
                self.make_protocol(0), environment=self.environment
            )
        return self._batch

    def signature(self) -> tuple:
        return (self.kind, lockstep_signature(self.batch))


@dataclass
class CGCastXBatch(XBatchable):
    """Cross-point descriptor for full-pipeline CGCAST trial factories.

    ``make_protocol(seed, discovery=None)`` is the factory the serial
    path uses; the batch is built lazily from its seed-0 instance, so
    factories that never meet an xbatch executor pay nothing.
    """

    make_protocol: Callable[..., CGCast]
    postprocess: Callable[..., object]
    environment: Optional[SpectrumEnvironment] = None
    _batch: Optional[CGCastBatch] = field(
        default=None, repr=False, compare=False
    )

    kind: ClassVar[str] = "cgcast"

    @property
    def batch(self) -> CGCastBatch:
        if self._batch is None:
            self._batch = CGCastBatch.from_serial(
                self.make_protocol(0), environment=self.environment
            )
        return self._batch

    def signature(self) -> tuple:
        return (self.kind, cgcast_lockstep_signature(self.batch))


@dataclass
class CountXBatch(XBatchable):
    """Cross-point descriptor for single-COUNT-step trial factories."""

    adj: np.ndarray
    channels: np.ndarray
    tx_role: np.ndarray
    max_count: int
    log_n: int
    constants: ProtocolConstants
    postprocess: Callable[[np.ndarray], object]
    environment: Optional[SpectrumEnvironment] = None

    kind: ClassVar[str] = "count"

    def signature(self) -> tuple:
        # Content-keyed rig: equal signatures guarantee one shared
        # (adjacency, channels, roles) triple, so the whole group rides
        # the engine's homogeneous flattened-GEMM path.
        return (
            self.kind,
            self.adj.shape[0],
            self.adj.tobytes(),
            self.channels.tobytes(),
            self.tx_role.tobytes(),
            self.max_count,
            self.log_n,
            self.constants,
        )


def _run_cseek_group(
    xs: Sequence[CSeekXBatch], seed_lists: Sequence[List[int]]
) -> List[List[object]]:
    raw = run_cseek_lockstep(
        [
            LockstepMember(x.batch, seeds)
            for x, seeds in zip(xs, seed_lists)
        ]
    )
    return [
        [x.postprocess(result) for result in member_results]
        for x, member_results in zip(xs, raw)
    ]


def _run_count_group(
    xs: Sequence[CountXBatch], seed_lists: Sequence[List[int]]
) -> List[List[object]]:
    x0 = xs[0]
    rounds, round_length = count_schedule(
        x0.max_count, x0.log_n, x0.constants
    )
    total_slots = rounds * round_length
    n = x0.adj.shape[0]
    per_member = [len(seeds) for seeds in seed_lists]
    num_trials = sum(per_member)
    offsets = np.concatenate([[0], np.cumsum(per_member)])
    jam = None
    if len(xs) == 1:
        if x0.environment is not None:
            jam = x0.environment.streams(seed_lists[0]).jam_mask(
                x0.channels, total_slots
            )
    elif any(x.environment is not None for x in xs):
        # Unjammed members contribute all-clear rows — engine-equivalent
        # to the no-jam path, so mixed groups stay bit-identical per
        # member.
        jam = np.empty((num_trials, total_slots, n), dtype=bool)
        for j, (x, seeds) in enumerate(zip(xs, seed_lists)):
            sl = slice(int(offsets[j]), int(offsets[j + 1]))
            jam[sl] = (
                x.environment.streams(seeds).jam_mask(
                    x.channels, total_slots
                )
                if x.environment is not None
                else False
            )
    out = run_count_step_batch(
        x0.adj,
        x0.channels,
        x0.tx_role,
        max_count=x0.max_count,
        log_n=x0.log_n,
        constants=x0.constants,
        rngs=[
            np.random.default_rng(s)
            for seeds in seed_lists
            for s in seeds
        ],
        jam=jam,
    )
    return [
        [
            x.postprocess(row)
            for row in out.estimates[
                int(offsets[j]) : int(offsets[j + 1])
            ]
        ]
        for j, x in enumerate(xs)
    ]


def _run_cgcast_group(
    xs: Sequence[CGCastXBatch], seed_lists: Sequence[List[int]]
) -> List[List[object]]:
    raw = run_cgcast_lockstep(
        [
            CGCastMember(x.batch, seeds)
            for x, seeds in zip(xs, seed_lists)
        ]
    )
    return [
        [x.postprocess(result) for result in member_results]
        for x, member_results in zip(xs, raw)
    ]


_RUNNERS = {
    "cseek": _run_cseek_group,
    "cgcast": _run_cgcast_group,
    "count": _run_count_group,
}


def run_group(
    xs: Sequence[XBatchable],
    seed_lists: Sequence[Sequence[int]],
    batch_size: Optional[int] = None,
) -> List[List[object]]:
    """Execute one compatibility group's trials in cross-point lockstep.

    Args:
        xs: The group's members — same ``kind``, equal signatures
            (callers group by :meth:`XBatchable.signature`; the kind
            runners re-validate what correctness depends on).
        seed_lists: Per-member trial seeds (ragged counts welcome).
        batch_size: Optional cap on trials per lockstep execution;
            the concatenated axis is split into consecutive sub-groups
            of at most this many trials (memory bound, same results —
            every trial draws from its own generators).

    Returns:
        Per-member postprocessed outcome lists, in member order and
        per-member seed order.
    """
    if not xs:
        raise ProtocolError("cross-point group needs at least one member")
    if len(xs) != len(seed_lists):
        raise ProtocolError(
            f"{len(xs)} members but {len(seed_lists)} seed lists"
        )
    kind = xs[0].kind
    if any(x.kind != kind for x in xs):
        raise ProtocolError(
            "cross-point group members must share one kind; got "
            f"{sorted({x.kind for x in xs})}"
        )
    runner = _RUNNERS[kind]
    seed_lists = [[int(s) for s in seeds] for seeds in seed_lists]
    total = sum(len(seeds) for seeds in seed_lists)
    cap = batch_size if batch_size else total
    results: List[List[object]] = [[] for _ in xs]
    pending: List[Tuple[int, List[int]]] = []
    filled = 0

    def flush() -> None:
        nonlocal filled
        if not pending:
            return
        sub_xs = [xs[i] for i, _ in pending]
        sub_seeds = [seeds for _, seeds in pending]
        for (i, _), outs in zip(pending, runner(sub_xs, sub_seeds)):
            results[i].extend(outs)
        pending.clear()
        filled = 0

    for i, seeds in enumerate(seed_lists):
        pos = 0
        while pos < len(seeds):
            take = min(cap - filled, len(seeds) - pos)
            pending.append((i, seeds[pos : pos + take]))
            filled += take
            pos += take
            if filled >= cap:
                flush()
    flush()
    return results
