"""Trial-closure factories — serial trials paired with their batch program.

Every experiment ultimately hands the scenario sweep driver
(:mod:`repro.scenarios.compile`) a callable of one trial seed. These
factories build that callable once per protocol family and attach an
``xbatch`` descriptor
(:mod:`repro.core.xbatch`) naming the family's one lockstep program.
The descriptor serves both vectorized executors: ``jobs="xbatch"``
groups compatible sweep points, and ``jobs="batch"`` calls
``run_batch(seeds)`` — the descriptor's :meth:`~repro.core.xbatch.
XBatchable.run`, a one-member group. The serial path is the reference
semantics the batched path reproduces bit-for-bit:

* :func:`cseek_trial` — full CSEEK/CKSEEK executions
  (:class:`~repro.core.xbatch.CSeekXBatch`).
* :func:`cgcast_trial` — full CGCAST executions
  (:class:`~repro.core.xbatch.CGCastXBatch`).
* :func:`count_trial` — single COUNT steps
  (:class:`~repro.core.xbatch.CountXBatch`).

:func:`~repro.scenarios.compile.protocol_trial` is the one caller for
protocol-kind trials (declarative points and the paper experiments
alike); the paper experiments call :func:`cseek_trial` directly only
for their experiment-specific outcomes (E3, E10's starved rows).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import (
    CGCast,
    CGCastXBatch,
    CSeek,
    CSeekXBatch,
    CountXBatch,
    ProtocolConstants,
    count_schedule,
    run_count_step,
)

__all__ = [
    "broadcaster_star",
    "cgcast_trial",
    "count_trial",
    "cseek_trial",
]


def cseek_trial(
    make_protocol: Callable[[int], CSeek],
    postprocess: Callable[..., object],
    environment=None,
) -> Callable[[int], object]:
    """A full-protocol CSEEK/CKSEEK trial with a vectorized trial axis.

    The serial path constructs and runs one protocol per seed (the
    reference semantics every executor must reproduce). The batched
    path runs each part-one step and part-two window of *all* trials
    as one batched engine call; per-trial results are bit-identical to
    the serial path. ``make_protocol`` must be homogeneous in the seed
    (same network/budgets/policy every call). Primary-user traffic
    comes from ``environment`` (a
    :class:`~repro.sim.environment.SpectrumEnvironment`, jammed in one
    batched gather per step).
    """

    def trial(s: int):
        proto = make_protocol(s)
        if environment is not None:
            proto.environment = environment
        return postprocess(proto.run())

    trial.xbatch = CSeekXBatch(
        make_protocol=make_protocol,
        postprocess=postprocess,
        environment=environment,
    )
    trial.run_batch = trial.xbatch.run
    return trial


def cgcast_trial(
    make_protocol: Callable[..., CGCast],
    postprocess: Callable[..., object],
    environment=None,
) -> Callable[[int], object]:
    """A full-pipeline CGCAST trial with a vectorized trial axis.

    ``make_protocol(seed, discovery=None)`` must build the protocol
    homogeneously in the seed. Serially each trial runs the whole
    pipeline; batched, the entire execution — discovery, exchanges,
    coloring, dissemination — of all trials runs in lockstep via
    :class:`repro.core.cgcast_batch.CGCastBatch`, bit-identical per
    trial to the serial path. When the protocol is built with a
    spectrum environment, pass the same ``environment`` here so the
    batched discovery jams identically.
    """

    def trial(s: int, discovery=None):
        return postprocess(make_protocol(s, discovery=discovery).run())

    trial.xbatch = CGCastXBatch(
        make_protocol=make_protocol,
        postprocess=postprocess,
        environment=environment,
    )
    trial.run_batch = trial.xbatch.run
    return trial


def broadcaster_star(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The COUNT test rig: one listener facing ``m`` broadcasters.

    Returns ``(adjacency, channels, tx_role)`` for a star whose hub
    (node 0) listens on channel 0 while all ``m`` leaves broadcast.
    """
    n = m + 1
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    adj[1:, 0] = True
    channels = np.zeros(n, dtype=np.int64)
    tx_role = np.ones(n, dtype=bool)
    tx_role[0] = False
    return adj, channels, tx_role


def count_trial(
    adj: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    max_count: int,
    log_n: int,
    constants: ProtocolConstants,
    postprocess: Callable[[np.ndarray], object],
    environment=None,
) -> Callable[[int], object]:
    """A single-COUNT-step trial with a vectorized trial axis.

    ``postprocess`` receives the ``(n,)`` listener-estimate vector of
    one trial. Batched, the whole trial axis resolves through
    :func:`~repro.core.count.run_count_step_batch` in one engine call;
    per-trial coins are drawn exactly as the serial path draws them,
    and a spectrum ``environment`` jams the whole axis with one batched
    gather.
    """
    rounds, round_length = count_schedule(max_count, log_n, constants)
    total_slots = rounds * round_length

    def trial(s: int):
        out = run_count_step(
            adj,
            channels,
            tx_role,
            max_count=max_count,
            log_n=log_n,
            constants=constants,
            rng=np.random.default_rng(s),
            jam=(
                environment.stream(s).jam_mask(channels, total_slots)
                if environment is not None
                else None
            ),
        )
        return postprocess(out.estimates)

    trial.xbatch = CountXBatch(
        adj=adj,
        channels=channels,
        tx_role=tx_role,
        max_count=max_count,
        log_n=log_n,
        constants=constants,
        postprocess=postprocess,
        environment=environment,
    )
    trial.run_batch = trial.xbatch.run
    return trial
