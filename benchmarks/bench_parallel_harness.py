"""Harness throughput: serial vs process-parallel vs batched trials.

The paper's guarantees are w.h.p. statements, so statistical confidence
scales with trial throughput — this benchmark tracks the executor
layer's strategies on the workloads where each one matters. All
strategies produce bit-identical results (pinned by tests/test_harness
and tests/test_executor); the interesting number is wall-clock.

* ``trials64_*``: one heavy homogeneous COUNT sweep point (E1's shape
  with the paper-exact first-crossing rule: ~5k-slot steps), 64 Monte
  Carlo trials. On a multi-core runner ``jobs4`` should beat ``serial``
  by ~2x or better; single-core it only pays the pool fee. ``batched``
  is roughly a wash here — after the engine's BLAS-backed resolve, a
  heavy trial is already one big matmul and batching adds memory
  traffic.
* ``backoff64_*``: 64 independent CSEEK part-two back-off windows
  (tiny ``lg Delta``-slot steps). Per-call overhead dominates, so the
  batched axis wins outright.
* ``cseek16_*``: 16 *full CSEEK protocol executions* on the E2 regular
  workload, serial vs trial-batched (``CSeekBatch``). This is the
  end-to-end pair the CI regression gate tracks: the batched runner
  turns every part-one step and part-two window into one engine call
  across all trials, so it must beat the serial loop outright.
* ``jammed_cseek16_*``: the same 16-trial protocol pair under heavy
  Markov primary-user traffic (the E12 workload shape). The serial
  reference advances one sequential occupancy stream per trial; the
  batched runner rides a ``MarkovTraffic`` spectrum environment whose
  ON/OFF recurrence runs once for the whole trial axis — the gate pins
  that the jammed batched path keeps beating the jammed serial loop.
* ``e1_table_serial``: a full experiment table end-to-end, the number
  users actually wait on.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    CSeek,
    CSeekBatch,
    ProtocolConstants,
    resolve_backoff_batch,
    run_count_step,
    run_count_step_batch,
)
from repro.core.cseek import backoff_probabilities
from repro.graphs import build_network, random_regular
from repro.harness import run_trials
from repro.scenarios import run_scenario
from repro.sim import MarkovTraffic
from repro.sim.engine import resolve_step

TRIALS = 64
# The paper-exact rule implies long rounds — a deliberately heavy trial.
HEAVY_CONSTS = ProtocolConstants(
    count_rule="first_crossing", count_round_slots=192.0
)


def _count_workload(m=32):
    """E1's sweep-point topology: one listener, m broadcasters."""
    n = m + 1
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    adj[1:, 0] = True
    channels = np.zeros(n, dtype=np.int64)
    tx_role = np.ones(n, dtype=bool)
    tx_role[0] = False
    return adj, channels, tx_role


def _count_trial():
    adj, channels, tx_role = _count_workload()

    def trial(s: int) -> float:
        out = run_count_step(
            adj,
            channels,
            tx_role,
            max_count=32,
            log_n=5,
            constants=HEAVY_CONSTS,
            rng=np.random.default_rng(s),
        )
        return float(out.estimates[0])

    def run_batch(seeds):
        out = run_count_step_batch(
            adj,
            channels,
            tx_role,
            max_count=32,
            log_n=5,
            constants=HEAVY_CONSTS,
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        return [float(e) for e in out.estimates[:, 0]]

    trial.run_batch = run_batch
    return trial


def bench_trials64_serial(benchmark):
    """64 heavy COUNT trials, one at a time (the reference)."""
    trial = _count_trial()
    out = benchmark(run_trials, trial, TRIALS, 7)
    assert len(out) == TRIALS


def bench_trials64_jobs4(benchmark):
    """64 heavy COUNT trials across 4 worker processes."""
    trial = _count_trial()
    out = benchmark(
        lambda: run_trials(trial, TRIALS, 7, executor=4)
    )
    assert len(out) == TRIALS


def bench_trials64_batched(benchmark):
    """64 heavy COUNT trials as one vectorized resolve."""
    trial = _count_trial()
    out = benchmark(
        lambda: run_trials(trial, TRIALS, 7, executor="batch")
    )
    assert len(out) == TRIALS


def _backoff_workload():
    rng = np.random.default_rng(0)
    n = 20
    adj = rng.random((n, n)) < 0.3
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(0, 4, size=n)
    tx_role = rng.random(n) < 0.5
    return adj, channels, tx_role


def bench_backoff64_serial(benchmark):
    """64 part-two back-off windows resolved one step at a time."""
    adj, channels, tx_role = _backoff_workload()
    n = adj.shape[0]
    backoff_len = 5
    probs = backoff_probabilities(backoff_len)

    def run():
        outs = []
        for s in range(TRIALS):
            rng = np.random.default_rng(s)
            coins = rng.random((backoff_len, n)) < probs[:, None]
            outs.append(resolve_step(adj, channels, tx_role, coins))
        return outs

    assert len(benchmark(run)) == TRIALS


def bench_backoff64_batched(benchmark):
    """64 part-two back-off windows in one batched resolve."""
    adj, channels, tx_role = _backoff_workload()
    backoff_len = 5

    def run():
        return resolve_backoff_batch(
            adj,
            channels,
            tx_role,
            backoff_len,
            [np.random.default_rng(s) for s in range(TRIALS)],
        )

    assert benchmark(run).num_trials == TRIALS


CSEEK_TRIALS = 16


def _e2_net():
    """E2's standard discovery workload: 20-node 4-regular, c=8, k=2."""
    return build_network(random_regular(20, 4, seed=7), c=8, k=2, seed=11)


def bench_cseek16_serial(benchmark):
    """16 full CSEEK protocol runs, one trial at a time (the reference)."""
    net = _e2_net()
    seeds = list(range(100, 100 + CSEEK_TRIALS))

    def run():
        return [CSeek(net, seed=s).run() for s in seeds]

    results = benchmark(run)
    assert len(results) == CSEEK_TRIALS


def bench_cseek16_batched(benchmark):
    """16 full CSEEK protocol runs in lockstep across the trial axis."""
    net = _e2_net()
    seeds = list(range(100, 100 + CSEEK_TRIALS))
    runner = CSeekBatch(net)
    results = benchmark(runner.run, seeds)
    assert len(results) == CSEEK_TRIALS


def _jammed_workload():
    """The E12 shape: the E2 network under 60%-occupancy Markov bursts."""
    net = _e2_net()
    env = MarkovTraffic(
        sorted(net.assignment.universe()),
        activity=0.6,
        mean_dwell=8.0,
        seed_offset=1000,
    )
    return net, env


def bench_jammed_cseek16_serial(benchmark):
    """16 jammed CSEEK runs, one trial (and occupancy stream) at a time."""
    net, env = _jammed_workload()
    seeds = list(range(100, 100 + CSEEK_TRIALS))

    def run():
        return [
            CSeek(net, seed=s, environment=env).run() for s in seeds
        ]

    results = benchmark(run)
    assert len(results) == CSEEK_TRIALS


def bench_jammed_cseek16_batched(benchmark):
    """16 jammed CSEEK runs with one batched occupancy recurrence."""
    net, env = _jammed_workload()
    seeds = list(range(100, 100 + CSEEK_TRIALS))
    runner = CSeekBatch(net, environment=env)
    results = benchmark(runner.run, seeds)
    assert len(results) == CSEEK_TRIALS


def bench_e1_table_serial(benchmark):
    """Full E1 table (12 sweep points) with the serial reference."""
    table = benchmark(lambda: run_scenario("E1", trials=8, seed=3))
    assert table.rows
