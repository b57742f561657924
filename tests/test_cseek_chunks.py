"""Chunk boundaries of the lockstep CSEEK runner.

:func:`repro.core.cseek_batch.run_cseek_lockstep` resolves each part in
chunks of ``K = max(1, _CHUNK_CELLS // (B * T * n))`` steps. Forcing
``K = 1``, ``K = 3`` (which divides neither budget) and the default must
all reproduce the step-by-step reference program field for field —
counts, traces with their event channels, ``step_channels`` and
``channel_at_slot`` included — with ``n`` even and odd.
"""

from __future__ import annotations

import functools

import pytest

from repro.core import CKSeek, CSeek, CSeekBatch, count_schedule
from repro.core import cseek_batch
from repro.core.cseek_batch import LockstepMember, run_cseek_lockstep
from repro.graphs import build_network, cycle, path
from repro.sim import MarkovTraffic, PoissonTraffic, StaticMask
from repro.sim.trace import TraceRecorder

from cseek_reference import assert_results_equal, reference_cseek

PART1, PART2 = 10, 13  # neither is a multiple of 3
CHUNKINGS = ["k1", "k3-part1", "k3-part2", "default"]


@pytest.fixture(scope="module")
def path_net():
    return build_network(path(8), c=6, k=2, seed=3)


@pytest.fixture(scope="module")
def cycle_net():
    """Same (n, c) as ``path_net`` — lockstep-compatible, other graph."""
    return build_network(cycle(8), c=6, k=2, seed=5)


@pytest.fixture(scope="module")
def odd_net():
    """Odd ``n``: each step's nine labels alternate between starting on
    the half-word the previous step left buffered and on a fresh word;
    ``c = 6`` is no power of two."""
    return build_network(cycle(9), c=6, k=1, seed=4)


def step_lengths(proto):
    """``(part-one step slots, part-two step slots)`` of a protocol."""
    kn = proto.knowledge
    rounds, length = count_schedule(kn.max_degree, kn.log_n, proto.constants)
    return rounds * length, kn.log_delta


def force_chunking(monkeypatch, chunking, proto, trials=1):
    """Set ``_CHUNK_CELLS`` so the named part runs 3 steps per chunk."""
    part1_len, part2_len = step_lengths(proto)
    n = proto.network.n
    cells = {
        "k1": 1,
        "k3-part1": 3 * trials * part1_len * n,
        "k3-part2": 3 * trials * part2_len * n,
    }.get(chunking)
    if cells is not None:
        monkeypatch.setattr(cseek_batch, "_CHUNK_CELLS", cells)


def environment(kind, net):
    ids = sorted(net.assignment.universe())
    if kind == "markov":
        return MarkovTraffic(ids, activity=0.5, mean_dwell=4.0)
    if kind == "poisson":
        return PoissonTraffic(ids, activity=0.4)
    if kind == "static":
        return StaticMask(ids[::3])
    return None


def assert_slot_channels_match(got, ref):
    """``channel_at_slot`` agrees everywhere and with every event."""
    for node in range(got.step_channels.shape[1]):
        for slot in range(0, got.total_slots, 5):
            assert got.channel_at_slot(node, slot) == ref.channel_at_slot(
                node, slot
            )
    for event in got.trace.first_heard.values():
        assert event.channel == got.channel_at_slot(
            event.listener, event.slot
        )


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("env_kind", [None, "markov", "poisson", "static"])
@pytest.mark.parametrize("kind", ["cseek", "ckseek"])
def test_serial_run_matches_reference(
    monkeypatch, path_net, kind, env_kind, chunking
):
    check_serial_run(monkeypatch, path_net, kind, env_kind, chunking)


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("env_kind", [None, "markov", "poisson", "static"])
@pytest.mark.parametrize("kind", ["cseek", "ckseek"])
def test_odd_n_serial_run_matches_reference(
    monkeypatch, odd_net, kind, env_kind, chunking
):
    check_serial_run(monkeypatch, odd_net, kind, env_kind, chunking)


def check_serial_run(monkeypatch, net, kind, env_kind, chunking):
    """One seed of ``kind`` on ``net`` equals the step reference."""
    env = environment(env_kind, net)
    if kind == "cseek":
        proto = CSeek(net, seed=17, environment=env)
    else:
        proto = CKSeek(net, khat=net.knowledge().k, seed=17, environment=env)
    # Trim the resolved budgets (neither is a multiple of 3).
    proto.part1_step_budget, proto.part2_step_budget = PART1, PART2
    force_chunking(monkeypatch, chunking, proto)
    got = proto.run()
    ref = reference_cseek(proto)
    assert_results_equal(got, ref)
    assert_slot_channels_match(got, ref)


@pytest.mark.parametrize("chunking", ["k1", "k3-part1", "k3-part2"])
@pytest.mark.parametrize("budgets", [(0, PART2), (PART1, 0), (0, 0)])
def test_zero_budgets(monkeypatch, path_net, budgets, chunking):
    env = environment("markov", path_net)
    proto = CSeek(
        path_net,
        seed=5,
        part1_steps=budgets[0],
        part2_steps=budgets[1],
        environment=env,
    )
    force_chunking(monkeypatch, chunking, proto)
    got = proto.run()
    assert_results_equal(got, reference_cseek(proto))
    assert got.step_channels.shape == (sum(budgets), path_net.n)


@pytest.mark.parametrize("chunking", CHUNKINGS)
def test_ragged_two_network_group(monkeypatch, path_net, cycle_net, chunking):
    """Per-trial adjacency stacks repeat per step of a chunk; a jammed
    and a clear member with different graphs stay independent."""
    env = environment("poisson", path_net)
    budgets = dict(part1_steps=PART1, part2_steps=PART2)
    seeds_a, seeds_b = [3, 17, 99], [7, 41]
    members = [
        LockstepMember(CSeekBatch(path_net, environment=env, **budgets), seeds_a),
        LockstepMember(CSeekBatch(cycle_net, **budgets), seeds_b),
    ]
    force_chunking(
        monkeypatch,
        chunking,
        CSeek(path_net, **budgets),
        trials=len(seeds_a) + len(seeds_b),
    )
    got_a, got_b = run_cseek_lockstep(members)
    for got, s in zip(got_a, seeds_a):
        ref = reference_cseek(CSeek(path_net, seed=s, environment=env, **budgets))
        assert_results_equal(got, ref)
        assert_slot_channels_match(got, ref)
    for got, s in zip(got_b, seeds_b):
        ref = reference_cseek(CSeek(cycle_net, seed=s, **budgets))
        assert_results_equal(got, ref)


@pytest.mark.parametrize("chunking", ["k1", "k3-part1", "default"])
def test_verbose_trace_matches_reference(monkeypatch, path_net, chunking):
    """Verbose recorders log every reception with its step's channel."""
    monkeypatch.setattr(
        cseek_batch,
        "TraceRecorder",
        functools.partial(TraceRecorder, verbose=True),
    )
    env = environment("markov", path_net)
    budgets = dict(part1_steps=PART1, part2_steps=PART2, environment=env)
    seeds = [3, 17]
    force_chunking(
        monkeypatch, chunking, CSeek(path_net, **budgets), trials=len(seeds)
    )
    got = CSeekBatch(path_net, **budgets).run(seeds)
    for result, s in zip(got, seeds):
        ref = reference_cseek(CSeek(path_net, seed=s, **budgets), verbose=True)
        assert ref.trace.events
        assert_results_equal(result, ref)
        channels = [e.channel for e in result.trace.events]
        expected = [
            result.channel_at_slot(e.listener, e.slot)
            for e in result.trace.events
        ]
        assert channels == expected


def test_default_chunk_sizes(path_net):
    """The default budget runs several steps per chunk in both parts."""
    part1_len, part2_len = step_lengths(CSeek(path_net))
    n = path_net.n
    assert cseek_batch._CHUNK_CELLS // (part1_len * n) > 1
    assert cseek_batch._CHUNK_CELLS // (part2_len * n) > 1
