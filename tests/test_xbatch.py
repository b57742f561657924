"""Cross-point lockstep batching (the ``jobs="xbatch"`` contract).

The invariant everywhere: grouping compatible sweep points into one
lockstep execution is a pure throughput decision — every trial's result
stays bit-identical to the per-point ``CSeekBatch`` path and to the
step-by-step reference program, for plain, jammed, ragged-trial-count and mixed-shape
workloads, and scenario rows are byte-identical under every ``jobs``
value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CSeek,
    CSeekBatch,
    CSeekXBatch,
    CountXBatch,
    LockstepMember,
    ProtocolConstants,
    lockstep_signature,
    run_cseek_lockstep,
    run_group,
)
from repro.graphs import build_network, cycle, path
from repro.harness.executor import (
    BatchedExecutor,
    SerialExecutor,
    StreamingExecutor,
    XBatchExecutor,
    get_executor,
)
from repro.model import ProtocolError
from repro.scenarios import (
    InterferenceSpec,
    PrecisionSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    paper_spec,
    run_scenario_spec,
    stream_scenario_spec,
)
from repro.scenarios.spec import AssignmentSpec
from repro.scenarios.trials import broadcaster_star, count_trial, cseek_trial
from repro.sim import MarkovTraffic
from repro.sim.engine import resolve_step, resolve_step_batch
from repro.sim.rng import RngHub

from cseek_reference import assert_results_equal, reference_cseek

SEEDS_A = [3, 17, 99]
SEEDS_B = [7, 41]  # ragged on purpose


@pytest.fixture(scope="module")
def path_net():
    return build_network(path(8), c=6, k=2, seed=3)


@pytest.fixture(scope="module")
def cycle_net():
    """Same (n, c) as ``path_net`` — lockstep-compatible, different graph."""
    return build_network(cycle(8), c=6, k=2, seed=5)


class TestLockstepEquivalence:
    def test_ragged_two_net_group_matches_per_point(
        self, path_net, cycle_net
    ):
        got = run_cseek_lockstep(
            [
                LockstepMember(CSeekBatch(path_net), SEEDS_A),
                LockstepMember(CSeekBatch(cycle_net), SEEDS_B),
            ]
        )
        ref_a = [reference_cseek(CSeek(path_net, seed=s)) for s in SEEDS_A]
        ref_b = [reference_cseek(CSeek(cycle_net, seed=s)) for s in SEEDS_B]
        for g, r in zip(got[0], ref_a):
            assert_results_equal(g, r)
        for g, r in zip(got[1], ref_b):
            assert_results_equal(g, r)

    def test_jammed_and_clear_members_stay_independent(
        self, path_net, cycle_net
    ):
        env = MarkovTraffic(
            sorted(path_net.assignment.universe()),
            activity=0.5,
            mean_dwell=6.0,
        )
        got = run_cseek_lockstep(
            [
                LockstepMember(CSeekBatch(path_net, environment=env), SEEDS_A),
                LockstepMember(CSeekBatch(cycle_net), SEEDS_B),
            ]
        )
        for g, s in zip(got[0], SEEDS_A):
            ref = reference_cseek(CSeek(path_net, seed=s, environment=env))
            assert_results_equal(g, ref)
        for g, r in zip(got[1], CSeekBatch(cycle_net).run(SEEDS_B)):
            assert_results_equal(g, r)

    def test_single_member_group_equals_batch(self, path_net):
        got = run_cseek_lockstep(
            [LockstepMember(CSeekBatch(path_net), SEEDS_A)]
        )
        for g, r in zip(got[0], CSeekBatch(path_net).run(SEEDS_A)):
            assert_results_equal(g, r)

    def test_incompatible_shapes_rejected(self, path_net):
        other = build_network(path(6), c=6, k=2, seed=3)
        assert lockstep_signature(CSeekBatch(path_net)) != (
            lockstep_signature(CSeekBatch(other))
        )
        with pytest.raises(ProtocolError):
            run_cseek_lockstep(
                [
                    LockstepMember(CSeekBatch(path_net), SEEDS_A),
                    LockstepMember(CSeekBatch(other), SEEDS_B),
                ]
            )

    def test_empty_member_seeds_rejected(self, path_net):
        with pytest.raises(ProtocolError):
            run_cseek_lockstep(
                [LockstepMember(CSeekBatch(path_net), [])]
            )


class TestRunGroup:
    def _descriptors(self, path_net, cycle_net):
        def make_a(s, net=path_net):
            return CSeek(net, seed=s)

        def make_b(s, net=cycle_net):
            return CSeek(net, seed=s)

        post = lambda r: r.trace.first_heard  # noqa: E731
        return (
            CSeekXBatch(make_protocol=make_a, postprocess=post),
            CSeekXBatch(make_protocol=make_b, postprocess=post),
        )

    def test_chunked_groups_match_unchunked(self, path_net, cycle_net):
        xa, xb = self._descriptors(path_net, cycle_net)
        whole = run_group([xa, xb], [SEEDS_A, SEEDS_B])
        for cap in (1, 2, 4):
            chunked = run_group([xa, xb], [SEEDS_A, SEEDS_B], cap)
            assert chunked == whole

    def test_mixed_kinds_rejected(self, path_net):
        xa, _ = self._descriptors(path_net, path_net)
        xc = CountXBatch(
            adj=np.ones((3, 3), dtype=bool),
            channels=np.zeros(3, dtype=np.int64),
            tx_role=np.ones(3, dtype=bool),
            max_count=2,
            log_n=2,
            constants=ProtocolConstants(),
            postprocess=lambda e: e,
        )
        with pytest.raises(ProtocolError):
            run_group([xa, xc], [SEEDS_A, SEEDS_B])

    def test_member_seed_list_mismatch_rejected(self, path_net):
        xa, xb = self._descriptors(path_net, path_net)
        with pytest.raises(ProtocolError):
            run_group([xa, xb], [SEEDS_A])
        with pytest.raises(ProtocolError):
            run_group([], [])


class TestFactoryRunBatch:
    """A factory's ``run_batch`` (its one-member group) equals the
    serial trial, jammed or not, at any batch size."""

    SEEDS = [3, 17, 99, 7, 41]

    def _count(self, env):
        adj, channels, tx_role = broadcaster_star(4)
        return count_trial(
            adj,
            channels,
            tx_role,
            max_count=8,
            log_n=3,
            constants=ProtocolConstants(),
            postprocess=lambda est: est.tolist(),
            environment=env,
        )

    def _cseek(self, net, env):
        return cseek_trial(
            lambda s: CSeek(net, seed=s),
            lambda r: (r.trace.first_heard, r.total_slots, r.discovered),
            environment=env,
        )

    def _trial(self, net, kind, jammed):
        if kind == "count":
            channels, dwell = [0], 4.0
        else:
            channels, dwell = sorted(net.assignment.universe()), 6.0
        env = (
            MarkovTraffic(channels, activity=0.5, mean_dwell=dwell)
            if jammed
            else None
        )
        return self._count(env) if kind == "count" else self._cseek(net, env)

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("jammed", [False, True])
    @pytest.mark.parametrize("kind", ["count", "cseek"])
    def test_run_batch_equals_serial(
        self, path_net, kind, jammed, batch_size
    ):
        trial = self._trial(path_net, kind, jammed)
        serial = SerialExecutor().run(trial, self.SEEDS)
        assert BatchedExecutor(batch_size).run(trial, self.SEEDS) == serial
        if jammed:  # the traffic must actually reach both paths
            clear = self._trial(path_net, kind, jammed=False)
            assert SerialExecutor().run(clear, self.SEEDS) != serial


class TestEnginePerTrialAdjacency:
    def _rig(self, rng, n=6, slots=5, b=4):
        adj = np.zeros((b, n, n), dtype=bool)
        for i in range(b):
            a = rng.random((n, n)) < 0.5
            a = np.triu(a, 1)
            adj[i] = a | a.T
        channels = rng.integers(0, 3, size=n)
        tx_role = rng.random(n) < 0.5
        coins = rng.random((b, slots, n)) < 0.5
        return adj, channels, tx_role, coins

    def test_stacked_adjacency_matches_per_trial_resolve(self):
        rng = np.random.default_rng(11)
        adj, channels, tx_role, coins = self._rig(rng)
        out = resolve_step_batch(adj, channels, tx_role, coins)
        for b in range(coins.shape[0]):
            ref = resolve_step(adj[b], channels, tx_role, coins[b])
            assert np.array_equal(out.heard_from[b], ref.heard_from)
            assert np.array_equal(out.contenders[b], ref.contenders)

    def test_shared_stack_matches_homogeneous_path(self):
        rng = np.random.default_rng(13)
        adj, channels, tx_role, coins = self._rig(rng)
        shared = np.broadcast_to(adj[0], adj.shape)
        stacked = resolve_step_batch(
            np.ascontiguousarray(shared), channels, tx_role, coins
        )
        homogeneous = resolve_step_batch(adj[0], channels, tx_role, coins)
        assert np.array_equal(
            stacked.heard_from, homogeneous.heard_from
        )
        assert np.array_equal(
            stacked.contenders, homogeneous.contenders
        )

    def test_wrong_stack_size_rejected(self):
        rng = np.random.default_rng(17)
        adj, channels, tx_role, coins = self._rig(rng)
        with pytest.raises(ProtocolError):
            resolve_step_batch(adj[:2], channels, tx_role, coins)


def tiny_cseek_sweep(**kwargs):
    """Three same-shape CSEEK points (an activity axis) — one group."""
    base = dict(
        name="tiny-xbatch-cseek",
        title="tiny xbatch cseek sweep",
        trials=3,
        sweep=SweepSpec(axes={"activity": [0.0, 0.4, 0.8]}),
        topology=TopologySpec("path", {"n": 6}),
        assignment=AssignmentSpec(c=4, k=2),
        interference=InterferenceSpec(activity="$activity"),
        protocol=ProtocolSpec("cseek"),
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


def tiny_count_sweep(**kwargs):
    """Same-rig COUNT points (an activity axis) — one flattened group."""
    base = dict(
        name="tiny-xbatch-count",
        title="tiny xbatch count sweep",
        trials=6,
        sweep=SweepSpec(axes={"activity": [0.0, 0.5]}),
        interference=InterferenceSpec(activity="$activity"),
        protocol=ProtocolSpec(
            "count", {"m": 4, "max_count": 8, "log_n": 3}
        ),
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


class TestScenarioXBatch:
    def test_cseek_rows_match_batch(self):
        spec = tiny_cseek_sweep()
        batch = run_scenario_spec(spec, seed=2, jobs="batch")
        xbatch = run_scenario_spec(spec, seed=2, jobs="xbatch")
        assert xbatch.rows == batch.rows

    def test_chunked_xbatch_rows_match(self):
        spec = tiny_cseek_sweep()
        whole = run_scenario_spec(spec, seed=2, jobs="xbatch")
        chunked = run_scenario_spec(spec, seed=2, jobs="xbatch:2")
        assert chunked.rows == whole.rows

    def test_count_rows_match_across_strategies(self):
        spec = tiny_count_sweep()
        serial = run_scenario_spec(spec, seed=4, jobs=None)
        xbatch = run_scenario_spec(spec, seed=4, jobs="xbatch")
        assert xbatch.rows == serial.rows

    def test_mixed_shape_sweep_splits_into_groups(self):
        # Two n values -> two signatures; grouping must degrade to two
        # groups, never mix shapes, and still match per-point rows.
        spec = tiny_cseek_sweep(
            sweep=SweepSpec(
                axes={"n": [6, 8], "activity": [0.0, 0.5]}
            ),
            topology=TopologySpec("path", {"n": "$n"}),
        )
        batch = run_scenario_spec(spec, seed=6, jobs="batch")
        xbatch = run_scenario_spec(spec, seed=6, jobs="xbatch")
        assert xbatch.rows == batch.rows

    def test_plan_based_spec_falls_back_to_batch(self):
        spec = paper_spec("E1")
        batch = run_scenario_spec(spec, trials=2, seed=1, jobs="batch")
        xbatch = run_scenario_spec(spec, trials=2, seed=1, jobs="xbatch")
        assert xbatch.rows == batch.rows

    def test_xbatch_executor_parses(self):
        assert isinstance(get_executor("xbatch"), XBatchExecutor)
        assert get_executor("xbatch:64").batch_size == 64


class TestStreamingXBatch:
    def test_unconverging_stream_rows_match_per_point(self):
        # Impossible targets force every point to max_trials, so the
        # per-point and interleaved paths see identical trial counts
        # and must produce identical rows.
        spec = tiny_cseek_sweep(
            precision=PrecisionSpec(
                targets={"success": 1e-9},
                min_trials=4,
                max_trials=8,
                chunk=4,
            )
        )
        per_point = stream_scenario_spec(spec, seed=3, jobs=None)
        grouped = stream_scenario_spec(spec, seed=3, jobs="xbatch")
        assert grouped.rows == per_point.rows
        assert all(row["trials"] == 8 for row in grouped.rows)

    def test_converged_points_leave_the_group(self):
        spec = tiny_count_sweep(
            precision=PrecisionSpec(
                targets={"band_rate": 0.9},
                min_trials=4,
                max_trials=64,
                chunk=8,
            )
        )
        table = stream_scenario_spec(spec, seed=5, jobs="xbatch")
        assert all(row["converged"] for row in table.rows)
        assert all(row["trials"] <= 8 for row in table.rows)


class TestAdaptiveChunks:
    def test_geometric_growth_capped(self):
        executor = StreamingExecutor(chunk_size=16, initial_chunk=2)
        stream = RngHub(0).seed_stream(name="adaptive")
        sizes = [
            len(chunk)
            for chunk in executor.iter_chunks(
                lambda s: s, stream, max_trials=60
            )
        ]
        assert sizes == [2, 4, 8, 16, 16, 14]

    def test_default_stays_fixed(self):
        executor = StreamingExecutor(chunk_size=8)
        stream = RngHub(0).seed_stream(name="fixed")
        sizes = [
            len(chunk)
            for chunk in executor.iter_chunks(
                lambda s: s, stream, max_trials=20
            )
        ]
        assert sizes == [8, 8, 4]

    def test_initial_chunk_capped_at_chunk_size(self):
        executor = StreamingExecutor(chunk_size=4, initial_chunk=100)
        assert executor.initial_chunk == 4

    def test_adaptive_results_match_fixed(self):
        fixed = StreamingExecutor(chunk_size=8)
        adaptive = StreamingExecutor(chunk_size=8, initial_chunk=1)
        ref = [
            r
            for chunk in fixed.iter_chunks(
                lambda s: s * 2,
                RngHub(9).seed_stream(name="x"),
                max_trials=30,
            )
            for r in chunk
        ]
        got = [
            r
            for chunk in adaptive.iter_chunks(
                lambda s: s * 2,
                RngHub(9).seed_stream(name="x"),
                max_trials=30,
            )
            for r in chunk
        ]
        assert got == ref
