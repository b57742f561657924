"""Unit tests for CKSEEK (Theorem 6)."""

import pytest

from repro.core import CKSeek, CSeek, verify_k_discovery
from repro.model import ProtocolError, SpecError
from repro.sim import MarkovTraffic

from cseek_reference import assert_results_equal, reference_cseek


class TestBudgets:
    def test_part_one_shrinks_with_khat(self, hetero_net):
        kn = hetero_net.knowledge()
        full = CSeek(hetero_net, seed=0)
        filt = CKSeek(hetero_net, khat=kn.kmax, seed=0)
        assert filt.part1_step_budget < full.part1_step_budget

    def test_delta_khat_hint_shrinks_part_two(self, hetero_net):
        kn = hetero_net.knowledge()
        without = CKSeek(hetero_net, khat=kn.kmax, seed=0)
        with_hint = CKSeek(
            hetero_net,
            khat=kn.kmax,
            delta_khat=hetero_net.max_good_degree(kn.kmax),
            seed=0,
        )
        assert with_hint.part2_step_budget <= without.part2_step_budget

    def test_rejects_khat_outside_range(self, hetero_net):
        kn = hetero_net.knowledge()
        with pytest.raises(SpecError):
            CKSeek(hetero_net, khat=kn.k - 1)
        with pytest.raises(SpecError):
            CKSeek(hetero_net, khat=kn.kmax + 1)

    def test_rejects_bad_delta_khat(self, hetero_net):
        kn = hetero_net.knowledge()
        with pytest.raises(ProtocolError):
            CKSeek(hetero_net, khat=kn.kmax, delta_khat=kn.max_degree + 1)


class TestFilterDiscovery:
    def test_finds_all_good_neighbors(self, hetero_net):
        kn = hetero_net.knowledge()
        result = CKSeek(hetero_net, khat=kn.kmax, seed=1).run()
        report = verify_k_discovery(result, hetero_net, khat=kn.kmax)
        assert report.success, report.missing

    def test_discovered_are_true_neighbors(self, hetero_net):
        kn = hetero_net.knowledge()
        result = CKSeek(hetero_net, khat=kn.kmax, seed=2).run()
        truth = hetero_net.true_neighbor_sets()
        for u in range(hetero_net.n):
            assert result.discovered[u] <= set(truth[u])

    def test_run_matches_step_by_step_reference(self, hetero_net):
        kn = hetero_net.knowledge()
        env = MarkovTraffic(
            sorted(hetero_net.assignment.universe()),
            activity=0.3,
            mean_dwell=4.0,
        )
        for environment in (None, env):
            proto = CKSeek(
                hetero_net, khat=kn.kmax, seed=4, environment=environment
            )
            assert_results_equal(proto.run(), reference_cseek(proto))

    def test_khat_equal_k_degenerates_to_cseek_budget(self, hetero_net):
        kn = hetero_net.knowledge()
        filt = CKSeek(hetero_net, khat=kn.k, seed=3)
        full = CSeek(hetero_net, seed=3)
        assert filt.part1_step_budget == full.part1_step_budget

    def test_good_neighbor_ground_truth(self, hetero_net):
        kn = hetero_net.knowledge()
        good = hetero_net.good_neighbor_sets(kn.kmax)
        for u in range(hetero_net.n):
            for v in good[u]:
                assert hetero_net.edge_overlap(u, v) >= kn.kmax
