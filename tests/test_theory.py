"""Unit tests for the bound curves."""

import pytest

from repro.analysis import (
    broadcast_lower_bound,
    cgcast_bound,
    ckseek_bound,
    complete_game_floor,
    cseek_bound,
    hitting_game_floor,
    naive_broadcast_bound,
    naive_discovery_bound,
    nd_lower_bound,
    zeng_discovery_bound,
)
from repro.model import SpecError


class TestUpperBounds:
    def test_cseek_shape(self):
        assert cseek_bound(c=10, k=2, kmax=2, delta=5) == 50 + 5

    def test_cseek_with_polylog(self):
        value = cseek_bound(c=10, k=2, kmax=2, delta=5, n=16)
        assert value == 50 * 64 + 5 * 16

    def test_ckseek_decreases_in_khat(self):
        lo = ckseek_bound(c=10, khat=2, kmax=4, delta_khat=5, delta=5)
        hi = ckseek_bound(c=10, khat=4, kmax=4, delta_khat=5, delta=5)
        assert hi < lo

    def test_cgcast_shape(self):
        assert cgcast_bound(
            c=10, k=2, kmax=2, delta=5, diameter=4
        ) == 50 + 5 + 20

    def test_naive_bounds_multiply(self):
        assert naive_discovery_bound(c=10, k=2, delta=5) == 250
        assert naive_broadcast_bound(c=10, k=2, diameter=4) == 200

    def test_zeng_dominates_cseek(self):
        """Zeng's bound is never better than CSEEK's (Section 2)."""
        for c in (4, 8, 16):
            for k in (1, 2, 4):
                for delta in (2, 8, 32):
                    kmax = k  # c >= kmax always
                    assert zeng_discovery_bound(c, k, delta) >= cseek_bound(
                        c, k, kmax, delta
                    )

    def test_rejects_bad_core_params(self):
        with pytest.raises(SpecError):
            cseek_bound(c=4, k=5, kmax=5, delta=2)


class TestLowerBounds:
    def test_hitting_game_floor_beta2(self):
        # alpha = 2 * (2/1)^2 = 8.
        assert hitting_game_floor(c=8, k=2) == 64 / 16

    def test_hitting_game_floor_rejects_large_k(self):
        with pytest.raises(SpecError):
            hitting_game_floor(c=8, k=5)

    def test_hitting_game_floor_rejects_small_beta(self):
        with pytest.raises(SpecError):
            hitting_game_floor(c=8, k=2, beta=1.5)

    def test_complete_game_floor(self):
        assert complete_game_floor(9) == 3.0
        with pytest.raises(SpecError):
            complete_game_floor(0)

    def test_nd_lower_bound_branches(self):
        small_k = nd_lower_bound(c=8, k=2, delta=3)
        assert small_k == 8 * 8 / (8 * 2) + 3
        large_k = nd_lower_bound(c=8, k=6, delta=3)
        assert large_k == 8 / 3 + 3

    def test_broadcast_lower_bound_uses_min(self):
        wide = broadcast_lower_bound(c=4, k=1, delta=100, diameter=5)
        assert wide == 4 * 4 / 8 + 5 * 4
        narrow = broadcast_lower_bound(c=100, k=1, delta=4, diameter=5)
        assert narrow == 100 * 100 / 8 + 5 * 4

    def test_upper_respects_lower(self):
        """CSEEK's bound dominates the ND lower bound (consistency)."""
        for c in (4, 8, 16):
            for k in (1, 2):
                for delta in (2, 8):
                    assert cseek_bound(c, k, k, delta) >= 0.9 * nd_lower_bound(
                        c, k, delta
                    )
