"""Integration tests: slot-level simulated coloring exchanges.

:mod:`repro.core.exchange` promises the oracle exchange mode (charge
CSEEK's cost, deliver reliably) is validated against true slot-level
simulation on small instances — these tests are that validation.
"""

import pytest

from repro.core import (
    CGCast,
    LineGraph,
    LubyEdgeColoring,
    is_valid_edge_coloring,
)
from repro.model import ProtocolError


class TestSimulatedColoring:
    @pytest.mark.integration
    def test_simulated_matches_oracle_on_path(self, small_path_net):
        net = small_path_net
        lg = LineGraph.from_edges(net.edges())
        kn = net.knowledge()
        sim = LubyEdgeColoring(
            lg, kn, seed=5, exchange_mode="simulated", network=net
        ).run()
        oracle = LubyEdgeColoring(lg, kn, seed=5).run()
        # With w.h.p.-reliable exchanges the physical run reproduces the
        # oracle's colors, phase count, and slot accounting exactly.
        assert sim.complete and oracle.complete
        assert is_valid_edge_coloring(sim.colors, lg.edges)
        assert sim.colors == oracle.colors
        assert sim.phases_used == oracle.phases_used
        assert sim.ledger.total == oracle.ledger.total

    @pytest.mark.integration
    def test_simulated_valid_on_clique_chain(self, clique_chain_net):
        net = clique_chain_net
        lg = LineGraph.from_edges(net.edges())
        result = LubyEdgeColoring(
            lg,
            net.knowledge(),
            seed=6,
            exchange_mode="simulated",
            network=net,
        ).run()
        assert result.complete
        assert is_valid_edge_coloring(result.colors, lg.edges)

    def test_simulated_requires_network(self, small_path_net):
        lg = LineGraph.from_edges(small_path_net.edges())
        with pytest.raises(ProtocolError, match="requires the physical"):
            LubyEdgeColoring(
                lg, small_path_net.knowledge(), exchange_mode="simulated"
            )

    def test_rejects_unknown_mode(self, small_path_net):
        lg = LineGraph.from_edges(small_path_net.edges())
        with pytest.raises(ProtocolError, match="unknown exchange mode"):
            LubyEdgeColoring(
                lg, small_path_net.knowledge(), exchange_mode="psychic"
            )

    @pytest.mark.integration
    def test_cgcast_simulated_charges_real_coloring_slots(
        self, small_path_net
    ):
        result = CGCast(
            small_path_net, source=0, seed=7, exchange_mode="simulated"
        ).run()
        assert result.success
        assert result.coloring_valid
        assert result.ledger.get("coloring") > 0
