"""Unit tests for reusing a CGCAST schedule (redisseminate)."""

import dataclasses

import pytest

from repro.core import (
    CGCast,
    ProtocolConstants,
    redisseminate,
    redisseminate_batch,
)
from repro.graphs import build_network, path
from repro.model import ProtocolError

from cgcast_reference import assert_dissemination_equal


@pytest.fixture(scope="module")
def setup_result(clique_chain_net):
    result = CGCast(clique_chain_net, source=0, seed=1).run()
    assert result.success
    return result


class TestRedisseminate:
    def test_second_message_delivers(self, clique_chain_net, setup_result):
        diss = redisseminate(clique_chain_net, setup_result, source=0, seed=2)
        assert diss.success

    def test_any_source_works(self, clique_chain_net, setup_result):
        last = clique_chain_net.n - 1
        diss = redisseminate(
            clique_chain_net, setup_result, source=last, seed=3
        )
        assert diss.success
        assert diss.informed_slot[last] == 0

    def test_costs_only_dissemination(self, clique_chain_net, setup_result):
        diss = redisseminate(clique_chain_net, setup_result, source=0, seed=4)
        assert diss.ledger.total <= setup_result.ledger.get("dissemination") * 4
        assert diss.ledger.total < setup_result.total_slots / 10

    def test_deterministic(self, clique_chain_net, setup_result):
        a = redisseminate(clique_chain_net, setup_result, source=2, seed=5)
        b = redisseminate(clique_chain_net, setup_result, source=2, seed=5)
        assert (a.informed_slot == b.informed_slot).all()

    def test_rejects_invalid_setup(self, clique_chain_net, setup_result):
        import dataclasses

        broken = dataclasses.replace(setup_result, coloring_valid=False)
        with pytest.raises(ProtocolError, match="invalid"):
            redisseminate(clique_chain_net, broken, source=0)

    def test_setup_artifacts_exposed(self, setup_result):
        assert setup_result.edge_colors
        assert set(setup_result.dedicated) == set(setup_result.edge_colors)


class TestScheduleParameters:
    """A reused schedule keeps the knowledge and constants it was built
    with, unless the caller overrides them."""

    @pytest.fixture(scope="class")
    def wide(self):
        # Knowledge that over-states Delta widens the color range past
        # what the realized network's own knowledge would allow, and
        # non-default constants change the rounds per color step.
        net = build_network(path(8), c=4, k=2, seed=0)
        kn = dataclasses.replace(net.knowledge(), max_degree=7)
        consts = dataclasses.replace(
            ProtocolConstants.fast(), dissemination_round_factor=3.0
        )
        setup = CGCast(net, knowledge=kn, constants=consts, seed=1).run()
        assert setup.coloring_valid
        return net, kn, consts, setup

    def test_setup_records_its_schedule(self, wide):
        net, kn, consts, setup = wide
        assert setup.knowledge == kn
        assert setup.constants == consts

    def test_redisseminate_defaults_to_setup_schedule(self, wide):
        net, kn, consts, setup = wide
        got = redisseminate(net, setup, source=7, seed=2)
        explicit = redisseminate(
            net, setup, source=7, seed=2, knowledge=kn, constants=consts
        )
        assert_dissemination_equal(got, explicit)
        rounds = consts.dissemination_rounds(kn.log_n)
        assert got.scheduled_slots == (
            kn.diameter * 2 * kn.max_degree * rounds * kn.log_delta
        )

    def test_redisseminate_batch_defaults_to_setup_schedule(self, wide):
        net, kn, consts, setup = wide
        got = redisseminate_batch(net, [setup, setup], 7, [2, 3])
        for s, g in zip((2, 3), got):
            assert_dissemination_equal(
                g, redisseminate(net, setup, source=7, seed=s)
            )

    def test_batch_rejects_mixed_schedules(self, wide):
        net, kn, consts, setup = wide
        plain = CGCast(net, seed=1).run()
        with pytest.raises(ProtocolError, match="different knowledge"):
            redisseminate_batch(net, [setup, plain], 7, [2, 3])
