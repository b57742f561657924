"""CSEEK as a pairwise-exchange primitive (Section 5.1).

The paper's observation: "if we can solve neighbor discovery in ``T``
time, then we can use the same algorithm to allow each pair of neighbors
to exchange one message in ``T`` time" — a node that hears a neighbor's
identity equally hears any payload attached to it.

Two implementations:

:func:`simulated_exchange`
    Actually runs CSEEK and maps every heard identity to the sender's
    payload. Faithful but expensive (a full CSEEK execution per call).

:func:`oracle_exchange`
    Delivers payloads along *already-discovered* neighbor pairs and
    charges the CSEEK schedule length to the ledger without simulating
    the slots: the black-box reading of the primitive, which CGCAST's
    oracle mode and coloring loop apply inline as
    :func:`exchange_slot_cost` charges. Integration tests
    (``tests/test_coloring_simulated.py``) check it against
    :func:`simulated_exchange` on small instances.

Both return per-node dictionaries ``{sender: payload}``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.constants import ProtocolConstants
from repro.core.cseek import CSeek
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork

__all__ = [
    "exchange_slot_cost",
    "oracle_exchange",
    "simulated_exchange",
]


def exchange_slot_cost(
    knowledge: ModelKnowledge, constants: ProtocolConstants
) -> int:
    """Slot cost of one CSEEK-based exchange (the ``T`` of Section 5.1)."""
    kn = knowledge
    rounds_per_step = kn.log_delta  # back-off window in part two
    from repro.core.count import count_schedule

    count_rounds, round_len = count_schedule(
        kn.max_degree, kn.log_n, constants
    )
    part1 = constants.part1_steps(kn.c, kn.k, kn.log_n) * (
        count_rounds * round_len
    )
    part2 = (
        constants.part2_steps(kn.kmax, kn.k, kn.max_degree, kn.log_n)
        * rounds_per_step
    )
    return part1 + part2


def simulated_exchange(
    network: CRNetwork,
    payloads: Sequence[object],
    knowledge: Optional[ModelKnowledge] = None,
    constants: Optional[ProtocolConstants] = None,
    seed: int = 0,
    rng_label: str = "exchange",
    ledger: Optional[SlotLedger] = None,
) -> List[Dict[int, object]]:
    """Run CSEEK once so each neighbor pair exchanges one payload.

    Args:
        network: Ground-truth network.
        payloads: ``payloads[v]`` is the message node ``v`` attaches to
            its identity for this execution.
        knowledge, constants, seed, rng_label: As in :class:`CSeek`.
        ledger: Optional ledger to charge the slots to (phase
            ``"exchange"``).

    Returns:
        Per-node dict mapping heard sender to that sender's payload.
    """
    if len(payloads) != network.n:
        raise ProtocolError(
            f"need one payload per node ({network.n}), got {len(payloads)}"
        )
    cseek = CSeek(
        network,
        knowledge=knowledge,
        constants=constants,
        seed=seed,
        rng_label=rng_label,
    )
    result = cseek.run()
    if ledger is not None:
        ledger.charge("exchange", result.total_slots)
    return [
        {v: payloads[v] for v in sorted(result.discovered[u])}
        for u in range(network.n)
    ]


def oracle_exchange(
    neighbor_sets: Sequence[Set[int]],
    payloads: Sequence[object],
    knowledge: ModelKnowledge,
    constants: ProtocolConstants,
    ledger: Optional[SlotLedger] = None,
) -> List[Dict[int, object]]:
    """Deliver payloads along known neighbor pairs, charging CSEEK's cost.

    The black-box reading of the exchange primitive: discovery has
    already happened, so a CSEEK re-run succeeds between every discovered
    pair w.h.p.; we deliver deterministically and charge
    :func:`exchange_slot_cost` slots.

    Args:
        neighbor_sets: ``neighbor_sets[u]`` = identities ``u`` knows
            (from a prior discovery run). Delivery happens for ordered
            pairs where the *listener* knows the sender.
        payloads: ``payloads[v]`` = node ``v``'s message.
        knowledge: Global parameters (for the slot cost).
        constants: Schedule constants (for the slot cost).
        ledger: Optional ledger to charge (phase ``"exchange"``).

    Returns:
        Per-node dict mapping sender to payload.
    """
    n = len(neighbor_sets)
    if len(payloads) != n:
        raise ProtocolError(
            f"need one payload per node ({n}), got {len(payloads)}"
        )
    if ledger is not None:
        ledger.charge("exchange", exchange_slot_cost(knowledge, constants))
    return [
        {v: payloads[v] for v in sorted(neighbor_sets[u])} for u in range(n)
    ]
