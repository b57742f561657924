"""Step-by-step CGCAST: the reference the lockstep pipeline must match.

:meth:`repro.core.cgcast.CGCast.run` executes as the one-trial case of
:func:`repro.core.cgcast_batch.run_cgcast_lockstep`, and
:func:`repro.core.dissemination.run_dissemination` as the one-trial case
of :func:`repro.core.dissemination.run_dissemination_batch`. This module
keeps the plain programs they replaced — one trial, dict-based exchanges
and dedicated-channel agreement, one :func:`resolve_step` per
(phase, color) step — so the serial-vs-batch equivalence tests compare
two different programs rather than one program with itself. Discovery
runs through :class:`CSeek`, whose own reference is
``cseek_reference.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.cgcast import CGCast, CGCastResult, Edge
from repro.core.coloring import LubyEdgeColoring, is_valid_edge_coloring
from repro.core.constants import ProtocolConstants
from repro.core.cseek import CSeek
from repro.core.dedicated import agree_dedicated_channels, first_heard_payloads
from repro.core.dissemination import (
    DisseminationResult,
    _validate_schedule,
    build_color_channels,
)
from repro.core.exchange import oracle_exchange, simulated_exchange
from repro.core.linegraph import LineGraph
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.engine import resolve_step
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.rng import RngHub


def reference_cgcast(proto: CGCast) -> CGCastResult:
    """Run ``proto`` (a configured :class:`CGCast`) one stage at a time.

    Its seed, source, exchange mode, loss rate, early-stop policy,
    environment and any precomputed discovery are used as-is.
    """
    net = proto.network
    kn = proto.knowledge
    ledger = SlotLedger()

    # 1. Discovery ------------------------------------------------
    discovery = proto.precomputed_discovery
    if discovery is None:
        discovery = CSeek(
            net,
            knowledge=kn,
            constants=proto.constants,
            seed=proto.seed,
            rng_label="cgcast.discovery",
            environment=proto.environment,
        ).run()
    ledger.merge(discovery.ledger, prefix="discovery.")

    # 2. Meeting-time exchange + dedicated channels ----------------
    payloads = first_heard_payloads(discovery)
    received_times = _exchange(
        proto, discovery.discovered, payloads, "cgcast.times", ledger
    )
    mutual_edges = CGCast._mutual_edges(discovery.discovered)
    dedicated = agree_dedicated_channels(
        discovery, mutual_edges, received_times
    )

    # 3. Edge coloring ---------------------------------------------
    line_graph = LineGraph.from_edges(mutual_edges)
    with obs.span("luby_coloring"):
        coloring = LubyEdgeColoring(
            line_graph,
            kn,
            constants=proto.constants,
            seed=proto.seed,
            loss_rate=proto.coloring_loss_rate,
            exchange_mode=proto.exchange_mode,
            network=net if proto.exchange_mode == "simulated" else None,
        ).run()
    ledger.merge(coloring.ledger)

    # 4. Color announcement ----------------------------------------
    # Simulators tell the other endpoint each edge's color; one more
    # exchange execution.
    color_payloads: List[Dict[Edge, int]] = [{} for _ in range(net.n)]
    for edge, color in coloring.colors.items():
        simulator = min(edge)
        color_payloads[simulator][edge] = color
    announced = _exchange(
        proto, discovery.discovered, color_payloads, "cgcast.colors", ledger
    )
    edge_colors = CGCast._assemble_edge_colors(
        coloring.colors, announced, net.n
    )
    coloring_valid = is_valid_edge_coloring(edge_colors, mutual_edges)

    # 5. Dissemination ---------------------------------------------
    pre_slots = ledger.total
    dissemination = reference_dissemination(
        net,
        proto.source,
        edge_colors,
        dedicated,
        knowledge=kn,
        constants=proto.constants,
        seed=proto.seed,
        early_stop=proto.early_stop,
    )
    ledger.merge(dissemination.ledger)
    informed_slot = dissemination.informed_slot.copy()
    informed_slot[informed_slot >= 0] += pre_slots
    informed_slot[proto.source] = 0

    return CGCastResult(
        informed=dissemination.informed,
        informed_slot=informed_slot,
        ledger=ledger,
        discovery=discovery,
        coloring=coloring,
        coloring_valid=coloring_valid,
        dissemination=dissemination,
        edge_colors=edge_colors,
        dedicated=dedicated,
        knowledge=kn,
        constants=proto.constants,
    )


def _exchange(
    proto: CGCast,
    neighbor_sets: List[set],
    payloads: List[object],
    label: str,
    ledger: SlotLedger,
) -> List[Dict[int, object]]:
    if proto.exchange_mode == "simulated":
        # The simulated exchange runs a relabelled CSeek, which
        # records its own "oracle_exchange" span — no outer span, or
        # the stage would double-count.
        return simulated_exchange(
            proto.network,
            payloads,
            knowledge=proto.knowledge,
            constants=proto.constants,
            seed=proto.seed,
            rng_label=label,
            ledger=ledger,
        )
    with obs.span("oracle_exchange"):
        return oracle_exchange(
            neighbor_sets, payloads, proto.knowledge, proto.constants, ledger
        )


def reference_dissemination(
    network: CRNetwork,
    source: int,
    edge_colors: Dict[Edge, int],
    dedicated: Dict[Edge, int],
    knowledge: Optional[ModelKnowledge] = None,
    constants: Optional[ProtocolConstants] = None,
    seed: int = 0,
    early_stop: bool = True,
) -> DisseminationResult:
    """Run the color-scheduled dissemination of one message, one
    (phase, color) step per engine call.

    Same arguments and result as
    :func:`repro.core.dissemination.run_dissemination`.
    """
    kn = knowledge or network.knowledge()
    consts = constants or ProtocolConstants.fast()
    n = network.n
    if not 0 <= source < n:
        raise ProtocolError(f"source {source} out of range [0, {n})")
    num_colors = 2 * kn.max_degree
    _validate_schedule(edge_colors, dedicated, num_colors)

    rounds = consts.dissemination_rounds(kn.log_n)
    backoff_len = kn.log_delta
    slots_per_step = rounds * backoff_len
    scheduled_slots = kn.diameter * num_colors * slots_per_step
    # Ascending back-off probabilities, tiled across the step's rounds.
    probs = np.tile(
        2.0 ** -np.arange(backoff_len, 0, -1, dtype=float), rounds
    )

    color_channels = build_color_channels(edge_colors, dedicated, n)

    rng = RngHub(seed).child("dissemination").generator("backoff")
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_slot = np.full(n, -1, dtype=np.int64)
    informed_slot[source] = 0
    ledger = SlotLedger()
    slot_cursor = 0
    phases_run = 0

    with obs.span("dissemination"):
        for _ in range(kn.diameter):
            phases_run += 1
            for color in range(num_colors):
                channels = color_channels.get(color)
                if channels is None:
                    # No edge has this color; the step still occupies
                    # its scheduled slots (nodes idle), matching the
                    # paper's fixed step-per-color schedule.
                    slot_cursor += slots_per_step
                    ledger.charge("dissemination", slots_per_step)
                    continue
                participating = channels >= 0
                tx_role = participating & informed
                coins = rng.random((slots_per_step, n)) < probs[:, None]
                outcome = resolve_step(
                    network.adjacency, channels, tx_role, coins
                )
                heard = outcome.heard_from >= 0
                # A node is informed at the earliest slot it heard *any*
                # message in this step: only informed nodes transmit
                # here, and the message is always the broadcast payload.
                newly = heard.any(axis=0) & ~informed
                if newly.any():
                    first = np.argmax(heard, axis=0)
                    informed_slot[newly] = slot_cursor + first[newly]
                    informed[newly] = True
                slot_cursor += slots_per_step
                ledger.charge("dissemination", slots_per_step)
            if early_stop and informed.all():
                break

    return DisseminationResult(
        informed=informed,
        informed_slot=informed_slot,
        ledger=ledger,
        phases_run=phases_run,
        scheduled_slots=scheduled_slots,
    )


def assert_dissemination_equal(
    got: DisseminationResult, ref: DisseminationResult
) -> None:
    """Field-for-field bit-identity of two dissemination results."""
    assert np.array_equal(got.informed, ref.informed)
    assert np.array_equal(got.informed_slot, ref.informed_slot)
    assert got.ledger.as_dict() == ref.ledger.as_dict()
    assert got.phases_run == ref.phases_run
    assert got.scheduled_slots == ref.scheduled_slots


def assert_results_equal(got: CGCastResult, ref: CGCastResult) -> None:
    """Field-for-field bit-identity of two CGCAST results."""
    assert np.array_equal(got.informed, ref.informed)
    assert np.array_equal(got.informed_slot, ref.informed_slot)
    assert got.ledger.as_dict() == ref.ledger.as_dict()
    assert got.edge_colors == ref.edge_colors
    assert got.dedicated == ref.dedicated
    assert got.coloring_valid == ref.coloring_valid
    assert got.success == ref.success
    assert got.total_slots == ref.total_slots
    assert got.completion_slot == ref.completion_slot
    assert got.knowledge == ref.knowledge
    assert got.constants == ref.constants
    # Underlying stage results.
    assert got.discovery.discovered == ref.discovery.discovered
    assert got.discovery.ledger.as_dict() == ref.discovery.ledger.as_dict()
    assert got.coloring.colors == ref.coloring.colors
    assert got.coloring.phases_used == ref.coloring.phases_used
    assert_dissemination_equal(got.dissemination, ref.dissemination)
