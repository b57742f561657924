"""CGCAST — global broadcast (Section 5, Theorem 9).

Pipeline (paper, Section 5.2):

1. **Discovery** — run CSEEK so every node learns its neighbors
   (``Õ(c²/k + (kmax/k)·Δ)`` slots).
2. **Meeting-time exchange** — run the exchange primitive once so every
   pair learns each other's first-meeting slots, from which both fix a
   dedicated communication channel (no global labels needed).
3. **Edge coloring** — color the line graph of the discovered graph with
   ``2Δ`` colors via Luby phases, each phase exchanging tentative and
   final colors (``Õ((c²/k + (kmax/k)·Δ) · lg n)`` slots).
4. **Color announcement** — one more exchange so both endpoints of every
   edge know its color.
5. **Dissemination** — ``D`` phases of ``2Δ`` color-steps push the
   message one hop per phase (``Õ(D·Δ)`` slots).

The ``exchange_mode`` knob selects whether steps 2-4 *simulate* their
CSEEK executions slot-by-slot (``"simulated"``) or deliver messages along
discovered pairs while charging the CSEEK slot cost (``"oracle"``, the
black-box reading used for large sweeps — see :mod:`repro.core.exchange`).
Dissemination is always simulated at slot level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

import numpy as np

from repro.core.coloring import ColoringResult
from repro.core.constants import ProtocolConstants
from repro.core.cseek import CSeekResult
from repro.core.dissemination import DisseminationResult, run_dissemination
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork

__all__ = ["CGCast", "CGCastResult", "redisseminate"]

Edge = Tuple[int, int]
ExchangeMode = Literal["oracle", "simulated"]


@dataclass
class CGCastResult:
    """Outcome of a CGCAST execution.

    Attributes:
        informed: ``(n,)`` boolean; who holds the message.
        informed_slot: ``(n,)`` global slot of first reception (source 0,
            uninformed -1), offset by all pre-dissemination phases.
        ledger: Slots per phase: ``discovery``, ``exchange`` (meeting
            times + color announcement), ``coloring``, ``dissemination``.
        discovery: The underlying CSEEK result.
        coloring: The underlying coloring result.
        coloring_valid: Whether the produced edge coloring was proper.
        dissemination: The underlying dissemination result.
        edge_colors: The announced proper edge coloring (reusable).
        dedicated: The agreed per-edge dedicated channels (reusable).
        knowledge: The global parameters the schedule was built with.
        constants: The schedule constants the schedule was built with.
        success: True iff every node was informed.

    The ``edge_colors`` / ``dedicated`` artifacts are the amortizable
    part of CGCAST: once built they schedule *any* number of later
    broadcasts at dissemination-only cost (see
    :func:`redisseminate`).
    """

    informed: np.ndarray
    informed_slot: np.ndarray
    ledger: SlotLedger
    discovery: CSeekResult
    coloring: ColoringResult
    coloring_valid: bool
    dissemination: DisseminationResult
    edge_colors: Dict[Edge, int]
    dedicated: Dict[Edge, int]
    knowledge: ModelKnowledge
    constants: ProtocolConstants

    @property
    def success(self) -> bool:
        return bool(self.informed.all())

    @property
    def total_slots(self) -> int:
        """Total slots charged across all phases."""
        return self.ledger.total

    @property
    def completion_slot(self) -> Optional[int]:
        """Global slot when the last node became informed."""
        if not self.success:
            return None
        return int(self.informed_slot.max())


class CGCast:
    """One CGCAST execution.

    Args:
        network: Ground-truth network.
        source: The node holding the message initially.
        knowledge: Global parameters; defaults to realized values.
        constants: Schedule constants; defaults to
            :meth:`ProtocolConstants.fast`.
        seed: Experiment seed.
        exchange_mode: ``"oracle"`` (charge CSEEK cost, deliver along
            discovered pairs) or ``"simulated"`` (slot-level CSEEK runs
            for the exchanges).
        coloring_loss_rate: Exchange-loss injection inside the coloring
            loop (failure-mode experiments).
        early_stop: Stop dissemination phases once everyone is informed.
        discovery: Optional precomputed CSEEK result to use as phase 1.
            Must be the execution this instance would run itself (same
            network/knowledge/constants/environment,
            ``rng_label="cgcast.discovery"``, this seed) for results to
            stay bit-identical — which is exactly what
            :func:`repro.core.cseek_batch.batched_discovery`
            produces, letting Monte Carlo sweeps batch CGCAST's most
            expensive phase across the trial axis.
        environment: Optional spectrum environment
            (:class:`repro.sim.environment.SpectrumEnvironment`)
            applied to the discovery phase — the one phase that runs
            CSEEK slot-for-slot under the default oracle exchange
            mode. Primary users erode the discovered graph, which the
            later phases (and the success metric) then inherit.
    """

    def __init__(
        self,
        network: CRNetwork,
        source: int = 0,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        seed: int = 0,
        exchange_mode: ExchangeMode = "oracle",
        coloring_loss_rate: float = 0.0,
        early_stop: bool = True,
        discovery: Optional[CSeekResult] = None,
        environment=None,
    ) -> None:
        if exchange_mode not in ("oracle", "simulated"):
            raise ProtocolError(f"unknown exchange mode: {exchange_mode!r}")
        if not 0 <= source < network.n:
            raise ProtocolError(
                f"source {source} out of range [0, {network.n})"
            )
        self.network = network
        self.source = source
        self.knowledge = knowledge or network.knowledge()
        self.constants = constants or ProtocolConstants.fast()
        self.seed = seed
        self.exchange_mode = exchange_mode
        self.coloring_loss_rate = coloring_loss_rate
        self.early_stop = early_stop
        self.precomputed_discovery = discovery
        self.environment = environment

    # ------------------------------------------------------------------
    def run(self) -> CGCastResult:
        """Execute the full pipeline; see module docstring.

        The one-seed case of :meth:`batch`, i.e. of
        :func:`~repro.core.cgcast_batch.run_cgcast_lockstep`.
        """
        discoveries = (
            None
            if self.precomputed_discovery is None
            else [self.precomputed_discovery]
        )
        return self.batch().run([self.seed], discoveries=discoveries)[0]

    @staticmethod
    def _mutual_edges(discovered: List[set]) -> List[Edge]:
        edges: List[Edge] = []
        for u in range(len(discovered)):
            for v in discovered[u]:
                if u < v and u in discovered[v]:
                    edges.append((u, v))
        return sorted(edges)

    @staticmethod
    def _assemble_edge_colors(
        simulator_colors: Dict[Edge, int],
        announced: List[Dict[int, Dict[Edge, int]]],
        n: int,
    ) -> Dict[Edge, int]:
        """Combine simulator-held colors with announcement receptions.

        Every edge whose simulator decided a color participates; the
        announcement lets the *other* endpoint learn it. In oracle mode
        delivery is reliable, so this equals ``simulator_colors``; in
        simulated mode an edge whose announcement was missed by the far
        endpoint is dropped (that endpoint cannot attend the color step),
        which the dissemination success metric then reflects. What the
        far endpoint must have received is the *announcement itself* —
        membership in its received payload dict, regardless of the
        announced value.
        """
        colors: Dict[Edge, int] = {}
        for edge, color in simulator_colors.items():
            u, v = edge
            simulator, other = (u, v) if u < v else (v, u)
            received = announced[other].get(simulator, {})
            if edge in received:
                colors[edge] = color
        return colors

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def batch(self) -> "object":
        """A :class:`~repro.core.cgcast_batch.CGCastBatch` with this
        configuration.

        The returned runner executes many trial seeds of this exact
        protocol (source, exchange mode, loss rate, early stop,
        environment) in lockstep across the trial axis;
        :meth:`run` is its one-seed case. Deferred import: the batch
        module depends on this one.
        """
        from repro.core.cgcast_batch import CGCastBatch

        return CGCastBatch.from_serial(self)


def redisseminate(
    network: CRNetwork,
    setup: CGCastResult,
    source: int,
    seed: int = 0,
    knowledge: Optional[ModelKnowledge] = None,
    constants: Optional[ProtocolConstants] = None,
    early_stop: bool = True,
) -> DisseminationResult:
    """Broadcast another message over an existing CGCAST schedule.

    CGCAST's expensive phases — discovery, dedicated-channel agreement,
    edge coloring — build *reusable* artifacts: in a long-lived network
    every later broadcast (from any source) only pays the
    ``Õ(D·Δ)`` dissemination stage. This is the amortized regime in
    which Theorem 9's comparison against the naive strawman's
    per-broadcast ``Õ((c²/k)·D)`` plays out at any network size
    (experiment E11).

    Args:
        network: The network the setup was built on.
        setup: A completed CGCAST result (its coloring must be valid).
        source: The new message's source node.
        seed: Back-off randomness for this dissemination.
        knowledge, constants: Override the ones the setup was scheduled
            with (``setup.knowledge`` / ``setup.constants``).
        early_stop: Stop once everyone is informed.

    Raises:
        ProtocolError: if the setup's coloring was not proper (a broken
            schedule must not be silently reused).
    """
    if not setup.coloring_valid:
        raise ProtocolError(
            "cannot reuse a CGCAST setup whose coloring was invalid"
        )
    return run_dissemination(
        network,
        source,
        setup.edge_colors,
        setup.dedicated,
        knowledge=knowledge or setup.knowledge,
        constants=constants or setup.constants,
        seed=seed,
        early_stop=early_stop,
    )
