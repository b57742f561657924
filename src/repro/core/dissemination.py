"""Color-scheduled message dissemination (Section 5.2, Theorem 9).

After edge coloring, CGCAST disseminates the source's message in ``D``
phases. Each phase has ``2*Delta`` steps — one per color. In the step
for color ``K``, exactly the endpoints of ``K``-colored edges
participate: properness guarantees a node has at most one incident
``K``-edge, so each participant tunes to that edge's dedicated channel.
Informed participants run a back-off broadcast (``Theta(lg n)`` rounds of
``lg Delta`` slots — contention can still occur because distinct
``K``-edges may share a physical channel); uninformed participants
listen for the whole step.

Each phase pushes the message at least one hop w.h.p. (the proof of
Theorem 9), so ``D`` phases inform everyone.

There is one program: :func:`run_dissemination_batch` runs ``B`` trials
in lockstep, and :func:`run_dissemination` is its one-trial case. Per
trial, results equal field for field those of the one-trial,
one-step-at-a-time program kept as ``tests/cgcast_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.constants import ProtocolConstants
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.engine import resolve_step_batch
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.rng import RngHub

__all__ = [
    "DisseminationResult",
    "build_color_channels",
    "run_dissemination",
    "run_dissemination_batch",
]

Edge = Tuple[int, int]


@dataclass
class DisseminationResult:
    """Outcome of the dissemination stage.

    Attributes:
        informed: ``(n,)`` boolean; who holds the message at the end.
        informed_slot: ``(n,)`` int; stage-local slot at which each node
            first received the message (0 for the source, -1 if never).
        ledger: Slots charged (phase ``"dissemination"``).
        phases_run: Phases executed (early stop may end before ``D``).
        scheduled_slots: Full ``D * 2*Delta * rounds * lg Delta`` budget.
        success: True iff every node is informed.
    """

    informed: np.ndarray
    informed_slot: np.ndarray
    ledger: SlotLedger
    phases_run: int
    scheduled_slots: int

    @property
    def success(self) -> bool:
        return bool(self.informed.all())

    @property
    def completion_slot(self) -> Optional[int]:
        """Stage-local slot when the last node became informed."""
        if not self.success:
            return None
        return int(self.informed_slot.max())


def _validate_schedule(
    edge_colors: Dict[Edge, int],
    dedicated: Dict[Edge, int],
    num_colors: int,
) -> None:
    """The schedule checks of one trial's dissemination inputs."""
    for edge, color in edge_colors.items():
        if not 0 <= color < num_colors:
            raise ProtocolError(
                f"edge {edge} has color {color} outside [0, {num_colors})"
            )
        if edge not in dedicated:
            raise ProtocolError(f"edge {edge} has no dedicated channel")


def _raise_improper(
    edge_colors: Dict[Edge, int], dedicated: Dict[Edge, int], n: int
) -> None:
    """Locate and report the first properness violation.

    Replays the historical per-edge scan so the reported (node, color)
    pair — and hence the error text — is exactly the one the original
    per-edge precompute loop raised.
    """
    for color in sorted(set(edge_colors.values())):
        seen = np.zeros(n, dtype=bool)
        for edge, col in edge_colors.items():
            if col != color:
                continue
            for endpoint in edge:
                if seen[endpoint]:
                    raise ProtocolError(
                        f"node {endpoint} has two edges colored {color}; "
                        "the coloring is not proper"
                    )
            seen[edge[0]] = True
            seen[edge[1]] = True
    raise ProtocolError(
        "coloring is not proper"
    )  # pragma: no cover - duplicate detection implies a violation above


def build_color_channels(
    edge_colors: Dict[Edge, int],
    dedicated: Dict[Edge, int],
    n: int,
) -> Dict[int, np.ndarray]:
    """Per-color participant channel vectors, in ascending color order.

    For each color present in ``edge_colors``, builds the ``(n,)``
    vector whose entry ``u`` is the dedicated channel of ``u``'s unique
    edge of that color (``-1`` for non-participants) — the step inputs
    of the dissemination loop. One vectorized scatter replaces the
    per-color-per-edge dict scan; the resulting dict is identical
    (same keys in the same ascending order, same arrays) to the
    historical loop, and an improper coloring raises the identical
    :class:`ProtocolError`. Used by :func:`run_dissemination_batch`.

    Raises:
        ProtocolError: if some node has two same-colored edges (the
            coloring is not proper).
    """
    if not edge_colors:
        return {}
    edges = np.array(list(edge_colors.keys()), dtype=np.int64)
    colors = np.fromiter(
        edge_colors.values(), dtype=np.int64, count=len(edge_colors)
    )
    chans = np.fromiter(
        (dedicated[e] for e in edge_colors),
        dtype=np.int64,
        count=len(edge_colors),
    )
    # Properness <=> every (color, endpoint) pair occurs at most once.
    pair_keys = (colors[:, None] * n + edges).reshape(-1)
    if np.unique(pair_keys).size != pair_keys.size:
        _raise_improper(edge_colors, dedicated, n)
    color_ids, color_idx = np.unique(colors, return_inverse=True)
    mat = np.full((color_ids.size, n), -1, dtype=np.int64)
    mat[color_idx, edges[:, 0]] = chans
    mat[color_idx, edges[:, 1]] = chans
    return {int(c): mat[i] for i, c in enumerate(color_ids)}


def run_dissemination(
    network: CRNetwork,
    source: int,
    edge_colors: Dict[Edge, int],
    dedicated: Dict[Edge, int],
    knowledge: Optional[ModelKnowledge] = None,
    constants: Optional[ProtocolConstants] = None,
    seed: int = 0,
    early_stop: bool = True,
) -> DisseminationResult:
    """Run the color-scheduled dissemination of one message.

    Args:
        network: Ground-truth network.
        source: The initially informed node.
        edge_colors: Proper coloring of (discovered) edges; colors must
            lie in ``[0, 2*Delta)``.
        dedicated: Global dedicated channel per edge; every colored edge
            needs one.
        knowledge: Global parameters (``D`` bounds the phase count,
            ``2*Delta`` the steps per phase).
        constants: Schedule constants (rounds per step).
        seed: Randomness seed for back-off coins.
        early_stop: Stop after the first phase in which everyone is
            informed (the slot ledger then reflects actual usage; the
            scheduled budget is still reported).

    Returns:
        A :class:`DisseminationResult`: the one-trial case of
        :func:`run_dissemination_batch`.
    """
    return run_dissemination_batch(
        network.adjacency,
        source,
        [edge_colors],
        [dedicated],
        knowledge=knowledge or network.knowledge(),
        constants=constants,
        seeds=[seed],
        early_stop=early_stop,
    )[0]


def run_dissemination_batch(
    adjacency: np.ndarray,
    sources: Union[int, Sequence[int]],
    edge_colors_list: Sequence[Dict[Edge, int]],
    dedicated_list: Sequence[Dict[Edge, int]],
    knowledge: ModelKnowledge,
    constants: Optional[ProtocolConstants] = None,
    seeds: Sequence[int] = (),
    early_stop: bool = True,
) -> List[DisseminationResult]:
    """Run ``B`` dissemination trials in lockstep across the trial axis.

    All trials share the knowledge-derived schedule (``D`` phases of
    ``2*Delta`` color-steps of ``rounds * lg Delta`` slots); per trial,
    the schedule artifacts (edge colors and dedicated channels), the
    source, the back-off seed — and, through a ``(B, n, n)`` adjacency
    stack, the network — may differ. Each (phase, color) step resolves
    as *one* :func:`repro.sim.engine.resolve_step_batch` call over the
    trials whose schedule contains that color, with per-trial channel
    vectors; informed-slot bookkeeping is vectorized across the batch,
    and an active-trial mask implements per-trial ``early_stop`` at
    phase granularity (a trial keeps drawing through the remainder of
    the phase that informs its last node, exactly as the one-trial
    step loop does).

    Bit-exactness contract: trial ``b`` draws its back-off coins from
    its own ``RngHub(seeds[b]).child("dissemination")`` stream in
    schedule order — colors absent from its schedule draw nothing — so
    result ``b`` is field-for-field identical to the one-trial,
    one-step-at-a-time program kept as ``tests/cgcast_reference.py``
    (``reference_dissemination``) with the same inputs. Batch size is a
    pure throughput decision; this is the one dissemination program,
    behind :func:`run_dissemination`,
    :class:`repro.core.cgcast_batch.CGCastBatch` and
    :func:`repro.core.cgcast_batch.redisseminate_batch`.

    Args:
        adjacency: ``(n, n)`` shared or ``(B, n, n)`` per-trial boolean
            adjacency.
        sources: The initially informed node — one int shared by every
            trial, or a per-trial sequence.
        edge_colors_list: Per-trial proper edge colorings.
        dedicated_list: Per-trial dedicated channels per edge.
        knowledge: Global parameters shared by every trial.
        constants: Schedule constants; defaults to
            :meth:`ProtocolConstants.fast`.
        seeds: Per-trial back-off seeds (defines ``B``).
        early_stop: Stop each trial after the first phase in which all
            of its nodes are informed.

    Returns:
        One :class:`DisseminationResult` per trial, in seed order.
    """
    kn = knowledge
    consts = constants or ProtocolConstants.fast()
    seeds = [int(s) for s in seeds]
    num_trials = len(seeds)
    if num_trials == 0:
        raise ProtocolError("seeds must name at least one trial")
    n = adjacency.shape[-1]
    if adjacency.ndim == 3 and adjacency.shape[0] != num_trials:
        raise ProtocolError(
            f"per-trial adjacency must have shape ({num_trials}, {n}, "
            f"{n}), got {adjacency.shape}"
        )
    if isinstance(sources, (int, np.integer)):
        source_arr = [int(sources)] * num_trials
    else:
        source_arr = [int(s) for s in sources]
    if len(source_arr) != num_trials:
        raise ProtocolError(
            f"need one source per trial ({num_trials}), "
            f"got {len(source_arr)}"
        )
    if len(edge_colors_list) != num_trials:
        raise ProtocolError(
            f"need one edge coloring per trial ({num_trials}), "
            f"got {len(edge_colors_list)}"
        )
    if len(dedicated_list) != num_trials:
        raise ProtocolError(
            f"need one dedicated-channel map per trial ({num_trials}), "
            f"got {len(dedicated_list)}"
        )
    for source in source_arr:
        if not 0 <= source < n:
            raise ProtocolError(f"source {source} out of range [0, {n})")
    num_colors = 2 * kn.max_degree
    color_channels: List[Dict[int, np.ndarray]] = []
    for edge_colors, dedicated in zip(edge_colors_list, dedicated_list):
        _validate_schedule(edge_colors, dedicated, num_colors)
        color_channels.append(build_color_channels(edge_colors, dedicated, n))

    rounds = consts.dissemination_rounds(kn.log_n)
    backoff_len = kn.log_delta
    slots_per_step = rounds * backoff_len
    scheduled_slots = kn.diameter * num_colors * slots_per_step
    probs = np.tile(
        2.0 ** -np.arange(backoff_len, 0, -1, dtype=float), rounds
    )

    rngs = [
        RngHub(s).child("dissemination").generator("backoff") for s in seeds
    ]
    trial_ids = np.arange(num_trials)
    informed = np.zeros((num_trials, n), dtype=bool)
    informed[trial_ids, source_arr] = True
    informed_slot = np.full((num_trials, n), -1, dtype=np.int64)
    informed_slot[trial_ids, source_arr] = 0
    active = np.ones(num_trials, dtype=bool)
    phases_run = np.zeros(num_trials, dtype=np.int64)
    # The slot cursor is shared: every active trial sits at the same
    # schedule position, and stopped trials never consult it again.
    slot_cursor = 0

    with obs.span("dissemination"):
        for _ in range(kn.diameter):
            if not active.any():
                break
            phases_run[active] += 1
            for color in range(num_colors):
                # Active trials lacking this color idle through the
                # step (their cursor advances, no coins are drawn), as
                # the paper's fixed step-per-color schedule has it.
                sub = [
                    b
                    for b in range(num_trials)
                    if active[b] and color in color_channels[b]
                ]
                if sub:
                    sub_idx = np.asarray(sub)
                    channels = np.stack(
                        [color_channels[b][color] for b in sub]
                    )
                    coins = np.empty(
                        (len(sub), slots_per_step, n), dtype=bool
                    )
                    for i, b in enumerate(sub):
                        coins[i] = (
                            rngs[b].random((slots_per_step, n))
                            < probs[:, None]
                        )
                    tx_role = (channels >= 0) & informed[sub_idx]
                    adj = (
                        adjacency[sub_idx]
                        if adjacency.ndim == 3
                        else adjacency
                    )
                    outcome = resolve_step_batch(
                        adj, channels, tx_role, coins
                    )
                    heard = outcome.heard_from >= 0
                    newly = heard.any(axis=1) & ~informed[sub_idx]
                    if newly.any():
                        first = np.argmax(heard, axis=1)
                        s_i, u_i = np.nonzero(newly)
                        informed_slot[sub_idx[s_i], u_i] = (
                            slot_cursor + first[s_i, u_i]
                        )
                        informed[sub_idx[s_i], u_i] = True
                slot_cursor += slots_per_step
            if early_stop:
                active &= ~informed.all(axis=1)

    results: List[DisseminationResult] = []
    for b in range(num_trials):
        ledger = SlotLedger()
        if phases_run[b]:
            # One charge per color step, including idle ones: the total
            # is a pure function of the phases the trial took part in.
            ledger.charge(
                "dissemination",
                int(phases_run[b]) * num_colors * slots_per_step,
            )
        results.append(
            DisseminationResult(
                informed=informed[b].copy(),
                informed_slot=informed_slot[b].copy(),
                ledger=ledger,
                phases_run=int(phases_run[b]),
                scheduled_slots=scheduled_slots,
            )
        )
    return results
