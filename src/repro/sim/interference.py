"""Primary-user interference (the paper's motivating disruption).

Cognitive radios are secondary users: licensed (primary) users may
occupy channels at any time, and a slot on an occupied channel is lost
— the listener perceives noise, indistinguishable from silence in the
no-collision-detection model. The paper motivates heterogeneous channel
availability with exactly this scenario (Section 1); the *algorithms*
are analyzed on a static assignment, so interference here is a
robustness extension: it lets experiments measure how much schedule
slack CSEEK's w.h.p. budgets leave (experiment E11).

:class:`PrimaryUserTraffic` models each channel as an independent
ON/OFF Markov chain with a target stationary occupancy (``activity``)
and geometric dwell times (``mean_dwell`` slots per ON burst),
producing occupancy as a stream so protocol executions consume it
block by block, reproducibly from one seed.

This class predates the pluggable spectrum-environment subsystem
(:mod:`repro.sim.environment`) and remains as a thin single-trial view
of :class:`~repro.sim.environment.MarkovTraffic` seeded directly by
``seed`` (``jammer=`` on the protocols still accepts it); both advance
their chains with the one closed-form
:func:`~repro.sim.environment.markov_run` scan. New code should
construct a
:class:`~repro.sim.environment.SpectrumEnvironment` instead — the
environment serves serial and trial-batched execution alike and opens
the door to non-Markovian traffic models.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.environment import MarkovTraffic, _SerialStream

__all__ = ["PrimaryUserTraffic"]


class PrimaryUserTraffic(_SerialStream):
    """Sequential ON/OFF occupancy over a set of global channels.

    Args:
        channel_ids: Global channel ids the primary users may occupy.
        activity: Target stationary occupied fraction per channel, in
            ``[0, 1)``.
        mean_dwell: Mean ON-burst length in slots (``>= 1``); OFF
            lengths follow from the stationarity constraint.
        seed: Randomness seed.

    Feasibility: with geometric ON bursts of mean ``mean_dwell``, the
    OFF->ON transition probability needed for stationarity is
    ``activity / (mean_dwell * (1 - activity))`` and saturates at 1.
    Targets beyond ``mean_dwell / (mean_dwell + 1)`` are therefore
    unreachable — the chain then turns ON every OFF slot and the
    realized occupancy plateaus at that cap. The
    :attr:`realized_activity` property reports the stationary fraction
    the chain actually attains.

    ``occupied_block(num_slots)`` returns ``(num_slots, num_channels)``
    occupancy; ``jam_mask(channels, num_slots)`` the ``(num_slots, n)``
    per-node kill mask (idle ``-1`` and unmanaged channels never jam).
    """

    def __init__(
        self,
        channel_ids: Sequence[int],
        activity: float,
        mean_dwell: float = 8.0,
        seed: int = 0,
    ) -> None:
        self._env = MarkovTraffic(
            channel_ids, activity, mean_dwell=mean_dwell, seed_offset=0
        )
        super().__init__(self._env.streams([seed]))
        self.activity = activity
        self.mean_dwell = mean_dwell

    @property
    def realized_activity(self) -> float:
        """The stationary occupancy the chain actually attains.

        Equals ``activity`` whenever the target is feasible for the
        requested dwell, and the ``mean_dwell / (mean_dwell + 1)`` cap
        otherwise (see the class docstring).
        """
        return self._env.realized_activity
