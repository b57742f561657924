"""Protocol constants: the multipliers inside the paper's Theta(.)s.

Every schedule length in the paper is stated asymptotically — e.g. CSEEK
part one runs ``Theta((c^2/k) * lg n)`` steps of ``O(lg^2 n)`` slots. To
execute the algorithms we must pick the hidden constants. They are
gathered here as an explicit, validated dataclass so that

* experiments can state exactly what was run,
* the *shape* claims (scaling slopes, crossovers) can be verified
  independently of constant choices, and
* a "faithful" profile (large constants, paper-exact COUNT rule) and a
  "fast" profile (small constants, robust COUNT rule) can be swapped
  without touching algorithm code.

COUNT estimation rules
----------------------
``first_crossing`` is the paper's rule (Appendix A): accept the first
round whose heard-fraction exceeds ``(1 + delta) * 8 e^{-7}``. The rule
only separates signal from noise when rounds contain hundreds of slots
(the paper's ``Theta(lg n)`` hides a constant of several hundred), so it
is used by the faithful profile and exercised standalone in experiment
E1. ``argmax`` accepts the round with the most receptions — the heard
count peaks when the estimate matches the true broadcaster count (the
same unimodality the paper's analysis relies on, see the ``f(x)``
derivative argument in Appendix A) — and stays within a constant factor
even with short rounds, so the fast profile uses it inside full protocol
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from repro.model.errors import SpecError

__all__ = ["ProtocolConstants", "CountRule"]

CountRule = Literal["first_crossing", "argmax"]

# The paper's Appendix A threshold: a listener accepts round i once the
# fraction of slots with a clear message exceeds (1 + delta) * 8 e^{-7}.
PAPER_COUNT_THRESHOLD = 8.0 * math.exp(-7.0)


@dataclass(frozen=True)
class ProtocolConstants:
    """Hidden-constant choices for every schedule in the reproduction.

    Attributes:
        count_round_slots: Constant ``a`` in COUNT's round length
            ``ceil(a * lg n)`` slots.
        count_rule: COUNT estimation rule (see module docstring).
        count_delta: The paper's ``delta`` in the first-crossing
            threshold ``(1 + delta) * 8 e^{-7}``.
        part1_factor: CSEEK part-one steps = ``ceil(part1_factor *
            (c^2/k) * lg n)``.
        part2_factor: CSEEK part-two steps = ``ceil(part2_factor *
            (kmax/k) * Delta * lg n)``.
        coloring_phase_factor: Luby coloring phases =
            ``ceil(coloring_phase_factor * lg n)`` (more phases may run if
            nodes remain active; experiments record the realized count).
        dissemination_round_factor: Rounds per dissemination step =
            ``ceil(dissemination_round_factor * lg n)``.
        naive_factor: Naive-baseline schedule stretch (applied to the
            baselines' own bounds).
    """

    count_round_slots: float = 4.0
    count_rule: CountRule = "argmax"
    count_delta: float = 0.5
    part1_factor: float = 8.0
    part2_factor: float = 8.0
    coloring_phase_factor: float = 4.0
    dissemination_round_factor: float = 2.0
    naive_factor: float = 8.0

    def __post_init__(self) -> None:
        positive = {
            "count_round_slots": self.count_round_slots,
            "part1_factor": self.part1_factor,
            "part2_factor": self.part2_factor,
            "coloring_phase_factor": self.coloring_phase_factor,
            "dissemination_round_factor": self.dissemination_round_factor,
            "naive_factor": self.naive_factor,
        }
        for name, value in positive.items():
            if value <= 0:
                raise SpecError(f"{name} must be positive, got {value}")
        if self.count_rule not in ("first_crossing", "argmax"):
            raise SpecError(f"unknown count rule: {self.count_rule!r}")
        if not 0.0 < self.count_delta < 1.0:
            raise SpecError(
                f"count_delta must be in (0, 1), got {self.count_delta}"
            )

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    @classmethod
    def fast(cls) -> "ProtocolConstants":
        """Sweep profile: robust argmax COUNT, short rounds.

        The part factors are calibrated empirically:
        a directed pair meets with the roles right in a part-one step
        with probability ``k_uv / (4 c^2)``, so ``part1_factor = 8``
        yields ``~2 lg n`` expected meetings per pair — enough for
        per-network w.h.p. discovery while staying laptop-fast.
        """
        return cls(
            count_round_slots=3.0,
            count_rule="argmax",
            part1_factor=8.0,
            part2_factor=8.0,
            coloring_phase_factor=4.0,
            dissemination_round_factor=2.0,
            naive_factor=8.0,
        )

    @classmethod
    def faithful(cls) -> "ProtocolConstants":
        """Paper-exact COUNT rule with rounds long enough for it to work.

        The first-crossing threshold ``~8e-7 * 8`` only exceeds one
        message per round once rounds have several hundred slots; see
        module docstring. Use for validation, not sweeps.
        """
        return cls(
            count_round_slots=96.0,
            count_rule="first_crossing",
            part1_factor=10.0,
            part2_factor=10.0,
            coloring_phase_factor=6.0,
            dissemination_round_factor=3.0,
            naive_factor=10.0,
        )

    def with_rule(self, rule: CountRule) -> "ProtocolConstants":
        """Copy with a different COUNT estimation rule."""
        return replace(self, count_rule=rule)

    # ------------------------------------------------------------------
    # Derived schedule sizes
    # ------------------------------------------------------------------
    def count_round_length(self, log_n: int) -> int:
        """Slots per COUNT round: ``ceil(a * lg n)``."""
        return max(1, math.ceil(self.count_round_slots * log_n))

    def count_threshold(self) -> float:
        """The first-crossing acceptance fraction ``(1+delta) * 8e^-7``."""
        return (1.0 + self.count_delta) * PAPER_COUNT_THRESHOLD

    def part1_steps(self, c: int, k: int, log_n: int) -> int:
        """CSEEK part-one step count ``ceil(f1 * (c^2/k) * lg n)``."""
        return max(1, math.ceil(self.part1_factor * (c * c / k) * log_n))

    def part2_steps(
        self, kmax: int, k: int, max_degree: int, log_n: int
    ) -> int:
        """CSEEK part-two step count ``ceil(f2 * (kmax/k) * Delta * lg n)``."""
        return max(
            1,
            math.ceil(self.part2_factor * (kmax / k) * max_degree * log_n),
        )

    def ckseek_part1_steps(self, c: int, khat: int, log_n: int) -> int:
        """CKSEEK part-one step count ``ceil(f1 * (c^2/khat) * lg n)``."""
        return max(
            1, math.ceil(self.part1_factor * (c * c / khat) * log_n)
        )

    def ckseek_part2_steps(
        self,
        kmax: int,
        khat: int,
        delta_khat: int,
        max_degree: int,
        c: int,
        log_n: int,
    ) -> int:
        """CKSEEK part-two steps.

        ``ceil(f2 * ((kmax/khat) * Delta_khat + Delta + c) * lg n)`` per
        Section 4.4. When no estimate of ``Delta_khat`` is available,
        pass ``delta_khat = max_degree`` (the paper's fallback).
        """
        load = (kmax / khat) * delta_khat + max_degree + c
        return max(1, math.ceil(self.part2_factor * load * log_n))

    def coloring_phases(self, log_n: int) -> int:
        """Scheduled Luby phases ``ceil(f * lg n)``."""
        return max(1, math.ceil(self.coloring_phase_factor * log_n))

    def dissemination_rounds(self, log_n: int) -> int:
        """Rounds per dissemination step ``ceil(f * lg n)``."""
        return max(1, math.ceil(self.dissemination_round_factor * log_n))
