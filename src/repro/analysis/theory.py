"""Closed-form bound curves for every theorem in the paper.

Each function returns the *shape* term of a bound — the expression
inside the paper's ``Õ(·)`` / ``Ω(·)`` — optionally scaled by the
``lg n`` factors the tilde hides. Experiments plot measured slots
against these curves: absolute constants are implementation-specific,
but ratios along a sweep (slopes, crossovers, who-wins) must match.

Bound inventory:

=============  =====================================================
Theorem 4      CSEEK:      ``Õ(c²/k + (kmax/k)·Δ)``
Theorem 6      CKSEEK:     ``Õ(c²/k̂ + (kmax/k̂)·Δ_k̂ + Δ)``
Theorem 9      CGCAST:     ``Õ(c²/k + (kmax/k)·Δ + D·Δ)``
Section 1      naive ND:   ``Õ((c²/k)·Δ)``
Section 1      naive bcast ``Õ((c²/k)·D)``
Section 2      Zeng et al. ``Õ(c²/k + c·Δ/k)``
Lemma 10       game floor  ``c²/(αk)``, ``α = 2(β/(β−1))²``
Lemma 12       game floor  ``c/3``
Theorem 13     ND floor    ``Ω(c²/k + Δ)``
Theorem 14     bcast floor ``Ω(c²/k + D·min(c, Δ))``
=============  =====================================================
"""

from __future__ import annotations

from repro.model.errors import SpecError
from repro.model.spec import ceil_log2

__all__ = [
    "cseek_bound",
    "ckseek_bound",
    "cgcast_bound",
    "naive_discovery_bound",
    "naive_broadcast_bound",
    "zeng_discovery_bound",
    "hitting_game_floor",
    "complete_game_floor",
    "nd_lower_bound",
    "broadcast_lower_bound",
]


def _check_core(c: int, k: int) -> None:
    if c < 1 or k < 1 or k > c:
        raise SpecError(f"need 1 <= k <= c, got k={k}, c={c}")


def cseek_bound(
    c: int, k: int, kmax: int, delta: int, n: int | None = None
) -> float:
    """Theorem 4 shape: ``c²/k + (kmax/k)·Δ`` (× lg³n-ish when n given).

    With ``n`` supplied the paper's explicit polylog factors are applied
    (``lg³n`` on the first term, ``lg²n`` on the second).
    """
    _check_core(c, k)
    first = c * c / k
    second = (kmax / k) * delta
    if n is None:
        return first + second
    lg = ceil_log2(n)
    return first * lg**3 + second * lg**2


def ckseek_bound(
    c: int,
    khat: int,
    kmax: int,
    delta_khat: int,
    delta: int,
    n: int | None = None,
) -> float:
    """Theorem 6 shape: ``c²/k̂ + (kmax/k̂)·Δ_k̂ + Δ``."""
    _check_core(c, khat)
    first = c * c / khat
    second = (kmax / khat) * delta_khat + delta
    if n is None:
        return first + second
    lg = ceil_log2(n)
    return first * lg**3 + second * lg**2


def cgcast_bound(
    c: int, k: int, kmax: int, delta: int, diameter: int, n: int | None = None
) -> float:
    """Theorem 9 shape: ``c²/k + (kmax/k)·Δ + D·Δ``."""
    _check_core(c, k)
    first = c * c / k
    second = (kmax / k) * delta
    third = diameter * delta
    if n is None:
        return first + second + third
    lg = ceil_log2(n)
    return first * lg**4 + second * lg**3 + third * lg**2


def naive_discovery_bound(
    c: int, k: int, delta: int, n: int | None = None
) -> float:
    """Section 1 strawman: ``(c²/k)·Δ``."""
    _check_core(c, k)
    value = (c * c / k) * delta
    return value if n is None else value * ceil_log2(n)


def naive_broadcast_bound(
    c: int, k: int, diameter: int, n: int | None = None
) -> float:
    """Section 1 strawman: ``(c²/k)·D``."""
    _check_core(c, k)
    value = (c * c / k) * diameter
    return value if n is None else value * ceil_log2(n)


def zeng_discovery_bound(
    c: int, k: int, delta: int, n: int | None = None
) -> float:
    """Zeng et al. [25] comparator: ``c²/k + c·Δ/k``.

    Always at least CSEEK's bound since ``c >= kmax`` (Section 2).
    """
    _check_core(c, k)
    value = c * c / k + c * delta / k
    return value if n is None else value * ceil_log2(n)


def hitting_game_floor(c: int, k: int, beta: float = 2.0) -> float:
    """Lemma 10 floor ``c²/(αk)`` for ``k <= c/β``.

    ``α = 2(β/(β−1))²``; for ``β = 2`` (the paper's canonical use),
    ``α = 8``.
    """
    _check_core(c, k)
    if beta < 2.0:
        raise SpecError(f"Lemma 10 requires beta >= 2, got {beta}")
    if k > c / beta:
        raise SpecError(
            f"Lemma 10 requires k <= c/beta = {c / beta:.2f}, got {k}"
        )
    alpha = 2.0 * (beta / (beta - 1.0)) ** 2
    return c * c / (alpha * k)


def complete_game_floor(c: int) -> float:
    """Lemma 12 floor ``c/3`` for the complete bipartite game."""
    if c < 1:
        raise SpecError(f"c must be >= 1, got {c}")
    return c / 3.0


def nd_lower_bound(c: int, k: int, delta: int) -> float:
    """Theorem 13: ``Ω(c²/k + Δ)`` with Lemma 10's ``α = 8`` constant."""
    _check_core(c, k)
    if k <= c / 2:
        game = hitting_game_floor(c, k, beta=2.0)
    else:
        game = complete_game_floor(c)
    return game + delta


def broadcast_lower_bound(c: int, k: int, delta: int, diameter: int) -> float:
    """Theorem 14: ``Ω(c²/k + D·min(c, Δ))``."""
    _check_core(c, k)
    if k <= c / 2:
        game = hitting_game_floor(c, k, beta=2.0)
    else:
        game = complete_game_floor(c)
    return game + diameter * min(c, delta)
