"""(p,q)-Lucas polynomial sequences and their rational generating function.

The sequence attached to a pair of real polynomials ``p(x)``, ``q(x)`` is

    L_0 = 2,  L_1 = p(x),  L_k = p(x) L_{k-1} + q(x) L_{k-2}   (k >= 2),

so in particular ``L_2 = p(x)^2 + 2 q(x)``.  The same numbers appear as the
Taylor coefficients of ``(2 - p(x) z) / (1 - p(x) z - q(x) z^2)``, counted
from ``z^0``; :func:`generating_series` computes that expansion
independently by truncated long division, which gives the package a second
route to every ``L_k`` for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .series import TruncatedSeries, div, eval_poly, series

__all__ = [
    "LucasSequence",
    "PolyPair",
    "generating_series",
    "lucas_sequence",
]


@dataclass(frozen=True)
class PolyPair:
    """The polynomial pair ``(p, q)`` frozen together with an argument ``x``.

    ``p_coeffs`` and ``q_coeffs`` are dense ascending coefficient lists, so
    ``p_coeffs=(0, 1)`` means ``p(x) = x`` and ``q_coeffs=(1,)`` means
    ``q(x) = 1``.  ``p`` and ``q`` hold the values ``p(x)`` and ``q(x)``.
    """

    p_coeffs: tuple[float, ...]
    q_coeffs: tuple[float, ...]
    x: float
    p: float = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_coeffs", tuple(float(c) for c in self.p_coeffs))
        object.__setattr__(self, "q_coeffs", tuple(float(c) for c in self.q_coeffs))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "p", eval_poly(self.p_coeffs, self.x))
        object.__setattr__(self, "q", eval_poly(self.q_coeffs, self.x))
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("p(x) and q(x) must evaluate to finite values")


@dataclass(frozen=True)
class LucasSequence:
    """Values ``(L_0, ..., L_K)`` of a (p,q)-Lucas sequence."""

    values: tuple[float, ...]


def lucas_sequence(pair: PolyPair, k_max: int) -> LucasSequence:
    """``L_0..L_{k_max}`` by the three-term recurrence."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    vals = [2.0]
    if k_max >= 1:
        vals.append(pair.p)
    for _ in range(2, k_max + 1):
        vals.append(pair.p * vals[-1] + pair.q * vals[-2])
    return LucasSequence(tuple(vals))


def generating_series(pair: PolyPair, order: int) -> TruncatedSeries:
    """Taylor expansion of ``(2 - p z) / (1 - p z - q z^2)`` to ``order``.

    Computed by truncated series division only; the recurrence is never
    consulted, so the result is an independent oracle for ``L_k``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num = series([2.0, -pair.p], order=order)
    den = series([1.0, -pair.p, -pair.q], order=order)
    return div(num, den)
