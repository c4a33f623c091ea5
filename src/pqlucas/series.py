"""Truncated power-series arithmetic over complex coefficients.

A series is stored as the coefficient tuple ``(c0, ..., cN)`` of
``sum c_k z**k`` together with its truncation order ``N`` (implicit in the
tuple length).  Order bookkeeping is pessimistic: every binary operation
returns a series truncated at the minimum order of its operands, and
differentiation lowers the order by one.  A coefficient is therefore only
ever reported when every input carried enough information to determine it.

The module also defines :class:`FunctionSpec`, a compact description of a
normalized analytic function ``f(z) = z + a2 z^2 + ... + aM z^M`` (the
shape every coefficient problem in this package starts from), plus the
compositional inverse of such specs.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "FunctionSpec",
    "TruncatedSeries",
    "compose",
    "derivative",
    "eval_poly",
    "pow_real",
    "revert_series",
]

# Preconditions on constant terms are checked against small absolute
# tolerances so that series produced by prior float arithmetic still pass.
_UNIT_CONSTANT_TOL = 1e-9
_ZERO_CONSTANT_TOL = 1e-12


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``(c0, ..., cN)`` of a power series truncated at order N."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> complex:
        """Coefficient of ``z**k``; ``k`` must not exceed the order."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return self.coeffs[k]


def series(coeffs: Sequence[complex], order: int | None = None) -> TruncatedSeries:
    """Build a series from ascending coefficients, padded or cut to ``order``."""
    cs = list(coeffs)
    if order is None:
        if not cs:
            raise ValueError("empty coefficient list needs an explicit order")
        order = len(cs) - 1
    if order < 0:
        raise ValueError("order must be >= 0")
    cs = cs[: order + 1] + [0.0] * (order + 1 - len(cs))
    return TruncatedSeries(tuple(cs))


def add(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    n = min(s.order, t.order)
    return TruncatedSeries(tuple(s.coeffs[k] + t.coeffs[k] for k in range(n + 1)))


def scale(s: TruncatedSeries, factor: complex) -> TruncatedSeries:
    return TruncatedSeries(tuple(factor * c for c in s.coeffs))


def mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated at the minimum order of the factors."""
    n = min(s.order, t.order)
    out = []
    for m in range(n + 1):
        out.append(sum(s.coeffs[k] * t.coeffs[m - k] for k in range(m + 1)))
    return TruncatedSeries(tuple(out))


def div(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Series quotient; the denominator needs a nonzero constant term."""
    if den.coeffs[0] == 0:
        raise ZeroDivisionError("series division requires nonzero constant term")
    n = min(num.order, den.order)
    out: list[complex] = []
    for m in range(n + 1):
        acc = num.coeffs[m]
        for k in range(m):
            acc -= out[k] * den.coeffs[m - k]
        out.append(acc / den.coeffs[0])
    return TruncatedSeries(tuple(out))


def derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; the result order drops by one."""
    if s.order == 0:
        raise ValueError("cannot differentiate constant at order 0")
    return TruncatedSeries(tuple(k * s.coeffs[k] for k in range(1, s.order + 1)))


def shift_up(s: TruncatedSeries) -> TruncatedSeries:
    """Multiply by ``z``.  Exact monomial factor, so the order rises by one."""
    return TruncatedSeries((0.0,) + s.coeffs)


def shift_down(s: TruncatedSeries) -> TruncatedSeries:
    """Divide by ``z``; requires a vanishing constant term.  Order drops by one."""
    if abs(s.coeffs[0]) > _ZERO_CONSTANT_TOL:
        raise ValueError("shift_down requires zero constant term")
    if s.order == 0:
        raise ValueError("cannot shift a constant below order 0")
    return TruncatedSeries(s.coeffs[1:])


def pow_real(s: TruncatedSeries, exponent: float) -> TruncatedSeries:
    """Real power ``s**exponent`` via the exp/log term recurrences.

    The constant term must be 1 (within a small tolerance): powers are then
    single-valued and the principal branch is the only sensible choice.
    """
    c0 = s.coeffs[0]
    if abs(c0 - 1.0) > _UNIT_CONSTANT_TOL:
        raise ValueError("pow_real requires unit constant term")
    n = s.order
    # l = log(s):  k*s_k = sum_{j=1..k} j*l_j*s_{k-j}
    log_c = [cmath.log(c0)] + [0j] * n
    for k in range(1, n + 1):
        acc = k * s.coeffs[k]
        for j in range(1, k):
            acc -= j * log_c[j] * s.coeffs[k - j]
        log_c[k] = acc / (k * c0)
    # e = exp(g) with g = exponent*l:  k*e_k = sum_{j=1..k} j*g_j*e_{k-j}
    g = [exponent * c for c in log_c]
    exp_c = [cmath.exp(g[0])] + [0j] * n
    for k in range(1, n + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += j * g[j] * exp_c[k - j]
        exp_c[k] = acc / k
    return TruncatedSeries(tuple(exp_c))


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Series composition ``outer(inner(z))``.

    The inner series must vanish at 0, otherwise infinitely many terms of
    ``outer`` would contribute to every output coefficient.
    """
    if abs(inner.coeffs[0]) > _ZERO_CONSTANT_TOL:
        raise ValueError("composition requires inner(0)=0")
    n = min(outer.order, inner.order)
    # Zero the (tolerated) tiny constant term so Horner sees an exact zero.
    inner_n = TruncatedSeries((0.0,) + inner.coeffs[1 : n + 1]) if n else None
    acc = series([outer.coeffs[n]], order=n)
    for k in range(n - 1, -1, -1):
        c = mul(acc, inner_n).coeffs
        acc = TruncatedSeries((c[0] + outer.coeffs[k],) + c[1:])
    return acc


def eval_poly(coeffs: Sequence[complex], x):
    """Evaluate a dense ascending coefficient list at ``x`` (Horner).

    ``x`` may be a number or a numpy array, evaluated elementwise.
    """
    acc = 0.0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class FunctionSpec:
    """Taylor data ``(a2, ..., aM)`` of ``f(z) = z + a2 z^2 + ... + aM z^M``.

    The normalization ``a0 = 0`` and ``a1 = 1`` is implicit.  ``truncation``
    is the index M of the last stored coefficient; coefficients beyond it
    are read as exact zeros, i.e. ``f`` is treated as a polynomial.
    """

    a: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.a)
        for v in vals:
            if not math.isfinite(v):
                raise ValueError("function coefficients must be finite")
        object.__setattr__(self, "a", vals)

    @property
    def truncation(self) -> int:
        return len(self.a) + 1

    def coefficient(self, n: int) -> float:
        """The Taylor coefficient ``a_n`` (zero beyond the truncation)."""
        if n < 0:
            raise IndexError("coefficient index must be >= 0")
        if n == 0:
            return 0.0
        if n == 1:
            return 1.0
        if n <= self.truncation:
            return self.a[n - 2]
        return 0.0

    def full_coefficients(self, order: int | None = None) -> tuple[float, ...]:
        """Ascending coefficients ``(0, 1, a2, ...)`` up to ``order``."""
        if order is None:
            order = self.truncation
        return tuple(self.coefficient(n) for n in range(order + 1))

    def to_series(self, order: int | None = None) -> TruncatedSeries:
        return TruncatedSeries(self.full_coefficients(order))


def revert_series(f: FunctionSpec, m: int) -> TruncatedSeries:
    """Compositional inverse of ``f`` through order ``m``.

    Returns the series ``g(w) = w + b2 w^2 + ... + bm w^m`` with
    ``g(f(z)) = z`` through order ``m``.  Because ``b_n`` depends on the
    coefficients ``a2..a_n``, the request must stay within what ``f``
    actually stores: ``m <= f.truncation + 1`` (the one extra order is free
    since ``f`` is read as a polynomial).

    Pass ``n`` reads only ``[z^n] g(f)``, so its Horner evaluation starts
    at ``b_{n-1}`` and keeps the level that adds ``b_k`` only through
    order ``n - k``: about ``m^4/24`` complex multiply-adds in all, where a
    full ``compose`` per pass takes ``m^4/2``.  Every kept coefficient is
    the same ``sum`` of the same products, in the same order, as in
    ``compose``; the products left out are signed zeros while the values
    stay finite, so the result is the one ``compose`` gives bit for bit up
    to its first non-finite coefficient.
    """
    if m < 1:
        raise ValueError("reversion order must be >= 1")
    if m > f.truncation + 1:
        raise ValueError(
            f"reversion order {m} exceeds the stored coefficients of f "
            f"(truncation {f.truncation})"
        )
    fs = f.to_series(m).coeffs
    g = [0j] * (m + 1)
    g[1] = 1.0 + 0j
    # b_n enters g(f) at order n with unit weight, so peel one order per pass.
    for n in range(2, m + 1):
        level = [g[n - 1]]
        for k in range(n - 2, 0, -1):
            # [z^i] of level * f; map stops at the shorter factor, which
            # leaves out only the f[0] term of the top coefficient.
            level = [sum(map(operator.mul, level, fs[i::-1])) for i in range(n - k + 1)]
            level[0] += g[k]
        g[n] -= sum(map(operator.mul, level, fs[n::-1]))
    return TruncatedSeries(tuple(g))


def to_json_number(c: complex) -> float | list[float]:
    """A JSON-friendly complex number: a float when real, else ``[re, im]``."""
    if c.imag == 0.0:
        return c.real
    return [c.real, c.imag]
