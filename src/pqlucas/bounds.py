"""Closed-form coefficient bounds with explicit degeneracy reporting.

Given operator parameters and the scalars ``p = p(x)``, ``q = q(x)``, the
three quantities of interest for functions in the class are

    |a2|                <=  2 |p|^{3/2} / sqrt(|theta|)
    |a3|                <=  p^2 / c1^2 + |p| / c2
    |a3 - upsilon a2^2| <=  2 |p| * max(|phi|, 1/(2 c2))

where

    theta = (mu + 2 lam) (1 + mu + 12 delta/(2 lam + 1)) p^2
            - 2 c1^2 (p^2 + 2 q)
    phi   = p^2 (1 - upsilon) / theta.

Every bound is returned as a :class:`BoundReport` rather than a bare float:
degenerate inputs (``theta = 0`` or ``p = 0``) produce a value of 0 or
``inf`` with an explanatory flag, never an exception or a NaN, so sweep
tables stay total.  :func:`phi` is the one function here that raises on a
vanishing denominator, because a ratio has no sensible sentinel value.

The Fekete-Szego bound uses the single max-form above; written piecewise it
switches branch at ``|phi| = 1/(2 c2)``, i.e. at

    |1 - upsilon| = |theta| / (2 c2 p^2) = |Y| / (2 c2 |p|),   Y = theta / p.

A variant threshold without the ``1/|p|`` scaling (``|1 - upsilon| <=
|Y|/(2 c2)``) circulates for this family; it disagrees with the max-form
whenever ``|p| != 1``, so whenever the two classifications differ the
report carries a flag saying which branch the variant would have picked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bioperator import ClassParams

UNBOUNDED = math.inf

THETA_TOL = 1e-12
BOUNDARY_TOL = 1e-12

PRESET_PINS: dict[str, dict[str, float]] = {
    "caglar": {"delta": 0.0},
    "srivastava": {"lam": 1.0, "mu": 1.0, "delta": 0.0},
    "bistarlike": {"lam": 1.0, "mu": 0.0, "delta": 0.0},
    "mu1": {"mu": 1.0},
}

PRESET_NAMES = tuple(PRESET_PINS)


class DegenerateDenominatorError(ValueError):
    """A vanishing denominator makes the requested quantity undefined."""


def _theta_terms(params: ClassParams, p: float, q: float) -> tuple[float, float]:
    mass = (params.mu + 2.0 * params.lam) * (
        1.0 + params.mu + 12.0 * params.delta / (2.0 * params.lam + 1.0)
    )
    return mass * p * p, 2.0 * params.c1**2 * (p * p + 2.0 * q)


def theta(params: ClassParams, p: float, q: float) -> float:
    """The shared denominator of the squared-coefficient identities."""
    t1, t2 = _theta_terms(params, p, q)
    return t1 - t2


def theta_is_zero(params: ClassParams, p: float, q: float) -> bool:
    """Vanishing test for ``theta``, scaled by the size of its two terms."""
    t1, t2 = _theta_terms(params, p, q)
    return abs(t1 - t2) <= THETA_TOL * max(1.0, abs(t1) + abs(t2))


@dataclass(frozen=True)
class BoundInputs:
    """A bound evaluation point: parameters plus ``p``, ``q`` and ``upsilon``.

    ``upsilon`` is the Fekete-Szego weight; the pure coefficient bounds
    ignore it.  ``theta`` and ``theta_zero`` are derived once, here; a
    point whose ``theta`` overflows is rejected like a non-finite input.
    """

    params: ClassParams
    p: float
    q: float
    upsilon: float = 1.0
    theta: float = field(init=False, compare=False, repr=False)
    theta_zero: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("p", "q", "upsilon"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        th = theta(self.params, self.p, self.q)
        if not math.isfinite(th):
            raise ValueError("theta must be finite: p(x) or q(x) is too large")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "theta_zero", theta_is_zero(self.params, self.p, self.q))

    @property
    def upsilon_x(self) -> float | None:
        """The scaled denominator ``theta / p``; ``None`` when ``p = 0``."""
        if self.p == 0.0:
            return None
        return self.theta / self.p


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the regime tag, denominators and degeneracy flags.

    ``value`` is a nonnegative float; ``math.inf`` encodes UNBOUNDED.  For
    the single-branch coefficient bounds the regime is ``"case1"`` unless
    the input is degenerate; the Fekete-Szego bound additionally uses
    ``"case2"`` and ``"boundary"``.
    """

    value: float
    regime: str
    theta: float
    upsilon_x: float | None
    flags: tuple[str, ...] = ()

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.value)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "regime": self.regime,
            "theta": self.theta,
            "upsilon_x": self.upsilon_x,
            "flags": list(self.flags),
        }


_FLAG_P_ZERO = "p(x) = 0: the first-order coefficient identity forces a2 = 0"
_FLAG_THETA_ZERO = "theta = 0: coefficient-functional denominator vanishes"


def bound_a2(inputs: BoundInputs) -> BoundReport:
    """Second-coefficient bound ``2 |p|^{3/2} / sqrt(|theta|)``."""
    th = inputs.theta
    ux = inputs.upsilon_x
    if inputs.p == 0.0:
        flags = (_FLAG_P_ZERO,) + ((_FLAG_THETA_ZERO,) if inputs.theta_zero else ())
        return BoundReport(0.0, "degenerate", th, ux, flags)
    if inputs.theta_zero:
        return BoundReport(UNBOUNDED, "degenerate", th, ux, (_FLAG_THETA_ZERO,))
    value = 2.0 * abs(inputs.p) ** 1.5 / math.sqrt(abs(th))
    return BoundReport(value, "case1", th, ux)


def bound_a3(inputs: BoundInputs) -> BoundReport:
    """Third-coefficient bound ``p^2 / c1^2 + |p| / c2``."""
    th = inputs.theta
    ux = inputs.upsilon_x
    if inputs.p == 0.0:
        return BoundReport(0.0, "degenerate", th, ux, (_FLAG_P_ZERO,))
    c1 = inputs.params.c1
    c2 = inputs.params.c2
    value = inputs.p * inputs.p / (c1 * c1) + abs(inputs.p) / c2
    return BoundReport(value, "case1", th, ux)


def phi(inputs: BoundInputs) -> float:
    """The weight ratio ``p^2 (1 - upsilon) / theta``.

    Raises :class:`DegenerateDenominatorError` when ``theta`` vanishes.
    """
    if inputs.theta_zero:
        raise DegenerateDenominatorError(
            "phi undefined: coefficient-bound denominator vanishes (theta = 0)"
        )
    return inputs.p * inputs.p * (1.0 - inputs.upsilon) / inputs.theta


def fekete_szego_bound(inputs: BoundInputs) -> BoundReport:
    """Fekete-Szego functional bound ``2 |p| max(|phi|, 1/(2 c2))``.

    Piecewise view: ``|phi| < 1/(2 c2)`` is ``case1`` with the constant
    value ``|p|/c2``; ``|phi| > 1/(2 c2)`` is ``case2`` with ``2 |p| |phi|``;
    equality (within ``BOUNDARY_TOL``) is tagged ``boundary``.  Degenerate
    inputs are reported, not raised: ``theta = 0`` is UNBOUNDED unless
    ``upsilon = 1``, where ``phi -> 0`` and the case1 value survives.
    """
    th = inputs.theta
    ux = inputs.upsilon_x
    c2 = inputs.params.c2
    if inputs.theta_zero:
        if inputs.upsilon == 1.0:
            return BoundReport(
                abs(inputs.p) / c2,
                "degenerate",
                th,
                ux,
                (_FLAG_THETA_ZERO, "upsilon = 1: value is the |p|/c2 limit"),
            )
        return BoundReport(
            UNBOUNDED,
            "degenerate",
            th,
            ux,
            (_FLAG_THETA_ZERO, "upsilon != 1 leaves the functional unbounded"),
        )
    if inputs.p == 0.0:
        return BoundReport(0.0, "degenerate", th, ux, (_FLAG_P_ZERO,))

    ratio = abs(phi(inputs))
    half = 1.0 / (2.0 * c2)
    value = 2.0 * abs(inputs.p) * max(ratio, half)
    if abs(ratio - half) <= BOUNDARY_TOL:
        regime = "boundary"
    elif ratio < half:
        regime = "case1"
    else:
        regime = "case2"

    flags: tuple[str, ...] = ()
    # Variant threshold without the 1/|p| scaling; flag only a disagreement.
    variant_case2 = abs(1.0 - inputs.upsilon) * 2.0 * c2 * abs(inputs.p) >= abs(th)
    ours_case2 = regime == "case2"
    if regime != "boundary" and variant_case2 != ours_case2:
        variant = "case2" if variant_case2 else "case1"
        flags = (f"threshold variant without 1/|p| scaling selects {variant}",)
    return BoundReport(value, regime, th, ux, flags)


def preset(name: str, **overrides: float) -> ClassParams:
    """Named parameter pins for the recurring sub-families.

    ``caglar`` pins ``delta = 0``; ``srivastava`` pins ``(lam, mu, delta) =
    (1, 1, 0)``; ``bistarlike`` pins ``(1, 0, 0)``; ``mu1`` pins ``mu = 1``.
    Unpinned fields may be supplied as overrides (defaults: ``lam = 1``,
    ``mu = 1``, ``delta = 0``, ``alpha = 0``); overriding a pinned field is
    an error, as is an unknown tag.
    """
    if name not in PRESET_PINS:
        raise ValueError(f"unknown preset tag: {name!r}")
    pins = PRESET_PINS[name]
    unknown = set(overrides) - {"lam", "mu", "delta", "alpha"}
    if unknown:
        raise ValueError(f"unknown parameter overrides: {sorted(unknown)}")
    clash = set(overrides) & set(pins)
    if clash:
        raise ValueError(f"preset {name!r} pins {sorted(clash)}; override not allowed")
    values = {"lam": 1.0, "mu": 1.0, "delta": 0.0, "alpha": 0.0}
    values.update(overrides)
    values.update(pins)
    return ClassParams(**values)
