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
tables stay total.

All three bounds are evaluated in one place, :func:`bound_arrays`, over
numpy arrays that broadcast against each other; it returns values plus
regime and flag codes.  :func:`bound_a2`, :func:`bound_a3` and
:func:`fekete_szego_bound` are its 0-d views and match it bit for bit.

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

import numpy as np

from .bioperator import ClassParams, multipliers

__all__ = [
    "BoundArrays",
    "BoundInputs",
    "BoundReport",
    "UNBOUNDED",
    "bound_a2",
    "bound_a3",
    "bound_arrays",
    "fekete_szego_bound",
    "preset",
]

UNBOUNDED = math.inf

THETA_TOL = 1e-12
BOUNDARY_TOL = 1e-12

PRESET_PINS: dict[str, dict[str, float]] = {
    "caglar": {"delta": 0.0},
    "srivastava": {"lam": 1.0, "mu": 1.0, "delta": 0.0},
    "bistarlike": {"lam": 1.0, "mu": 0.0, "delta": 0.0},
    "mu1": {"mu": 1.0},
}


def _pow(base, exponent: float):
    """Python's float ``**`` on each element of ``base``; inf on overflow.

    numpy's ``power`` (and its ``square`` shortcut) can differ from it in
    the last bit on some inputs, and the golden outputs were made with
    Python's ``**``, so this rule keeps their bytes.
    """

    def one(b: float) -> float:
        try:
            return b**exponent
        except OverflowError:
            return UNBOUNDED

    return np.reshape([one(b) for b in np.ravel(base).tolist()], np.shape(base))


def _theta_terms(mass, c1, p, q):
    """The two terms of ``theta``, for floats and numpy arrays alike."""
    return mass * p * p, 2.0 * _pow(c1, 2) * (p * p + 2.0 * q)


_FLAG_P_ZERO = "p(x) = 0: the first-order coefficient identity forces a2 = 0"
_FLAG_THETA_ZERO = "theta = 0: coefficient-functional denominator vanishes"

# Fekete-Szego regimes; BoundArrays.regime indexes this tuple.
REGIMES = ("case1", "case2", "boundary", "degenerate")
_CASE1, _CASE2, _BOUNDARY, _DEGENERATE = range(len(REGIMES))

# Every flag tuple a report can carry; the BoundArrays flag codes index it.
FLAG_SETS: tuple[tuple[str, ...], ...] = (
    (),
    (_FLAG_P_ZERO,),
    (_FLAG_P_ZERO, _FLAG_THETA_ZERO),
    (_FLAG_THETA_ZERO,),
    (_FLAG_THETA_ZERO, "upsilon = 1: value is the |p|/c2 limit"),
    (_FLAG_THETA_ZERO, "upsilon != 1 leaves the functional unbounded"),
    ("threshold variant without 1/|p| scaling selects case1",),
    ("threshold variant without 1/|p| scaling selects case2",),
)
(
    _NO_FLAGS,
    _P_ZERO,
    _P_AND_THETA_ZERO,
    _THETA_ZERO,
    _THETA_ZERO_LIMIT,
    _THETA_ZERO_UNBOUNDED,
    _VARIANT_CASE1,
    _VARIANT_CASE2,
) = range(len(FLAG_SETS))


@dataclass(frozen=True)
class BoundArrays:
    """The three bounds over a broadcast grid, from :func:`bound_arrays`.

    ``theta``, ``theta_zero``, ``a2``, ``a3`` and their flags have the
    broadcast shape of ``(lam, mu, delta, p, q)``; the Fekete-Szego arrays
    that of all six inputs.  ``theta_zero`` is relative to the two terms of
    ``theta = t1 - t2``: ``|theta| <= THETA_TOL * max(1, |t1| + |t2|)``.
    ``regime`` (of ``fs``) indexes :data:`REGIMES`; its ``boundary`` band is
    absolute, ``||phi| - 1/(2 c2)| <= BOUNDARY_TOL``; the ``*_flags`` codes
    index :data:`FLAG_SETS`.  The ``|a2|`` and ``|a3|`` regimes are ``"degenerate"``
    exactly where their flags are not empty.  Points with a non-finite input
    or ``theta`` hold meaningless values; :class:`BoundInputs` rejects them.
    """

    theta: np.ndarray
    theta_zero: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    fs: np.ndarray
    regime: np.ndarray
    a2_flags: np.ndarray
    a3_flags: np.ndarray
    fs_flags: np.ndarray


def bound_arrays(lam, mu, delta, p, q, upsilon) -> BoundArrays:
    """Evaluate ``|a2|``, ``|a3|`` and Fekete-Szego bounds on broadcast arrays.

    This is the one implementation of the bounds: :func:`bound_a2`,
    :func:`bound_a3` and :func:`fekete_szego_bound` are 0-d views of it.
    ``c1``, ``c2`` and ``theta`` are computed once per broadcast shape of
    their own arguments, and every value is bit for bit what the scalar
    formulas in the module docstring give with Python floats.
    """
    lam, mu, delta, p, q, upsilon = (
        np.asarray(a, dtype=float) for a in (lam, mu, delta, p, q, upsilon)
    )
    with np.errstate(all="ignore"):
        _, c1, c2, mass = multipliers(lam, mu, delta)
        t1, t2 = _theta_terms(mass, c1, p, q)
        th = t1 - t2
        theta_zero = np.abs(th) <= THETA_TOL * np.maximum(1.0, np.abs(t1) + np.abs(t2))
        p_zero = p == 0.0
        abs_p = np.abs(p)

        a2 = np.where(
            p_zero,
            0.0,
            np.where(theta_zero, UNBOUNDED, 2.0 * _pow(abs_p, 1.5) / np.sqrt(np.abs(th))),
        )
        a2_flags = np.where(
            p_zero,
            np.where(theta_zero, _P_AND_THETA_ZERO, _P_ZERO),
            np.where(theta_zero, _THETA_ZERO, _NO_FLAGS),
        )
        a3 = np.where(p_zero, 0.0, p * p / (c1 * c1) + abs_p / c2)
        a3, a3_flags = (
            np.broadcast_to(a, th.shape) for a in (a3, np.where(p_zero, _P_ZERO, _NO_FLAGS))
        )

        ratio = np.abs(p * p * (1.0 - upsilon) / th)
        half = 1.0 / (2.0 * c2)
        regime = np.where(
            np.abs(ratio - half) <= BOUNDARY_TOL,
            _BOUNDARY,
            np.where(ratio < half, _CASE1, _CASE2),
        )
        # Variant threshold without the 1/|p| scaling; flag only a disagreement.
        variant_case2 = np.abs(1.0 - upsilon) * 2.0 * c2 * abs_p >= np.abs(th)
        disagree = (regime != _BOUNDARY) & (variant_case2 != (regime == _CASE2))
        fs_flags = np.where(
            disagree, np.where(variant_case2, _VARIANT_CASE2, _VARIANT_CASE1), _NO_FLAGS
        )
        fs = 2.0 * abs_p * np.maximum(ratio, half)

        # theta = 0 is UNBOUNDED unless upsilon = 1, where phi -> 0 and the
        # case1 value survives; it takes precedence over p = 0.
        upsilon_one = upsilon == 1.0
        fs = np.where(
            theta_zero,
            np.where(upsilon_one, abs_p / c2, UNBOUNDED),
            np.where(p_zero, 0.0, fs),
        )
        fs_flags = np.where(
            theta_zero,
            np.where(upsilon_one, _THETA_ZERO_LIMIT, _THETA_ZERO_UNBOUNDED),
            np.where(p_zero, _P_ZERO, fs_flags),
        )
        regime = np.where(theta_zero | p_zero, _DEGENERATE, regime)
    return BoundArrays(th, theta_zero, a2, a3, fs, regime, a2_flags, a3_flags, fs_flags)


@dataclass(frozen=True)
class BoundInputs:
    """A bound evaluation point: parameters plus ``p``, ``q`` and ``upsilon``.

    ``upsilon`` is the Fekete-Szego weight; the pure coefficient bounds
    ignore it.  Construction makes the point's one :func:`bound_arrays`
    call; ``theta``, ``theta_zero`` and the three bounds are all read from
    it.  A point whose ``theta`` overflows is rejected like a non-finite
    input, with a message naming the parameters when the overflow is
    already in a factor of ``theta`` that depends on them alone.
    """

    params: ClassParams
    p: float
    q: float
    upsilon: float = 1.0
    theta: float = field(init=False, compare=False, repr=False)
    theta_zero: bool = field(init=False, compare=False, repr=False)
    _arrays: BoundArrays = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("p", "q", "upsilon"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        params = self.params
        arrays = bound_arrays(params.lam, params.mu, params.delta, self.p, self.q, self.upsilon)
        th = float(arrays.theta)
        if not math.isfinite(th):
            if not all(math.isfinite(v) for v in (params.mass, _pow(params.c1, 2))):
                raise ValueError("theta must be finite: lambda, mu or delta is too large")
            raise ValueError("theta must be finite: p(x) or q(x) is too large")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "theta_zero", bool(arrays.theta_zero))
        object.__setattr__(self, "_arrays", arrays)


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the regime tag and degeneracy flags.

    ``value`` is a nonnegative float; ``math.inf`` encodes UNBOUNDED.  For
    the single-branch coefficient bounds the regime is ``"case1"`` unless
    the input is degenerate; the Fekete-Szego bound additionally uses
    ``"case2"`` and ``"boundary"``.
    """

    value: float
    regime: str
    flags: tuple[str, ...] = ()

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.value)


def _report(value, flag_code, regime: str | None = None) -> BoundReport:
    flags = FLAG_SETS[int(flag_code)]
    if regime is None:
        regime = "degenerate" if flags else "case1"
    return BoundReport(float(value), regime, flags)


def bound_a2(inputs: BoundInputs) -> BoundReport:
    """Second-coefficient bound ``2 |p|^{3/2} / sqrt(|theta|)``."""
    arrays = inputs._arrays
    return _report(arrays.a2, arrays.a2_flags)


def bound_a3(inputs: BoundInputs) -> BoundReport:
    """Third-coefficient bound ``p^2 / c1^2 + |p| / c2``."""
    arrays = inputs._arrays
    return _report(arrays.a3, arrays.a3_flags)


def fekete_szego_bound(inputs: BoundInputs) -> BoundReport:
    """Fekete-Szego functional bound ``2 |p| max(|phi|, 1/(2 c2))``.

    Piecewise view: ``|phi| < 1/(2 c2)`` is ``case1`` with the constant
    value ``|p|/c2``; ``|phi| > 1/(2 c2)`` is ``case2`` with ``2 |p| |phi|``;
    equality, within ``BOUNDARY_TOL`` absolute on ``|phi|``, is ``boundary``.
    Degenerate inputs are reported, not raised: ``theta = 0`` (relative
    ``THETA_TOL``) is UNBOUNDED unless ``upsilon = 1``, where ``phi -> 0``
    and the case1 value survives.
    """
    arrays = inputs._arrays
    return _report(arrays.fs, arrays.fs_flags, REGIMES[int(arrays.regime)])


def preset(name: str) -> ClassParams:
    """Named parameter pins for the recurring sub-families.

    ``caglar`` pins ``delta = 0``; ``srivastava`` pins ``(lam, mu, delta) =
    (1, 1, 0)``; ``bistarlike`` pins ``(1, 0, 0)``; ``mu1`` pins ``mu = 1``.
    Unpinned parameters are ``lam = mu = 1``, ``delta = 0``; ``alpha`` is 0.
    An unknown tag is an error.
    """
    if name not in PRESET_PINS:
        raise ValueError(f"unknown preset tag: {name!r}")
    return ClassParams(**{"lam": 1.0, "mu": 1.0, "delta": 0.0, **PRESET_PINS[name]})
