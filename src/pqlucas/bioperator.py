"""A three-term differential operator on normalized analytic functions.

For parameters ``lam >= 1``, ``mu >= 0``, ``delta >= 0`` the operator acts
on ``f(z) = z + a2 z^2 + ...`` as

    D[f](z) = (1 - lam) (f/z)^mu + lam f'(z) (f/z)^(mu-1) + xi delta z f''(z),

with ``xi = (2 lam + mu) / (2 lam + 1)``.  ``D[f]`` has constant term 1 and
its first two Taylor coefficients are clean combinations of ``a2``, ``a3``:

    [z^1]  c1 * a2                       with  c1 = mu + lam + 2 xi delta
    [z^2]  (mu + 2 lam) * ( (mu-1)/2 * a2^2 + (1 + 6 delta/(2 lam + 1)) * a3 )

The same expansion around the compositional inverse ``g = f^{-1}`` gives the
mirrored pair (``-c1 a2`` at first order, and an ``a2^2``-heavy second
order).  Everything downstream (bounds, oracle) leans on those four closed
forms, so this module exposes both the honest series pipeline and the closed
forms, plus a sampled real-part membership check on sub-disks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import series as ps
from .series import FunctionSpec, TruncatedSeries, eval_poly, revert_series

__all__ = [
    "ClassParams",
    "CoefficientIdentityReport",
    "DiskGrid",
    "MembershipReport",
    "apply_operator",
    "apply_operator_inverse_side",
    "check_membership_realpart",
    "extract_coefficient_identities",
]

MEMBERSHIP_MODES = ("operator", "starlike", "convex")

# Grid points whose denominator is smaller than this are flagged, not used.
_DENOMINATOR_TOL = 1e-12


@dataclass(frozen=True)
class ClassParams:
    """Operator parameters ``(lam, mu, delta)`` plus the order bound ``alpha``.

    Validation mirrors the definition of the function class: ``lam >= 1``,
    ``mu >= 0``, ``delta >= 0`` and ``0 <= alpha < 1``.  Construction then
    sets ``xi``, ``c1``, ``c2`` and ``mass`` from :func:`multipliers`; under
    those ranges ``c1`` and ``c2`` are automatically >= 1.
    """

    lam: float
    mu: float
    delta: float
    alpha: float = 0.0
    xi: float = field(init=False, repr=False, compare=False)
    c1: float = field(init=False, repr=False, compare=False)
    c2: float = field(init=False, repr=False, compare=False)
    mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "delta", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(getattr(self, n)) for n in ("lam", "mu", "delta", "alpha")):
            raise ValueError("parameters must be finite")
        if self.lam < 1.0:
            raise ValueError("lam must be >= 1")
        if self.mu < 0.0:
            raise ValueError("mu must be >= 0")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        derived = multipliers(self.lam, self.mu, self.delta)
        for name, value in zip(("xi", "c1", "c2", "mass"), derived):
            object.__setattr__(self, name, value)


def multipliers(lam, mu, delta):
    """``(xi, c1, c2, mass)`` of the operator, for floats and numpy arrays alike.

    ``xi = (mu + 2 lam)/(2 lam + 1)``; the multipliers are ``c1 = mu + lam +
    2 xi delta`` and ``c2 = mu + 2 lam + 2 xi delta``; ``theta``'s mass term
    ``mass = (mu + 2 lam)(1 + mu + 12 delta/(2 lam + 1))`` is the ``a2^2``
    weight of the two second-order identities added together.
    """
    lam1 = 2.0 * lam + 1.0
    m2 = mu + 2.0 * lam
    xi = m2 / lam1
    two_xi_delta = 2.0 * xi * delta
    return xi, mu + lam + two_xi_delta, m2 + two_xi_delta, m2 * (1.0 + mu + 12.0 * delta / lam1)


def _operator_series(params: ClassParams, s: TruncatedSeries) -> TruncatedSeries:
    """Apply the operator to a normalized series (c0 = 0, c1 = 1)."""
    ratio = ps.shift_down(s)
    ds = ps.derivative(s)
    out = ps.scale(ps.pow_real(ratio, params.mu), 1.0 - params.lam)
    out = ps.add(
        out,
        ps.scale(ps.mul(ds, ps.pow_real(ratio, params.mu - 1.0)), params.lam),
    )
    out = ps.add(
        out,
        ps.scale(ps.shift_up(ps.derivative(ds)), params.xi * params.delta),
    )
    return out


def apply_operator(params: ClassParams, f: FunctionSpec) -> TruncatedSeries:
    """Taylor series of ``D[f]`` through order 2 (constant term 1)."""
    return _operator_series(params, f.to_series(3))


def apply_operator_inverse_side(params: ClassParams, f: FunctionSpec) -> TruncatedSeries:
    """Taylor series of ``D[g]`` for ``g = f^{-1}``, through order 2.

    The inverse is produced by series reversion through order 3, which
    reads ``f`` as a polynomial: ``f`` must store ``a2`` (truncation >= 2).
    """
    return _operator_series(params, revert_series(f, 3))


def closed_forms(params: ClassParams, a2: float, a3: float) -> tuple[float, float, float, float]:
    """``([z] D[f], [z^2] D[f], [w] D[g], [w^2] D[g])`` for ``g = f^{-1}``.

    The first-order sign flips between the two sides.  The ``a3`` weight
    ``m2 * band`` of the second-order forms equals ``params.c2`` only at
    ``delta = 0``.
    """
    lam1 = 2.0 * params.lam + 1.0
    band = 1.0 + 6.0 * params.delta / lam1
    m2 = params.mu + 2.0 * params.lam
    return (
        params.c1 * a2,
        m2 * (0.5 * (params.mu - 1.0) * a2 * a2 + band * a3),
        -params.c1 * a2,
        m2 * ((0.5 * (params.mu + 3.0) + 12.0 * params.delta / lam1) * a2 * a2 - band * a3),
    )


@dataclass(frozen=True)
class CoefficientIdentityReport:
    """Pipeline vs closed-form values for the four operator coefficients.

    Order of entries: direct ``z``, direct ``z^2``, inverse ``w``,
    inverse ``w^2``.  ``direct`` is the expanded series of ``D[f]``.
    """

    pipeline: tuple[complex, complex, complex, complex]
    closed_form: tuple[float, float, float, float]
    residuals: tuple[float, float, float, float]
    direct: TruncatedSeries

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN when any residual is NaN."""
        return float(np.max(self.residuals))


def extract_coefficient_identities(
    params: ClassParams, f: FunctionSpec
) -> CoefficientIdentityReport:
    """Expand ``D[f]`` and ``D[f^{-1}]`` and compare against the closed forms."""
    if f.truncation < 3:
        raise ValueError("identity extraction needs coefficients a2 and a3")
    a2 = f.coefficient(2)
    a3 = f.coefficient(3)
    direct = apply_operator(params, f)
    inverse = apply_operator_inverse_side(params, f)
    pipeline = (
        direct.coefficient(1),
        direct.coefficient(2),
        inverse.coefficient(1),
        inverse.coefficient(2),
    )
    closed = closed_forms(params, a2, a3)
    residuals = tuple(abs(pipe - ref) for pipe, ref in zip(pipeline, closed))
    return CoefficientIdentityReport(pipeline, closed, residuals, direct)


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid on the closed disk of radius ``r_max < 1``.

    Radii are ``r_max * k / n_radii`` for ``k = 1..n_radii`` (the origin is
    excluded; every sampled expression is regular there anyway), angles are
    the ``n_angles`` equispaced directions starting at 0.
    """

    r_max: float = 0.95
    n_radii: int = 64
    n_angles: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must lie in (0, 1)")
        if self.n_radii < 1 or self.n_angles < 1:
            raise ValueError("grid resolutions must be >= 1")

    def points(self) -> np.ndarray:
        radii = self.r_max * np.arange(1, self.n_radii + 1) / self.n_radii
        angles = 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles
        return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a sampled real-part check.

    ``passed`` means the real part stayed strictly above ``alpha`` at every
    evaluated grid point.  Points with a vanishing denominator (in operator
    mode, also every later point on the same ray) are excluded from the
    minimum and listed in ``flagged``; a grid whose points are all
    flagged cannot certify anything and fails with ``min_real_part = inf``.
    A pass is sampled evidence on the chosen grid, not a proof.
    """

    mode: str
    alpha: float
    passed: bool
    min_real_part: float
    margin: float
    worst_point: complex | None
    n_evaluated: int
    flagged: tuple[complex, ...] = ()


def _radial_log(ratio: np.ndarray, grid: DiskGrid) -> np.ndarray:
    """``log`` of ``ratio = f(z)/z`` on the grid, continued from ``z = 0``.

    The principal ``np.log`` jumps by ``2 pi i`` wherever ``f/z`` winds past
    the negative real axis.  Along each ray the argument is unwrapped from
    its value 0 at the origin, where ``f/z = 1``, and the whole turns are
    added only where they are nonzero, so a grid without winding keeps the
    principal values bit for bit.  The continuation is as good as the ray
    sampling: it reads every jump of more than ``pi`` between neighbouring
    radii as a crossing of the cut.  Past a zero of ``f/z`` on a ray the
    values are meaningless; the caller flags those points.
    """
    log_ratio = np.log(ratio)
    arg = log_ratio.imag.reshape(grid.n_radii, grid.n_angles)
    step = np.diff(arg, axis=0, prepend=0.0)
    turns = -np.cumsum(np.rint(step / (2.0 * np.pi)), axis=0).ravel()
    wound = turns != 0.0
    log_ratio[wound] += 2j * np.pi * turns[wound]
    return log_ratio


def check_membership_realpart(
    params: ClassParams,
    f: FunctionSpec,
    grid: DiskGrid = DiskGrid(),
    mode: str = "operator",
) -> MembershipReport:
    """Check ``Re(expr) > alpha`` on the grid, for the mode's expression.

    Modes: ``"operator"`` uses ``D[f](z)``, ``"starlike"`` uses
    ``z f'(z)/f(z)``, ``"convex"`` uses ``1 + z f''(z)/f'(z)``.  The real
    powers of ``f/z`` in ``D[f]`` take the branch continued from ``z = 0``
    along each ray of the grid, not the principal one, and a ray is flagged
    from its first zero of ``f/z`` outwards.

    The minimum is an order-independent reduction, so any partition of the
    grid yields the same report; ties pick the first point in (radius,
    angle) order.  A real part that overflows to ``inf`` or ``nan`` at an
    evaluated point raises ``ValueError``.
    """
    if mode not in MEMBERSHIP_MODES:
        raise ValueError(f"unknown membership mode: {mode!r}")
    z = grid.points()
    coeffs = f.full_coefficients()
    d1 = tuple((k + 1) * c for k, c in enumerate(coeffs[1:]))
    d2 = tuple((k + 1) * (k + 2) * c for k, c in enumerate(coeffs[2:]))

    with np.errstate(all="ignore"):
        fz = eval_poly(coeffs, z)
        fpz = eval_poly(d1, z)
        if mode == "starlike":
            denom = fz
        elif mode == "convex":
            denom = fpz
        else:
            denom = fz / z  # the ratio raised to real powers below
        valid = np.abs(denom) >= _DENOMINATOR_TOL
        if mode == "operator":
            # Past a zero of f/z the branch continued along its ray is
            # undetermined, so the rest of that ray is flagged as well.
            rays = valid.reshape(grid.n_radii, grid.n_angles)
            valid = np.logical_and.accumulate(rays, axis=0).ravel()
        zv = z[valid]

        if mode == "starlike":
            values = zv * fpz[valid] / fz[valid]
        elif mode == "convex":
            values = 1.0 + zv * eval_poly(d2, zv) / fpz[valid]
        else:
            log_ratio = _radial_log(denom, grid)[valid]
            values = (
                (1.0 - params.lam) * np.exp(params.mu * log_ratio)
                + params.lam * fpz[valid] * np.exp((params.mu - 1.0) * log_ratio)
                + params.xi * params.delta * zv * eval_poly(d2, zv)
            )

    flagged = tuple(complex(w) for w in z[~valid])
    if zv.size == 0:
        return MembershipReport(
            mode, params.alpha, False, math.inf, math.inf, None, 0, flagged
        )
    re = values.real
    if not np.isfinite(re).all():
        raise ValueError("member values must be finite: coefficients or parameters are too large")
    idx = int(np.argmin(re))
    min_re = float(re[idx])
    return MembershipReport(
        mode=mode,
        alpha=params.alpha,
        passed=bool(min_re > params.alpha),
        min_real_part=min_re,
        margin=min_re - params.alpha,
        worst_point=complex(zv[idx]),
        n_evaluated=int(zv.size),
        flagged=flagged,
    )
