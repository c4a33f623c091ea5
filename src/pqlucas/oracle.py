"""Brute-force verification of the closed-form coefficient bounds.

The bounds in :mod:`pqlucas.bounds` are derived by eliminating the free
coefficients ``r1, r2`` and ``s1, s2`` of the two subordinating functions
(one per side of the bi-univalent pair) from the operator coefficient
identities.  This module runs that elimination numerically: it rebuilds
``a2`` and ``a3`` from a sampled ``(r1, r2, s1, s2)``, sweeps the
constraint box on a dense corner-inclusive grid, and compares the observed
supremum of each functional against its closed-form bound.

Constraint boxes ("modes"):

* ``"paper"``   -- the closed box ``|r1|, |r2|, |s2| <= 1`` with
  ``s1 = -r1`` enforced; this is the exact feasible set used in the
  derivation of the bounds, so suprema here land on the proof's corners.
* ``"schwarz"`` -- additionally ``|r2| <= 1 - r1^2`` and
  ``|s2| <= 1 - s1^2``, the sharper second-coefficient constraint actually
  satisfied by the subordinating functions.  Its suprema can only be
  smaller, which is reported, never asserted against the bounds' corners.

Reconstruction routes (all exact consequences of the coefficient
identities under ``s1 = -r1``):

    a2^2        = p^3 (r2 + s2) / theta
    a3          = p^2 (r1^2 + s1^2) / (2 c1^2) + p (r2 - s2) / (2 c2)
    a3 - u a2^2 = (1 - u) p^3 (r2 + s2) / theta + p (r2 - s2) / (2 c2)

Note the Fekete-Szego line substitutes the squared-coefficient route for
``a2^2`` inside ``a3`` as well; mixing it with the ``r1``-route ``a3``
above would double-count ``r1`` and is not what the functional eliminates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from .bounds import BoundInputs
from .bioperator import ClassParams

__all__ = [
    "FUNCTIONALS",
    "MODES",
    "SchwarzSample",
    "SupremumReport",
    "VerificationReport",
    "random_inputs",
    "sweep_max",
    "verify_bounds",
]

MODES = ("paper", "schwarz")

# Grid points per sweep block (whole r1 rows, at least one).  Up to grid_n
# 126 each float64 temporary of a block stays below 128 KiB, glibc's default
# mmap threshold, so blocks reuse heap memory instead of mapping and
# faulting in fresh pages on every call.
_BLOCK_POINTS = 16_000

# Tries (six draws each) random_inputs makes before it gives up on its count.
_MAX_TRIES = 100_000


class SchwarzSample(NamedTuple):
    """One point of the constraint box, with ``s1 = -r1`` built in."""

    r1: float
    r2: float
    s1: float
    s2: float


def _a2_sq(inputs: BoundInputs, r2, s2, weight=1.0):
    """``weight * p^3 (r2 + s2) / theta``; weighting the result rounds differently."""
    return weight * inputs.p**3 * (r2 + s2) / inputs.theta


def _r2_minus_s2_term(inputs: BoundInputs, r2, s2):
    return inputs.p * (r2 - s2) / (2.0 * inputs.params.c2)


def _abs_a2(inputs: BoundInputs, r1, r2, s2):
    return np.sqrt(np.abs(_a2_sq(inputs, r2, s2)))


def _a3(inputs: BoundInputs, r1, r2, s2):
    p = inputs.p
    c1 = inputs.params.c1
    return p * p * r1 * r1 / (c1 * c1) + _r2_minus_s2_term(inputs, r2, s2)


def _fekete(inputs: BoundInputs, r1, r2, s2):
    head = _a2_sq(inputs, r2, s2, 1.0 - inputs.upsilon)
    return head + _r2_minus_s2_term(inputs, r2, s2)


# name -> (value at (r1, r2, s2) with s1 = -r1, name of its bound in bounds).
# Bounds are looked up on the module, so a rebound bounds.bound_a2 is seen.
_FUNCTIONAL_TABLE = {
    "abs_a2": (_abs_a2, "bound_a2"),
    "abs_a3": (_a3, "bound_a3"),
    "fekete": (_fekete, "fekete_szego_bound"),
}

FUNCTIONALS = tuple(_FUNCTIONAL_TABLE)


def _functional(name: str):
    try:
        return _FUNCTIONAL_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown functional: {name!r}") from None


def closed_form_bound(inputs: BoundInputs, functional: str) -> float:
    """The matching closed-form bound value for a functional."""
    return getattr(bnd, _functional(functional)[1])(inputs).value


@dataclass(frozen=True)
class SupremumReport:
    """Grid supremum of one functional next to its closed-form bound."""

    functional: str
    mode: str
    grid_n: int
    supremum: float
    argmax: SchwarzSample
    bound: float

    @property
    def ratio(self) -> float:
        """Tightness ratio ``supremum / bound`` (1.0 for the 0/0 corner)."""
        if math.isinf(self.bound):
            return 0.0
        if self.bound > 0.0:
            return self.supremum / self.bound
        return 1.0 if self.supremum == 0.0 else math.inf

    def as_dict(self) -> dict:
        return {**asdict(self), "argmax": list(self.argmax), "ratio": self.ratio}


def _box_axes(grid_n: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``r1`` values and, per ``r1``, the shared ``r2``/``s2`` axis.

    Row ``k`` of the axis array is what ``np.linspace(-cap, cap, grid_n)``
    gives for the scalar cap of ``r1_vals[k]``, bit for bit: the array form
    of ``linspace`` switches every row to another rounding path as soon as
    one step is 0, which the schwarz caps at ``r1 = +-1`` are.
    """
    r1_vals = np.linspace(-1.0, 1.0, grid_n)
    caps = np.ones(grid_n) if mode == "paper" else 1.0 - r1_vals * r1_vals
    step = (caps - -caps) / (grid_n - 1)
    axis = np.arange(grid_n, dtype=float) * step[:, None] - caps[:, None]
    axis[:, -1] = caps
    return r1_vals, axis


def sweep_max(
    inputs: BoundInputs, functional: str, grid_n: int = 21, mode: str = "paper"
) -> SupremumReport:
    """Maximize one functional over the constraint box on a dense grid.

    ``r1`` takes ``grid_n`` equispaced values in ``[-1, 1]``, and ``r2`` and
    ``s2`` take ``grid_n`` equispaced values in ``[-cap, cap]`` for the cap
    at that ``r1``, endpoints included.  The corners ``r1 = +-1`` and
    ``(r2, s2) = (+-cap, +-cap)`` are always on the grid; ``r1 = 0`` is on
    it only for odd ``grid_n``.  All three functionals are |affine| in
    ``(r2, s2)`` and in ``r1^2``, so their suprema over the box lie on the
    corners with ``r1`` in ``{-1, 0, 1}``: an odd grid finds them exactly,
    an even one may fall short in schwarz mode.

    The whole grid is evaluated in blocks of ``r1`` rows, each block one
    broadcast call of the functional.  Ties resolve to the lexicographically
    smallest ``(r1, r2, s2)``.
    """
    value_at = _functional(functional)[0]
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    if inputs.theta_zero:
        raise ValueError("sweep degenerate: theta = 0")

    r1_vals, axis = _box_axes(grid_n, mode)
    rows = max(1, _BLOCK_POINTS // (grid_n * grid_n))
    best_value = -math.inf
    best_key = (0.0, 0.0, 0.0)
    for lo in range(0, grid_n, rows):
        r1 = r1_vals[lo : lo + rows, None, None]
        block = axis[lo : lo + rows]
        values = np.abs(value_at(inputs, r1, block[:, :, None], block[:, None, :]))
        flat = int(np.argmax(values))  # first max in C order = lexicographic
        value = float(values.flat[flat])
        if value > best_value:
            k, i, j = np.unravel_index(flat, values.shape)
            best_value = value
            best_key = (float(r1_vals[lo + k]), float(block[k, i]), float(block[k, j]))
    r1, r2, s2 = best_key
    return SupremumReport(
        functional=functional,
        mode=mode,
        grid_n=grid_n,
        supremum=best_value,
        argmax=SchwarzSample(r1, r2, -r1, s2),
        bound=closed_form_bound(inputs, functional),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Dominance verdicts for all functionals at one evaluation point."""

    inputs: BoundInputs
    reports: tuple[SupremumReport, ...]
    passes: tuple[bool, ...]

    @property
    def all_pass(self) -> bool:
        return all(self.passes)


def verify_bounds(
    inputs: BoundInputs,
    grid_n: int = 21,
    mode: str = "paper",
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Check ``supremum <= bound + tolerance`` for every functional."""
    reports = tuple(sweep_max(inputs, f, grid_n, mode) for f in FUNCTIONALS)
    passes = tuple(r.supremum <= r.bound + tolerance for r in reports)
    return VerificationReport(inputs, reports, passes)


def draw_params(rng: np.random.Generator) -> ClassParams:
    """Operator parameters uniform over ``lam in [1,3]``, ``mu in [0,3]``
    and ``delta in [0,2]``, drawn in that order."""
    return ClassParams(rng.uniform(1.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0))


def random_inputs(
    rng: np.random.Generator,
    count: int,
    *,
    p_min: float = 0.1,
    theta_min: float = 2.0,
) -> list[BoundInputs]:
    """Draw nondegenerate evaluation points for verification sweeps.

    Parameters come from :func:`draw_params`; ``p, q`` are uniform over
    ``[-2,2]`` and ``upsilon`` over ``[-1,3]``;
    draws with ``|p| < p_min`` or ``|theta| < theta_min`` are rejected so
    that every returned point is safely away from the degenerate set; after
    ``_MAX_TRIES`` tries without ``count`` accepted points it raises
    ``RuntimeError``.  The sequence is fully determined by the generator
    state.
    """
    out: list[BoundInputs] = []
    for _ in range(_MAX_TRIES):
        if len(out) >= count:
            break
        params = draw_params(rng)
        p = rng.uniform(-2.0, 2.0)
        q = rng.uniform(-2.0, 2.0)
        upsilon = rng.uniform(-1.0, 3.0)
        if abs(p) < p_min:
            continue
        inputs = BoundInputs(params, p, q, upsilon)
        if abs(inputs.theta) < theta_min:
            continue
        out.append(inputs)
    if len(out) < count:
        raise RuntimeError("rejection sampling did not converge")
    return out
