"""Closed-form bounds: golden values, regime tags, degeneracy flags, presets."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

try:
    import sympy
except ImportError:  # TestExactDecisions skips
    sympy = None

from pqlucas import bounds
from pqlucas.bioperator import ClassParams, multipliers
from pqlucas.lucas import PolyPair, lucas_sequence
from pqlucas.bounds import (
    BOUNDARY_TOL,
    FLAG_SETS,
    PRESET_PINS,
    REGIMES,
    THETA_TOL,
    BoundInputs,
    bound_a2,
    bound_a3,
    bound_arrays,
    fekete_szego_bound,
    preset,
)

BISTAR = preset("bistarlike")  # (lam, mu, delta) = (1, 0, 0): c1 = 1, c2 = 2


# The scalar bounds as they were before the array core, kept only here as
# a reference.  Each returns (value, regime, flags).  They read c1, c2 and
# mass from ClassParams but keep their own branches and theta = t1 - t2,
# with Python's float ** where the core has _pow.

def _ref_theta(params, p, q):
    t1, t2 = params.mass * p * p, 2.0 * params.c1**2 * (p * p + 2.0 * q)
    return t1 - t2, abs(t1 - t2) <= 1e-12 * max(1.0, abs(t1) + abs(t2))


_P_ZERO = "p(x) = 0: the first-order coefficient identity forces a2 = 0"
_THETA_ZERO = "theta = 0: coefficient-functional denominator vanishes"


def reference_a2(params, p, q, upsilon):
    th, theta_zero = _ref_theta(params, p, q)
    if p == 0.0:
        return 0.0, "degenerate", (_P_ZERO,) + ((_THETA_ZERO,) if theta_zero else ())
    if theta_zero:
        return math.inf, "degenerate", (_THETA_ZERO,)
    return 2.0 * abs(p) ** 1.5 / math.sqrt(abs(th)), "case1", ()


def reference_a3(params, p, q, upsilon):
    if p == 0.0:
        return 0.0, "degenerate", (_P_ZERO,)
    return p * p / (params.c1 * params.c1) + abs(p) / params.c2, "case1", ()


def reference_fekete(params, p, q, upsilon):
    th, theta_zero = _ref_theta(params, p, q)
    c2 = params.c2
    if theta_zero:
        if upsilon == 1.0:
            return abs(p) / c2, "degenerate", (
                _THETA_ZERO, "upsilon = 1: value is the |p|/c2 limit"
            )
        return math.inf, "degenerate", (
            _THETA_ZERO, "upsilon != 1 leaves the functional unbounded"
        )
    if p == 0.0:
        return 0.0, "degenerate", (_P_ZERO,)
    ratio = abs(p * p * (1.0 - upsilon) / th)
    half = 1.0 / (2.0 * c2)
    value = 2.0 * abs(p) * max(ratio, half)
    if abs(ratio - half) <= 1e-12:
        regime = "boundary"
    elif ratio < half:
        regime = "case1"
    else:
        regime = "case2"
    flags = ()
    variant_case2 = abs(1.0 - upsilon) * 2.0 * c2 * abs(p) >= abs(th)
    if regime != "boundary" and variant_case2 != (regime == "case2"):
        variant = "case2" if variant_case2 else "case1"
        flags = (f"threshold variant without 1/|p| scaling selects {variant}",)
    return value, regime, flags


def _key(value, regime, flags):
    return repr(float(value)), regime, tuple(flags)


def _theta_zero_q(lam, mu, delta, p):
    """The q that makes theta vanish (up to rounding) at these parameters."""
    params = ClassParams(lam, mu, delta)
    return (params.mass * p * p / (2.0 * params.c1 * params.c1) - p * p) / 2.0


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


class TestTheta:
    def test_bistarlike_collapses_to_minus_4q(self):
        # (mu + 2 lam)(1 + mu) p^2 - 2 c1^2 (p^2 + 2q) = 2p^2 - 2p^2 - 4q
        assert BoundInputs(BISTAR, 1.0, 1.0).theta == -4.0
        assert BoundInputs(BISTAR, 1.0, 0.5).theta == -2.0
        assert BoundInputs(BISTAR, 1.3, 0.7).theta == pytest.approx(-2.8, abs=1e-12)

    def test_general_point(self):
        params = ClassParams(1.0, 2.0, 1.0)  # c1 = 17/3
        # mass = (2 + 2)(1 + 2 + 4) = 28
        want = 28.0 * 4.0 - 2.0 * (17.0 / 3.0) ** 2 * (4.0 + 2.0)
        assert abs(BoundInputs(params, 2.0, 1.0).theta - want) <= 1e-9

    def test_srivastava_point(self):
        # (1, 1, 0): mass = 3 * 2 = 6, c1 = 2, so theta = 6 - 8 = -2 at p=1, q=0
        assert BoundInputs(preset("srivastava"), 1.0, 0.0).theta == -2.0

    def test_zero_detection_is_scale_relative(self):
        assert BoundInputs(BISTAR, 1.0, 0.0).theta_zero
        assert not BoundInputs(BISTAR, 1.0, 1e-3).theta_zero
        # at p ~ 1e6 the two terms are ~2e12, so q = 1e-3 is lost in them
        assert BoundInputs(BISTAR, 1e6, 1e-3).theta_zero


class TestBoundInputs:
    def test_defaults_and_derived(self):
        inputs = BoundInputs(BISTAR, p=2.0, q=1.0)
        _, l1, l2 = lucas_sequence(PolyPair((2.0,), (1.0,), 0.0), 2).values
        assert inputs.upsilon == 1.0
        # theta = mass L1^2 - 2 c1^2 L2, with mass = 2 and c1 = 1 here
        assert inputs.theta == 2.0 * l1 * l1 - 2.0 * l2 == -4.0
        assert inputs.theta_zero is False

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundInputs(BISTAR, p=math.inf, q=1.0)

    def test_rejects_overflowing_theta(self):
        # p^2 overflows, so theta would be inf - inf = nan
        with pytest.raises(ValueError, match="theta must be finite"):
            BoundInputs(preset("caglar"), p=1e200, q=1.0)


class TestBoundA2:
    def test_golden_values(self):
        report = bound_a2(BoundInputs(BISTAR, 1.0, 1.0))
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert report.regime == "case1"
        assert report.flags == ()
        report = bound_a2(BoundInputs(BISTAR, 1.0, 0.5))
        assert report.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        report = bound_a2(BoundInputs(preset("srivastava"), 1.0, 0.0))
        assert report.value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_bistarlike_simplification(self):
        # theta = -4q, so the bound reads |p|^{3/2} / sqrt(|q|)
        p, q = 1.3, 0.7
        report = bound_a2(BoundInputs(BISTAR, p, q))
        assert report.value == pytest.approx(abs(p) ** 1.5 / math.sqrt(abs(q)), rel=1e-14)

    def test_theta_zero_is_unbounded(self):
        report = bound_a2(BoundInputs(BISTAR, 1.0, 0.0))
        assert report.is_unbounded
        assert report.regime == "degenerate"
        assert any("theta = 0" in f for f in report.flags)

    def test_p_zero_forces_zero(self):
        report = bound_a2(BoundInputs(BISTAR, 0.0, 1.0))
        assert report.value == 0.0
        assert report.regime == "degenerate"
        assert any("a2 = 0" in f for f in report.flags)

    def test_p_zero_and_theta_zero_reports_both(self):
        report = bound_a2(BoundInputs(BISTAR, 0.0, 0.0))
        assert report.value == 0.0
        assert len(report.flags) == 2


class TestBoundA3:
    def test_golden_values(self):
        assert bound_a3(BoundInputs(BISTAR, 1.0, 1.0)).value == pytest.approx(1.5, abs=1e-12)
        sriv = preset("srivastava")  # c1 = 2, c2 = 3
        assert bound_a3(BoundInputs(sriv, 2.0, 1.0)).value == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_independent_of_q_and_upsilon(self):
        a = bound_a3(BoundInputs(BISTAR, 1.5, 0.9, upsilon=0.0)).value
        b = bound_a3(BoundInputs(BISTAR, 1.5, -2.0, upsilon=3.0)).value
        assert a == b

    def test_p_zero_forces_zero(self):
        report = bound_a3(BoundInputs(BISTAR, 0.0, 1.0))
        assert report.value == 0.0
        assert report.regime == "degenerate"


class TestFeketeSzego:
    def test_case1_collapse_at_upsilon_one(self):
        report = fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=1.0))
        assert report.value == pytest.approx(0.5, abs=1e-12)  # |p| / c2
        assert report.regime == "case1"

    def test_upsilon_one_collapse_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            params = ClassParams(
                rng.uniform(1.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)
            )
            p, q = rng.uniform(-2.0, 2.0, size=2)
            report = fekete_szego_bound(BoundInputs(params, p, q, upsilon=1.0))
            # holds even on the degenerate branches: theta = 0 keeps the
            # limit value and p = 0 gives 0 = |p|/c2
            assert abs(report.value - abs(p) / params.c2) <= 1e-12

    def test_case2_golden(self):
        report = fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=3.0))
        assert report.value == pytest.approx(1.0, abs=1e-12)  # 2 |p| |phi|
        assert report.regime == "case2"

    def test_boundary_tag(self):
        # |phi| = |1 - upsilon| / 4 equals 1/(2 c2) = 1/4 at upsilon = 0 and 2
        for upsilon in (0.0, 2.0):
            report = fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=upsilon))
            assert report.regime == "boundary"
            assert report.value == pytest.approx(0.5, abs=1e-12)

    def test_continuity_across_threshold(self):
        base = fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=2.0)).value
        for eps in (-1e-9, 1e-9):
            probe = fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=2.0 + eps)).value
            assert probe == pytest.approx(base, rel=1e-8)

    def test_monotone_in_distance_from_one(self):
        values = [
            fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=u)).value
            for u in np.linspace(1.0, 5.0, 17)
        ]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_theta_zero_upsilon_one_keeps_limit(self):
        report = fekete_szego_bound(BoundInputs(BISTAR, 1.5, 0.0, upsilon=1.0))
        assert report.value == pytest.approx(0.75, abs=1e-12)
        assert report.regime == "degenerate"
        assert len(report.flags) == 2

    def test_theta_zero_otherwise_unbounded(self):
        report = fekete_szego_bound(BoundInputs(BISTAR, 1.5, 0.0, upsilon=2.0))
        assert report.is_unbounded
        assert any("unbounded" in f for f in report.flags)

    def test_p_zero(self):
        report = fekete_szego_bound(BoundInputs(BISTAR, 0.0, 1.0, upsilon=3.0))
        assert report.value == 0.0
        assert report.regime == "degenerate"

    def test_variant_threshold_flagged_on_disagreement(self):
        # |phi| = 0.1875 < 1/4 puts us in case1, but the unscaled variant
        # compares 3 * 4 * 0.5 = 6 >= |theta| = 4 and would pick case2.
        report = fekete_szego_bound(BoundInputs(BISTAR, 0.5, -1.0, upsilon=4.0))
        assert report.regime == "case1"
        assert report.flags == ("threshold variant without 1/|p| scaling selects case2",)

    def test_variant_threshold_silent_at_unit_p(self):
        # at |p| = 1 the two thresholds coincide, so no flag either side
        for u in (0.5, 1.7, 3.0):
            report = fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=u))
            assert report.flags == ()


class TestArrayCore:
    """bound_arrays and its 0-d views against the scalar reference, bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(
        lam=st.one_of(st.just(1.0), _finite(1.0, 4.0)),
        mu=st.one_of(st.just(0.0), _finite(0.0, 4.0)),
        delta=st.one_of(st.just(0.0), _finite(0.0, 3.0)),
        p=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), _finite(-3.0, 3.0)),
        q=st.one_of(st.sampled_from([0.0, 1.0, -0.5]), _finite(-3.0, 3.0)),
        upsilon=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), _finite(-2.0, 4.0)),
        zero_theta=st.booleans(),
    )
    @example(lam=1.0, mu=0.0, delta=0.0, p=0.0, q=1.0, upsilon=3.0, zero_theta=False)
    # bistarlike theta = -4 q: theta = 0 as the upsilon = 1 limit and unbounded
    @example(lam=1.0, mu=0.0, delta=0.0, p=1.5, q=0.0, upsilon=1.0, zero_theta=False)
    @example(lam=1.0, mu=0.0, delta=0.0, p=1.5, q=0.0, upsilon=2.0, zero_theta=False)
    @example(lam=1.0, mu=0.0, delta=0.0, p=1.0, q=1.0, upsilon=0.0, zero_theta=False)
    @example(lam=1.0, mu=0.0, delta=0.0, p=1.0, q=1.0, upsilon=2.0, zero_theta=False)
    @example(lam=1.0, mu=0.0, delta=0.0, p=0.5, q=-1.0, upsilon=4.0, zero_theta=False)
    @example(lam=1.5, mu=1.0, delta=0.0, p=2.0, q=0.5, upsilon=0.0, zero_theta=False)
    def test_matches_reference_bit_for_bit(self, lam, mu, delta, p, q, upsilon, zero_theta):
        if zero_theta:
            q = _theta_zero_q(lam, mu, delta, p)
        # The drawn point plus bistarlike, p = 0 and upsilon = 1 neighbours,
        # broadcast over (params, x, upsilon) axes as the CLI table does.
        params = [ClassParams(lam, mu, delta), BISTAR]
        points = [(p, q), (0.0, q), (p, 0.0)]
        upsilons = [upsilon, 1.0, 0.0]
        table = bound_arrays(
            np.array([c.lam for c in params])[:, None, None],
            np.array([c.mu for c in params])[:, None, None],
            np.array([c.delta for c in params])[:, None, None],
            np.array([pt[0] for pt in points])[:, None],
            np.array([pt[1] for pt in points])[:, None],
            np.array(upsilons),
        )
        for i, c in enumerate(params):
            for j, (pv, qv) in enumerate(points):
                for k, u in enumerate(upsilons):
                    inputs = BoundInputs(c, pv, qv, u)
                    want_theta, want_zero = _ref_theta(c, pv, qv)
                    assert repr(float(table.theta[i, j, 0])) == repr(want_theta)
                    assert (repr(inputs.theta), inputs.theta_zero) == (repr(want_theta), want_zero)
                    for view, ref, value, code, regime in (
                        (bound_a2, reference_a2, table.a2[i, j, 0], table.a2_flags[i, j, 0],
                         None),
                        (bound_a3, reference_a3, table.a3[i, j, 0], table.a3_flags[i, j, 0],
                         None),
                        (fekete_szego_bound, reference_fekete, table.fs[i, j, k],
                         table.fs_flags[i, j, k], REGIMES[table.regime[i, j, k]]),
                    ):
                        want = _key(*ref(c, pv, qv, u))
                        report = view(inputs)
                        assert _key(report.value, report.regime, report.flags) == want
                        flags = FLAG_SETS[code]
                        if regime is None:
                            regime = "degenerate" if flags else "case1"
                        assert _key(value, regime, flags) == want

    def test_long_axes_match_reference(self):
        # numpy's vectorised power and square round differently from
        # Python's ** on a share of long inputs; short axes never show it
        rng = np.random.default_rng(4)
        lows, highs = (1.0, 0.0, 0.0, -3.0, -3.0, -2.0), (4.0, 4.0, 3.0, 3.0, 3.0, 4.0)
        columns = rng.uniform(lows, highs, size=(20_000, 6)).T
        table = bound_arrays(*columns)
        got = zip(
            table.theta.tolist(), table.a2.tolist(), table.a3.tolist(), table.fs.tolist(),
            table.regime.tolist(), table.fs_flags.tolist(),
        )
        for (lam, mu, delta, p, q, u), (th, a2, a3, fs, regime, fs_flags) in zip(
            columns.T.tolist(), got
        ):
            params = ClassParams(lam, mu, delta)
            assert repr(th) == repr(_ref_theta(params, p, q)[0])
            assert repr(a2) == repr(reference_a2(params, p, q, u)[0])
            assert repr(a3) == repr(reference_a3(params, p, q, u)[0])
            want = _key(*reference_fekete(params, p, q, u))
            assert _key(fs, REGIMES[regime], FLAG_SETS[fs_flags]) == want

    def test_inputs_evaluate_the_core_once(self, monkeypatch):
        calls = []
        core = bounds.bound_arrays
        monkeypatch.setattr(bounds, "bound_arrays", lambda *a: calls.append(a) or core(*a))
        inputs = BoundInputs(BISTAR, 1.0, 1.0, upsilon=3.0)
        # The one call is made at construction, where theta comes from it;
        # verify's draws rejected on |theta| pay for it (about 1% of them).
        assert len(calls) == 1
        for view in (bound_a2, bound_a3, fekete_szego_bound, bound_a2):
            view(inputs)
        assert len(calls) == 1

    def test_shapes_follow_dependencies(self):
        table = bound_arrays(
            np.ones((2, 1, 1)), np.zeros((2, 1, 1)), np.zeros((2, 1, 1)),
            np.ones((3, 1)), np.ones((3, 1)), np.linspace(0.0, 2.0, 4),
        )
        for name in ("theta", "a2", "a3", "a2_flags", "a3_flags"):
            assert getattr(table, name).shape == (2, 3, 1)
        for name in ("fs", "regime", "fs_flags"):
            assert getattr(table, name).shape == (2, 3, 4)

    def test_overflowing_multiplier_is_rejected_not_raised(self):
        # c1 ~ 1e160 squares past the float range; before, c1**2 raised
        with pytest.raises(ValueError, match="lambda, mu or delta is too large"):
            BoundInputs(ClassParams(1e160, 0.0, 0.0), 1.0, 1.0)


class TestRowPath:
    """A point built from its row of a block call against its own call."""

    POINTS = [
        (BISTAR, 1.0, 1.0, 3.0),  # theta = -4
        (BISTAR, 0.0, 1.0, 2.0),  # p = 0
        (BISTAR, 0.0, 0.0, 1.0),  # p = 0 and theta = 0 at upsilon = 1
        (BISTAR, 1.5, 0.0, 1.0),  # theta = 0 at upsilon = 1: the |p|/c2 limit
        (BISTAR, 1.5, 0.0, 2.0),  # theta = 0 away from upsilon = 1: unbounded
        (BISTAR, -0.5, 1.0, 1.0),
        (ClassParams(1.7, 0.4, 0.9), 1.3, -0.6, 1.0),
        (ClassParams(2.5, 2.0, 0.3), -1.9, 1.2, -0.7),
        (ClassParams(1.2, 0.0, 1.5), 0.25, 0.8, 2.6),
    ]

    @staticmethod
    def _block(points):
        return bound_arrays(*(np.array(column) for column in zip(*(
            (c.lam, c.mu, c.delta, p, q, u) for c, p, q, u in points
        ))))

    def test_rows_match_own_call_bit_for_bit(self):
        block = self._block(self.POINTS)
        for i, (params, p, q, u) in enumerate(self.POINTS):
            got = BoundInputs(params, p, q, u, _row=block.row(i))
            want = BoundInputs(params, p, q, u)
            assert (got, repr(got), hash(got)) == (want, repr(want), hash(want))
            assert (repr(got.theta), got.theta_zero) == (repr(want.theta), want.theta_zero)
            for view in (bound_a2, bound_a3, fekete_szego_bound):
                a, b = view(got), view(want)
                assert _key(a.value, a.regime, a.flags) == _key(b.value, b.regime, b.flags)
        assert [BoundInputs(*point, _row=block.row(i)).theta_zero
                for i, point in enumerate(self.POINTS)][:5] == [False, False, True, True, True]

    def test_row_makes_no_core_call(self, monkeypatch):
        block = self._block(self.POINTS)
        monkeypatch.setattr(bounds, "bound_arrays", None)
        assert BoundInputs(*self.POINTS[0], _row=block.row(0)).theta == -4.0

    @pytest.mark.parametrize(
        "params, p, message",
        [
            (ClassParams(1e160, 0.0, 0.0), 1.0, "lambda, mu or delta is too large"),
            (BISTAR, 1e200, "p(x) or q(x) is too large"),
        ],
    )
    def test_overflowing_row_raises_the_same_message(self, params, p, message):
        block = self._block([self.POINTS[0], (params, p, 1.0, 1.0)])
        for kwargs in ({}, {"_row": block.row(1)}):
            with pytest.raises(ValueError) as raised:
                BoundInputs(params, p, 1.0, 1.0, **kwargs)
            assert str(raised.value) == f"theta must be finite: {message}"

    def test_row_still_checks_its_inputs(self):
        block = self._block(self.POINTS[:1])
        with pytest.raises(ValueError, match="upsilon must be finite"):
            BoundInputs(BISTAR, 1.0, 1.0, math.nan, _row=block.row(0))


# bound_arrays' decisions against exact rational arithmetic on the same
# float inputs.  A decision whose exact margin to its threshold lies inside
# the band where float rounding may decide it is not compared.

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1070  # above the absolute rounding of a subnormal product
_NEAR = (0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 2.0, -2.0)


@functools.cache
def _exact_terms():
    """``(c1, c2, t1, t2)`` of ``(lam, mu, delta, p, q)`` as one function.

    The production ``multipliers`` and ``bounds._theta_terms`` are evaluated
    once on sympy symbols and their float constants made rational, so
    ``Fraction`` inputs give exact ``Fraction`` values.
    """
    symbols = sympy.symbols("lam mu delta p q")
    _, c1, c2, mass = multipliers(*symbols[:3])
    terms = (c1, c2, *bounds._theta_terms(mass, c1, *symbols[3:]))
    exprs = [sympy.nsimplify(np.asarray(t, dtype=object).item(), rational=True) for t in terms]
    return sympy.lambdify(symbols, exprs, modules=[{}])


def _exact_decisions(lam, mu, delta, p, q, upsilon):
    """Decisions of :func:`bound_arrays` in ``Fraction`` arithmetic.

    Returns ``((theta_zero, regime, a2 flags, a3 flags, fs flags),
    theta_decided, all_decided)``.  Each term of the float ``theta = t1 - t2``
    takes about a dozen roundings, so the float ``theta`` lies within
    ``err = 32 u (|t1| + 2 c1^2 (p^2 + 2|q|))`` of the exact one, twice the
    first-order bound (``u`` the unit roundoff); ``|phi|`` inherits
    ``err / |theta|`` plus a few ``u`` relative.  Rounding may decide a test
    only where its exact margin is within twice such a bound: for
    ``theta_zero`` that band is a few percent of ``THETA_TOL * max(1, |t1| +
    |t2|)`` at most, for the regime an absolute ``~ |phi| err / |theta|``.
    """
    lam, mu, delta, p, q, u = map(Fraction, (lam, mu, delta, p, q, upsilon))
    c1, c2, t1, t2 = _exact_terms()(lam, mu, delta, p, q)
    theta = t1 - t2
    err = 32 * _U * (abs(t1) + 2 * c1 * c1 * (p * p + 2 * abs(q))) + _TINY
    threshold = Fraction(THETA_TOL) * max(1, abs(t1) + abs(t2))
    theta_zero = abs(theta) <= threshold
    theta_decided = abs(abs(theta) - threshold) > 2 * (err + 4 * _U * threshold)
    p_zero = p == 0
    head = (theta_zero, "degenerate", (_P_ZERO,) * p_zero + (_THETA_ZERO,) * theta_zero,
            (_P_ZERO,) * p_zero)
    if theta_zero:
        return (*head, FLAG_SETS[4 if u == 1 else 5]), theta_decided, theta_decided
    if p_zero:
        return (*head, (_P_ZERO,)), theta_decided, theta_decided
    num = p * p * (1 - u)
    phi, half = abs(num / theta), 1 / (2 * c2)
    err_phi = phi * (8 * _U + err / abs(theta)) + _TINY / abs(theta) + 8 * _U * half
    gap = abs(phi - half)
    regime = "boundary" if gap <= Fraction(BOUNDARY_TOL) else "case1" if phi < half else "case2"
    decided = theta_decided and abs(gap - Fraction(BOUNDARY_TOL)) > 2 * (err_phi + _U * gap)
    flags = ()
    if regime != "boundary":
        lhs = abs(1 - u) * 2 * c2 * abs(p)
        decided = decided and abs(lhs - abs(theta)) > 2 * (16 * _U * lhs + err)
        if (lhs >= abs(theta)) != (regime == "case2"):
            variant = "case2" if lhs >= abs(theta) else "case1"
            flags = (f"threshold variant without 1/|p| scaling selects {variant}",)
    return (theta_zero, regime, *head[2:], flags), theta_decided, decided


def _assert_matches_exact(lam, mu, delta, p, q, upsilon):
    """Compare the decided tests; return ``(theta_decided, all_decided)``."""
    want, theta_decided, decided = _exact_decisions(lam, mu, delta, p, q, upsilon)
    table = bound_arrays(lam, mu, delta, p, q, upsilon)
    got = (bool(table.theta_zero), REGIMES[int(table.regime)],
           *(FLAG_SETS[int(c)] for c in (table.a2_flags, table.a3_flags, table.fs_flags)))
    if decided:
        assert got == want
    elif theta_decided:
        assert got[0] == want[0]
    return theta_decided, decided


def _theta_level_q(lam, mu, delta, p, level):
    """The q at which ``theta = level * max(1, |t1| + |t2|)``, up to rounding.

    ``theta`` is affine in ``q`` and ``t1`` does not depend on it; near
    ``theta = 0`` the two terms are equal, so ``|t1| + |t2| = 2 t1``.
    """
    params = ClassParams(lam, mu, delta)
    t1 = params.mass * p * p
    return ((t1 - level * max(1.0, 2.0 * t1)) / (2.0 * params.c1 * params.c1) - p * p) / 2.0


def _boundary_upsilon(lam, mu, delta, p, q, offset, side):
    """The upsilon at which ``|phi| = 1/(2 c2) + offset``, up to rounding."""
    params = ClassParams(lam, mu, delta)
    theta = BoundInputs(params, p, q).theta
    return 1.0 + side * (1.0 / (2.0 * params.c2) + offset) * abs(theta) / (p * p)


@pytest.mark.skipif(sympy is None, reason="sympy is needed for the exact decisions")
class TestExactDecisions:
    """theta_zero, regime and flag codes against a Fraction evaluation."""

    @settings(deadline=None, max_examples=300)
    @given(
        lam=st.one_of(st.just(1.0), _finite(1.0, 4.0)),
        mu=st.one_of(st.just(0.0), _finite(0.0, 4.0)),
        delta=st.one_of(st.just(0.0), _finite(0.0, 3.0)),
        p=st.one_of(st.sampled_from([1e-8, -1e-8, 1e-160, -1e-160]), _finite(-3.0, 3.0)),
        k=st.sampled_from(_NEAR),
        upsilon=st.one_of(st.sampled_from([1.0, 0.0, 3.0]), _finite(-2.0, 4.0)),
    )
    @example(lam=1.0, mu=0.0, delta=0.0, p=1e-160, k=2.0, upsilon=1.0)
    @example(lam=4.0, mu=0.0, delta=3.0, p=3.0, k=-1.01, upsilon=3.0)
    def test_near_theta_zero(self, lam, mu, delta, p, k, upsilon):
        q = _theta_level_q(lam, mu, delta, p, k * THETA_TOL)
        theta_decided, _ = _assert_matches_exact(lam, mu, delta, p, q, upsilon)
        # only the points within 1% of the threshold may fall in its band
        assert theta_decided or abs(k) in (0.99, 1.01)

    @settings(deadline=None, max_examples=300)
    @given(
        lam=st.one_of(st.just(1.0), _finite(1.0, 4.0)),
        mu=st.one_of(st.just(0.0), _finite(0.0, 4.0)),
        delta=st.one_of(st.just(0.0), _finite(0.0, 3.0)),
        p=st.one_of(st.sampled_from([1e-8, -1e-8]), _finite(1e-3, 3.0), _finite(-3.0, -1e-3)),
        q=_finite(-3.0, 3.0),
        k=st.sampled_from(_NEAR),
        side=st.sampled_from([1.0, -1.0]),
    )
    def test_near_fekete_boundary(self, lam, mu, delta, p, q, k, side):
        upsilon = _boundary_upsilon(lam, mu, delta, p, q, k * BOUNDARY_TOL, side)
        assume(math.isfinite(upsilon))
        _assert_matches_exact(lam, mu, delta, p, q, upsilon)

    def test_bands_leave_clear_points_decided(self):
        # the comparisons above are not vacuous: away from 1% of either
        # threshold, well-conditioned points are decided and agree
        for k in (0.0, 0.5, -0.5, 2.0, -2.0):
            for p in (1e-160, 1e-8, 1.0, 3.0):
                q = _theta_level_q(2.0, 1.0, 0.5, p, k * THETA_TOL)
                assert _assert_matches_exact(2.0, 1.0, 0.5, p, q, 3.0) == (True, True)
            upsilon = _boundary_upsilon(1.0, 0.0, 0.0, 1.0, 1.0, k * BOUNDARY_TOL, -1.0)
            assert _assert_matches_exact(1.0, 0.0, 0.0, 1.0, 1.0, upsilon) == (True, True)


class TestPresets:
    def test_pins(self):
        assert preset("bistarlike") == ClassParams(1.0, 0.0, 0.0)
        assert preset("srivastava") == ClassParams(1.0, 1.0, 0.0)
        # unpinned parameters are lam = mu = 1, delta = 0
        assert preset("caglar") == ClassParams(1.0, 1.0, 0.0)
        assert preset("mu1") == ClassParams(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("tag", list(PRESET_PINS))
    def test_preset_is_its_pins_over_the_defaults(self, tag):
        assert preset(tag) == ClassParams(**PRESET_PINS[tag])

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown preset tag"):
            preset("starlike")
