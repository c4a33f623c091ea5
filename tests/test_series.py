"""Truncated-series arithmetic: golden values, order bookkeeping, properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqlucas import series as ps
from pqlucas.bioperator import ClassParams, apply_operator
from pqlucas.lucas import PolyPair, generating_series
from pqlucas.series import FunctionSpec, TruncatedSeries


def max_abs_diff(s: TruncatedSeries, t: TruncatedSeries) -> float:
    assert s.order == t.order
    return max(abs(a - b) for a, b in zip(s.coeffs, t.coeffs))


coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
coeff_list = st.lists(coeff, min_size=1, max_size=9)


class TestBasics:
    def test_order_is_length_minus_one(self):
        assert ps.series([1, 2, 3]).order == 2

    def test_explicit_order_pads_with_zeros(self):
        s = ps.series([1.0], order=3)
        assert s.coeffs == (1.0, 0.0, 0.0, 0.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_coefficient_out_of_range(self):
        with pytest.raises(IndexError):
            ps.series([1.0, 2.0]).coefficient(2)

    def test_add_cancels(self):
        s = ps.series([1.0, 2.0])
        assert ps.add(s, ps.scale(s, -1.0)).coeffs == (0.0, 0.0)
        assert ps.add(ps.series([1.0, 1.0]), ps.series([1.0, -1.0])).coeffs == (2.0, 0.0)

    def test_add_zero_is_identity(self):
        s = ps.series([0.3, -0.7, 0.1])
        assert ps.add(ps.series([0.0], order=2), s).coeffs == s.coeffs

    def test_add_componentwise(self):
        out = ps.add(ps.series([2.0, 1.0, 3.0]), ps.series([0.0, 1.0, -1.0]))
        assert out.coeffs == (2.0, 2.0, 2.0)

    def test_add_truncates_to_min_order(self):
        s = ps.series([1.0, 1.0, 1.0])
        t = ps.series([1.0, 1.0])
        assert ps.add(s, t).order == 1

    def test_mul_min_order_rule(self):
        # (1 + z + z^2)^2 truncated at order 2
        s = ps.series([1.0, 1.0, 1.0])
        assert ps.mul(s, s).coeffs == (1.0, 2.0, 3.0)

    def test_mul_conjugate_pair(self):
        out = ps.mul(ps.series([1.0, 1.0], order=2), ps.series([1.0, -1.0], order=2))
        assert out.coeffs == (1.0, 0.0, -1.0)

    def test_mul_by_one_is_identity(self):
        s = ps.series([0.3, -0.7, 0.1])
        one = ps.series([1.0], order=2)
        assert max_abs_diff(ps.mul(s, one), s) == 0.0


class TestRealCoefficients:
    def test_every_result_holds_floats(self):
        s = ps.series([1, 2, -3])
        f = FunctionSpec((0.3, -0.2))
        results = [
            s,
            ps.mul(s, s),
            ps.div(s, s),
            ps.pow_real(s, 0.5),
            ps.compose(s, ps.series([0, 1, 1])),
            ps.revert_series(f, 3),
            generating_series(PolyPair((0.0, 1.0), (1.0,), 0.5), 6),
            apply_operator(ClassParams(1.7, 0.9, 0.3), f),
        ]
        for result in results:
            assert all(type(c) is float for c in result.coeffs), result

    def test_complex_coefficient_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries((1 + 2j,))

    def test_products_add_left_to_right(self):
        # [z^3] adds the products 1, 1e100, 1, -1e100 in that order; a
        # compensated sum (builtin sum on floats from Python 3.12) gives 2.0
        s = ps.series([1.0, 1.0, 1.0, 1.0])
        t = ps.series([-1e100, 1.0, 1e100, 1.0])
        assert ps.mul(s, t).coefficient(3) == 0.0


class TestDerivative:
    def test_termwise_rule(self):
        d = ps.derivative(ps.series([0.0, 1.0, 2.0, 3.0]))
        assert d.coeffs == (1.0, 4.0, 9.0)

    def test_second_derivative_of_cubic(self):
        f = ps.series([0.0, 1.0, 0.5, 0.25])  # z + a2 z^2 + a3 z^3
        d2 = ps.derivative(ps.derivative(f))
        assert d2.coeffs == (1.0, 1.5)  # 2*a2 + 6*a3*z
        assert d2.order == 1

    def test_constant_at_higher_order_is_fine(self):
        d = ps.derivative(ps.series([5.0], order=3))
        assert d.coeffs == (0.0, 0.0, 0.0)

    def test_order_zero_constant_raises(self):
        with pytest.raises(ValueError, match="cannot differentiate constant at order 0"):
            ps.derivative(ps.series([5.0]))


class TestDivision:
    def test_geometric_series(self):
        out = ps.div(ps.series([1.0], order=4), ps.series([1.0, -1.0], order=4))
        assert out.coeffs == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_zero_constant_denominator(self):
        with pytest.raises(ZeroDivisionError):
            ps.div(ps.series([1.0, 0.0]), ps.series([0.0, 1.0]))

    def test_div_then_mul_roundtrip(self):
        num = ps.series([2.0, -1.0, 0.5, 0.25])
        den = ps.series([1.0, 0.3, -0.2, 0.7])
        back = ps.mul(ps.div(num, den), den)
        assert max_abs_diff(back, num) < 1e-14


class TestPowReal:
    def test_square_root_golden(self):
        s = ps.pow_real(ps.series([1.0, 0.2, 0.1]), 0.5)
        for got, want in zip(s.coeffs, (1.0, 0.1, 0.045)):
            assert abs(got - want) <= 1e-12

    def test_integer_square(self):
        s = ps.series([1.0, 1.0], order=2)
        got = ps.pow_real(s, 2.0)
        assert max_abs_diff(got, ps.series([1.0, 2.0, 1.0])) <= 1e-12

    def test_zeroth_power_is_one(self):
        s = ps.series([1.0, 0.4, -0.3])
        assert ps.pow_real(s, 0.0).coeffs == (1.0, 0.0, 0.0)

    def test_negative_power_inverts(self):
        s = ps.series([1.0, 0.5, -0.25, 0.1])
        prod = ps.mul(ps.pow_real(s, -1.0), s)
        assert max_abs_diff(prod, ps.series([1.0], order=3)) <= 1e-14

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="pow_real requires unit constant term"):
            ps.pow_real(ps.series([2.0, 1.0]), 0.5)

    @settings(deadline=None)
    @given(st.lists(coeff, min_size=0, max_size=6), st.integers(min_value=0, max_value=5))
    def test_matches_repeated_multiplication(self, tail, m):
        s = ps.series([1.0] + tail, order=max(len(tail), 1))
        want = ps.series([1.0], order=s.order)
        for _ in range(m):
            want = ps.mul(want, s)
        got = ps.pow_real(s, float(m))
        for a, b in zip(got.coeffs, want.coeffs):
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


class TestCompose:
    def test_quadratic_outer(self):
        # outer(u) = 2 + u + 3u^2 at u = r1 z + r2 z^2
        r1, r2 = 0.7, -0.3
        outer = ps.series([2.0, 1.0, 3.0])
        inner = ps.series([0.0, r1, r2])
        out = ps.compose(outer, inner)
        assert abs(out.coefficient(0) - 2.0) <= 1e-15
        assert abs(out.coefficient(1) - r1) <= 1e-15
        assert abs(out.coefficient(2) - (r2 + 3.0 * r1 * r1)) <= 1e-14

    def test_inner_monomial(self):
        outer = ps.series([1.0, 1.0, 1.0, 1.0, 1.0])
        inner = ps.series([0.0, 0.0, 1.0], order=4)
        assert ps.compose(outer, inner).coeffs == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_zero_inner_gives_constant(self):
        outer = ps.series([4.0, 1.0, 2.0])
        inner = ps.series([0.0], order=2)
        assert ps.compose(outer, inner).coeffs == (4.0, 0.0, 0.0)

    def test_nonzero_inner_constant_raises(self):
        with pytest.raises(ValueError, match=r"composition requires inner\(0\)=0"):
            ps.compose(ps.series([1.0, 1.0]), ps.series([0.5, 1.0]))


class TestReversion:
    def test_golden_all_ones(self):
        g = ps.revert_series(FunctionSpec((1.0, 1.0, 1.0)), 4)
        for got, want in zip(g.coeffs, (0.0, 1.0, -1.0, 1.0, -1.0)):
            assert abs(got - want) <= 1e-12

    def test_identity_reverts_to_identity(self):
        g = ps.revert_series(FunctionSpec(()), 2)
        assert g.coeffs == (0.0, 1.0, 0.0)

    def test_quadratic_roundtrip(self):
        f = FunctionSpec((0.5, 0.25))
        g = ps.revert_series(f, 3)
        assert abs(g.coefficient(3) - (2 * 0.25 - 0.25)) <= 1e-12  # 2 a2^2 - a3
        round_trip = ps.compose(g, f.to_series(3))
        assert max_abs_diff(round_trip, ps.series([0.0, 1.0], order=3)) < 1e-12

    def test_order_beyond_truncation_raises(self):
        with pytest.raises(ValueError, match="reversion order"):
            ps.revert_series(FunctionSpec((0.5, 0.25)), 5)

    @settings(deadline=None)
    @given(
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
    )
    def test_closed_forms_and_roundtrip(self, a2, a3, a4):
        f = FunctionSpec((a2, a3, a4))
        g = ps.revert_series(f, 4)
        assert abs(g.coefficient(2) - (-a2)) <= 1e-12
        assert abs(g.coefficient(3) - (2 * a2**2 - a3)) <= 1e-12
        assert abs(g.coefficient(4) - (-(5 * a2**3 - 5 * a2 * a3 + a4))) <= 1e-12
        round_trip = ps.compose(g, f.to_series(4))
        assert max_abs_diff(round_trip, ps.series([0.0, 1.0], order=4)) <= 1e-10


def reference_revert(f: FunctionSpec, m: int) -> TruncatedSeries:
    """The reversion loop with one full ``compose`` per pass, kept as a reference."""
    fs = f.to_series(m)
    g = [0.0] * (m + 1)
    g[1] = 1.0
    for n in range(2, m + 1):
        residual = ps.compose(TruncatedSeries(tuple(g)), fs)
        g[n] -= residual.coeffs[n]
    return TruncatedSeries(tuple(g))


def order_and_coefficients(values, weight):
    """``(m, (a2, ..., aM))`` with ``m`` in 1..40 and ``M`` equal to ``m - 1`` or ``m``."""
    return st.integers(min_value=1, max_value=40).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(values, min_size=max(m - 2, 0), max_size=m - 1).map(
                lambda vs: tuple(v * weight(k) for k, v in enumerate(vs, start=2))
            ),
        )
    )


unit_over_k_squared = order_and_coefficients(
    st.floats(min_value=-1.0, max_value=1.0), lambda k: 1.0 / (k * k)
)
up_to_1e300 = order_and_coefficients(
    st.floats(min_value=-1e300, max_value=1e300), lambda k: 1.0
)


class TestTruncatedHorner:
    """``revert_series`` gives the full-``compose`` loop's coefficients bit for bit."""

    @staticmethod
    def check(case):
        m, a = case
        f = FunctionSpec(a)
        got = ps.revert_series(f, m).coeffs
        want = reference_revert(f, m).coeffs
        assert len(got) == len(want) == m + 1
        for k, (x, y) in enumerate(zip(got, want)):
            if not math.isfinite(y):
                break
            assert repr(x) == repr(y), (k, x, y)

    @settings(deadline=None, max_examples=60)
    @given(unit_over_k_squared)
    @example((1, ()))
    @example((2, ()))  # FunctionSpec(()) at m = 2 = truncation + 1
    @example((40, tuple((-1.0) ** k / (k * k) for k in range(2, 40))))  # m = truncation + 1
    def test_small_coefficients(self, case):
        self.check(case)

    @settings(deadline=None, max_examples=60)
    @given(up_to_1e300)
    @example((3, (1e100, 1e250)))  # the parent's full pass overflowed into NaN here
    def test_huge_coefficients(self, case):
        self.check(case)

    def test_keeps_dropped_overflow_out_of_the_result(self):
        # Level b2 * f of pass 3 overflows at z^3, a coefficient pass 3 never
        # reads; times f(0) = 0 it turned b3 into NaN in the full composition.
        f = FunctionSpec((1e100, 1e250))
        assert math.isnan(reference_revert(f, 3).coeffs[3])
        assert ps.revert_series(f, 3).coeffs == (0.0, 1.0, -1e100, -1e250)


def mp_revert(a, m, mpmath):
    """``b1..bm`` of ``f^{-1}`` at the current mpmath precision.

    Builds the powers ``f^j`` through order ``m`` and solves the unit lower
    triangular system ``sum_j b_j [z^n] f^j = [n = 1]`` by forward substitution.
    """
    f = [mpmath.mpf(0), mpmath.mpf(1)] + [mpmath.mpf(v) for v in a]
    f += [mpmath.mpf(0)] * (m + 1 - len(f))
    powers = [None, f[: m + 1]]
    for j in range(2, m + 1):
        prev = powers[-1]
        powers.append(
            [mpmath.mpf(0)] * j
            + [mpmath.fsum(prev[i] * f[n - i] for i in range(j - 1, n)) for n in range(j, m + 1)]
        )
    b = [mpmath.mpf(0)] * (m + 1)
    for n in range(1, m + 1):
        b[n] = (1 if n == 1 else 0) - mpmath.fsum(b[j] * powers[j][n] for j in range(1, n))
    return b


class TestMpmathOracle:
    """``revert_series`` against an independent 60-digit reversion.

    The bounds are today's maximum absolute errors over the 50 draws with
    some headroom: 9.7e-12 at m = 30, where the largest ``|b_n|`` is about
    810, and 1.4e-8 at m = 40, where it is about 6.0e4 (relative error
    1.2e-11).  A more accurate reversion has to meet them too.
    """

    @pytest.mark.parametrize("m, bound", [(30, 1e-11), (40, 2e-8)])
    def test_absolute_error(self, m, bound):
        mpmath = pytest.importorskip(
            "mpmath", reason="mpmath is needed for the 60-digit reversion oracle"
        )
        worst = 0.0
        with mpmath.workdps(60):
            for seed in range(50):
                rng = np.random.default_rng([m, seed])
                a = [rng.uniform(-1.0, 1.0) / (k * k) for k in range(2, m + 1)]
                got = ps.revert_series(FunctionSpec(a), m).coeffs
                want = mp_revert(a, m, mpmath)
                for x, y in zip(got, want):
                    assert x.imag == 0.0
                    worst = max(worst, float(abs(mpmath.mpf(x.real) - y)))
        assert worst <= bound


class TestFunctionSpec:
    def test_implicit_normalization(self):
        f = FunctionSpec((0.5,))
        assert f.coefficient(0) == 0.0
        assert f.coefficient(1) == 1.0
        assert f.coefficient(2) == 0.5
        assert f.coefficient(3) == 0.0  # polynomial reading beyond truncation

    def test_truncation_index(self):
        assert FunctionSpec(()).truncation == 1
        assert FunctionSpec((0.1, 0.2, 0.3)).truncation == 4

    def test_to_series_pads(self):
        s = FunctionSpec((0.5,)).to_series(4)
        assert s.coeffs == (0.0, 1.0, 0.5, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FunctionSpec((math.inf,))


class TestRingAxioms:
    @settings(deadline=None)
    @given(coeff_list, coeff_list)
    def test_addition_commutes(self, a, b):
        s, t = ps.series(a), ps.series(b)
        assert max_abs_diff(ps.add(s, t), ps.add(t, s)) <= 1e-12

    @settings(deadline=None)
    @given(coeff_list, coeff_list)
    def test_multiplication_commutes(self, a, b):
        s, t = ps.series(a), ps.series(b)
        assert max_abs_diff(ps.mul(s, t), ps.mul(t, s)) <= 1e-12

    @settings(deadline=None)
    @given(coeff_list, coeff_list, coeff_list)
    def test_multiplication_associates(self, a, b, c):
        s, t, u = ps.series(a), ps.series(b), ps.series(c)
        assert max_abs_diff(ps.mul(ps.mul(s, t), u), ps.mul(s, ps.mul(t, u))) <= 1e-12

    @settings(deadline=None)
    @given(coeff_list, coeff_list, coeff_list)
    def test_distributivity(self, a, b, c):
        s, t, u = ps.series(a), ps.series(b), ps.series(c)
        left = ps.mul(s, ps.add(t, u))
        right = ps.add(ps.mul(s, t), ps.mul(s, u))
        assert max_abs_diff(left, right) <= 1e-12
