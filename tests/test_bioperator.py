"""Operator expansion, closed-form coefficient identities, membership checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqlucas.bioperator import (
    ClassParams,
    DiskGrid,
    _operator_series,
    apply_operator,
    apply_operator_inverse_side,
    check_membership_realpart,
    closed_forms,
    extract_coefficient_identities,
)
from pqlucas import series as ps
from pqlucas.series import FunctionSpec

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def separate_multipliers(lam, mu, delta):
    """``xi``, ``c1``, ``c2`` and ``theta``'s mass term, each written out on its own."""
    xi = (2.0 * lam + mu) / (2.0 * lam + 1.0)
    two_xi_delta = 2.0 * xi * delta
    mass = (mu + 2.0 * lam) * (1.0 + mu + 12.0 * delta / (2.0 * lam + 1.0))
    return xi, mu + lam + two_xi_delta, mu + 2.0 * lam + two_xi_delta, mass


class TestClassParams:
    def test_derived_multipliers(self):
        params = ClassParams(lam=1.0, mu=2.0, delta=1.0)
        assert abs(params.xi - 4.0 / 3.0) <= 1e-15
        assert abs(params.c1 - 17.0 / 3.0) <= 1e-14
        assert abs(params.c2 - 20.0 / 3.0) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(1.0, 4.0) | st.floats(1.0, 1e300),
        mu=st.floats(0.0, 4.0) | st.floats(0.0, 1e300),
        delta=st.floats(0.0, 4.0) | st.floats(0.0, 1e300),
    )
    def test_derived_bits_match_separate_formulas(self, lam, mu, delta):
        # Small values are where a reordered sum rounds differently; inf (an
        # overflowing c1, c2 or mass) and nan compare by repr too.
        params = ClassParams(lam, mu, delta)
        derived = (params.xi, params.c1, params.c2, params.mass)
        assert repr(derived) == repr(separate_multipliers(lam, mu, delta))

    def test_equal_params_share_repr_eq_and_hash(self):
        a, b = ClassParams(2, 1.5, 0.3), ClassParams(2.0, 1.5, 0.3, alpha=0)
        # the derived values stay out of repr, == and hash
        assert repr(a) == repr(b) == "ClassParams(lam=2.0, mu=1.5, delta=0.3, alpha=0.0)"
        assert a == b
        assert hash(a) == hash(b) == hash((2.0, 1.5, 0.3, 0.0))

    def test_no_second_derivative_term(self):
        params = ClassParams(lam=2.0, mu=0.5, delta=0.0)
        assert params.c1 == params.mu + params.lam
        assert params.c2 == params.mu + 2.0 * params.lam

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.5, "mu": 1.0, "delta": 0.0},
            {"lam": 1.0, "mu": -0.1, "delta": 0.0},
            {"lam": 1.0, "mu": 1.0, "delta": -1.0},
            {"lam": 1.0, "mu": 1.0, "delta": 0.0, "alpha": 1.0},
            {"lam": 1.0, "mu": 1.0, "delta": 0.0, "alpha": -0.2},
            {"lam": math.inf, "mu": 1.0, "delta": 0.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ClassParams(**kwargs)

    def test_multipliers_stay_at_least_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = ClassParams(
                lam=rng.uniform(1.0, 3.0),
                mu=rng.uniform(0.0, 3.0),
                delta=rng.uniform(0.0, 2.0),
            )
            assert params.c1 >= 1.0
            assert params.c2 >= 2.0


class TestOperatorSeries:
    def test_reduces_to_derivative(self):
        # lam=1, mu=1, delta=0 collapses the operator to f'
        params = ClassParams(1.0, 1.0, 0.0)
        out = apply_operator(params, FunctionSpec((0.5, 0.25)))
        assert out.coeffs == (1.0 + 0.0j, 1.0 + 0.0j, 0.75 + 0.0j)

    def test_constant_term_is_one(self):
        params = ClassParams(2.2, 1.3, 0.7)
        out = apply_operator(params, FunctionSpec((0.4, -0.2)))
        assert abs(out.coefficient(0) - 1.0) <= 1e-14

    def test_identity_function_maps_to_one(self):
        params = ClassParams(2.0, 3.0, 1.5)
        out = apply_operator(params, FunctionSpec(()))
        assert abs(out.coefficient(0) - 1.0) <= 1e-14
        assert abs(out.coefficient(1)) <= 1e-14
        assert abs(out.coefficient(2)) <= 1e-14

    def test_linear_coefficient_simple_multiplier(self):
        # c1 = mu + lam = 1 at (1, 0, 0), so [z] D[f] is a2 itself
        out = apply_operator(ClassParams(1.0, 0.0, 0.0), FunctionSpec((0.5, 0.2)))
        assert abs(out.coefficient(1) - 0.5) <= 1e-12

    def test_linear_coefficient_with_second_derivative_term(self):
        # (lam, mu, delta) = (1, 2, 1): c1 = 2 + 1 + 2 * (4/3) = 17/3
        out = apply_operator(ClassParams(1.0, 2.0, 1.0), FunctionSpec((0.1, 0.05)))
        assert abs(out.coefficient(1) - (17.0 / 3.0) * 0.1) <= 1e-10

    def test_delta_zero_drops_second_derivative_term(self):
        # at delta = 0 the output is exactly the two-term combination,
        # rebuilt here from the public series primitives
        params = ClassParams(2.0, 1.5, 0.0)
        f = FunctionSpec((0.4, -0.3))
        got = apply_operator(params, f)
        s = f.to_series(3)
        ratio = ps.shift_down(s)
        want = ps.add(
            ps.scale(ps.pow_real(ratio, params.mu), 1.0 - params.lam),
            ps.scale(ps.mul(ps.derivative(s), ps.pow_real(ratio, params.mu - 1.0)), params.lam),
        )
        assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) <= 1e-14

    def test_inverse_side_of_derivative_case(self):
        # g = f^{-1} of f = z + a2 z^2 + a3 z^3 has b2 = -a2, b3 = 2 a2^2 - a3,
        # and at (1, 1, 0) the operator is just g'.
        params = ClassParams(1.0, 1.0, 0.0)
        a2, a3 = 0.3, 0.1
        out = apply_operator_inverse_side(params, FunctionSpec((a2, a3)))
        assert abs(out.coefficient(1) - (-2.0 * a2)) <= 1e-14
        assert abs(out.coefficient(2) - 3.0 * (2.0 * a2 * a2 - a3)) <= 1e-14

    def test_inverse_side_of_trivial_function_is_one(self):
        out = apply_operator_inverse_side(ClassParams(1.6, 0.7, 0.2), FunctionSpec((0.0, 0.0)))
        assert abs(out.coefficient(0) - 1.0) <= 1e-14
        assert abs(out.coefficient(1)) <= 1e-14
        assert abs(out.coefficient(2)) <= 1e-14

    def test_inverse_quadratic_frozen_value(self):
        # (lam, mu, delta) = (1, 0, 0), a2 = 0.3, a3 = 0.1:
        # [w^2] = 2 * ((3/2) * 0.09 - 0.1) = 0.07 on both routes
        params = ClassParams(1.0, 0.0, 0.0)
        out = apply_operator_inverse_side(params, FunctionSpec((0.3, 0.1)))
        assert abs(out.coefficient(2) - 0.07) <= 1e-12


def separate_closed_forms(params, a2, a3):
    """The four closed forms, each written out in full with its own factors."""
    band = 1.0 + 6.0 * params.delta / (2.0 * params.lam + 1.0)
    lam1 = 2.0 * params.lam + 1.0
    return (
        params.c1 * a2,
        (params.mu + 2.0 * params.lam) * (0.5 * (params.mu - 1.0) * a2 * a2 + band * a3),
        -params.c1 * a2,
        (params.mu + 2.0 * params.lam) * (
            (0.5 * (params.mu + 3.0) + 12.0 * params.delta / lam1) * a2 * a2
            - (1.0 + 6.0 * params.delta / lam1) * a3
        ),
    )


class TestClosedForms:
    def test_frozen_point(self):
        params = ClassParams(lam=1.0, mu=0.0, delta=0.0)
        z, z2, w, w2 = closed_forms(params, 0.3, 0.1)
        assert abs(z - 0.3) <= 1e-15
        assert abs(z2 - 0.11) <= 1e-15
        assert abs(w - (-0.3)) <= 1e-15
        assert abs(w2 - 0.07) <= 1e-15

    def test_linear_antisymmetry(self):
        z, _, w, _ = closed_forms(ClassParams(1.7, 2.4, 0.9), 0.8, 0.0)
        assert z == -w

    def test_quadratic_sum_drops_a3(self):
        # direct + inverse second-order coefficients depend only on a2^2
        params = ClassParams(2.0, 1.5, 0.8)
        a2 = 0.6
        band = params.mu + 1.0 + 12.0 * params.delta / (2.0 * params.lam + 1.0)
        want = (params.mu + 2.0 * params.lam) * band * a2 * a2
        for a3 in (-0.4, 0.0, 0.9):
            _, z2, _, w2 = closed_forms(params, a2, a3)
            assert abs(z2 + w2 - want) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(1.0, 1e6),
        mu=st.floats(0.0, 1e6),
        delta=st.floats(0.0, 1e6),
        a2=st.floats(-1e3, 1e3),
        a3=st.floats(-1e3, 1e3),
    )
    def test_bits_match_separate_forms(self, lam, mu, delta, a2, a3):
        params = ClassParams(lam, mu, delta)
        assert repr(closed_forms(params, a2, a3)) == repr(separate_closed_forms(params, a2, a3))

    @pytest.mark.parametrize(
        "delta",
        [
            0.0,
            pytest.param(0.7, marks=pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 2: c2 = mu + 2 lam + 2 xi delta, the operator's a3 weight "
                "is mu + 2 lam + 6 xi delta"))),
        ],
    )
    def test_c2_is_the_operator_a3_weight(self, delta):
        params = ClassParams(1.8, 1.3, delta)
        assert closed_forms(params, 0.0, 1.0)[1] == pytest.approx(params.c2, rel=1e-15, abs=0.0)


class TestIdentityExtraction:
    def test_frozen_report(self):
        params = ClassParams(2.5, 1.7, 1.2)
        report = extract_coefficient_identities(params, FunctionSpec((0.37, -0.21)))
        assert report.max_residual <= 1e-12
        assert len(report.pipeline) == 4
        assert abs(report.pipeline[0] + report.pipeline[2]) <= 1e-12  # sign mirror

    def test_zero_coefficients_zero_residuals(self):
        report = extract_coefficient_identities(ClassParams(2.1, 0.4, 1.1), FunctionSpec((0.0, 0.0)))
        assert report.max_residual == 0.0

    def test_derivative_case_is_exact(self):
        report = extract_coefficient_identities(ClassParams(1.0, 1.0, 0.0), FunctionSpec((0.5, 0.25)))
        assert report.max_residual <= 1e-12

    def test_report_carries_direct_series(self):
        params, f = ClassParams(2.5, 1.7, 1.2), FunctionSpec((0.37, -0.21))
        report = extract_coefficient_identities(params, f)
        assert report.direct == apply_operator(params, f)

    def test_max_residual_is_nan_when_a_residual_is(self):
        # a2^2 overflows in the pipeline's [z^2]; Python's max would skip the NaN
        params, f = ClassParams(1.0, 1.0, 0.0), FunctionSpec((1e160, 0.0))
        report = extract_coefficient_identities(params, f)
        assert any(math.isnan(r) for r in report.residuals)
        assert math.isnan(report.max_residual)

    def test_needs_both_coefficients(self):
        with pytest.raises(ValueError, match="needs coefficients a2 and a3"):
            extract_coefficient_identities(ClassParams(1.0, 1.0, 0.0), FunctionSpec((0.5,)))

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        unit,
        unit,
    )
    def test_pipeline_matches_closed_forms(self, lam, mu, delta, a2, a3):
        params = ClassParams(lam, mu, delta)
        report = extract_coefficient_identities(params, FunctionSpec((a2, a3)))
        assert report.max_residual <= 1e-9


class TestDiskGrid:
    def test_point_count_and_layout(self):
        grid = DiskGrid(r_max=0.5, n_radii=2, n_angles=4)
        pts = grid.points()
        assert pts.shape == (8,)
        assert abs(pts[0] - 0.25) <= 1e-15  # radius-major, angle 0 first
        assert abs(pts[4] - 0.5) <= 1e-15

    def test_excludes_origin_includes_rim(self):
        pts = DiskGrid(r_max=0.9, n_radii=3, n_angles=8).points()
        assert np.min(np.abs(pts)) > 0.0
        assert abs(np.max(np.abs(pts)) - 0.9) <= 1e-15

    @pytest.mark.parametrize("kwargs", [{"r_max": 1.0}, {"r_max": 0.0}, {"n_radii": 0}, {"n_angles": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DiskGrid(**kwargs)


class TestMembership:
    def test_identity_function_passes_every_mode(self):
        params = ClassParams(1.5, 2.0, 0.5, alpha=0.3)
        for mode in ("operator", "starlike", "convex"):
            report = check_membership_realpart(params, FunctionSpec(()), mode=mode)
            assert report.passed
            assert abs(report.min_real_part - 1.0) <= 1e-12
            assert abs(report.margin - 0.7) <= 1e-12

    def test_convex_pass_small_disk(self):
        # f = z + z^2/2 has 1 + z f''/f' = 1 + z/(1+z); worst point z = -r_max
        params = ClassParams(1.0, 1.0, 0.0)
        grid = DiskGrid(r_max=0.45, n_radii=3, n_angles=4)
        report = check_membership_realpart(params, FunctionSpec((0.5,)), grid, mode="convex")
        assert report.passed
        assert abs(report.min_real_part - (1.0 - 0.45 / 0.55)) <= 1e-12
        assert abs(report.worst_point - (-0.45)) <= 1e-12

    def test_starlike_failure_large_coefficient(self):
        params = ClassParams(1.0, 1.0, 0.0)
        grid = DiskGrid(r_max=0.9, n_radii=3, n_angles=4)
        report = check_membership_realpart(params, FunctionSpec((0.9,)), grid, mode="starlike")
        assert not report.passed
        assert abs(report.min_real_part - (-0.62 / 0.19)) <= 1e-12
        assert abs(report.worst_point - (-0.9)) <= 1e-12
        assert report.n_evaluated == 12
        assert report.flagged == ()

    def test_flagged_point_excluded(self):
        # f = z - 2 z^2 vanishes at z = 0.5, which sits on this grid
        params = ClassParams(1.0, 1.0, 0.0)
        grid = DiskGrid(r_max=0.5, n_radii=2, n_angles=4)
        report = check_membership_realpart(params, FunctionSpec((-2.0,)), grid, mode="starlike")
        assert report.n_evaluated == 7
        assert len(report.flagged) == 1
        assert abs(report.flagged[0] - 0.5) <= 1e-12

    def test_all_points_flagged_fails(self):
        params = ClassParams(1.0, 1.0, 0.0)
        grid = DiskGrid(r_max=0.5, n_radii=1, n_angles=1)
        report = check_membership_realpart(params, FunctionSpec((-2.0,)), grid, mode="starlike")
        assert not report.passed
        assert report.min_real_part == math.inf
        assert report.worst_point is None
        assert report.n_evaluated == 0

    def test_operator_mode_derivative_case(self):
        # At (1, 1, 0) the operator is f'; f = z + 0.5 z^2 gives Re(1 + z)
        params = ClassParams(1.0, 1.0, 0.0)
        grid = DiskGrid(r_max=0.45, n_radii=2, n_angles=8)
        report = check_membership_realpart(params, FunctionSpec((0.5,)), grid, mode="operator")
        assert report.passed
        assert abs(report.min_real_part - 0.55) <= 1e-12

    def test_operator_mode_matches_series_on_axis(self):
        # Cross-check the vectorized evaluation against the series pipeline
        # through order 8 at a real point, where truncation error is the only gap.
        params = ClassParams(2.0, 1.5, 0.4)
        f = FunctionSpec((0.1, 0.05))
        grid = DiskGrid(r_max=0.2, n_radii=1, n_angles=1)  # single point z = 0.2
        report = check_membership_realpart(params, f, grid, mode="operator")
        expansion = _operator_series(params, f.to_series(9))
        approx = sum(c * 0.2**k for k, c in enumerate(expansion.coeffs))
        assert abs(report.min_real_part - approx.real) <= 1e-6

    # f = z (1 + z/1.05)^3: arg(f/z) passes pi inside the disk, so the
    # principal log(f/z) puts 110 points of the default grid on the wrong
    # branch of (f/z)^mu.
    WINDING_F = FunctionSpec((3.0 / 1.05, 3.0 / 1.05**2, 1.0 / 1.05**3))

    @staticmethod
    def _winding_reference(params, z):
        # Each power of f/z is exp(3 s log(1 + z/1.05)): no branch to choose.
        w = z / 1.05
        log1 = np.log1p(w)
        fp = (1.0 + w) ** 2 * (1.0 + 4.0 * w)
        fpp = 6.0 * (1.0 + w) * (1.0 + 2.0 * w) / 1.05
        return (
            (1.0 - params.lam) * np.exp(3.0 * params.mu * log1)
            + params.lam * fp * np.exp(3.0 * (params.mu - 1.0) * log1)
            + params.xi * params.delta * z * fpp
        )

    @pytest.mark.parametrize(
        "grid",
        [DiskGrid(), DiskGrid(r_max=0.95, n_radii=16, n_angles=18)],
        ids=["default", "16x18"],
    )
    def test_operator_mode_continues_log_along_rays(self, grid):
        # On the 16x18 grid the principal branch moved the minimum to
        # another point; on the default grid it changed only non-minimal values.
        params = ClassParams(1.0, 0.5, 0.0)
        report = check_membership_realpart(params, self.WINDING_F, grid, mode="operator")
        want = self._winding_reference(params, grid.points())
        idx = int(np.argmin(want.real))
        assert report.n_evaluated == grid.n_radii * grid.n_angles
        assert abs(report.min_real_part - want.real[idx]) <= 1e-12
        assert abs(report.worst_point - grid.points()[idx]) <= 1e-12

    def test_operator_mode_flags_ray_past_zero_of_ratio(self):
        # f = z (1 + 2z): f/z vanishes at z = -0.5, the 10th radius of the
        # ray at angle pi, so that ray has no continued branch from there on.
        params = ClassParams(1.0, 0.5, 0.0)
        grid = DiskGrid(r_max=0.95, n_radii=19, n_angles=4)
        report = check_membership_realpart(params, FunctionSpec((2.0,)), grid, mode="operator")
        z = grid.points().reshape(19, 4)
        cut = np.zeros(z.shape, dtype=bool)
        cut[9:, 2] = True
        assert report.flagged == tuple(complex(w) for w in z[cut])
        assert report.n_evaluated == 76 - 10
        zv = z[~cut]
        want = (1.0 + 4.0 * zv) * np.exp(-0.5 * np.log1p(2.0 * zv))
        idx = int(np.argmin(want.real))
        assert abs(report.min_real_part - want.real[idx]) <= 1e-12
        assert report.worst_point == zv[idx]

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown membership mode"):
            check_membership_realpart(ClassParams(1.0, 1.0, 0.0), FunctionSpec(()), mode="disk")
