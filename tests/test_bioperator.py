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
    multipliers,
)
from pqlucas import series as ps
from pqlucas.series import FunctionSpec

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


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
    def test_stores_multipliers(self, lam, mu, delta):
        # inf (an overflowing c1, c2 or mass) and nan compare by repr too
        params = ClassParams(lam, mu, delta)
        derived = (params.xi, params.c1, params.c2, params.mass)
        assert repr(derived) == repr(multipliers(lam, mu, delta))

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
        want = params.mass * a2 * a2
        for a3 in (-0.4, 0.0, 0.9):
            _, z2, _, w2 = closed_forms(params, a2, a3)
            assert abs(z2 + w2 - want) <= 1e-12

    @pytest.mark.parametrize(
        "delta",
        [
            0.0,
            pytest.param(0.7, marks=pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 3: c2 = mu + 2 lam + 2 xi delta, the operator's a3 weight "
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_max": 1.0},
            {"r_max": 0.0},
            {"n_radii": 0},
            {"n_angles": 0},
            # a fractional count would sample radius 0.9 * 3 / 2.5 = 1.08
            {"r_max": 0.9, "n_radii": 2.5, "n_angles": 4},
            {"r_max": 0.9, "n_radii": 2, "n_angles": 4.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DiskGrid(**kwargs)

    def test_numpy_integer_counts(self):
        grid = DiskGrid(0.5, np.int64(2), np.int32(4))
        assert grid.points().shape == (8,)


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

    def test_convex_flagged_point_excluded(self):
        # f = z - z^2 has f' = 1 - 2z, which vanishes at the grid point 0.5;
        # 1 + z f''/f' = (1 - 4z)/(1 - 2z) is 0 at z = 0.25
        params = ClassParams(1.0, 1.0, 0.0)
        grid = DiskGrid(r_max=0.5, n_radii=2, n_angles=4)
        report = check_membership_realpart(params, FunctionSpec((-1.0,)), grid, mode="convex")
        assert report.n_evaluated == 7
        assert report.flagged == (0.5 + 0j,)
        assert report.min_real_part == 0.0
        assert not report.passed

    def test_operator_mode_every_ray_cut_fails(self):
        # f/z = 1 - 2z vanishes at the only grid point, z = 0.5
        params = ClassParams(1.0, 0.5, 0.0)
        grid = DiskGrid(r_max=0.5, n_radii=1, n_angles=1)
        report = check_membership_realpart(params, FunctionSpec((-2.0,)), grid, mode="operator")
        assert report.n_evaluated == 0
        assert not report.passed
        assert report.min_real_part == math.inf
        assert report.worst_point is None

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


def _boundary_min(real_part, r_max):
    """Minimum of ``real_part`` on ``|z| = r_max``: 2^13 angles, then each of
    the eight lowest local minima refined by four rounds of local sampling."""
    step = 2.0 * np.pi / 2**13
    t = step * np.arange(2**13)
    vals = real_part(r_max * np.exp(1j * t))
    local = np.flatnonzero((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))
    best = float(vals.min())
    for i in local[np.argsort(vals[local])[:8]]:
        centre, width = t[i], step
        for _ in range(4):
            tt = centre + np.linspace(-width, width, 65)
            v = real_part(r_max * np.exp(1j * tt))
            k = int(np.argmin(v))
            best = min(best, float(v[k]))
            centre, width = tt[k], width / 16.0
    return best


def _minimum_principle_corpus(seed=2718, per_mode=300):
    """Seeded ``(mode, params, a, grid, denominator roots)`` over all three modes."""
    rng = np.random.default_rng(seed)
    for mode in ("operator", "starlike", "convex"):
        for _ in range(per_mode):
            scale = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
            a = rng.uniform(-scale, scale, rng.integers(1, 6))
            params = ClassParams(rng.uniform(1.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0))
            grid = DiskGrid(float(rng.uniform(0.3, 0.95)), int(rng.integers(8, 25)), int(rng.integers(4, 41)))
            # the denominator, ascending: f/z for operator and starlike, f' for convex
            denom = np.concatenate(([1.0], a))
            if mode == "convex":
                denom = denom * np.arange(1, denom.size + 1)
            yield mode, params, a, grid, np.roots(denom[::-1])


def _real_part(mode, params, a, roots):
    """The mode's ``Re(expr)`` at ``z`` from ``np.polyval`` and the roots alone."""
    f = np.concatenate((a[::-1], [1.0, 0.0]))  # descending coefficients of f
    fp, fpp = np.polyder(f), np.polyder(f, 2)
    if mode == "starlike":
        return lambda z: (z * np.polyval(fp, z) / np.polyval(f, z)).real
    if mode == "convex":
        return lambda z: (1.0 + z * np.polyval(fpp, z) / np.polyval(fp, z)).real
    lam, mu, delta, xi = params.lam, params.mu, params.delta, params.xi

    def operator(z):
        # every root lies outside the disk, so this sum is the analytic log(f/z)
        log_ratio = sum(np.log1p(-z / rho) for rho in roots)
        value = (
            (1.0 - lam) * np.exp(mu * log_ratio)
            + lam * np.polyval(fp, z) * np.exp((mu - 1.0) * log_ratio)
            + xi * delta * z * np.polyval(fpp, z)
        )
        return value.real

    return operator


def test_zero_free_minimum_sits_on_the_boundary():
    # Where the mode's denominator has no zero in the closed disk, its
    # expression is analytic there and the real part is harmonic, so no grid
    # point can go below the minimum over the circle |z| = r_max.
    checked = 0
    for mode, params, a, grid, roots in _minimum_principle_corpus():
        if roots.size and np.min(np.abs(roots)) <= 1.05 * grid.r_max:
            continue
        report = check_membership_realpart(params, FunctionSpec(tuple(a)), grid, mode=mode)
        low = _boundary_min(_real_part(mode, params, a, roots), grid.r_max)
        assert report.flagged == ()
        assert report.min_real_part >= low - 1e-9 * max(1.0, abs(low)), (mode, params, a, grid)
        checked += 1
    assert checked >= 500
