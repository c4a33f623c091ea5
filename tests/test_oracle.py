"""Brute-force sweeps: reconstruction routes, suprema vs bounds, sampling."""

import math

import numpy as np
import pytest

from pqlucas.bioperator import ClassParams, apply_operator
from pqlucas.bounds import BoundInputs, DegenerateDenominatorError, preset
from pqlucas.oracle import (
    FUNCTIONALS,
    SchwarzSample,
    SupremumReport,
    closed_form_bound,
    random_inputs,
    reconstruct,
    sweep_max,
    verify_bounds,
)
from pqlucas.series import FunctionSpec

BISTAR_11 = BoundInputs(preset("bistarlike"), p=1.0, q=1.0)  # theta = -4


class TestSchwarzSample:
    def test_free_builds_mirror(self):
        s = SchwarzSample.free(0.3, -0.2, 0.9)
        assert s.s1 == -0.3
        assert (s.r1, s.r2, s.s2) == (0.3, -0.2, 0.9)

    def test_box_violation(self):
        with pytest.raises(ValueError, match="outside the unit box"):
            SchwarzSample.free(1.5, 0.0, 0.0)

    def test_mirror_violation(self):
        with pytest.raises(ValueError, match="s1 must equal -r1"):
            SchwarzSample(0.5, 0.0, 0.5, 0.0)


class TestReconstruct:
    def test_zero_sample(self):
        pair = reconstruct(BISTAR_11, SchwarzSample.free(0.0, 0.0, 0.0))
        assert pair.a2_sq == 0.0
        assert pair.a2_abs == 0.0
        assert pair.a3 == 0.0
        assert pair.a2_linear == 0.0

    def test_antisymmetric_second_coefficients(self):
        # r2 = -s2 kills the a2^2 route but feeds both a3 terms
        pair = reconstruct(BISTAR_11, SchwarzSample.free(0.5, 0.5, -0.5))
        assert pair.a2_sq == 0.0
        assert pair.a3 == pytest.approx(0.5, abs=1e-15)
        assert pair.a2_linear == pytest.approx(0.5, abs=1e-15)

    def test_negative_square_route(self):
        # the sample box is larger than the realizable set, so the squared
        # route may go negative; |a2| uses its absolute value
        pair = reconstruct(BISTAR_11, SchwarzSample.free(0.0, 1.0, 1.0))
        assert pair.a2_sq == pytest.approx(-0.5, abs=1e-15)
        assert pair.a2_abs == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert pair.a3 == 0.0

    def test_degenerate_theta_raises(self):
        inputs = BoundInputs(preset("bistarlike"), p=1.0, q=0.0)
        with pytest.raises(DegenerateDenominatorError, match="reconstruction degenerate"):
            reconstruct(inputs, SchwarzSample.free(0.1, 0.1, 0.1))

    def test_linear_route_matches_operator_pipeline(self):
        # f = z + a2_linear z^2 + a3 z^3 reproduces p r1 in the operator's
        # first coefficient on both sides, tying the sweep to the expansion
        params = ClassParams(1.5, 0.5, 0.25)
        inputs = BoundInputs(params, p=1.2, q=0.3)
        sample = SchwarzSample.free(0.7, 0.2, -0.4)
        pair = reconstruct(inputs, sample)
        out = apply_operator(params, FunctionSpec((pair.a2_linear, pair.a3)))
        assert abs(out.coefficient(1) - inputs.p * sample.r1) <= 1e-9


class TestSweepMax:
    def test_abs_a3_hits_bound_at_corner(self):
        report = sweep_max(BISTAR_11, "abs_a3", grid_n=21)
        assert report.supremum == pytest.approx(1.5, abs=1e-12)
        assert report.bound == pytest.approx(1.5, abs=1e-12)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        arg = report.argmax
        assert (arg.r1, arg.r2, arg.s1, arg.s2) == (-1.0, 1.0, 1.0, -1.0)

    def test_abs_a2_ratio_is_inverse_sqrt2(self):
        report = sweep_max(BISTAR_11, "abs_a2", grid_n=21)
        assert report.supremum == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert report.ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert abs(report.argmax.r2 + report.argmax.s2) == 2.0  # corner pair

    def test_fekete_hits_bound(self):
        inputs = BoundInputs(preset("bistarlike"), p=1.0, q=1.0, upsilon=3.0)
        report = sweep_max(inputs, "fekete", grid_n=21)
        assert report.supremum == pytest.approx(1.0, abs=1e-12)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement_stable_on_corners(self):
        coarse = sweep_max(BISTAR_11, "abs_a3", grid_n=11).supremum
        fine = sweep_max(BISTAR_11, "abs_a3", grid_n=41).supremum
        assert abs(coarse - fine) <= 1e-12

    def test_two_point_grid_suffices(self):
        assert sweep_max(BISTAR_11, "abs_a3", grid_n=2).supremum == pytest.approx(1.5)

    def test_schwarz_mode_is_dominated(self):
        for functional in FUNCTIONALS:
            paper = sweep_max(BISTAR_11, functional, grid_n=21, mode="paper")
            schwarz = sweep_max(BISTAR_11, functional, grid_n=21, mode="schwarz")
            assert schwarz.supremum <= paper.supremum + 1e-12

    def test_schwarz_abs_a3_value(self):
        # caps force r2 = s2 = 0 at |r1| = 1, leaving the pure r1^2 term
        report = sweep_max(BISTAR_11, "abs_a3", grid_n=21, mode="schwarz")
        assert report.supremum == pytest.approx(1.0, abs=1e-12)
        assert report.argmax.r1 == -1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown functional"):
            sweep_max(BISTAR_11, "abs_a4")
        with pytest.raises(ValueError, match="unknown mode"):
            sweep_max(BISTAR_11, "abs_a2", mode="disk")
        with pytest.raises(ValueError, match="grid_n must be >= 2"):
            sweep_max(BISTAR_11, "abs_a2", grid_n=1)
        with pytest.raises(DegenerateDenominatorError, match="sweep degenerate"):
            sweep_max(BoundInputs(preset("bistarlike"), 1.0, 0.0), "abs_a2")

    def test_as_dict_shape(self):
        d = sweep_max(BISTAR_11, "abs_a2", grid_n=5).as_dict()
        assert set(d) == {"functional", "mode", "grid_n", "supremum", "argmax", "bound", "ratio"}
        assert len(d["argmax"]) == 4


class TestRatioEdges:
    def _report(self, supremum, bound):
        return SupremumReport(
            functional="abs_a2",
            mode="paper",
            grid_n=2,
            supremum=supremum,
            argmax=SchwarzSample.free(0.0, 0.0, 0.0),
            bound=bound,
        )

    def test_unbounded_bound_gives_zero_ratio(self):
        assert self._report(5.0, math.inf).ratio == 0.0

    def test_zero_over_zero_is_one(self):
        assert self._report(0.0, 0.0).ratio == 1.0

    def test_positive_over_zero_is_inf(self):
        assert self._report(0.5, 0.0).ratio == math.inf


class TestVerifyBounds:
    def test_golden_point_passes_all(self):
        inputs = BoundInputs(preset("bistarlike"), p=1.0, q=1.0, upsilon=3.0)
        verdict = verify_bounds(inputs, grid_n=21)
        assert verdict.all_pass
        assert verdict.passes == (True, True, True)
        assert tuple(r.functional for r in verdict.reports) == FUNCTIONALS

    def test_random_points_pass(self):
        rng = np.random.default_rng(99)
        for inputs in random_inputs(rng, 5):
            assert verify_bounds(inputs, grid_n=9).all_pass

    def test_closed_form_bound_dispatch(self):
        assert closed_form_bound(BISTAR_11, "abs_a2") == pytest.approx(1.0)
        assert closed_form_bound(BISTAR_11, "abs_a3") == pytest.approx(1.5)
        with pytest.raises(ValueError, match="unknown functional"):
            closed_form_bound(BISTAR_11, "a4")


class TestRandomInputs:
    def test_deterministic_given_seed(self):
        a = random_inputs(np.random.default_rng(123), 8)
        b = random_inputs(np.random.default_rng(123), 8)
        assert [(x.p, x.q, x.upsilon) for x in a] == [(x.p, x.q, x.upsilon) for x in b]

    def test_ranges_and_rejection(self):
        draws = random_inputs(np.random.default_rng(5), 20)
        assert len(draws) == 20
        for inputs in draws:
            assert 1.0 <= inputs.params.lam <= 3.0
            assert 0.0 <= inputs.params.mu <= 3.0
            assert 0.0 <= inputs.params.delta <= 2.0
            assert abs(inputs.p) >= 0.1
            assert abs(inputs.theta) >= 2.0
            assert -1.0 <= inputs.upsilon <= 3.0

    def test_impossible_rejection_raises(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            random_inputs(np.random.default_rng(1), 1, p_min=3.0, max_tries=50)
