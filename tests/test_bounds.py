"""Closed-form bounds: golden values, regime tags, degeneracy flags, presets."""

import math

import numpy as np
import pytest

from pqlucas.bioperator import ClassParams
from pqlucas.lucas import PolyPair, lucas_sequence
from pqlucas.bounds import (
    BoundInputs,
    DegenerateDenominatorError,
    bound_a2,
    bound_a3,
    fekete_szego_bound,
    phi,
    preset,
    theta,
    theta_is_zero,
)

BISTAR = preset("bistarlike")  # (lam, mu, delta) = (1, 0, 0): c1 = 1, c2 = 2


class TestTheta:
    def test_bistarlike_collapses_to_minus_4q(self):
        # (mu + 2 lam)(1 + mu) p^2 - 2 c1^2 (p^2 + 2q) = 2p^2 - 2p^2 - 4q
        assert theta(BISTAR, 1.0, 1.0) == -4.0
        assert theta(BISTAR, 1.0, 0.5) == -2.0
        assert theta(BISTAR, 1.3, 0.7) == pytest.approx(-2.8, abs=1e-12)

    def test_general_point(self):
        params = ClassParams(1.0, 2.0, 1.0)  # c1 = 17/3
        # mass = (2 + 2)(1 + 2 + 4) = 28
        want = 28.0 * 4.0 - 2.0 * (17.0 / 3.0) ** 2 * (4.0 + 2.0)
        assert abs(theta(params, 2.0, 1.0) - want) <= 1e-9

    def test_srivastava_point(self):
        # (1, 1, 0): mass = 3 * 2 = 6, c1 = 2, so theta = 6 - 8 = -2 at p=1, q=0
        assert theta(preset("srivastava"), 1.0, 0.0) == -2.0

    def test_zero_detection_is_scale_relative(self):
        assert theta_is_zero(BISTAR, 1.0, 0.0)
        assert not theta_is_zero(BISTAR, 1.0, 1e-3)
        # at p ~ 1e6 the two terms are ~2e12, so q = 1e-3 is lost in them
        assert theta_is_zero(BISTAR, 1e6, 1e-3)


class TestBoundInputs:
    def test_defaults_and_derived(self):
        inputs = BoundInputs(BISTAR, p=2.0, q=1.0)
        _, l1, l2 = lucas_sequence(PolyPair((2.0,), (1.0,), 0.0), 2).values
        assert inputs.upsilon == 1.0
        # theta = mass L1^2 - 2 c1^2 L2, with mass = 2 and c1 = 1 here
        assert inputs.theta == 2.0 * l1 * l1 - 2.0 * l2 == -4.0
        assert inputs.theta_zero is False
        assert inputs.upsilon_x == -2.0

    def test_upsilon_x_none_at_p_zero(self):
        assert BoundInputs(BISTAR, p=0.0, q=1.0).upsilon_x is None

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


class TestPhi:
    def test_values(self):
        assert phi(BoundInputs(BISTAR, 1.0, 1.0, upsilon=1.0)) == 0.0
        assert phi(BoundInputs(BISTAR, 1.0, 1.0, upsilon=0.0)) == pytest.approx(-0.25)
        assert phi(BoundInputs(BISTAR, 2.0, 1.0, upsilon=2.0)) == pytest.approx(1.0)

    def test_raises_on_vanishing_theta(self):
        with pytest.raises(DegenerateDenominatorError, match="phi undefined"):
            phi(BoundInputs(BISTAR, 1.0, 0.0, upsilon=2.0))


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

    def test_as_dict_shape(self):
        d = fekete_szego_bound(BoundInputs(BISTAR, 1.0, 1.0, upsilon=3.0)).as_dict()
        assert set(d) == {"value", "regime", "theta", "upsilon_x", "flags"}
        assert d["flags"] == []


class TestPresets:
    def test_pins(self):
        assert preset("bistarlike") == ClassParams(1.0, 0.0, 0.0)
        assert preset("srivastava") == ClassParams(1.0, 1.0, 0.0)
        assert preset("caglar", lam=2.0, mu=0.5) == ClassParams(2.0, 0.5, 0.0)
        assert preset("mu1", lam=1.5, delta=0.3) == ClassParams(1.5, 1.0, 0.3)

    def test_alpha_passes_through(self):
        assert preset("srivastava", alpha=0.5).alpha == 0.5

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown preset tag"):
            preset("starlike")

    def test_pinned_override_rejected(self):
        with pytest.raises(ValueError, match="pins"):
            preset("bistarlike", mu=1.0)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter overrides"):
            preset("caglar", gamma=1.0)
