"""Brute-force sweeps: sample box, suprema vs bounds, sampling."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqlucas import oracle
from pqlucas.bounds import BoundInputs, preset
from pqlucas.oracle import (
    FUNCTIONALS,
    MODES,
    SchwarzSample,
    SupremumReport,
    closed_form_bound,
    random_inputs,
    sweep_max,
    verify_bounds,
)

BISTAR_11 = BoundInputs(preset("bistarlike"), p=1.0, q=1.0)  # theta = -4


def reference_sweep(inputs, functional, grid_n, mode):
    """The sweep as one Python loop over r1 with scalar linspace axes."""
    value_at = oracle._FUNCTIONAL_TABLE[functional][0]
    best_value = -math.inf
    best_key = (0.0, 0.0, 0.0)
    for r1 in np.linspace(-1.0, 1.0, grid_n):
        cap = 1.0 if mode == "paper" else 1.0 - float(r1) * float(r1)
        r2_vals = np.linspace(-cap, cap, grid_n)
        s2_vals = np.linspace(-cap, cap, grid_n)
        r2_grid, s2_grid = np.meshgrid(r2_vals, s2_vals, indexing="ij")
        values = np.abs(value_at(inputs, float(r1), r2_grid, s2_grid))
        flat = int(np.argmax(values))
        value = float(values.flat[flat])
        if value > best_value:
            i, j = divmod(flat, grid_n)
            best_value = value
            best_key = (float(r1), float(r2_vals[i]), float(s2_vals[j]))
    r1, r2, s2 = best_key
    return SupremumReport(
        functional=functional,
        mode=mode,
        grid_n=grid_n,
        supremum=best_value,
        argmax=SchwarzSample(r1, r2, -r1, s2),
        bound=closed_form_bound(inputs, functional),
    )


def corner_max(inputs, functional, mode):
    """Exact supremum: the functional is |affine| in (r2, s2) and in r1^2,
    so its maximum over the box sits on one of 12 corners."""
    value_at = oracle._FUNCTIONAL_TABLE[functional][0]
    best = -math.inf
    for r1 in (-1.0, 0.0, 1.0):
        cap = 1.0 if mode == "paper" else 1.0 - r1 * r1
        for r2 in (-cap, cap):
            for s2 in (-cap, cap):
                best = max(best, float(abs(value_at(inputs, r1, r2, s2))))
    return best


CORNER_DRAWS = random_inputs(np.random.default_rng(2024), 200)


class TestSchwarzSample:
    def test_free_builds_mirror(self):
        # sweep_max builds every argmax with s1 = -r1, in (r1, r2, s1, s2) order
        for functional in FUNCTIONALS:
            for mode in MODES:
                arg = sweep_max(CORNER_DRAWS[0], functional, grid_n=9, mode=mode).argmax
                assert arg.s1 == -arg.r1
                assert tuple(arg) == (arg.r1, arg.r2, arg.s1, arg.s2)


class TestSweepMax:
    def test_abs_a3_hits_bound_at_corner(self):
        report = sweep_max(BISTAR_11, "abs_a3", grid_n=21)
        assert report.supremum == pytest.approx(1.5, abs=1e-12)
        assert report.bound == pytest.approx(1.5, abs=1e-12)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        # fields in (r1, r2, s1, s2) order, with the mirror s1 = -r1 built in
        assert report.argmax == SchwarzSample(r1=-1.0, r2=1.0, s1=1.0, s2=-1.0)

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
        assert (report.argmax.r1, report.argmax.s1) == (-1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown functional"):
            sweep_max(BISTAR_11, "abs_a4")
        with pytest.raises(ValueError, match="unknown mode"):
            sweep_max(BISTAR_11, "abs_a2", mode="disk")
        with pytest.raises(ValueError, match="grid_n must be >= 2"):
            sweep_max(BISTAR_11, "abs_a2", grid_n=1)
        with pytest.raises(ValueError, match="sweep degenerate"):
            sweep_max(BoundInputs(preset("bistarlike"), 1.0, 0.0), "abs_a2")

    def test_as_dict_shape(self):
        d = sweep_max(BISTAR_11, "abs_a2", grid_n=5).as_dict()
        assert set(d) == {"functional", "mode", "grid_n", "supremum", "argmax", "bound", "ratio"}
        assert len(d["argmax"]) == 4


class TestBlockedSweep:
    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid_n=st.integers(2, 60),
        mode=st.sampled_from(MODES),
        functional=st.sampled_from(FUNCTIONALS),
    )
    @example(seed=0, grid_n=2, mode="schwarz", functional="abs_a3")  # every cap is 0
    @example(seed=1, grid_n=41, mode="schwarz", functional="fekete")  # 9-row blocks
    @example(seed=2, grid_n=60, mode="paper", functional="abs_a2")  # 4-row blocks
    def test_matches_reference_loop_bit_for_bit(self, seed, grid_n, mode, functional):
        (inputs,) = random_inputs(np.random.default_rng(seed), 1)
        got = sweep_max(inputs, functional, grid_n, mode)
        want = reference_sweep(inputs, functional, grid_n, mode)
        assert repr(got.as_dict()) == repr(want.as_dict())

    @pytest.mark.parametrize("mode", MODES)
    def test_axes_match_scalar_linspace_bytes(self, mode):
        # suprema sit on the box corners, which every rounding of the axes
        # gets right, so the interior points are pinned here
        for grid_n in range(2, 61):
            r1_vals, axis = oracle._box_axes(grid_n, mode)
            assert r1_vals.tobytes() == np.linspace(-1.0, 1.0, grid_n).tobytes()
            for r1, row in zip(r1_vals, axis):
                cap = 1.0 if mode == "paper" else 1.0 - float(r1) * float(r1)
                assert row.tobytes() == np.linspace(-cap, cap, grid_n).tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_ties_across_blocks_resolve_lexicographically(self, monkeypatch, mode):
        # one r1 row per block: |a3| is even in r1, so r1 = -1 and r1 = 1 tie
        # in paper mode and the earlier block must keep the maximum
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 1)
        for functional in FUNCTIONALS:
            got = sweep_max(BISTAR_11, functional, 7, mode)
            want = reference_sweep(BISTAR_11, functional, 7, mode)
            assert repr(got.as_dict()) == repr(want.as_dict())


class TestFunctionalBits:
    @pytest.mark.parametrize("mode", MODES)
    def test_match_formulas_written_out(self, mode):
        # each formula in full, operands in the order the oracle applies them
        r1_vals, axis = oracle._box_axes(9, mode)
        r1, r2, s2 = r1_vals[:, None, None], axis[:, :, None], axis[:, None, :]
        for inputs in random_inputs(np.random.default_rng(18), 20):
            p, theta = inputs.p, inputs.theta
            tail = p * (r2 - s2) / (2.0 * inputs.params.c2)
            fekete = (1.0 - inputs.upsilon) * p**3 * (r2 + s2) / theta + tail
            abs_a2 = np.sqrt(np.abs(p**3 * (r2 + s2) / theta))
            assert oracle._fekete(inputs, r1, r2, s2).tobytes() == fekete.tobytes()
            assert oracle._abs_a2(inputs, r1, r2, s2).tobytes() == abs_a2.tobytes()


class TestCornerSupremum:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("grid_n", [3, 21, 41])
    def test_odd_grid_equals_corner_maximum(self, grid_n, mode):
        for inputs in CORNER_DRAWS:
            for functional in FUNCTIONALS:
                supremum = sweep_max(inputs, functional, grid_n, mode).supremum
                assert supremum == corner_max(inputs, functional, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("grid_n", [4, 20])
    def test_even_grid_never_exceeds_corner_maximum(self, grid_n, mode):
        # r1 = 0 is not on an even grid, so schwarz sweeps may fall short
        for inputs in CORNER_DRAWS:
            for functional in FUNCTIONALS:
                supremum = sweep_max(inputs, functional, grid_n, mode).supremum
                assert supremum <= corner_max(inputs, functional, mode)


def exact_supremum(inputs, functional, mode):
    """The supremum over the box in closed form, from p, c1, c2, theta, u.

    With t = r1^2 the maximum of |A t + x| over |x| <= K (1 - t) is
    |A| t + K (1 - t), affine in t, so it sits at r1 in {-1, 0, 1}.  Under
    the schwarz cap r1 = +-1 leaves only the r1^2 term and r1 = 0 only the
    (r2, s2) terms, so |a3| takes the larger of the two, not their sum.
    """
    p, theta, u = inputs.p, inputs.theta, inputs.upsilon
    c1, c2 = inputs.params.c1, inputs.params.c2
    if functional == "abs_a2":  # |r2 + s2| <= 2, at r1 = 0 under the cap
        return math.sqrt(2.0 * abs(p) ** 3 / abs(theta))
    if functional == "abs_a3":
        head, tail = p * p / (c1 * c1), abs(p) / c2
        return head + tail if mode == "paper" else max(head, tail)
    # A (r2 + s2) + B (r2 - s2) peaks at |A + B| + |A - B| = 2 max(|A|, |B|)
    a, b = (1.0 - u) * p**3 / theta, p / (2.0 * c2)
    return 2.0 * max(abs(a), abs(b))


class TestExactSupremum:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("grid_n", [3, 21])
    def test_odd_grid_matches_closed_form(self, grid_n, mode):
        for inputs in CORNER_DRAWS:
            for functional in FUNCTIONALS:
                supremum = sweep_max(inputs, functional, grid_n, mode).supremum
                want = exact_supremum(inputs, functional, mode)
                assert supremum == pytest.approx(want, rel=4 * sys.float_info.epsilon, abs=0)


class TestRatioEdges:
    def _report(self, supremum, bound):
        return SupremumReport(
            functional="abs_a2",
            mode="paper",
            grid_n=2,
            supremum=supremum,
            argmax=SchwarzSample(0.0, 0.0, -0.0, 0.0),
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

    def test_impossible_rejection_raises(self, monkeypatch):
        # gives up after exactly _MAX_TRIES tries of 6 draws each (3 params,
        # p, q, upsilon), every one of them rejected since |p| <= 2 < p_min
        monkeypatch.setattr(oracle, "_MAX_TRIES", 50)
        rng = np.random.default_rng(1)
        with pytest.raises(RuntimeError, match="did not converge"):
            random_inputs(rng, 1, p_min=3.0)
        reference = np.random.default_rng(1)
        reference.random(300)
        assert rng.random() == reference.random()
