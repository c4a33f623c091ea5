"""Lucas-type polynomial sequences and their generating-series cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqlucas import lucas, series as ps
from pqlucas.lucas import PolyPair, eval_poly, generating_series, lucas_sequence

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestEvalPoly:
    def test_horner_cubic(self):
        # 1 + 2x + 3x^2 at x = 2
        assert eval_poly((1.0, 2.0, 3.0), 2.0) == 17.0

    def test_empty_is_zero(self):
        assert eval_poly((), 1.5) == 0.0

    def test_constant(self):
        assert eval_poly((4.0,), 100.0) == 4.0


class TestPolyPair:
    def test_classical_instantiation(self):
        pair = PolyPair((0.0, 1.0), (1.0,), 1.0)  # p(x)=x, q(x)=1 at x=1
        assert pair.p == 1.0
        assert pair.q == 1.0
        assert lucas_sequence(pair, 2).values == (2.0, 1.0, 3.0)

    def test_quadratic_term_is_exact(self):
        pair = PolyPair((0.0, 2.0), (0.0, 0.0, 1.0), 1.5)  # p=2x, q=x^2
        p, q = 3.0, 2.25
        assert lucas_sequence(pair, 2).values[2] == p * p + 2 * q

    def test_rejects_non_finite_evaluation(self):
        with pytest.raises(ValueError):
            PolyPair((float("nan"),), (1.0,), 1.0)


class TestRecurrence:
    def test_classical_lucas_numbers(self):
        pair = PolyPair((0.0, 1.0), (1.0,), 1.0)
        seq = lucas_sequence(pair, 5)
        assert seq.values == (2.0, 1.0, 3.0, 4.0, 7.0, 11.0)

    def test_k_max_zero(self):
        pair = PolyPair((0.0, 1.0), (1.0,), 1.0)
        assert lucas_sequence(pair, 0).values == (2.0,)

    def test_p_two_x(self):
        pair = PolyPair((0.0, 2.0), (1.0,), 1.0)  # p=2, q=1
        assert lucas_sequence(pair, 2).values == (2.0, 2.0, 6.0)

    def test_indexing(self):
        pair = PolyPair((0.0, 1.0), (1.0,), 1.0)
        seq = lucas_sequence(pair, 4)
        assert seq.values[0] == 2.0
        assert seq.values[4] == 7.0

    def test_polynomials_evaluated_once(self, monkeypatch):
        calls = []
        evaluate = lucas.eval_poly
        monkeypatch.setattr(
            lucas, "eval_poly", lambda coeffs, x: calls.append(coeffs) or evaluate(coeffs, x)
        )
        lucas_sequence(PolyPair((0.0, 1.0), (1.0, 0.5), 2.0), 10)
        assert calls == [(0.0, 1.0), (1.0, 0.5)]

    def test_negative_k_max_raises(self):
        pair = PolyPair((0.0, 1.0), (1.0,), 1.0)
        with pytest.raises(ValueError):
            lucas_sequence(pair, -1)

    @settings(deadline=None)
    @given(small, small)
    def test_l2_closed_form(self, p, q):
        pair = PolyPair((p,), (q,), 0.0)
        seq = lucas_sequence(pair, 2)
        assert abs(seq.values[2] - (p * p + 2 * q)) <= 1e-12


class TestGeneratingSeries:
    def test_classical_prefix(self):
        pair = PolyPair((0.0, 1.0), (1.0,), 1.0)
        s = generating_series(pair, 4)
        assert s.coeffs == (2.0, 1.0, 3.0, 4.0, 7.0)

    def test_k0_coefficient_is_two(self):
        pair = PolyPair((0.5,), (-0.3,), 0.0)
        assert generating_series(pair, 0).coeffs == (2.0,)

    def test_matches_recurrence_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p, q = rng.uniform(-2.0, 2.0, size=2)
            pair = PolyPair((p,), (q,), 0.0)
            seq = lucas_sequence(pair, 8)
            gen = generating_series(pair, 8)
            for k in range(9):
                scale = max(1.0, abs(seq.values[k]))
                assert abs(gen.coefficient(k) - seq.values[k]) <= 1e-9 * scale

    def test_weighted_composition_extracts_l1_l2(self):
        # Composing the generating series with r1 z + r2 z^2 puts
        # L1*r2 + L2*r1^2 in the z^2 slot, matching the oracle's use of it.
        pair = PolyPair((1.3,), (0.4,), 0.0)
        r1, r2 = 0.6, -0.2
        inner = ps.series([0.0, r1, r2])
        out = ps.compose(generating_series(pair, 2), inner)
        seq = lucas_sequence(pair, 2)
        want = seq.values[1] * r2 + seq.values[2] * r1 * r1
        assert abs(out.coefficient(2) - want) <= 1e-12
