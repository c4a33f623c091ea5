"""Acceptance suite: one deterministic criterion per test, one verdict line each.

Every test prints ``ACCEPTANCE <n> [<name>]: PASS|FAIL`` before asserting, so
a plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  All
randomness is seeded; every tolerance is stated inline next to its check.
"""

import math

import numpy as np
import pytest

from pqlucas import series as ps
from pqlucas.bioperator import ClassParams, apply_operator, extract_coefficient_identities
from pqlucas.bounds import BoundInputs, bound_a2, bound_a3, fekete_szego_bound, preset
from pqlucas.cli import EXIT_OK, main
from pqlucas.lucas import PolyPair, generating_series, lucas_sequence
from pqlucas.oracle import FUNCTIONALS, random_inputs, sweep_max
from pqlucas.series import FunctionSpec


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} [{name}]: {verdict}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dominance_sweeps():
    """50 seeded nondegenerate points, swept once and shared by two criteria."""
    rng = np.random.default_rng(404)
    points = random_inputs(rng, 50)
    return [
        (inputs, {f: sweep_max(inputs, f, grid_n=21, mode="paper") for f in FUNCTIONALS})
        for inputs in points
    ]


def test_criterion_1_series_reversion():
    # 100 seeded cubic/quartic coefficient draws with |a_k| <= 0.3:
    # reversion must reproduce the closed-form inverse coefficients to 1e-12
    # and compose back to the identity to 1e-10.
    rng = np.random.default_rng(101)
    worst_closed = 0.0
    worst_resid = 0.0
    for _ in range(100):
        a2, a3, a4 = rng.uniform(-0.3, 0.3, size=3)
        f = FunctionSpec((a2, a3, a4))
        g = ps.revert_series(f, 4)
        worst_closed = max(
            worst_closed,
            abs(g.coefficient(2) - (-a2)),
            abs(g.coefficient(3) - (2 * a2**2 - a3)),
            abs(g.coefficient(4) - (-(5 * a2**3 - 5 * a2 * a3 + a4))),
        )
        round_trip = ps.compose(g, f.to_series(4)).coeffs
        worst_resid = max(worst_resid, *(abs(c - z) for c, z in zip(round_trip, (0, 1, 0, 0, 0))))
    ok = worst_closed <= 1e-12 and worst_resid <= 1e-10
    report(1, "series reversion", ok, f"closed={worst_closed:.2e} resid={worst_resid:.2e}")


def test_criterion_2_lucas_sequences():
    # 200 seeded (p, q) draws: recurrence vs generating-series division must
    # agree through k = 12 to 1e-9 relative, and the k = 2 term must match
    # p^2 + 2q to 1e-12.
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_l2 = 0.0
    for _ in range(200):
        p, q = rng.uniform(-2.0, 2.0, size=2)
        pair = PolyPair((p,), (q,), 0.0)
        seq = lucas_sequence(pair, 12)
        gen = generating_series(pair, 12)
        for k in range(13):
            rel = abs(seq.values[k] - gen.coefficient(k)) / max(1.0, abs(seq.values[k]))
            worst_rel = max(worst_rel, rel)
        worst_l2 = max(worst_l2, abs(seq.values[2] - (p * p + 2.0 * q)))
    ok = worst_rel <= 1e-9 and worst_l2 == 0.0  # the k = 2 term is exact
    report(2, "lucas sequences", ok, f"rel={worst_rel:.2e} l2={worst_l2:.2e}")


def test_criterion_3_operator_identities():
    # 100 seeded parameter/coefficient draws: the series pipeline must match
    # all four closed-form operator coefficients to 1e-9 on both sides, and
    # the (1, 1, 0) point must reduce to f' exactly.
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        params = ClassParams(
            rng.uniform(1.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)
        )
        f = FunctionSpec((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        worst = max(worst, extract_coefficient_identities(params, f).max_residual)
    derivative_case = apply_operator(ClassParams(1.0, 1.0, 0.0), FunctionSpec((0.5, 0.25)))
    exact = derivative_case.coeffs == (1.0 + 0.0j, 1.0 + 0.0j, 0.75 + 0.0j)  # f' itself
    ok = worst <= 1e-9 and exact
    report(3, "operator identities", ok, f"residual={worst:.2e} derivative-case={exact}")


def test_criterion_4_bound_dominance(dominance_sweeps):
    # 50 seeded nondegenerate points: the grid supremum of every functional
    # must stay below its closed-form bound, slack 1e-9.
    worst = -math.inf
    for _, sweeps in dominance_sweeps:
        for rep in sweeps.values():
            worst = max(worst, rep.supremum - rep.bound)
    ok = worst <= 1e-9
    report(4, "bound dominance", ok, f"max excess={worst:.2e}")


def test_criterion_5_bound_tightness(dominance_sweeps):
    # Same 50 points: |a3| and Fekete-Szego suprema must attain their bounds
    # (ratio 1 to 1e-6); the |a2| sweep must sit at the structural ratio
    # 1/sqrt(2) to 1e-6.
    worst = 0.0
    for _, sweeps in dominance_sweeps:
        worst = max(
            worst,
            abs(sweeps["abs_a3"].ratio - 1.0),
            abs(sweeps["fekete"].ratio - 1.0),
            abs(sweeps["abs_a2"].ratio - 1.0 / math.sqrt(2.0)),
        )
    ok = worst <= 1e-6
    report(5, "bound tightness", ok, f"max ratio error={worst:.2e}")


def test_criterion_6_fekete_szego_structure():
    # The piecewise bound must (a) collapse to |p|/c2 at upsilon = 1 to
    # 1e-12, (b) be continuous across its case1/case2 threshold to 1e-4
    # relative under 1e-6 probes, and (c) reduce to the explicit
    # 2 |p|^3 |1 - upsilon| / (4 |q|) form in the bi-starlike sub-family
    # to 1e-12 relative.
    rng = np.random.default_rng(606)
    worst_collapse = 0.0
    worst_jump = 0.0
    for inputs in random_inputs(rng, 25):
        params = inputs.params
        at_one = fekete_szego_bound(
            BoundInputs(params, inputs.p, inputs.q, upsilon=1.0)
        ).value
        worst_collapse = max(worst_collapse, abs(at_one - abs(inputs.p) / params.c2))
        threshold = abs(inputs.theta) / (2.0 * params.c2 * inputs.p**2)
        for center in (1.0 + threshold, 1.0 - threshold):
            lo = fekete_szego_bound(
                BoundInputs(params, inputs.p, inputs.q, upsilon=center - 1e-6)
            ).value
            hi = fekete_szego_bound(
                BoundInputs(params, inputs.p, inputs.q, upsilon=center + 1e-6)
            ).value
            worst_jump = max(worst_jump, abs(hi - lo) / max(lo, hi))
    p, q, upsilon = 1.3, 0.7, 2.5
    got = fekete_szego_bound(BoundInputs(preset("bistarlike"), p, q, upsilon)).value
    want = 2.0 * abs(p) ** 3 * abs(1.0 - upsilon) / (4.0 * abs(q))
    bistar_err = abs(got - want) / want
    ok = worst_collapse <= 1e-12 and worst_jump <= 1e-4 and bistar_err <= 1e-12
    report(
        6,
        "fekete-szego structure",
        ok,
        f"collapse={worst_collapse:.2e} jump={worst_jump:.2e} bistar={bistar_err:.2e}",
    )


def test_criterion_7_degeneracy_handling(capsys):
    # Degenerate inputs must stay total: theta = 0 reports an unbounded,
    # flagged value (except the upsilon = 1 limit), p = 0 reports flagged
    # zeros, and the CSV table renders 'inf' rather than NaN.
    checks = []
    theta0 = BoundInputs(preset("bistarlike"), p=1.2, q=0.0)
    r = bound_a2(theta0)
    checks.append(r.is_unbounded and r.regime == "degenerate" and len(r.flags) == 1)
    r = fekete_szego_bound(BoundInputs(preset("bistarlike"), 1.2, 0.0, upsilon=1.0))
    checks.append(abs(r.value - 0.6) <= 1e-12 and len(r.flags) == 2)
    r = fekete_szego_bound(BoundInputs(preset("bistarlike"), 1.2, 0.0, upsilon=2.0))
    checks.append(r.is_unbounded)
    p0 = BoundInputs(preset("bistarlike"), p=0.0, q=1.0, upsilon=2.0)
    checks.append(bound_a2(p0).value == 0.0 and bound_a2(p0).flags != ())
    checks.append(bound_a3(p0).value == 0.0)
    checks.append(fekete_szego_bound(p0).value == 0.0)
    code = main(["bounds", "--preset", "bistarlike", "--q", "0"])
    out = capsys.readouterr().out
    checks.append(code == EXIT_OK and "inf" in out and "nan" not in out.lower())
    ok = all(checks)
    with capsys.disabled():
        report(7, "degeneracy handling", ok, f"checks={checks}")


def test_criterion_8_deterministic_verification(capsys):
    # The seeded end-to-end verification must pass and be byte-reproducible.
    argv = ["verify", "--draws", "6", "--grid-n", "7", "--seed", "1729"]
    code_a = main(argv)
    out_a = capsys.readouterr().out
    code_b = main(argv)
    out_b = capsys.readouterr().out
    ok = code_a == EXIT_OK and code_b == EXIT_OK and out_a == out_b and "RESULT: PASS" in out_a
    with capsys.disabled():
        report(8, "deterministic verification", ok, f"codes=({code_a}, {code_b})")
