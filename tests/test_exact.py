"""Exact symbolic checks of the operator coefficients, ``theta`` and the oracle.

The four operator coefficients (``[z^1]`` and ``[z^2]`` of ``D[f]`` and of
``D[f^{-1}]``) and the bound denominator ``theta`` are derived here with
sympy from their definitions, in the symbols ``(lam, mu, delta, a2, a3, p,
q)``.  The closed forms in ``bioperator`` and ``bounds`` are then evaluated
on the same symbols, and the difference must simplify to exactly 0.  So
must the oracle's reconstruction of ``a2^2``, ``a3`` and ``a3 - upsilon
a2^2`` from the subordination coefficients those four coefficients give.
"""

from types import SimpleNamespace

import numpy as np
import pytest

sympy = pytest.importorskip("sympy", reason="sympy is needed for the exact symbolic checks")

from pqlucas import bioperator, bounds, oracle  # noqa: E402

lam, mu, delta, a2, a3, p, q, upsilon = sympy.symbols("lam mu delta a2 a3 p q upsilon")
z, b2, b3 = sympy.symbols("z b2 b3")


def operator_coefficients(h):
    """``[z^1]`` and ``[z^2]`` of ``D[h]`` for ``h = z + h2 z^2 + h3 z^3``."""
    xi = (2 * lam + mu) / (2 * lam + 1)
    ratio = sympy.expand(h / z)
    dh = sympy.diff(h, z)
    expr = (
        (1 - lam) * ratio**mu
        + lam * dh * ratio ** (mu - 1)
        + xi * delta * z * sympy.diff(h, z, 2)
    )
    expansion = sympy.series(expr, z, 0, 3).removeO()
    return sympy.expand(expansion.coeff(z, 1)), sympy.expand(expansion.coeff(z, 2))


def inverse_cubic():
    """``g = f^{-1}`` through ``z^3``, from ``g(f(z)) = z``."""
    f = z + a2 * z**2 + a3 * z**3
    g_of_f = sympy.expand(f + b2 * f**2 + b3 * f**3)
    solution = sympy.solve([g_of_f.coeff(z, 2), g_of_f.coeff(z, 3)], [b2, b3], dict=True)
    assert len(solution) == 1
    return z + solution[0][b2] * z**2 + solution[0][b3] * z**3


def lucas_coefficients():
    """``L1``, ``L2`` of the generating function ``(2 - p z)/(1 - p z - q z^2)``."""
    lucas = sympy.series((2 - p * z) / (1 - p * z - q * z**2), z, 0, 3).removeO()
    return lucas.coeff(z, 1), lucas.coeff(z, 2)


@pytest.fixture(scope="module")
def derived():
    direct = operator_coefficients(z + a2 * z**2 + a3 * z**3)
    inverse = operator_coefficients(inverse_cubic())
    return direct + inverse


@pytest.fixture(scope="module")
def symbolic_params():
    # The closed forms read only these attributes; ClassParams would turn
    # the symbols into floats.
    xi, c1, c2, mass = bioperator.multipliers(lam, mu, delta)
    return SimpleNamespace(lam=lam, mu=mu, delta=delta, xi=xi, c1=c1, c2=c2, mass=mass)


def exact(expr):
    """A closed form evaluated on symbols, its float constants made rational."""
    return sympy.nsimplify(sympy.sympify(np.asarray(expr, dtype=object).item()), rational=True)


def test_inverse_coefficients():
    g = inverse_cubic()
    assert sympy.expand(g.coeff(z, 2) + a2) == 0
    assert sympy.expand(g.coeff(z, 3) - (2 * a2**2 - a3)) == 0


@pytest.mark.parametrize(
    "index", range(4), ids=["direct_z", "direct_z2", "inverse_w", "inverse_w2"]
)
def test_operator_coefficient(derived, symbolic_params, index):
    closed_form = bioperator.closed_forms(symbolic_params, a2, a3)[index]
    assert sympy.simplify(derived[index] - exact(closed_form)) == 0


def test_mass_is_the_summed_a2_squared_weight(symbolic_params):
    # theta's mass term is the a2^2 coefficient of [z^2] D[f] + [w^2] D[f^-1]
    _, d2, _, i2 = bioperator.closed_forms(symbolic_params, a2, a3)
    summed = sum(sympy.expand(exact(form)).coeff(a2, 2) for form in (d2, i2))
    assert sympy.simplify(summed - exact(symbolic_params.mass)) == 0


def test_theta(derived, symbolic_params):
    # Subordination to 1 + L1 u + L2 u^2 + ... gives
    #   [z] D[f]   = L1 u1,   [z^2] D[f]   = L1 u2 + L2 u1^2,
    #   [w] D[f^-1] = L1 v1,  [w^2] D[f^-1] = L1 v2 + L2 v1^2,
    # so v1 = -u1 and, with u1 = [z] D[f] / L1, summing the second-order
    # identities leaves theta a2^2 = L1^3 (u2 + v2).
    l1, l2 = lucas_coefficients()
    d1, d2, i1, i2 = derived
    assert sympy.expand(d1 + i1) == 0
    theta_a2_squared = sympy.expand(l1**2 * (d2 + i2) - 2 * l2 * d1**2)
    theta_derived = sympy.cancel(theta_a2_squared / a2**2)
    assert not theta_derived.free_symbols & {a2, a3}
    t1, t2 = bounds._theta_terms(symbolic_params.mass, symbolic_params.c1, p, q)
    closed = exact(t1 - t2)
    assert sympy.simplify(theta_derived - closed) == 0


@pytest.fixture(scope="module")
def reconstructed(derived, symbolic_params):
    """The oracle's three functionals at the ``(r1, r2, s2)`` of ``f``.

    Subordination gives ``[z] D[f] = L1 r1`` and ``[z^2] D[f] = L1 r2 + L2
    r1^2``, and the same on the inverse side with ``s1, s2``; solved for the
    free coefficients and handed to the oracle with the production ``theta``.
    """
    l1, l2 = lucas_coefficients()
    d1, d2, i1, i2 = derived
    r1, s1 = d1 / l1, i1 / l1
    r2, s2 = (d2 - l2 * r1**2) / l1, (i2 - l2 * s1**2) / l1
    t1, t2 = bounds._theta_terms(symbolic_params.mass, symbolic_params.c1, p, q)
    inputs = SimpleNamespace(p=p, theta=exact(t1 - t2), upsilon=upsilon, params=symbolic_params)
    return {
        "a2_sq": exact(oracle._a2_sq(inputs, r2, s2)),
        "a3": exact(oracle._a3(inputs, r1, r2, s2)),
        "fekete": exact(oracle._fekete(inputs, r1, r2, s2)),
    }


def test_reconstructed_a2_squared(reconstructed):
    assert sympy.simplify(reconstructed["a2_sq"] - a2**2) == 0


@pytest.mark.parametrize(
    "at",
    [
        0,
        pytest.param(delta, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: with c2 = mu + 2 lam + 2 xi delta the reconstructed a3 "
            "misses by -4 delta (a2^2 - a3)/(2 delta + 2 lam + 1)"))),
    ],
    ids=["delta0", "delta"],
)
def test_reconstructed_a3_and_fekete(reconstructed, at):
    for name, want in (("a3", a3), ("fekete", a3 - upsilon * a2**2)):
        assert sympy.simplify((reconstructed[name] - want).subs(delta, at)) == 0, name
