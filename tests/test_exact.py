"""Exact symbolic checks of the operator coefficients and of ``theta``.

The four operator coefficients (``[z^1]`` and ``[z^2]`` of ``D[f]`` and of
``D[f^{-1}]``) and the bound denominator ``theta`` are derived here with
sympy from their definitions, in the symbols ``(lam, mu, delta, a2, a3, p,
q)``.  The closed forms in ``bioperator`` and ``bounds`` are then evaluated
on the same symbols, and the difference must simplify to exactly 0.
"""

from types import SimpleNamespace

import numpy as np
import pytest

sympy = pytest.importorskip("sympy", reason="sympy is needed for the exact symbolic checks")

from pqlucas import bioperator, bounds  # noqa: E402

lam, mu, delta, a2, a3, p, q = sympy.symbols("lam mu delta a2 a3 p q")
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


@pytest.fixture(scope="module")
def derived():
    direct = operator_coefficients(z + a2 * z**2 + a3 * z**3)
    inverse = operator_coefficients(inverse_cubic())
    return direct + inverse


@pytest.fixture(scope="module")
def symbolic_params():
    # The closed forms read only these attributes; ClassParams would turn
    # the symbols into floats.
    _, c1, _ = bioperator.multipliers(lam, mu, delta)
    return SimpleNamespace(lam=lam, mu=mu, delta=delta, c1=c1)


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


def test_theta(derived, symbolic_params):
    # Subordination to 1 + L1 u + L2 u^2 + ... gives
    #   [z] D[f]   = L1 u1,   [z^2] D[f]   = L1 u2 + L2 u1^2,
    #   [w] D[f^-1] = L1 v1,  [w^2] D[f^-1] = L1 v2 + L2 v1^2,
    # so v1 = -u1 and, with u1 = [z] D[f] / L1, summing the second-order
    # identities leaves theta a2^2 = L1^3 (u2 + v2).
    lucas = sympy.series((2 - p * z) / (1 - p * z - q * z**2), z, 0, 3).removeO()
    l1, l2 = lucas.coeff(z, 1), lucas.coeff(z, 2)
    d1, d2, i1, i2 = derived
    assert sympy.expand(d1 + i1) == 0
    theta_a2_squared = sympy.expand(l1**2 * (d2 + i2) - 2 * l2 * d1**2)
    theta_derived = sympy.cancel(theta_a2_squared / a2**2)
    assert not theta_derived.free_symbols & {a2, a3}
    t1, t2 = bounds._theta_terms(lam, mu, delta, symbolic_params.c1, p, q)
    closed = exact(t1 - t2)
    assert sympy.simplify(theta_derived - closed) == 0
