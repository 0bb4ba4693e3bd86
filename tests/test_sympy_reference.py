"""Symbolic lifts against an independent expansion in sympy.

sympy expands Phi(f + G u) (discrete time) or (dPhi/dx)(f + G u)
(continuous time) on its own, with the exact values of the float
coefficients. A is read off the input-free part, the input term is the
rest, and B(x, u) is the ray integral of the input term's input-Jacobian,
int_0^1 dB_in/du (x, lam u) dlam, taken by sympy. The systems' coefficients
are dyadic, or a single product per entry of A, so the lift's A is exact.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from kooplift import (  # noqa: E402
    Monomial,
    ObservableDictionary,
    PolynomialMap,
    build_lifted_model,
    dt_example,
)
from kooplift.systems import control_affine_decomposition  # noqa: E402

# closed under both two-input systems below
CLOSED = ObservableDictionary(
    2, [Monomial(e) for e in ((1, 0), (0, 1), (2, 0), (1, 1), (3, 0))]
)


def _two_input(time_domain):
    f = PolynomialMap(2, [{(1, 0): 0.5}, {(0, 1): -0.75, (2, 0): 0.25}])
    g1 = PolynomialMap(2, [{(0, 0): 1.0}, {(1, 0): 0.5}])
    g2 = PolynomialMap(2, [{(0, 0): 0.25}, {(1, 0): 1.0, (0, 0): 0.125}])
    return control_affine_decomposition(f, [g1, g2], time_domain)


def _rows(poly, symbols):
    return [
        sum(
            (
                sympy.Rational(c) * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
                for exps, c in row.items()
            ),
            sympy.Integer(0),
        )
        for row in poly.rows
    ]


def _reference(system, dictionary):
    """(A, input term, B) of the lift, expanded by sympy."""
    x = sympy.symbols(f"x1:{system.n_x + 1}")
    u = sympy.symbols(f"u1:{system.n_u + 1}")
    lam = sympy.Symbol("lam")
    f = _rows(system.autonomous, x)
    G = [_rows(column, x) for column in system.control_affine_columns]
    successor = [f[i] + sum(G[j][i] * u[j] for j in range(system.n_u)) for i in range(system.n_x)]
    phi = [sympy.Mul(*(xi**e for xi, e in zip(x, o.exponents))) for o in dictionary.observables]
    if system.time_domain == "discrete":
        lifted = [p.subs(dict(zip(x, successor)), simultaneous=True) for p in phi]
    else:
        lifted = [sum(sympy.diff(p, xi) * s for xi, s in zip(x, successor)) for p in phi]
    lifted = [sympy.expand(row) for row in lifted]
    free = [row.subs({uj: 0 for uj in u}) for row in lifted]
    index = {o.exponents: k for k, o in enumerate(dictionary.observables)}
    A = sympy.zeros(dictionary.n_f, dictionary.n_f)
    for r, row in enumerate(free):
        for exps, c in sympy.Poly(row, *x).as_dict().items():
            A[r, index[exps]] = c
    term = sympy.Matrix([sympy.expand(row - fr) for row, fr in zip(lifted, free)])
    ray = {uj: lam * uj for uj in u}
    B = sympy.Matrix(
        [
            [
                sympy.integrate(sympy.expand(sympy.diff(row, uj).xreplace(ray)), (lam, 0, 1))
                for uj in u
            ]
            for row in term
        ]
    )
    return A, term, B, x + u


def _value(expr, symbols, point):
    return np.array(
        expr.xreplace({s: sympy.Rational(v) for s, v in zip(symbols, point)}), dtype=float
    )


@pytest.mark.parametrize(
    "system, dictionary",
    [
        (dt_example().decomposition, dt_example().dictionary),
        (_two_input("discrete"), CLOSED),
        (_two_input("continuous"), CLOSED),
    ],
    ids=["dt-example", "dt-two-input", "ct-two-input"],
)
def test_lift_matches_sympy_expansion(system, dictionary):
    A, term, B, symbols = _reference(system, dictionary)
    model = build_lifted_model(system, dictionary)
    assert model.residual == 0.0
    assert np.array_equal(model.A, np.array(A, dtype=float))
    # B(x, u) depends on u exactly when the expansion says so
    assert model.input_dependent == bool(B.free_symbols & set(symbols[system.n_x :]))
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, system.n_x)
        u = rng.uniform(-1.0, 1.0, system.n_u)
        point = np.concatenate([x, u])
        want_B = _value(B, symbols, point)
        want_term = _value(term, symbols, point)[:, 0]
        got_B = model.factored_input(x, u)
        assert np.abs(got_B - want_B).max() <= 1e-14 * np.abs(want_B).max()
        got_term = model.input_term(x, u)
        assert np.abs(got_term - want_term).max() <= 1e-14 * np.abs(want_term).max()
