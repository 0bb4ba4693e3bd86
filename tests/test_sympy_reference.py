"""Symbolic lifts against an independent expansion in sympy.

sympy expands Phi(f + g) (discrete time) or (dPhi/dx)(f + g) (continuous
time) on its own, with g(x, u) read from the decomposition's joint input
polynomial and the exact values of the float coefficients, each feature
E_k standing for exp(d_k u_{j_k}) - 1. A is read off the input-free part,
the input term is the rest, and B(x, u) is the ray integral of the input
term's input-Jacobian, int_0^1 dB_in/du (x, lam u) dlam, taken by sympy.
The systems' coefficients are dyadic, or a single product per entry of A,
so the lift's A is exact.

These are the only references for the discrete-time input term and B(x, u)
that do not share the library's expansion, so sympy is a hard requirement
of the tests, not an optional one.
"""

import numpy as np
import pytest
import sympy

from kooplift import (
    Decomposition,
    Monomial,
    ObservableDictionary,
    PolynomialMap,
    build_lifted_model,
    control_affine_decomposition,
    ct_example,
    dt_example,
)

# closed under both two-input systems below
CLOSED = ObservableDictionary(
    2, [Monomial(e) for e in ((1, 0), (0, 1), (2, 0), (1, 1), (3, 0))]
)


def _two_input(time_domain):
    f = PolynomialMap(2, [{(1, 0): 0.5}, {(0, 1): -0.75, (2, 0): 0.25}])
    g1 = PolynomialMap(2, [{(0, 0): 1.0}, {(1, 0): 0.5}])
    g2 = PolynomialMap(2, [{(0, 0): 0.25}, {(1, 0): 1.0, (0, 0): 0.125}])
    return control_affine_decomposition(f, [g1, g2], time_domain)


def _non_affine(time_domain, g_rows):
    """The two-input systems' f with a one-input g(x, u) over (x1, x2, u)."""
    f = PolynomialMap(2, [{(1, 0): 0.5}, {(0, 1): -0.75, (2, 0): 0.25}])
    g = PolynomialMap(3, g_rows)
    return Decomposition(
        n_x=2,
        n_u=1,
        time_domain=time_domain,
        autonomous=f,
        input_polynomial=g,
    )


# x1+ = 0.5 x1 + u + 0.5 x1 u^2, x2+ = ... + 0.25 x1^2 u - 0.125 u^2
DT_X1_U2 = _non_affine(
    "discrete", [{(0, 0, 1): 1.0, (1, 0, 2): 0.5}, {(2, 0, 1): 0.25, (0, 0, 2): -0.125}]
)
# dx1/dt = 0.5 x1 + u, dx2/dt = ... + 0.5 x2 u^3 + 0.25 x1 u
CT_X2_U3 = _non_affine("continuous", [{(0, 0, 1): 1.0}, {(0, 1, 3): 0.5, (1, 0, 1): 0.25}])


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
    E = tuple(sympy.exp(sympy.Rational(d) * u[j]) - 1 for j, d in system.exponentials)
    f = _rows(system.autonomous, x)
    g = _rows(system.input_polynomial, x + u + E)
    successor = [fi + gi for fi, gi in zip(f, g)]
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
    """``expr`` at the exact value of ``point``, to 40 digits."""
    exact = expr.xreplace({s: sympy.Rational(v) for s, v in zip(symbols, point)})
    return np.array(exact.evalf(40, maxn=2000), dtype=float)


@pytest.mark.parametrize(
    "system, dictionary",
    [
        (dt_example().decomposition, dt_example().dictionary),
        (_two_input("discrete"), CLOSED),
        (_two_input("continuous"), CLOSED),
        (DT_X1_U2, CLOSED),
        (CT_X2_U3, CLOSED),
    ],
    ids=["dt-example", "dt-two-input", "ct-two-input", "dt-x1-u2", "ct-x2-u3"],
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


@pytest.mark.parametrize("system", [DT_X1_U2, CT_X2_U3], ids=["dt-x1-u2", "ct-x2-u3"])
def test_non_affine_lift_is_input_scheduled_and_factorises(system):
    # the lowered columns keep powers of u, so B(x, u) depends on the input
    # in both time domains, and B(x, u) u is the input term on the box
    _, _, B, symbols = _reference(system, CLOSED)
    assert B.free_symbols & set(symbols[system.n_x :])
    model = build_lifted_model(system, CLOSED)
    assert model.input_dependent and model.scheduling == "stack-zu"
    rng = np.random.default_rng(32)
    X = rng.uniform(-2.0, 2.0, (1000, 2))
    U = rng.uniform(-1.0, 1.0, (1000, 1))
    for x, u in zip(X, U):
        term = model.input_term(x, u)
        gap = np.abs(model.factored_input(x, u) @ u - term).max()
        assert gap <= 1e-14 * max(1.0, np.abs(term).max())


# dx1/dt = 0.5 x1 + x1 expm1(u1 / 2) + u2,
# dx2/dt = -0.75 x2 + 0.25 x1^2 + 0.25 x2 expm1(-3 u2) + x1 u1 u2 - 0.5 expm1(u1 / 2)
CT_EXPONENTIAL = Decomposition(
    n_x=2,
    n_u=2,
    time_domain="continuous",
    autonomous=PolynomialMap(2, [{(1, 0): 0.5}, {(0, 1): -0.75, (2, 0): 0.25}]),
    input_polynomial=PolynomialMap(
        6,
        [
            {(1, 0, 0, 0, 1, 0): 1.0, (0, 0, 0, 1, 0, 0): 1.0},
            {(0, 1, 0, 0, 0, 1): 0.25, (1, 0, 1, 1, 0, 0): 1.0, (0, 0, 0, 0, 1, 0): -0.5},
        ],
    ),
    exponentials=((0, 0.5), (1, -3.0)),
)


def _exponential_inputs(rng):
    """Box inputs, then inputs with u_j = 0, |u_j| < 1e-8 and u_j
    subnormal, each for one input and for both."""
    special = [0.0, -0.0, 3e-9, -7.5e-10, 5e-324, -2.5e-310]
    U = [rng.uniform(-1.0, 1.0, 2) for _ in range(20)]
    for v in special:
        U += [np.array([v, rng.uniform(-1.0, 1.0)]), np.array([rng.uniform(-1.0, 1.0), v])]
        U.append(np.array([v, v]))
    return U


@pytest.mark.parametrize(
    "system, dictionary",
    [(ct_example().decomposition, ct_example().dictionary), (CT_EXPONENTIAL, CLOSED)],
    ids=["ct-example", "rates-0.5-and-minus-3"],
)
def test_exponential_lift_matches_sympy(system, dictionary):
    # B(x, u) in closed form, d phi1(d u_j) per feature, against sympy's own
    # ray integral of exp(d lam u_j), to 1e-15 of the largest entry
    A, term, B, symbols = _reference(system, dictionary)
    model = build_lifted_model(system, dictionary)
    assert model.residual == 0.0
    assert np.array_equal(model.A, np.array(A, dtype=float))
    assert model.input_dependent
    rng = np.random.default_rng(33)
    for u in _exponential_inputs(rng):
        x = rng.uniform(-2.0, 2.0, system.n_x)
        point = np.concatenate([x, u])
        want_B = _value(B, symbols, point)
        got_B = model.factored_input(x, u)
        assert np.abs(got_B - want_B).max() <= 1e-15 * np.abs(want_B).max()
        want_term = _value(term, symbols, point)[:, 0]
        got_term = model.input_term(x, u)
        assert np.abs(got_term - want_term).max() <= 1e-15 * max(np.abs(want_term).max(), 1e-300)
