"""Lifted-model construction: span matching, input terms, factorisation."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kooplift import (
    Decomposition,
    DomainBox,
    Monomial,
    ObservableDictionary,
    PolynomialMap,
    build_lifted_model,
    compute_A_ct,
    compute_A_dt,
    control_affine_decomposition,
    ct_example,
    dt_example,
    monomial_dictionary,
)
from kooplift.errors import InvariantSubspaceViolation
from kooplift.lifting import match_rows_to_span
from kooplift.quadrature import unit_gauss_legendre
from kooplift.serialize import dumps_json

BENCH_DICT = ObservableDictionary(
    2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))]
)


def _non_affine_dt():
    """x1+ = 0.5 x1 + u + 0.5 x1 u^2, x2+ = -0.75 x2 + 0.25 x1^2 + 0.25 x1^2 u - 0.125 u^2;
    [x1, x2, x1^2, x1 x2, x1^3] is closed under its autonomous part."""
    f = PolynomialMap(2, [{(1, 0): 0.5}, {(0, 1): -0.75, (2, 0): 0.25}])
    g = PolynomialMap(
        3, [{(0, 0, 1): 1.0, (1, 0, 2): 0.5}, {(2, 0, 1): 0.25, (0, 0, 2): -0.125}]
    )
    return Decomposition(
        n_x=2,
        n_u=1,
        time_domain="discrete",
        autonomous=f,
        input_polynomial=g,
        name="x1-u2",
    )


CLOSED = ObservableDictionary(
    2, [Monomial(e) for e in ((1, 0), (0, 1), (2, 0), (1, 1), (3, 0))]
)


def _ct_exponential():
    """Two inputs, exponential features at the rates 0.5 and -3:
    dx1/dt = -0.5 x1 + x1 expm1(0.5 u1) + u2,
    dx2/dt = -x2 + x1^2 + 0.25 x2 expm1(-3 u2) - x1 expm1(0.5 u1) + x1 u1 u2;
    [x1, x2, x1^2] is closed under its autonomous part."""
    f = PolynomialMap(2, [{(1, 0): -0.5}, {(0, 1): -1.0, (2, 0): 1.0}])
    g = PolynomialMap(
        6,
        [
            {(1, 0, 0, 0, 1, 0): 1.0, (0, 0, 0, 1, 0, 0): 1.0},
            {(0, 1, 0, 0, 0, 1): 0.25, (1, 0, 0, 0, 1, 0): -1.0, (1, 0, 1, 1, 0, 0): 1.0},
        ],
    )
    return Decomposition(2, 2, "continuous", f, g, ((0, 0.5), (1, -3.0)), "ct-exponential")


def _ct_exponential_input_jacobian(x, u):
    """dg/du of :func:`_ct_exponential`, written out."""
    e1, e2 = 0.5 * math.exp(0.5 * u[0]), -3.0 * math.exp(-3.0 * u[1])
    return np.array(
        [[x[0] * e1, 1.0], [-x[0] * e1 + x[0] * u[1], 0.25 * x[1] * e2 + x[0] * u[0]]]
    )


def _ct_example_input_jacobian(x, u):
    """dg/du of ct-example, written out."""
    return np.array([[x[0] * math.exp(u[0]), 0.0], [u[1], u[0] + x[1] * math.exp(u[1])]])


def factorize_input(input_term_jacobian, x, u, nodes=16):
    """Reference factorisation B(x, u) with B_in(x, u) = B(x, u) u: the
    input-Jacobian of the input term summed node by node along the ray from
    0 to u on the ``nodes``-point Gauss-Legendre rule, and the Jacobian at
    (x, 0) itself at u = 0, where every node collapses to the origin."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not u.any():
        return np.asarray(input_term_jacobian(x, u), dtype=float)
    lam, w = unit_gauss_legendre(nodes)
    acc = w[0] * np.asarray(input_term_jacobian(x, lam[0] * u), dtype=float)
    for q in range(1, lam.shape[0]):
        acc += w[q] * np.asarray(input_term_jacobian(x, lam[q] * u), dtype=float)
    return acc


class TestComputeACt:
    def test_benchmark_matrix_exact(self):
        bundle = ct_example()
        A, residual = compute_A_ct(bundle.decomposition.autonomous, BENCH_DICT)
        assert residual == 0.0
        np.testing.assert_array_equal(
            A, [[-0.05, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -0.1]]
        )

    def test_linear_system_identity_dictionary(self):
        rng = np.random.default_rng(0)
        F = rng.normal(size=(3, 3))
        f_c = PolynomialMap(
            3,
            [
                {tuple(1 if j == i else 0 for i in range(3)): F[r, j] for j in range(3)}
                for r in range(3)
            ],
        )
        A, residual = compute_A_ct(f_c, monomial_dictionary(3, 1))
        assert residual == 0.0
        np.testing.assert_array_equal(A, F)

    def test_out_of_span_cubic_reports_violation(self):
        # f_c = [x2, x1^3] with Phi = [x1, x2]: the x1^3 coefficient (1.0)
        # cannot be matched
        f_c = PolynomialMap(2, [{(0, 1): 1.0}, {(3, 0): 1.0}])
        with pytest.raises(InvariantSubspaceViolation) as exc:
            compute_A_ct(f_c, monomial_dictionary(2, 1))
        assert exc.value.residual == 1.0
        assert (3, 0) in exc.value.missing
        A, residual = compute_A_ct(f_c, monomial_dictionary(2, 1), strict=False)
        assert residual == 1.0
        np.testing.assert_array_equal(A, [[0.0, 1.0], [0.0, 0.0]])


class TestComputeADt:
    def test_benchmark_matrix_exact(self):
        bundle = dt_example()
        A, residual = compute_A_dt(bundle.decomposition.autonomous, BENCH_DICT)
        assert residual == 0.0
        # the (3, 3) entry is the square of the first diagonal coefficient
        np.testing.assert_array_equal(
            A, [[0.7, 0.0, 0.0], [0.0, 0.7, -0.5], [0.0, 0.0, 0.7 * 0.7]]
        )

    def test_identity_map(self):
        f = PolynomialMap(2, [{(1, 0): 1.0}, {(0, 1): 1.0}])
        d = monomial_dictionary(2, 3)
        A, residual = compute_A_dt(f, d)
        assert residual == 0.0
        np.testing.assert_array_equal(A, np.eye(d.n_f))

    def test_matches_sampled_composition_oracle(self):
        # independent check: solve Phi(f(x)) = A Phi(x) in least squares on
        # random samples and compare against the symbolic coefficients
        bundle = dt_example()
        f = bundle.decomposition.autonomous
        A, residual = compute_A_dt(f, BENCH_DICT)
        assert residual == 0.0
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, (200, 2))
        Z = BENCH_DICT.evaluate_batch(X)
        Zn = BENCH_DICT.evaluate_batch(np.stack([f.evaluate(x) for x in X]))
        A_ls = np.linalg.lstsq(Z, Zn, rcond=None)[0].T
        np.testing.assert_allclose(A, A_ls, rtol=0, atol=1e-10)

    def test_full_degree_2_dictionary_leaves_span(self):
        # x1*x2 and x2^2 compose into degree-3 and degree-4 monomials, so
        # the full degree-2 dictionary is not invariant for this system;
        # the worst out-of-span coefficient is 2*a2*a3 on x1^2 x2
        bundle = dt_example()
        d2 = monomial_dictionary(2, 2)
        with pytest.raises(InvariantSubspaceViolation) as exc:
            compute_A_dt(bundle.decomposition.autonomous, d2)
        assert exc.value.residual == 2 * 0.7 * 0.5
        assert {(3, 0), (2, 1), (4, 0)} <= set(exc.value.missing)

    def test_invariant_cubic_family(self):
        # for f = [a x1, b x2 - c x1^3] the dictionary [x1, x2, x1^3] is
        # invariant; hand expansion gives the triangular matrix below
        f = PolynomialMap(2, [{(1, 0): 0.5}, {(0, 1): 0.25, (3, 0): -2.0}])
        d = ObservableDictionary(
            2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((3, 0))]
        )
        A, residual = compute_A_dt(f, d)
        assert residual == 0.0
        np.testing.assert_array_equal(
            A, [[0.5, 0, 0], [0, 0.25, -2.0], [0, 0, 0.125]]
        )


class TestApproximateMarking:
    def test_non_invariant_dictionary_marked_approximate(self):
        bundle = dt_example()
        model = build_lifted_model(
            bundle.decomposition, monomial_dictionary(2, 2), strict=False
        )
        assert not model.exact
        assert model.residual == 2 * 0.7 * 0.5

    def test_blackbox_without_samples_rejected(self):
        # a callable autonomous part has no lift: the decomposition refuses it
        split = dt_example().decomposition
        with pytest.raises(TypeError, match="PolynomialMap"):
            replace(split, autonomous=split.autonomous.evaluate)


class TestInputTermCt:
    def test_closed_form(self):
        bundle = ct_example()
        model = build_lifted_model(bundle.decomposition, BENCH_DICT)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            term = model.input_term(x, u)
            expect = np.array(
                [
                    x[0] * math.expm1(u[0]),
                    u[0] * u[1] + x[1] * math.expm1(u[1]),
                    2 * x[0] ** 2 * math.expm1(u[0]),
                ]
            )
            assert np.all(np.abs(term - expect) <= 1e-13 * (1 + np.abs(expect)))

    def test_zero_input(self):
        model = build_lifted_model(ct_example().decomposition, BENCH_DICT)
        term = model.input_term(np.array([0.4, -0.9]), np.zeros(2))
        np.testing.assert_array_equal(term, np.zeros(3))

    def test_rk4_microstep_derivative_oracle(self):
        # d/dt Phi(x(t)) along the full dynamics, estimated by a 4th-order
        # central difference over RK4 micro-steps, equals A Phi + input term
        bundle = ct_example()
        model = build_lifted_model(bundle.decomposition, BENCH_DICT)
        rng = np.random.default_rng(5)
        h = 1e-2

        def rk4_step(x, u, dt):
            f = lambda y: bundle.decomposition.eval_full(y, u)
            k1 = f(x)
            k2 = f(x + dt / 2 * k1)
            k3 = f(x + dt / 2 * k2)
            k4 = f(x + dt * k3)
            return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            u = rng.uniform(-1, 1, 2)
            phis = {
                s: BENCH_DICT.evaluate(rk4_step(x, u, s * h))
                for s in (-2, -1, 1, 2)
            }
            deriv = (-phis[2] + 8 * phis[1] - 8 * phis[-1] + phis[-2]) / (12 * h)
            lifted = model.A @ BENCH_DICT.evaluate(x) + model.input_term(x, u)
            assert np.all(np.abs(deriv - lifted) <= 1e-6 * (1 + np.abs(lifted)))


def _line_integral_term(split, dictionary, x, u):
    """The DT input term as the paper writes it: the dictionary Jacobian
    integrated along the segment from f(x) to f(x) + g(x, u), times g, by
    16-node Gauss-Legendre (exact for these polynomial integrands)."""
    fx = split.autonomous.evaluate(x)
    g = np.asarray(split.input_driven(x, u), dtype=float)
    lam, w = unit_gauss_legendre(16)
    return sum(wq * dictionary.jacobian(fx + lq * g) for lq, wq in zip(lam, w)) @ g


def _central_difference(func, v):
    """Central-difference Jacobian of ``func`` at ``v``, with the step
    cbrt(eps) * max(1, |v_j|) per coordinate."""
    cols = []
    for j in range(v.shape[0]):
        h = float(np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, abs(float(v[j])))
        vp, vm = v.copy(), v.copy()
        vp[j] += h
        vm[j] -= h
        cols.append((func(vp) - func(vm)) / (vp[j] - vm[j]))
    return np.stack(cols, axis=-1)


def _composition_difference(split, dictionary, x, u):
    """Phi(f(x) + g(x, u)) - Phi(f(x)), what the DT input term equals."""
    fx = split.autonomous.evaluate(x)
    g = np.asarray(split.input_driven(x, u), dtype=float)
    return dictionary.evaluate(fx + g) - dictionary.evaluate(fx)


class TestInputTermDt:
    def test_closed_form_via_quadrature(self):
        # the symbolic term against its closed form and the quadrature of
        # the line integral
        bundle = dt_example()
        model = build_lifted_model(bundle.decomposition, BENCH_DICT)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            term = model.input_term(x, u)
            expect = np.array(
                [u[0], x[0] ** 2 * u[0], (2 * 0.7 * x[0] + u[0]) * u[0]]
            )
            assert np.all(np.abs(term - expect) <= 1e-12 * (1 + np.abs(expect)))
            quadrature = _line_integral_term(bundle.decomposition, BENCH_DICT, x, u)
            assert np.all(np.abs(term - quadrature) <= 1e-12 * (1 + np.abs(expect)))

    def test_zero_input(self):
        model = build_lifted_model(dt_example().decomposition, BENCH_DICT)
        term = model.input_term(np.array([1.3, 0.2]), np.zeros(1))
        np.testing.assert_array_equal(term, np.zeros(3))

    def test_composition_difference_oracle(self):
        # Phi(f(x) + g(x, u)) - Phi(f(x)) is what the line integral equals
        bundle = dt_example()
        model = build_lifted_model(bundle.decomposition, BENCH_DICT)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            term = model.input_term(x, u)
            expect = _composition_difference(bundle.decomposition, BENCH_DICT, x, u)
            assert np.all(np.abs(term - expect) <= 1e-12 * (1 + np.abs(expect)))

    def test_non_affine_composition_difference_oracle(self):
        # the same identity with an input entering as x1 u^2 and u^2, and
        # the line integral's quadrature beside it
        split = _non_affine_dt()
        model = build_lifted_model(split, CLOSED)
        assert model.residual == 0.0 and model.input_dependent
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            term = model.input_term(x, u)
            expect = _composition_difference(split, CLOSED, x, u)
            scale = 1 + np.abs(expect)
            assert np.all(np.abs(term - expect) <= 1e-12 * scale)
            quadrature = _line_integral_term(split, CLOSED, x, u)
            assert np.all(np.abs(term - quadrature) <= 1e-12 * scale)
            assert np.all(np.abs(model.factored_input(x, u) @ u - term) <= 1e-12 * scale)


class TestFactorization:
    def test_ct_closed_form_entries(self):
        # the (1, 1) entry of the factorised matrix is x1 (e^u1 - 1) / u1
        bundle = ct_example()
        model = build_lifted_model(bundle.decomposition, BENCH_DICT)
        x = np.array([1.0, 1.0])
        u = np.array([0.3, -0.2])
        B = model.factored_input(x, u)
        ratio = lambda v: math.expm1(v) / v
        expect = np.array(
            [
                [x[0] * ratio(u[0]), 0.0],
                [0.5 * u[1], 0.5 * u[0] + x[1] * ratio(u[1])],
                [2 * x[0] ** 2 * ratio(u[0]), 0.0],
            ]
        )
        np.testing.assert_allclose(B, expect, rtol=0, atol=1e-10)

    def test_linear_term_recovers_matrix(self):
        # constant input columns M on the identity dictionary: the input term
        # is M u, and the lift's B(x, u) is M itself at every point
        M = np.array([[1.0, 2.0], [0.5, -1.0]])
        f = PolynomialMap(2, [{(0, 1): 1.0}, {(1, 0): -0.25}])
        columns = [PolynomialMap(2, [{(0, 0): M[0, j]}, {(0, 0): M[1, j]}]) for j in range(2)]
        split = control_affine_decomposition(f, columns, "continuous")
        model = build_lifted_model(split, monomial_dictionary(2, 1))
        assert not model.input_dependent
        rng = np.random.default_rng(8)
        for _ in range(10):
            x, u = rng.normal(size=2), rng.normal(size=2)
            np.testing.assert_array_equal(model.factored_input(x, u), M)

    def test_zero_input_returns_jacobian(self):
        bundle = ct_example()
        model = build_lifted_model(bundle.decomposition, BENCH_DICT)
        x = np.array([0.7, -0.3])
        B0 = model.factored_input(x, np.zeros(2))
        # dB_in/du at u = 0, transposed: [[x1, 0, 2 x1^2], [0, x2, 0]]
        expect = np.array([[x[0], 0.0], [0.0, x[1]], [2 * x[0] ** 2, 0.0]])
        np.testing.assert_allclose(B0, expect, rtol=0, atol=1e-14)

    def test_continuity_toward_zero_input(self):
        bundle = ct_example()
        model = build_lifted_model(bundle.decomposition, BENCH_DICT)
        x = np.array([0.9, 1.1])
        B0 = model.factored_input(x, np.zeros(2))
        for axis in range(2):
            gaps = []
            for eps in (1e-4, 1e-6, 1e-8):
                u = np.zeros(2)
                u[axis] = eps
                gaps.append(np.abs(model.factored_input(x, u) - B0).max())
            assert gaps[0] > gaps[1] > gaps[2]

    def test_ct_oracle_node_loop_matches_ray(self):
        # the lift's closed-form B(x, u) against the 32-node sum, node by
        # node, of the input term's input-Jacobian dPhi/dx(x) dg/du(x, lam_q u),
        # for ct-example and for two inputs at the rates 0.5 and -3
        for split, input_jacobian in (
            (ct_example().decomposition, _ct_example_input_jacobian),
            (_ct_exponential(), _ct_exponential_input_jacobian),
        ):
            model = build_lifted_model(split, BENCH_DICT)
            assert model.residual == 0.0 and model.input_dependent

            def jacobian(x, v):
                return BENCH_DICT.jacobian(x) @ input_jacobian(x, v)

            rng = np.random.default_rng(12)
            X = rng.uniform(-2.0, 2.0, (200, 2))
            U = rng.uniform(-1.0, 1.0, (200, 2))
            U[0] = 0.0
            U[1, 0] = 0.0
            for x, u in zip(X, U):
                expect = factorize_input(jacobian, x, u, nodes=32)
                got = model.factored_input(x, u)
                assert np.all(np.abs(got - expect) <= 1e-13 * np.abs(expect).max())

    def test_dt_oracle_paths_match_symbolic(self):
        # B(x, u) by the ray quadrature of a central-difference input-Jacobian
        # of the composition difference Phi(f + g) - Phi(f), against the
        # symbolic columns, for dt-example and an input entering as x1 u^2
        systems = ((dt_example().decomposition, BENCH_DICT), (_non_affine_dt(), CLOSED))
        for split, dictionary in systems:
            symbolic = build_lifted_model(split, dictionary)

            def jacobian(x, v):
                return _central_difference(
                    lambda w: _composition_difference(split, dictionary, x, w), v
                )

            rng = np.random.default_rng(10)
            for _ in range(25):
                x = rng.uniform(-2, 2, 2)
                u = rng.uniform(-1, 1, 1)
                B_sym = symbolic.factored_input(x, u)
                B_oracle = factorize_input(jacobian, x, u)
                np.testing.assert_allclose(B_oracle, B_sym, rtol=0, atol=1e-7)

    def test_factorisation_identity_both_benchmarks(self):
        # B(x, u) u reproduces the lifted input term on 1000 random points
        for bundle in (ct_example(), dt_example()):
            model = build_lifted_model(bundle.decomposition, bundle.dictionary)
            rng = np.random.default_rng(9)
            X = bundle.state_box.sample(rng, 1000)
            U = bundle.input_box.sample(rng, 1000)
            for x, u in zip(X, U):
                lhs = model.factored_input(x, u) @ u
                rhs = model.input_term(x, u)
                assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1 + np.abs(rhs)))


class TestLiftedIdentity:
    def test_dt_composition_identity(self):
        # Phi(f_d(x, u)) = A Phi(x) + B_in(x, u) on 1000 random points
        bundle = dt_example()
        model = build_lifted_model(bundle.decomposition, bundle.dictionary)
        rng = np.random.default_rng(11)
        X = bundle.state_box.sample(rng, 1000)
        U = bundle.input_box.sample(rng, 1000)
        for x, u in zip(X, U):
            lhs = bundle.dictionary.evaluate(bundle.decomposition.eval_full(x, u))
            rhs = model.A @ bundle.dictionary.evaluate(x) + model.input_term(x, u)
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1 + np.abs(lhs)))

    def test_ct_derivative_identity(self):
        # continuous-time analogue: dPhi/dx f_d(x, u) = A Phi(x) + B_in(x, u)
        bundle = ct_example()
        model = build_lifted_model(bundle.decomposition, bundle.dictionary)
        rng = np.random.default_rng(12)
        X = bundle.state_box.sample(rng, 1000)
        U = bundle.input_box.sample(rng, 1000)
        for x, u in zip(X, U):
            lhs = bundle.dictionary.jacobian(x) @ bundle.decomposition.eval_full(x, u)
            rhs = model.A @ bundle.dictionary.evaluate(x) + model.input_term(x, u)
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1 + np.abs(lhs)))


class TestQuadrature:
    def test_polynomial_exactness_to_degree_31(self):
        # 16-node Gauss-Legendre integrates x^d exactly for d <= 31
        lam, w = unit_gauss_legendre(16)
        for d in range(32):
            exact = 1.0 / (d + 1)
            got = float(w @ lam**d)
            assert abs(got - exact) <= 1e-13

    def test_random_degree_31_polynomial_with_rational_oracle(self):
        rng = np.random.default_rng(14)
        coeffs = [Fraction(int(c), 8) for c in rng.integers(-40, 40, 32)]
        exact = sum(c / (d + 1) for d, c in enumerate(coeffs))
        lam, w = unit_gauss_legendre(16)
        values = sum(float(c) * lam**d for d, c in enumerate(coeffs))
        got = float(w @ values)
        assert abs(got - float(exact)) <= 1e-12

    def test_node_count_must_be_positive(self):
        with pytest.raises(ValueError):
            unit_gauss_legendre(0)


class TestSpanMatching:
    def test_repeated_monomial_is_rejected(self):
        # a dictionary holds each monomial once, so span matching is one
        # direct assignment of each term to its monomial's column
        with pytest.raises(ValueError, match="more than once"):
            ObservableDictionary(
                2,
                [Monomial((1, 0)), Monomial((0, 1)), Monomial((1, 0))],
                state_selector=[0, 1],
            )

    def test_direct_assignment_reports_the_unmatched_terms(self):
        d = ObservableDictionary(2, [Monomial((0, 1)), Monomial((1, 0))])
        rows = PolynomialMap(2, [{(1, 0): 2.0, (0, 2): -3.0}, {(0, 1): 1.0, (2, 1): 0.5}])
        coeffs, residual, missing = match_rows_to_span(rows.arrays, d)
        np.testing.assert_array_equal(coeffs, [[0.0, 2.0], [1.0, 0.0]])
        assert residual == 3.0
        assert missing == [(0, 2), (2, 1)]


class TestSerialization:
    def test_document_roundtrip_bit_exact(self):
        for bundle in (ct_example(), dt_example()):
            model = build_lifted_model(bundle.decomposition, bundle.dictionary)
            loaded = json.loads(dumps_json(model.to_document()))
            assert loaded["kind"] == "lifted-model"
            A = np.array(loaded["A"], dtype=float)
            assert A.tobytes() == model.A.tobytes()
            assert loaded["residual"] == model.residual
            assert loaded["exact"] == model.exact
            assert loaded["time_domain"] == model.time_domain
            dictionary = ObservableDictionary.from_description(loaded["dictionary"])
            assert [o.exponents for o in dictionary.observables] == [
                o.exponents for o in model.dictionary.observables
            ]


# A plain reference of the symbolic DT lift: the straightforward algorithm
# that checks every exponent tuple it makes and re-sorts after every sum and
# product. The library skips both where its own construction guarantees them.


def _ref_key(exps):
    return (sum(exps), tuple(-e for e in exps))


def _ref_exponents(exps):
    exps = tuple(int(e) for e in exps)
    assert all(e >= 0 for e in exps)
    return exps


def _ref_add(terms, exps, coeff):
    exps = _ref_exponents(exps)
    if coeff == 0.0:
        return
    new = terms.get(exps, 0.0) + coeff
    if new == 0.0:
        terms.pop(exps, None)
    else:
        terms[exps] = new


def _ref_sorted(terms):
    return {k: terms[k] for k in sorted(terms, key=_ref_key)}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _ref_add(out, tuple(i + j for i, j in zip(ea, eb)), ca * cb)
    return _ref_sorted(out)


def _ref_compose(exponents, components, n_vars, powers):
    result = None
    for i, e in enumerate(exponents):
        if not e:
            continue
        while len(powers[i]) <= e:
            powers[i].append(_ref_mul(powers[i][-1], components[i]))
        factor = powers[i][e]
        result = dict(factor) if result is None else _ref_mul(result, factor)
    if result is None:
        return {(0,) * n_vars: 1.0}
    return _ref_sorted(result)


def _ref_joint(f, g):
    """Rows of f + g over (x, u), each row re-sorted."""
    n_u = g.n_vars - f.n_vars
    joint = []
    for i in range(f.n_out):
        row = {}
        for exps, c in f.rows[i].items():
            _ref_add(row, exps + (0,) * n_u, c)
        for exps, c in g.rows[i].items():
            _ref_add(row, exps, c)
        joint.append(_ref_sorted(row))
    return joint


def _ref_symbolic_lift(f, g, dictionary):
    """(composed autonomous rows, input-term rows, B columns' rows)."""
    n_x, total = f.n_vars, g.n_vars
    n_u = total - n_x
    autonomous = [dict(row) for row in f.rows]
    powers = [[{(0,) * n_x: 1.0}] for _ in autonomous]
    composed_x = [
        _ref_compose(o.exponents, autonomous, n_x, powers) for o in dictionary.observables
    ]
    joint = _ref_joint(f, g)
    powers = [[{(0,) * total: 1.0}] for _ in joint]
    input_rows = []
    for obs in dictionary.observables:
        composed = _ref_compose(obs.exponents, joint, total, powers)
        row = {}
        for exps, c in composed.items():
            if any(exps[n_x:]):
                _ref_add(row, exps, c)
        input_rows.append(_ref_sorted(row))
    return composed_x, input_rows, _ref_lowered(input_rows, n_x, n_u)


def _ref_lowered(input_rows, n_x, n_u):
    """Columns of B: c x^a u^b gives c (b_j / |b|) x^a u^(b - e_j) to column j."""
    column_rows = [[] for _ in range(n_u)]
    for input_row in input_rows:
        per_column = [{} for _ in range(n_u)]
        for exps, c in input_row.items():
            beta = exps[n_x:]
            for j, bj in enumerate(beta):
                if bj:
                    lowered = exps[: n_x + j] + (bj - 1,) + exps[n_x + j + 1 :]
                    _ref_add(per_column[j], lowered, c * (bj / sum(beta)))
        for j in range(n_u):
            column_rows[j].append(_ref_sorted(per_column[j]))
    return column_rows


def _ref_derivative(components, dictionary, n_vars):
    """Rows of (dPhi/dx) components: the sum over i of e_i x^(e - 1_i)
    times component i, each product and each running sum re-sorted."""
    pad = (0,) * (n_vars - dictionary.n_x)
    ref = []
    for obs in dictionary.observables:
        acc = {}
        for i, e in enumerate(obs.exponents):
            if e:
                lowered = obs.exponents[:i] + (e - 1,) + obs.exponents[i + 1 :] + pad
                for exps, c in _ref_mul({lowered: float(e)}, components[i]).items():
                    _ref_add(acc, exps, c)
                acc = _ref_sorted(acc)
        ref.append(acc)
    return ref


def _items(rows):
    return [list(r.items()) for r in rows]


def _split(rows, n_x):
    """Per row, the input-free terms (exponents cut to the state) and the
    input terms, in row order."""
    free = [[(e[:n_x], c) for e, c in r.items() if not any(e[n_x:])] for r in rows]
    driven = [[(e, c) for e, c in r.items() if any(e[n_x:])] for r in rows]
    return free, driven


def _weighted_dictionary(degree):
    return ObservableDictionary(
        2,
        [
            Monomial((a, b))
            for b in range(degree // 2 + 1)
            for a in range(degree - 2 * b + 1)
            if a + b
        ],
    )


def _two_input_pieces():
    f = PolynomialMap(2, [{(1, 0): 0.3, (0, 1): 0.1}, {(0, 1): -0.45, (2, 0): 0.2}])
    g1 = PolynomialMap(2, [{(0, 0): 1.0, (1, 0): 0.25}, {(0, 1): 0.7}])
    g2 = PolynomialMap(2, [{(0, 0): -0.5}, {(1, 0): 1.3, (0, 0): 0.1}])
    return f, [g1, g2]


def _two_input_system():
    return control_affine_decomposition(*_two_input_pieces(), "discrete")


def _ct_two_input_system():
    return control_affine_decomposition(*_two_input_pieces(), "continuous")


def _three_state_pieces():
    # every dictionary row takes up to three chain steps, two inputs
    f = PolynomialMap(
        3,
        [
            {(1, 0, 0): 0.5, (0, 1, 1): -0.25},
            {(0, 1, 0): 0.8, (2, 0, 0): 0.3},
            {(0, 0, 1): -0.6, (1, 1, 0): 0.1, (0, 0, 0): 0.05},
        ],
    )
    g1 = PolynomialMap(3, [{(0, 0, 0): 1.0}, {(0, 0, 1): 0.5}, {}])
    g2 = PolynomialMap(3, [{(0, 1, 0): -0.7}, {}, {(0, 0, 0): 1.0, (1, 0, 0): 0.2}])
    return f, [g1, g2]


def _three_state_system():
    return control_affine_decomposition(*_three_state_pieces(), "discrete")


def _cancelling_pieces():
    # (1 + x1 + x1^2)(1 - x1 + x1^2) = 1 + x1^2 + x1^4: the x1^2 sum of the
    # observable x1 x2 reaches 0.0 after two of its three products
    f = PolynomialMap(
        2,
        [
            {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0},
            {(0, 0): 1.0, (1, 0): -1.0, (2, 0): 1.0},
        ],
    )
    g = PolynomialMap(2, [{(0, 0): 1.0}, {(0, 1): -1.0}])
    return f, [g]


def _cancelling_system():
    return control_affine_decomposition(*_cancelling_pieces(), "discrete")

class TestSymbolicLiftReference:
    @pytest.mark.parametrize(
        "system, dictionary",
        [
            (dt_example().decomposition, _weighted_dictionary(12)),
            (dt_example().decomposition, _weighted_dictionary(16)),
            (dt_example().decomposition, _weighted_dictionary(20)),
            (_two_input_system(), monomial_dictionary(2, 3)),
            (_two_input_system(), monomial_dictionary(2, 4)),
            (_three_state_system(), monomial_dictionary(3, 3)),
            (_two_input_system(), monomial_dictionary(2, 2, include_constant=True)),
            (_cancelling_system(), monomial_dictionary(2, 3)),
            (_non_affine_dt(), CLOSED),
            (_non_affine_dt(), monomial_dictionary(2, 4)),
        ],
        ids=[
            "dt-D12",
            "dt-D16",
            "dt-D20",
            "two-input-deg3",
            "two-input-deg4",
            "three-state-two-input",
            "constant-observable",
            "cancelling",
            "non-affine-closed",
            "non-affine-deg4",
        ],
    )
    def test_term_for_term_and_in_order(self, system, dictionary):
        from kooplift.lifting import _lifted_rows, _symbolic_lift

        f, g = system.autonomous, system.input_polynomial
        ref_x, ref_input, ref_columns = _ref_symbolic_lift(f, g, dictionary)

        # the one joint composition: its input-free terms are Phi o f
        # composed on its own, its input terms the input term
        rows = _lifted_rows(f, g, dictionary, "discrete").to_rows()
        free, driven = _split(rows, f.n_vars)
        assert free == _items(ref_x)
        assert driven == _items(ref_input)
        model = build_lifted_model(system, dictionary, strict=False)
        A, _, _ = match_rows_to_span(PolynomialMap(f.n_vars, ref_x).arrays, dictionary)
        assert np.array_equal(model.A, A)
        assert np.array_equal(compute_A_dt(f, dictionary, strict=False)[0], A)

        _, _, term, lifted_columns = _symbolic_lift(
            f, g, dictionary, "discrete", strict=False
        )
        assert _items(term.rows) == _items(ref_input)
        assert len(lifted_columns) == len(ref_columns)
        for got, want in zip(lifted_columns, ref_columns):
            assert _items(got.rows) == _items(want)
        # a non-empty input term, so the comparison above is not vacuous
        assert sum(len(r) for r in ref_input) > 0

    def test_cancelling_reference_cancels(self):
        # the "cancelling" case above is not vacuous: x1 x2 composes to
        # 1 + x1^2 + x1^4, its x1 and x1^3 sums cancelling to 0.0
        system = _cancelling_system()
        dictionary = monomial_dictionary(2, 3)
        ref_x, _, _ = _ref_symbolic_lift(system.autonomous, system.input_polynomial, dictionary)
        k = [o.exponents for o in dictionary.observables].index((1, 1))
        assert list(ref_x[k].items()) == [((0, 0), 1.0), ((2, 0), 1.0), ((4, 0), 1.0)]

    @pytest.mark.parametrize(
        "f_c, columns, dictionary",
        [
            (ct_example().decomposition.autonomous, [], monomial_dictionary(2, 4)),
            (*_three_state_pieces(), monomial_dictionary(3, 3, include_constant=True)),
            (*_cancelling_pieces(), monomial_dictionary(2, 3)),
            # x1 x2 x3 gathers 1 + 2^-53 + 2^-53 over i = 1, 2, 3, which
            # rounds to 1.0 in that order and to 1 + 2^-52 in reverse
            (
                PolynomialMap(3, [{(1, 0, 0): 1.0}, {(0, 1, 0): 2.0**-53}, {(0, 0, 1): 2.0**-53}]),
                [],
                monomial_dictionary(3, 3),
            ),
            (*_two_input_pieces(), monomial_dictionary(2, 2)),
            (*_two_input_pieces(), monomial_dictionary(2, 3)),
            (*_two_input_pieces(), monomial_dictionary(2, 5)),
        ],
        ids=[
            "ct-example",
            "three-state",
            "cancelling",
            "summation-order",
            "two-input-deg2",
            "two-input-deg3",
            "two-input-deg5",
        ],
    )
    def test_ct_rows_term_for_term_and_in_order(self, f_c, columns, dictionary):
        # (dPhi/dx)(f_c + G u) row by row, as the reference; its input-free
        # terms are (dPhi/dx) f_c alone, and lowering u_j gives (dPhi/dx) g_j
        # formed on its own
        from kooplift.lifting import _lifted_rows, _symbolic_lift

        n_x, n_u = f_c.n_vars, len(columns)
        g = control_affine_decomposition(f_c, columns, "continuous").input_polynomial
        ref = _ref_derivative(_ref_joint(f_c, g), dictionary, n_x + n_u)
        got = _lifted_rows(f_c, g, dictionary, "continuous").to_rows()
        assert _items(got) == _items(ref)
        free, _ = _split(got, n_x)
        assert free == _items(_ref_derivative(f_c.rows, dictionary, n_x))
        A, _, _, lifted_columns = _symbolic_lift(
            f_c, g, dictionary, "continuous", strict=False
        )
        assert np.array_equal(compute_A_ct(f_c, dictionary, strict=False)[0], A)
        for got_column, column in zip(lifted_columns, columns):
            free, driven = _split(got_column.rows, n_x)
            assert driven == [[] for _ in driven]
            assert free == _items(_ref_derivative(column.rows, dictionary, n_x))
        assert sum(len(r) for r in ref) > 0

    def test_public_constructor_still_checks_exponents(self):
        from kooplift.errors import DimensionError

        with pytest.raises(ValueError):
            PolynomialMap(2, [{(1, -1): 1.0}])
        with pytest.raises(DimensionError):
            PolynomialMap(2, [{(1, 0, 0): 1.0}])
        with pytest.raises(DimensionError):
            PolynomialMap(2, [{(1,): 1.0}])


class TestOneJointExpansion:
    @pytest.mark.parametrize(
        "system, compositions, products",
        [(dt_example().decomposition, 1, 0), (_ct_two_input_system(), 0, 1)],
        ids=["discrete", "continuous"],
    )
    def test_one_expansion_per_lift(self, monkeypatch, system, compositions, products):
        # A, the input term and B(x, u) come from one compose_rows call (DT)
        # or one derivative product (CT)
        import kooplift.lifting as lifting

        calls = {"compose": 0, "multiply": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(lifting, "compose_rows", counted("compose", lifting.compose_rows))
        monkeypatch.setattr(lifting, "multiply_rows", counted("multiply", lifting.multiply_rows))
        build_lifted_model(system, _weighted_dictionary(12), strict=False)
        assert calls == {"compose": compositions, "multiply": products}

    def test_ct_input_term_is_the_jacobian_times_g(self):
        # the input term is the lifted rows' input part, not B(x, u) u, so
        # the factorisation B(x, u) u = input_term is a check of its own
        system = _ct_two_input_system()
        dictionary = monomial_dictionary(2, 3)
        model = build_lifted_model(system, dictionary, strict=False)
        assert not model.input_dependent and model.scheduling == "stack-z"
        rng = np.random.default_rng(21)
        X = rng.uniform(-2.0, 2.0, (1000, 2))
        U = rng.uniform(-1.0, 1.0, (1000, 2))
        for x, u in zip(X, U):
            want = dictionary.jacobian(x) @ system.input_driven(x, u)
            got = model.input_term(x, u)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            B = model.factored_input(x, u)
            assert np.abs(B @ u - want).max() <= 1e-13 * np.abs(want).max()
            assert np.array_equal(B, model.factored_input(x, -2.0 * u))
            assert np.array_equal(B, model.factored_input(x, np.zeros(2)))
