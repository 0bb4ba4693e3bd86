"""Lifted-model construction: span matching, input terms, factorisation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kooplift import (
    Decomposition,
    DomainBox,
    Monomial,
    ObservableDictionary,
    PolynomialMap,
    QuadratureSpec,
    build_lifted_model,
    compute_A_ct,
    compute_A_dt,
    ct_example,
    decompose,
    dt_example,
    extract_bilinear,
    factorize_input,
    fit_A_from_samples,
    input_term_ct,
    input_term_dt,
    monomial_dictionary,
)
from kooplift.errors import DomainWarning, InvariantSubspaceViolation, SpanViolation
from kooplift.lifting import match_rows_to_span
from kooplift.quadrature import unit_gauss_legendre

BENCH_DICT = ObservableDictionary(
    2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))]
)


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
        bundle = dt_example()
        split = decompose(bundle.full_oracle)
        with pytest.raises(TypeError):
            build_lifted_model(split, BENCH_DICT)


class TestSampledA:
    def test_linear_blackbox_recovery(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(2, 2)) * 0.5
        A, residual = fit_A_from_samples(
            lambda x: F @ x,
            monomial_dictionary(2, 1),
            rng.uniform(-1, 1, (50, 2)),
            "discrete",
        )
        np.testing.assert_allclose(A, F, rtol=0, atol=1e-12)
        assert residual <= 1e-12

    def test_blackbox_benchmark_close_to_symbolic(self):
        bundle = dt_example()
        split = decompose(bundle.full_oracle)
        rng = np.random.default_rng(3)
        grid = rng.uniform(-2, 2, (100, 2))
        model = build_lifted_model(split, BENCH_DICT, sample_grid=grid)
        assert not model.exact
        A_sym, _ = compute_A_dt(bundle.decomposition.autonomous, BENCH_DICT)
        np.testing.assert_allclose(model.A, A_sym, rtol=0, atol=1e-10)


class TestInputTermCt:
    def test_closed_form(self):
        bundle = ct_example()
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            term = input_term_ct(bundle.decomposition, BENCH_DICT, x, u)
            expect = np.array(
                [
                    x[0] * math.expm1(u[0]),
                    u[0] * u[1] + x[1] * math.expm1(u[1]),
                    2 * x[0] ** 2 * math.expm1(u[0]),
                ]
            )
            assert np.all(np.abs(term - expect) <= 1e-13 * (1 + np.abs(expect)))

    def test_zero_input(self):
        bundle = ct_example()
        term = input_term_ct(bundle.decomposition, BENCH_DICT, [0.4, -0.9], [0.0, 0.0])
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


class TestInputTermDt:
    def test_closed_form_via_quadrature(self):
        bundle = dt_example()
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            term = input_term_dt(bundle.decomposition, BENCH_DICT, x, u)
            expect = np.array(
                [u[0], x[0] ** 2 * u[0], (2 * 0.7 * x[0] + u[0]) * u[0]]
            )
            assert np.all(np.abs(term - expect) <= 1e-12 * (1 + np.abs(expect)))

    def test_zero_input(self):
        bundle = dt_example()
        term = input_term_dt(bundle.decomposition, BENCH_DICT, [1.3, 0.2], [0.0])
        np.testing.assert_array_equal(term, np.zeros(3))

    def test_composition_difference_oracle(self):
        # Phi(f(x) + g(x, u)) - Phi(f(x)) is what the line integral equals
        bundle = dt_example()
        split = bundle.decomposition
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            term = input_term_dt(split, BENCH_DICT, x, u)
            fx = split.eval_autonomous(x)
            g = split.eval_input_driven(x, u)
            expect = BENCH_DICT.evaluate(fx + g) - BENCH_DICT.evaluate(fx)
            assert np.all(np.abs(term - expect) <= 1e-12 * (1 + np.abs(expect)))

    def test_segment_outside_box_warns_but_computes(self):
        bundle = dt_example()
        big_x = np.array([5.0, 0.0])  # f(x) + g already outside [-2, 2]^2
        with pytest.warns(DomainWarning):
            term = input_term_dt(
                bundle.decomposition,
                BENCH_DICT,
                big_x,
                np.array([1.0]),
                state_box=DomainBox([-2.0, -2.0], [2.0, 2.0]),
            )
        assert np.all(np.isfinite(term))


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
        M = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        term = lambda x, u: M @ u
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rng.normal(size=2)
            B = factorize_input(term, np.zeros(2), u)
            np.testing.assert_allclose(B, M, rtol=0, atol=1e-9)

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
        # the oracle split has no held-input form, so its factorisation sums
        # the input-Jacobian node by node instead of taking the held ray sum
        bundle = ct_example()
        rng = np.random.default_rng(12)
        split = decompose(bundle.full_oracle)
        assert split.input_held is None
        assert bundle.decomposition.input_held is not None
        nodes = build_lifted_model(
            split, BENCH_DICT, sample_grid=bundle.state_box.sample(rng, 50)
        )
        ray = build_lifted_model(bundle.decomposition, BENCH_DICT)
        X = bundle.state_box.sample(rng, 200)
        U = bundle.input_box.sample(rng, 200)
        U[0] = 0.0
        for x, u in zip(X, U):
            expect = ray.factored_input(x, u)
            got = nodes.factored_input(x, u)
            assert np.all(np.abs(got - expect) <= 1e-13 * np.abs(expect).max())

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

    def test_dt_oracle_paths_match_symbolic(self):
        # hybrid decompositions exercise the quadrature factorisation with
        # and without an analytic input-Jacobian; both must agree with the
        # symbolic matrix
        bundle = dt_example()
        symbolic = build_lifted_model(bundle.decomposition, BENCH_DICT)
        f = bundle.decomposition.autonomous
        g = bundle.decomposition.input_driven

        analytic = Decomposition(
            n_x=2,
            n_u=1,
            time_domain="discrete",
            autonomous=f,
            input_driven=g,
            input_jacobian=bundle.decomposition.input_jacobian,
        )
        fd_only = Decomposition(
            n_x=2, n_u=1, time_domain="discrete", autonomous=f, input_driven=g
        )
        model_a = build_lifted_model(analytic, BENCH_DICT)
        model_f = build_lifted_model(fd_only, BENCH_DICT)
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            B_sym = symbolic.factored_input(x, u)
            np.testing.assert_allclose(
                model_a.factored_input(x, u), B_sym, rtol=0, atol=1e-9
            )
            np.testing.assert_allclose(
                model_f.factored_input(x, u), B_sym, rtol=0, atol=1e-7
            )


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


class TestBilinear:
    def test_constant_column_needs_constant_observable(self):
        b = np.array([0.8, -1.5])
        column = PolynomialMap(2, [{(0, 0): b[0]}, {(0, 0): b[1]}])
        with pytest.raises(SpanViolation) as exc:
            extract_bilinear([column], BENCH_DICT)
        assert (0, 0) in exc.value.missing

        with_const = ObservableDictionary(
            2,
            [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0)), Monomial((0, 0))],
        )
        model = extract_bilinear([column], with_const)
        B1 = model.B[0]
        # rows: [b1 on the constant, b2 on the constant, 2 b1 on phi_1]
        expect = np.zeros((4, 4))
        expect[0, 3] = b[0]
        expect[1, 3] = b[1]
        expect[2, 0] = 2 * b[0]
        np.testing.assert_array_equal(B1, expect)

    def test_zero_columns(self):
        column = PolynomialMap(2, [{}, {}])
        model = extract_bilinear([column, column], BENCH_DICT)
        for Bi in model.B:
            np.testing.assert_array_equal(Bi, np.zeros((3, 3)))

    def test_one_dimensional_identity(self):
        d = monomial_dictionary(1, 1)
        column = PolynomialMap(1, [{(1,): 1.0}])
        model = extract_bilinear([column], d)
        np.testing.assert_array_equal(model.B[0], [[1.0]])

    def test_bilinear_reproduces_input_term(self):
        # control-affine CT system whose channel expansions stay in span
        f_c = PolynomialMap(2, [{(1, 0): -0.5}, {(0, 1): -1.0, (2, 0): 1.0}])
        column = PolynomialMap(2, [{(1, 0): 1.0}, {(0, 1): 0.5}])
        d = monomial_dictionary(2, 2)
        model = extract_bilinear([column], d)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            u = rng.uniform(-1, 1, 1)
            z = d.evaluate(x)
            expect = (d.jacobian(x) @ column.evaluate(x)) * u[0]
            got = model.input_term(z, u)
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    def test_column_gather_form(self):
        column_a = PolynomialMap(1, [{(1,): 2.0}])
        column_b = PolynomialMap(1, [{(1,): -3.0}])
        d = monomial_dictionary(1, 1)
        model = extract_bilinear([column_a, column_b], d)
        np.testing.assert_array_equal(model.b_tilde(0), [[2.0, -3.0]])


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
            QuadratureSpec(0)


class TestSpanMatching:
    def test_duplicate_monomials_fall_back_to_least_squares(self, caplog):
        d = ObservableDictionary(
            2,
            [Monomial((1, 0)), Monomial((0, 1)), Monomial((1, 0))],
            state_selector=[0, 1],
        )
        rows = [{(1, 0): 2.0}, {(0, 1): 1.0}]
        coeffs, residual, missing = match_rows_to_span(rows, d)
        assert residual <= 1e-12 and not missing
        # minimum-norm solution splits the weight across the duplicates
        np.testing.assert_allclose(coeffs[0], [1.0, 0.0, 1.0], atol=1e-12)


class TestSerialization:
    def test_document_roundtrip_bit_exact(self):
        from kooplift.lifting import load_lifted_document
        from kooplift.serialize import dumps_json
        import json

        for bundle in (ct_example(), dt_example()):
            model = build_lifted_model(bundle.decomposition, bundle.dictionary)
            doc = model.to_document()
            loaded = load_lifted_document(json.loads(dumps_json(doc)))
            np.testing.assert_array_equal(loaded["A"], model.A)
            assert loaded["residual"] == model.residual
            assert loaded["exact"] == model.exact
            assert loaded["time_domain"] == model.time_domain
            assert [o.exponents for o in loaded["dictionary"].observables] == [
                o.exponents for o in model.dictionary.observables
            ]
