"""Oracles, domain boxes and the autonomous/input-driven decomposition."""

import math

import numpy as np
import pytest

from kooplift import (
    BlackBoxObservable,
    DomainBox,
    DynamicsOracle,
    QuadratureSpec,
    ct_example,
    decompose,
    dt_example,
    factorize_input,
)
from kooplift.errors import DomainEvaluationError
from kooplift.quadrature import central_difference


class TestDecompose:
    def test_ct_benchmark_split(self):
        # f_d(x, 0) recovers the autonomous polynomial part and the
        # remainder matches the exponential input coupling
        bundle = ct_example()
        split = decompose(bundle.full_oracle)
        rng = np.random.default_rng(0)
        mu, lam = -0.05, -1.0
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            f_c = np.array([mu * x[0], lam * (x[1] - x[0] ** 2)])
            g_c = np.array(
                [
                    x[0] * math.exp(u[0]) - x[0],
                    u[0] * u[1] + x[1] * math.exp(u[1]) - x[1],
                ]
            )
            scale = 1 + np.abs(f_c) + np.abs(g_c)
            assert np.all(np.abs(split.eval_autonomous(x) - f_c) <= 1e-14 * scale)
            assert np.all(np.abs(split.eval_input_driven(x, u) - g_c) <= 1e-13 * scale)

    def test_input_free_oracle_gives_zero_remainder(self):
        oracle = DynamicsOracle(
            2, 1, lambda x, u: np.array([x[1], -x[0]]), time_domain="continuous"
        )
        split = decompose(oracle)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            np.testing.assert_array_equal(split.eval_input_driven(x, u), [0.0, 0.0])

    def test_linear_input_case(self):
        b = np.array([[0.5], [2.0]])
        oracle = DynamicsOracle(
            2,
            1,
            lambda x, u: np.array([x[1], -x[0]]) + b @ u,
            time_domain="continuous",
        )
        split = decompose(oracle)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            np.testing.assert_allclose(
                split.eval_input_driven(x, u), (b @ u), rtol=0, atol=1e-14
            )

    def test_remainder_vanishes_bitwise_at_zero_input(self):
        bundle = ct_example()
        split = decompose(bundle.full_oracle)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            g0 = split.eval_input_driven(x, np.zeros(2))
            assert g0[0] == 0.0 and g0[1] == 0.0

    def test_sum_reconstructs_dynamics(self):
        # 1000 random points: autonomous + input-driven == f_d
        for bundle in (ct_example(), dt_example()):
            split = decompose(bundle.full_oracle)
            rng = np.random.default_rng(4)
            X = bundle.state_box.sample(rng, 1000)
            U = bundle.input_box.sample(rng, 1000)
            for x, u in zip(X, U):
                full = bundle.full_oracle(x, u)
                got = split.eval_autonomous(x) + split.eval_input_driven(x, u)
                assert np.all(np.abs(got - full) <= 1e-14 * (1 + np.abs(full)))

    def test_failure_at_zero_input_names_state(self):
        def partial(x, u):
            if np.all(u == 0):
                raise ValueError("undefined at zero input")
            return x + u

        oracle = DynamicsOracle(2, 2, partial, time_domain="discrete")
        split = decompose(oracle)
        with pytest.raises(DomainEvaluationError) as exc:
            split.eval_autonomous(np.array([3.0, 4.0]))
        np.testing.assert_array_equal(exc.value.point, [3.0, 4.0])


class TestBuiltinBundles:
    def test_dt_control_affine_columns(self):
        bundle = dt_example()
        cols = bundle.decomposition.control_affine_columns
        assert len(cols) == 1
        assert cols[0].rows == ({(0, 0): 1.0}, {(2, 0): 1.0})

    def test_dt_step_value(self):
        # x1+ at x = (1, 1), u = 0.5 is 0.7 + 0.5 = 1.2
        bundle = dt_example()
        x_next = bundle.decomposition.eval_full(np.array([1.0, 1.0]), np.array([0.5]))
        assert x_next[0] == 1.2

    def test_ct_input_jacobian_matches_finite_differences(self):
        bundle = ct_example()
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            analytic = bundle.decomposition.input_jacobian_at(x, u)
            fd = central_difference(lambda v: bundle.decomposition.input_driven(x, v), u)
            assert np.all(np.abs(analytic - fd) <= 1e-6 * (1 + np.abs(analytic)))

    def test_ct_held_ray_matches_node_sum(self):
        bundle = ct_example()
        lam, w = np.polynomial.legendre.leggauss(16)
        lam = 0.5 * (lam + 1.0)
        w = 0.5 * w
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            held = bundle.decomposition.input_held
            h = held.jacobian(tuple(u), lam, w)
            ray = np.reshape(held.jacobian_at(tuple(x), h), (2, 2))
            explicit = sum(
                wq * bundle.decomposition.input_jacobian_at(x, lq * u)
                for lq, wq in zip(lam, w)
            )
            np.testing.assert_allclose(ray, explicit, rtol=1e-13, atol=1e-14)

    def test_unknown_builtin(self):
        from kooplift import builtin_system

        with pytest.raises(KeyError):
            builtin_system("no-such-system")


class TestDomainBox:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            DomainBox([1.0, 0.0], [0.0, 1.0])

    def test_contains_and_sample(self):
        box = DomainBox([-1.0, 0.0], [1.0, 2.0])
        assert box.contains([0.0, 1.0])
        assert not box.contains([0.0, 2.5])
        rng = np.random.default_rng(8)
        pts = box.sample(rng, 200)
        assert pts.shape == (200, 2)
        assert all(box.contains(p) for p in pts)

    def test_grid_endpoints(self):
        box = DomainBox([-2.0], [2.0])
        (axis,) = box.grid(5)
        np.testing.assert_array_equal(axis, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_envelope_inflation(self):
        pts = np.array([[0.0, -1.0], [2.0, 3.0]])
        box = DomainBox.from_envelope(pts, inflate=0.1)
        np.testing.assert_allclose(box.lower, [-0.2, -1.4])
        np.testing.assert_allclose(box.upper, [2.2, 3.4])

    def test_finite_difference_jacobian_quadratic_exact(self):
        # central differences are exact for quadratics
        func = lambda x, u: np.array([u[0] ** 2 + 3 * u[1], u[0] * u[1]])
        J = central_difference(lambda u: func(np.zeros(1), u), np.array([1.0, 2.0]))
        np.testing.assert_allclose(J, [[2.0, 3.0], [2.0, 1.0]], rtol=1e-9)


def _old_step(v):
    # the step rule every finite-difference helper used before they merged
    return float(np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, abs(float(v)))


class TestCentralDifference:
    def test_scalar_observable_gradient_keeps_its_bits(self):
        func = lambda x: math.sin(x[0]) * x[1] ** 3 + math.exp(x[1])
        x = np.array([0.4, -1.7])
        expect = np.empty(2)
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += _old_step(x[i])
            xm[i] -= _old_step(x[i])
            expect[i] = (float(func(xp)) - float(func(xm))) / (xp[i] - xm[i])
        np.testing.assert_array_equal(BlackBoxObservable(func).gradient_at(x), expect)

    def test_vector_input_term_factorisation_keeps_its_bits(self):
        term = lambda x, v: np.array(
            [x[0] * math.expm1(v[0]), v[0] * v[1] + x[1] * math.sin(v[1]), v[1] ** 3]
        )

        def old_jacobian(x, v):
            cols = []
            for j in range(v.shape[0]):
                vp, vm = v.copy(), v.copy()
                vp[j] += _old_step(v[j])
                vm[j] -= _old_step(v[j])
                cols.append((term(x, vp) - term(x, vm)) / (vp[j] - vm[j]))
            return np.stack(cols, axis=1)

        x, u = np.array([1.3, -0.6]), np.array([0.8, -2.5])
        quad = QuadratureSpec(5)
        lam, w = quad.rule()
        expect = w[0] * old_jacobian(x, lam[0] * u)
        for q in range(1, lam.shape[0]):
            expect += w[q] * old_jacobian(x, lam[q] * u)
        np.testing.assert_array_equal(factorize_input(term, x, u, quad=quad), expect)

    def test_oracle_without_jacobian_falls_back(self):
        oracle = DynamicsOracle(1, 2, lambda x, u: np.array([u[0] ** 2 * u[1]]))
        np.testing.assert_allclose(
            decompose(oracle).input_jacobian_at(np.zeros(1), np.array([1.5, 2.0])),
            [[6.0, 2.25]],
            rtol=1e-8,
        )
