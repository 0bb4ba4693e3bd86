"""Domain boxes and the autonomous/input-driven decomposition."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kooplift import (
    Decomposition,
    DomainBox,
    PolynomialMap,
    control_affine_decomposition,
    ct_example,
    dt_example,
)
from kooplift.errors import DimensionError
from test_lifting import _ct_example_input_jacobian


def _old_step(v):
    # the step rule every finite-difference helper used before they merged
    return float(np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, abs(float(v)))


def _central_difference(func, v):
    """Central-difference Jacobian of ``func`` at ``v``, one column per
    coordinate of ``v``."""
    cols = []
    for j in range(v.shape[0]):
        vp, vm = v.copy(), v.copy()
        vp[j] += _old_step(v[j])
        vm[j] -= _old_step(v[j])
        cols.append((np.asarray(func(vp)) - np.asarray(func(vm))) / (vp[j] - vm[j]))
    return np.stack(cols, axis=-1)


def _columns_at(columns, x):
    """G(x), one column per input channel, as control-affine systems used to
    stack it before the product G(x) u."""
    return np.stack([col.evaluate(x) for col in columns], axis=1)


def _dt_full(x, u):
    """dt-example's f_d(x, u), written out."""
    return np.array([0.7 * x[0] + u[0], 0.7 * x[1] - 0.5 * x[0] ** 2 + x[0] ** 2 * u[0]])


class TestDecompose:
    def test_ct_benchmark_split(self):
        # the autonomous polynomial part and the input-driven remainder
        # match the closed form with its exponential input coupling
        split = ct_example().decomposition
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
            assert np.all(np.abs(split.autonomous.evaluate(x) - f_c) <= 1e-14 * scale)
            assert np.all(np.abs(split.input_driven(x, u) - g_c) <= 1e-13 * scale)

    def test_input_free_oracle_gives_zero_remainder(self):
        # an input column that is zero: no input term at all
        f = PolynomialMap(2, [{(0, 1): 1.0}, {(1, 0): -1.0}])
        split = control_affine_decomposition(f, [PolynomialMap(2, [{}, {}])], "continuous")
        assert split.input_polynomial.rows == ({}, {})
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            np.testing.assert_array_equal(split.input_driven(x, u), [0.0, 0.0])

    def test_linear_input_case(self):
        b = np.array([[0.5], [2.0]])
        f = PolynomialMap(2, [{(0, 1): 1.0}, {(1, 0): -1.0}])
        column = PolynomialMap(2, [{(0, 0): 0.5}, {(0, 0): 2.0}])
        split = control_affine_decomposition(f, [column], "continuous")
        # g(x, u) = b u over (x1, x2, u1)
        assert split.input_polynomial.rows == ({(0, 0, 1): 0.5}, {(0, 0, 1): 2.0})
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            np.testing.assert_allclose(split.input_driven(x, u), (b @ u), rtol=0, atol=1e-14)

    def test_control_affine_input_is_g_times_u_bitwise_on_dt_example(self):
        # one input column: every row of G(x) u is a single product, which
        # the joint map's term loop forms with the same rounding
        column = PolynomialMap(2, [{(0, 0): 1.0}, {(2, 0): 1.0}])
        bundle = dt_example()
        split = bundle.decomposition
        rng = np.random.default_rng(13)
        X = bundle.state_box.sample(rng, 1000)
        U = bundle.input_box.sample(rng, 1000)
        for x, u in zip(X, U):
            got = split.input_driven(x, u)
            assert got.tobytes() == (_columns_at([column], x) @ u).tobytes()

    def test_control_affine_input_matches_g_times_u_with_two_inputs(self):
        # rows with several input terms: the term loop adds them in graded
        # order, BLAS may fuse multiply-adds, so the bits may differ
        f = PolynomialMap(2, [{(1, 0): -0.3}, {(0, 1): -0.7}])
        columns = [
            PolynomialMap(2, [{(0, 0): 1.0, (0, 1): 0.3}, {(1, 0): 0.5, (1, 1): -1.5}]),
            PolynomialMap(2, [{(2, 0): 0.25, (0, 1): -1.0}, {(0, 0): 1.0, (0, 2): 0.125}]),
        ]
        split = control_affine_decomposition(f, columns, "continuous")
        rng = np.random.default_rng(14)
        for _ in range(2000):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            G = _columns_at(columns, x)
            scale = np.abs(G) @ np.abs(u)
            assert np.all(np.abs(split.input_driven(x, u) - G @ u) <= 1e-14 * scale)

    def test_remainder_vanishes_bitwise_at_zero_input(self):
        rng = np.random.default_rng(3)
        for bundle in (ct_example(), dt_example()):
            split = bundle.decomposition
            zero = np.zeros(split.n_u)
            for _ in range(100):
                x = rng.uniform(-2, 2, 2)
                g0 = split.input_driven(x, zero)
                assert g0[0] == 0.0 and g0[1] == 0.0
        # the joint input polynomial too: every term carries a power of u
        g = dt_example().decomposition.input_polynomial
        points = np.hstack([rng.uniform(-2, 2, (100, 2)), np.zeros((100, 1))])
        np.testing.assert_array_equal(g.evaluate_batch(points), 0.0)

    def test_sum_reconstructs_dynamics(self):
        # 1000 random points: autonomous + input-driven == f_d written out,
        # and in discrete time also f + g with g the joint input polynomial
        mu, lam = -0.05, -1.0

        def ct_full(x, u):
            return np.array(
                [
                    mu * x[0] + x[0] * math.exp(u[0]) - x[0],
                    lam * (x[1] - x[0] ** 2) + u[0] * u[1] + x[1] * math.exp(u[1]) - x[1],
                ]
            )

        for bundle, full_of in ((ct_example(), ct_full), (dt_example(), _dt_full)):
            split = bundle.decomposition
            rng = np.random.default_rng(4)
            X = bundle.state_box.sample(rng, 1000)
            U = bundle.input_box.sample(rng, 1000)
            for x, u in zip(X, U):
                full = full_of(x, u)
                tol = 1e-14 * (1 + np.abs(full))
                assert np.all(np.abs(split.eval_full(x, u) - full) <= tol)
                # the features written out: E_k = expm1(d_k u_{j_k})
                E = [math.expm1(d * u[j]) for j, d in split.exponentials]
                joint = split.autonomous.evaluate(x) + split.input_polynomial.evaluate(
                    np.concatenate([x, u, E])
                )
                assert np.all(np.abs(joint - full) <= tol)


class TestFeatures:
    """E = expm1(d u) and F = d (E / z), z = d u, of one input."""

    @pytest.mark.parametrize(
        "d, u, E, F",
        [
            (0.5, 0.0, 0.0, 0.5),
            (0.5, -0.0, -0.0, 0.5),
            # z = 0.5 * 5e-324 rounds to 0; at -3 it is a subnormal, E = z
            (0.5, 5e-324, 0.0, 0.5),
            (-3.0, 5e-324, -1.5e-323, -3.0),
            # past z = 709.78 expm1 overflows: inf, not an OverflowError
            (1.0, 800.0, math.inf, math.inf),
            (-3.0, -300.0, math.inf, -math.inf),
            (1.0, -800.0, -1.0, 1.0 / 800.0),
            (0.5, math.nan, math.nan, math.nan),
        ],
        ids=[
            "zero",
            "negative-zero",
            "subnormal-rounds-to-zero",
            "subnormal",
            "overflow",
            "overflow-negative-rate",
            "underflow-to-minus-one",
            "nan",
        ],
    )
    def test_features_of_one_input(self, d, u, E, F):
        f = PolynomialMap(1, [{(1,): -1.0}])
        split = Decomposition(1, 1, "continuous", f, PolynomialMap(3, [{(1, 0, 1): 1.0}]), ((0, d),))
        (e,), (phi,) = split.features([u]), split.features([u], 1)
        assert np.array([e, phi]).tobytes() == np.array([E, F]).tobytes()


class TestDecompositionChecks:
    """Each malformed decomposition fails at construction with a typed error.
    (A callable autonomous part: ``test_lifting.py``,
    ``test_blackbox_without_samples_rejected``.)"""

    def test_discrete_time_needs_input_polynomial(self):
        with pytest.raises(TypeError, match="input_polynomial"):
            replace(dt_example().decomposition, input_polynomial=None)

    @pytest.mark.parametrize(
        "g, message",
        [
            (PolynomialMap(2, [{(1, 0): 1.0}, {}]), "joint variables"),
            (PolynomialMap(3, [{(0, 0, 1): 1.0}]), "joint variables"),
            (PolynomialMap(3, [{(0, 0, 1): 1.0}, {(2, 0, 0): 1.0}]), "input exponent"),
        ],
        ids=["wrong-n-vars", "wrong-n-out", "input-free-term"],
    )
    def test_input_polynomial_checked(self, g, message):
        with pytest.raises(DimensionError, match=message):
            replace(dt_example().decomposition, input_polynomial=g)

    @pytest.mark.parametrize("form", ["both", "neither"])
    def test_input_part_in_exactly_one_form(self, form):
        # each term of g has an input exponent or one E factor, not both and
        # not neither: the term added to ct-example's row 1 breaks that
        split = ct_example().decomposition
        term = {"both": (0, 0, 1, 0, 1, 0), "neither": (1, 0, 0, 0, 0, 0)}[form]
        rows = list(split.input_polynomial.rows)
        rows[0] = {**rows[0], term: 1.0}
        with pytest.raises(DimensionError, match="a term of input_polynomial") as exc:
            replace(split, input_polynomial=PolynomialMap(6, rows))
        assert str(term) in str(exc.value)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (dict(term=(1, 0, 0, 0, 2, 0)), DimensionError, "feature squared"),
            (dict(term=(1, 0, 0, 0, 1, 1)), DimensionError, "two exponential features"),
            (dict(exponentials=((0, 1.0), (2, 1.0))), DimensionError, "reads input 2 of 2"),
            (dict(exponentials=((0, 1.0),)), DimensionError, "joint variables"),
            (dict(exponentials=((0, 1.0), (1, math.inf))), ValueError, "finite nonzero rate"),
            (dict(exponentials=((0, math.nan), (1, 1.0))), ValueError, "finite nonzero rate"),
            (dict(exponentials=((0, 1.0), (1, 0.0))), ValueError, "finite nonzero rate"),
            (dict(time_domain="discrete"), TypeError, "continuous-time only"),
        ],
        ids=[
            "feature-squared",
            "two-features",
            "input-out-of-range",
            "feature-without-a-variable",
            "rate-inf",
            "rate-nan",
            "rate-zero",
            "discrete-time",
        ],
    )
    def test_exponential_terms_checked(self, change, error, message):
        # ct-example's input part, with one thing changed
        split = ct_example().decomposition
        term = change.pop("term", None)
        if term is not None:
            rows = list(split.input_polynomial.rows)
            rows[1] = {**rows[1], term: 1.0}
            change["input_polynomial"] = PolynomialMap(6, rows)
        with pytest.raises(error, match=message) as exc:
            replace(split, **change)
        assert type(exc.value) is error


class TestBuiltinBundles:
    def test_dt_control_affine_columns(self):
        # the one column [1, x1^2] enters the joint map with u to the first power
        bundle = dt_example()
        g = bundle.decomposition.input_polynomial
        assert (g.n_vars, g.n_out) == (3, 2)
        assert g.rows == ({(0, 0, 1): 1.0}, {(2, 0, 1): 1.0})

    def test_dt_step_value(self):
        # x1+ at x = (1, 1), u = 0.5 is 0.7 + 0.5 = 1.2
        bundle = dt_example()
        x_next = bundle.decomposition.eval_full(np.array([1.0, 1.0]), np.array([0.5]))
        assert x_next[0] == 1.2

    def test_ct_example_is_data(self):
        # x1 E1 and u1 u2 + x2 E2 over (x1, x2, u1, u2, E1, E2), E_j = expm1(u_j)
        split = ct_example().decomposition
        assert split.exponentials == ((0, 1.0), (1, 1.0))
        assert split.input_polynomial.rows == (
            {(1, 0, 0, 0, 1, 0): 1.0},
            {(0, 1, 0, 0, 0, 1): 1.0, (0, 0, 1, 1, 0, 0): 1.0},
        )

    def test_ct_input_jacobian_matches_finite_differences(self):
        bundle = ct_example()
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            analytic = _ct_example_input_jacobian(x, u)
            fd = _central_difference(lambda v: bundle.decomposition.input_driven(x, v), u)
            assert np.all(np.abs(analytic - fd) <= 1e-6 * (1 + np.abs(analytic)))

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
        J = _central_difference(lambda u: func(np.zeros(1), u), np.array([1.0, 2.0]))
        np.testing.assert_allclose(J, [[2.0, 3.0], [2.0, 1.0]], rtol=1e-9)
