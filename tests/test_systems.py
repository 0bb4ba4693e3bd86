"""Domain boxes and the autonomous/input-driven decomposition."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kooplift import (
    Decomposition,
    DomainBox,
    PolynomialMap,
    QuadratureSpec,
    control_affine_decomposition,
    ct_example,
    dt_example,
)
from kooplift.cli import preset_runs
from kooplift.config import resolve_config
from kooplift.errors import DimensionError
from kooplift.sim import build_inputs
from test_lifting import factorize_input


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


def _held_jacobian(held, x, u):
    """dg/du(x, u) of a held-input form, as an (n_x, n_u) array."""
    h = held.jacobian(tuple(u.tolist()))
    return np.reshape(held.jacobian_at(tuple(x.tolist()), h), (x.shape[0], u.shape[0]))


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
                if split.input_polynomial is not None:
                    joint = split.autonomous.evaluate(x) + split.input_polynomial.evaluate(
                        np.concatenate([x, u])
                    )
                    assert np.all(np.abs(joint - full) <= tol)


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

    @pytest.mark.parametrize("form", ["both", "neither", "held-in-discrete-time"])
    def test_input_part_in_exactly_one_form(self, form):
        # ct-example's held form beside a polynomial g of the same shape
        split = ct_example().decomposition
        g = PolynomialMap(4, [{(0, 0, 1, 0): 1.0}, {(0, 0, 0, 1): 1.0}])
        time_domain, forms = {
            "both": ("continuous", dict(input_polynomial=g, input_held=split.input_held)),
            "neither": ("continuous", {}),
            "held-in-discrete-time": ("discrete", dict(input_held=split.input_held)),
        }[form]
        with pytest.raises(TypeError, match="input_polynomial"):
            Decomposition(2, 2, time_domain, split.autonomous, **forms)

    @pytest.mark.parametrize("n_u", [1, 3])
    def test_held_form_checked_against_the_dimensions(self, n_u):
        # n_u = 1: ct-example's held driven(u) reads u[1]; n_u = 3: its
        # Jacobian has 4 entries, not n_x * n_u = 6
        with pytest.raises(DimensionError, match="input_held"):
            replace(ct_example().decomposition, n_u=n_u)


    @pytest.mark.parametrize(
        "offset",
        [lambda x: 1.0, lambda x: x[0]],
        ids=["one-everywhere", "zero-at-the-origin-only"],
    )
    def test_held_form_must_vanish_at_zero_input(self, offset):
        # ct-example's g with an input-free offset in row 1: its lift's input
        # term at u = 0 would not be the zero that B(x, u) u is there
        split = ct_example().decomposition
        driven_at = split.input_held.driven_at
        shifted = replace(
            split.input_held,
            driven_at=lambda x, h: (driven_at(x, h)[0] + offset(x), driven_at(x, h)[1]),
        )
        with pytest.raises(ValueError, match=r"g\(x, 0\) = 0") as exc:
            replace(split, input_held=shifted)
        assert not isinstance(exc.value, DimensionError)

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

    def test_ct_input_jacobian_matches_finite_differences(self):
        bundle = ct_example()
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            analytic = _held_jacobian(bundle.decomposition.input_held, x, u)
            fd = _central_difference(lambda v: bundle.decomposition.input_driven(x, v), u)
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
            h = held.ray_jacobians(u[None], lam, w)[0]
            ray = np.reshape(held.jacobian_at(tuple(x), tuple(h)), (2, 2))
            explicit = sum(wq * _held_jacobian(held, x, lq * u) for lq, wq in zip(lam, w))
            np.testing.assert_allclose(ray, explicit, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("preset", ["ct-example-whitenoise", "ct-example-multisine"])
    def test_ct_ray_jacobians_match_the_per_row_sum(self, preset):
        # every input row of the preset's full 25 s run: the batched ray sums
        # have the bits of the one-input sum weights @ exp(nodes * u)
        bundle = ct_example()
        cfg = preset_runs(preset)[0][2]
        c = resolve_config(cfg)
        n_steps = c["n_steps"]
        U = build_inputs(c["signals"], c["ts"], n_steps)
        nodes, weights = QuadratureSpec().rule()
        rays = bundle.decomposition.input_held.ray_jacobians(U, nodes, weights)
        half = float(weights @ nodes)
        exp, dot = np.exp, weights.dot
        expect = np.empty_like(rays)
        for j in range(2):
            # row i of the outer product is nodes * u_i; exp and the dot run
            # on each 16-entry row by itself
            expect[:, j] = [dot(exp(row)) for row in np.multiply.outer(U[:, j], nodes)]
        expect[:, 2] = [half * u for u in U[:, 1].tolist()]
        expect[:, 3] = [half * u for u in U[:, 0].tolist()]
        assert rays.shape == (n_steps + 1, 4)
        assert rays.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n_nodes", [1, 2, 8, 16])
    def test_ct_ray_jacobians_rows_do_not_depend_on_each_other(self, n_nodes):
        held = ct_example().decomposition.input_held
        nodes, weights = QuadratureSpec(n_nodes).rule()
        U = np.random.default_rng(3).uniform(-1.5, 1.5, (257, 2))
        U[5] = [-0.0, 0.0]
        U[6] = [np.inf, -np.inf]
        rays = held.ray_jacobians(U, nodes, weights)
        for k, u in enumerate(U):
            one = held.ray_jacobians(u[None], nodes, weights)
            assert one.tobytes() == rays[k : k + 1].tobytes()
            assert float(rays[k, 0]) == float(weights @ np.exp(nodes * u[0]))

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


class TestCentralDifference:
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
        got = factorize_input(old_jacobian, x, u, quad=quad)
        np.testing.assert_array_equal(got, expect)
