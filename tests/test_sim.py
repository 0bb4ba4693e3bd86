"""Integrators, excitation signals and error metrics."""

import dataclasses
import math

import numpy as np
import pytest

from kooplift import (
    Monomial,
    ObservableDictionary,
    SignalSpec,
    Trajectory,
    build_inputs,
    build_lifted_model,
    dt_example,
    ct_example,
    dt_simulate,
    error_metrics,
    multisine,
    rk4_integrate,
    signal_samples,
    simulate_ct,
    simulate_lpv,
    simulate_lti,
    simulate_nonlinear,
    white_noise,
)
from kooplift import cli, systems
from kooplift.edmd import SnapshotData, _filters
from kooplift.cli import preset_runs
from kooplift.config import resolve_config
from kooplift.dictionaries import monomial_dictionary
from kooplift.errors import DimensionError, DivergenceError
from kooplift.kernels import lpv_kernel, nonlinear_kernel
from kooplift.lpv import lifted_step, lti_step, make_lti
from kooplift.polynomials import PolynomialMap
from kooplift.quadrature import QuadratureSpec
from kooplift.sim import multisine_frequencies
from kooplift.systems import CONTINUOUS, control_affine_decomposition


class TestRk4:
    def test_one_step_exponential_decay(self):
        # hand-computed single RK4 step of dx/dt = -x from 1 at Ts = 0.1
        traj = rk4_integrate(lambda t, x: -x, [1.0], ts=0.1, n_steps=1)
        assert traj.states[1, 0] == pytest.approx(0.9048375, abs=1e-12)
        assert abs(traj.states[1, 0] - math.exp(-0.1)) < 1e-7

    def test_zero_field_constant(self):
        traj = rk4_integrate(lambda t, x: np.zeros(2), [3.0, -1.0], 0.05, 40)
        np.testing.assert_array_equal(traj.states, np.tile([3.0, -1.0], (41, 1)))

    def test_order_four_convergence(self):
        # global error shrinks ~16x per halving; measured above the
        # roundoff floor (truncation at Ts = 1e-4 would be ~1e-19, far
        # below double precision, so the classic 1e-2..1e-4 range cannot
        # show the asymptotic slope)
        steps = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        errors = []
        for ts in steps:
            n = int(round(1.0 / ts))
            traj = rk4_integrate(lambda t, x: -x, [1.0], ts, n)
            errors.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)
        for a, b in zip(errors, errors[1:]):
            assert a / b == pytest.approx(16.0, rel=0.15)

    def test_divergence_reports_step(self):
        with pytest.raises(DivergenceError) as exc:
            rk4_integrate(lambda t, x: x * 40.0, [1.0], 1.0, 50)
        assert exc.value.step is not None

    def test_time_grid(self):
        traj = rk4_integrate(lambda t, x: -x, [1.0], 0.25, 8)
        np.testing.assert_allclose(traj.times, 0.25 * np.arange(9))


class TestZeroOrderHold:
    def test_held_input_matches_autonomous_shifted_field(self):
        # with u held constant over one macro step the controlled and the
        # frozen-field integrators must agree exactly
        rhs = lambda x, u: -x + u
        inputs = np.array([[0.7], [0.7]])
        controlled = simulate_ct(rhs, [1.0], inputs, ts=0.1)
        frozen = rk4_integrate(lambda t, x: -x + 0.7, [1.0], 0.1, 1)
        np.testing.assert_array_equal(controlled.states, frozen.states)

    def test_final_input_row_recorded_not_applied(self):
        rhs = lambda x, u: u
        inputs = np.array([[1.0], [100.0]])
        traj = simulate_ct(rhs, [0.0], inputs, ts=1.0)
        assert traj.states[1, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(traj.inputs, inputs)


class TestDtSimulate:
    def test_autonomous_geometric_decay(self):
        bundle = dt_example()
        inputs = np.zeros((26, 1))
        traj = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs)
        np.testing.assert_allclose(
            traj.states[:, 0], 0.7 ** np.arange(26), rtol=1e-12
        )

    def test_exact_lift_tracks_nonlinear_white_noise(self):
        bundle = dt_example()
        model = build_lifted_model(bundle.decomposition, bundle.dictionary)
        spec = SignalSpec(kind="white_noise", variance=0.5, seed=42)
        inputs = build_inputs([spec], ts=1.0, n_steps=100)
        nonlinear = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs)
        _, output = simulate_lpv(model, x0=[1.0, 1.0], inputs=inputs)
        report = error_metrics(nonlinear, output)
        assert np.all(report.linf <= 1e-12)

    def test_single_step_value(self):
        bundle = dt_example()
        inputs = np.array([[0.5], [0.0]])
        traj = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs)
        assert traj.states[1, 0] == 1.2

    def test_divergence_reports_step(self):
        step = lambda x, u: x * 1e7
        with pytest.raises(DivergenceError) as exc:
            dt_simulate(step, [1.0], np.zeros((10, 1)))
        assert exc.value.step == 2

    def test_exact_lift_limit_applies_to_state_not_observables(self):
        # x1^20 and x2^10 pass the 1e12 limit while the state stays below 18
        bundle = dt_example()
        dictionary = ObservableDictionary(
            2,
            [
                Monomial((a, b))
                for b in range(11)
                for a in range(21 - 2 * b)
                if a + b > 0
            ],
        )
        model = build_lifted_model(bundle.decomposition, dictionary)
        spec = SignalSpec(kind="white_noise", variance=0.5, seed=2)
        inputs = build_inputs([spec], ts=1.0, n_steps=100)
        nonlinear = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs)
        lifted, output = simulate_lpv(model, x0=[1.0, 1.0], inputs=inputs)
        assert np.abs(lifted.states).max() > 1e12
        assert np.abs(nonlinear.states).max() < 18.0
        report = error_metrics(nonlinear, output)
        assert report.linf[0] == 0.0
        assert report.linf[1] <= 1e-12

    def test_selector_still_rejects_non_finite_observables(self):
        # the input row is written into the second coordinate
        step = lambda x, u: np.array([x[0], u[0]])
        inputs = np.array([[1e200], [np.inf], [0.0]])
        traj = dt_simulate(step, [1.0, 1.0], inputs, n_steps=1, state_selector=[0])
        assert traj.states[-1, 1] == 1e200
        with pytest.raises(DivergenceError) as exc:
            dt_simulate(step, [1.0, 1.0], inputs, state_selector=[0])
        assert exc.value.step == 2
        with pytest.raises(DivergenceError):
            dt_simulate(
                lambda x, u: 2.0 * x, [1e12, 1.0], np.zeros((2, 1)), state_selector=[0]
            )


def _fitted(A, B, rng, n=40):
    """Snapshots of z+ = A z + B u at random (z, u): their alpha = 0 fit is
    (A, B) to rounding."""
    Z = rng.normal(size=(A.shape[0], n))
    U = rng.normal(size=(B.shape[1], n))
    return SnapshotData(Z=Z, Zp=A @ Z + B @ U, U=U)


def _fit_of(data, f):
    """(A, B) of the fit (Z+ V_Y) diag(f) U_Y^T of the filter row f."""
    U_Y, _, W = data.tikhonov_svd()
    fit = (W * f) @ U_Y.T
    return fit[:, : data.n_f], fit[:, data.n_f :]


class TestLtiStack:
    """The alpha search's recurrence in SVD coordinates (cli._search_runs)
    against dt_simulate(lti_step(A_m, B_m)) of each member's explicit fit."""

    @staticmethod
    def _assert_members_match(data, filters, z0, inputs, limit):
        states, diverged_at = cli._search_runs(
            data, filters, z0, inputs, limit, np.arange(data.n_f)
        )
        assert states.shape == (len(filters), inputs.shape[0], len(z0))
        for m, f in enumerate(filters):
            step = lti_step(*_fit_of(data, f))
            try:
                ref = dt_simulate(step, z0, inputs, divergence_limit=limit)
            except DivergenceError as exc:
                assert diverged_at[m] == exc.step
                ref = dt_simulate(
                    step, z0, inputs, n_steps=exc.step - 1, divergence_limit=limit
                )
                assert np.isnan(states[m, exc.step :]).all()
            else:
                assert diverged_at[m] == 0
            # both runs round a well-conditioned fit, step by step
            recorded = states[m, : len(ref.states)]
            scale = np.abs(ref.states).max(axis=1, keepdims=True)
            assert np.all(np.abs(recorded - ref.states) <= 1e-12 * scale)
        return diverged_at

    def test_members_pass_the_limit_at_their_own_steps(self):
        # members scaling the fit [I e3] by 0.5, 1000 and 300: a stable
        # member and members growing 1000x and 300x per step
        rng = np.random.default_rng(3)
        data = _fitted(np.eye(3), np.eye(3)[:, 2:], rng)
        filters = np.array([[0.5], [1e3], [300.0]]) * _filters(data, np.zeros(1))
        inputs = rng.normal(size=(121, 1))
        diverged_at = self._assert_members_match(data, filters, np.ones(3), inputs, 1e250)
        assert diverged_at.tolist() == [0, 84, 101]

    def test_a_member_turning_nan_diverges(self):
        # a NaN input row makes every member's next state NaN, which fails
        # even an infinite limit
        rng = np.random.default_rng(4)
        data = _fitted(np.eye(2), np.ones((2, 1)), rng)
        filters = np.array([[0.5], [1e3]]) * _filters(data, np.zeros(1))
        inputs = rng.normal(size=(21, 1))
        inputs[7] = np.nan
        diverged_at = self._assert_members_match(data, filters, np.ones(2), inputs, np.inf)
        assert diverged_at.tolist() == [8, 8]

    def test_random_members_diverge_at_their_own_steps(self):
        # members scaling an orthogonal A by radii 0.6..1.8
        rng = np.random.default_rng(11)
        A = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        data = _fitted(A, rng.normal(size=(6, 2)), rng)
        radii = np.linspace(0.6, 1.8, 12)
        filters = radii[:, None] * _filters(data, np.zeros(1))
        z0 = rng.normal(size=6)
        inputs = rng.normal(size=(81, 2))
        diverged_at = self._assert_members_match(data, filters, z0, inputs, 1e6)
        assert (diverged_at == 0).sum() >= 3
        assert len(set(diverged_at[diverged_at > 0])) >= 3

    def test_recorded_coordinates_are_those_of_the_full_record(self):
        rng = np.random.default_rng(11)
        A = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        data = _fitted(A, rng.normal(size=(6, 2)), rng)
        filters = np.linspace(0.6, 1.8, 12)[:, None] * _filters(data, np.zeros(1))
        z0 = rng.normal(size=6)
        inputs = rng.normal(size=(81, 2))
        full, full_at = cli._search_runs(data, filters, z0, inputs, 1e6, np.arange(6))
        part, part_at = cli._search_runs(data, filters, z0, inputs, 1e6, np.array([4, 1]))
        assert part.shape == (12, 81, 2)
        assert part.tobytes() == full[:, :, [4, 1]].tobytes()
        assert part_at.tolist() == full_at.tolist()

    def test_one_member_matches_simulate_lti(self):
        # the alpha = 0 fit of a stable system, against simulate_lti of that
        # fit at a tolerance set by its conditioning: n_steps * eps *
        # s_max * max(f) relative to the state's size
        rng = np.random.default_rng(5)
        A = 0.9 * np.linalg.qr(rng.normal(size=(4, 4)))[0]
        data = _fitted(A, rng.normal(size=(4, 1)), rng)
        f = _filters(data, np.zeros(1))
        z0 = rng.normal(size=4)
        inputs = rng.normal(size=(31, 1))
        lifted, _ = simulate_lti(make_lti(*_fit_of(data, f[0]), np.eye(4)), z0, inputs)
        states, diverged_at = cli._search_runs(data, f, z0, inputs, 1e12, np.arange(4))
        s = data.tikhonov_svd()[1]
        tol = 30 * np.finfo(float).eps * max(1.0, s[0] * f.max())
        assert np.abs(states[0] - lifted.states).max() <= tol * np.abs(lifted.states).max()
        assert diverged_at.tolist() == [0]


class TestMultisine:
    def test_six_equidistant_frequencies(self):
        spec = SignalSpec(kind="multisine", n_freq=6, f_low=0.1, f_high=1.0)
        np.testing.assert_allclose(
            multisine_frequencies(spec), [0.1, 0.28, 0.46, 0.64, 0.82, 1.0]
        )

    def test_single_frequency_uses_f_low(self):
        spec = SignalSpec(kind="multisine", n_freq=1, f_low=0.3, f_high=0.3)
        np.testing.assert_array_equal(multisine_frequencies(spec), [0.3])
        samples = multisine(spec, ts=0.1, n_steps=10)
        expected = np.sin(2 * np.pi * 0.3 * 0.1 * np.arange(11))
        np.testing.assert_allclose(samples, expected, atol=1e-15)

    def test_zero_at_time_zero(self):
        spec = SignalSpec(kind="multisine", n_freq=6, f_low=0.1, f_high=1.0, amplitude=2.0)
        assert multisine(spec, ts=1e-3, n_steps=5)[0] == 0.0

    def test_amplitude_scaling(self):
        base = SignalSpec(kind="multisine", n_freq=3, f_low=0.1, f_high=0.5)
        scaled = SignalSpec(kind="multisine", n_freq=3, f_low=0.1, f_high=0.5, amplitude=0.25)
        np.testing.assert_allclose(
            multisine(scaled, 0.01, 50), 0.25 * multisine(base, 0.01, 50)
        )

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="multisine", n_freq=6, f_low=1.0, f_high=0.1)


class TestWhiteNoise:
    def test_same_seed_reproduces_bitwise(self):
        spec = SignalSpec(kind="white_noise", variance=0.1, seed=123)
        a = white_noise(spec, 1000)
        b = white_noise(spec, 1000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = white_noise(SignalSpec(kind="white_noise", variance=0.1, seed=1), 100)
        b = white_noise(SignalSpec(kind="white_noise", variance=0.1, seed=2), 100)
        assert not np.array_equal(a, b)

    def test_moments(self):
        n = 10**6
        variance = 0.5
        samples = white_noise(
            SignalSpec(kind="white_noise", variance=variance, seed=99), n
        )
        # mean within 4 sigma / sqrt(N), variance within 1%
        assert abs(samples.mean()) <= 4 * math.sqrt(variance / n)
        assert samples.var() == pytest.approx(variance, rel=0.01)

    def test_seed_required(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="white_noise", variance=0.1)


class TestSignals:
    def test_zero_signal(self):
        np.testing.assert_array_equal(
            signal_samples(SignalSpec(kind="zero"), 0.1, 4), np.zeros(5)
        )

    def test_custom_signal_truncated(self):
        spec = SignalSpec(kind="custom", samples=np.arange(10.0))
        np.testing.assert_array_equal(signal_samples(spec, 1.0, 3), [0, 1, 2, 3])

    def test_custom_signal_too_short(self):
        spec = SignalSpec(kind="custom", samples=np.arange(3.0))
        with pytest.raises(DimensionError):
            signal_samples(spec, 1.0, 5)

    def test_build_inputs_stacks_channels(self):
        specs = [
            SignalSpec(kind="zero"),
            SignalSpec(kind="white_noise", variance=1.0, seed=5),
        ]
        U = build_inputs(specs, 1.0, 9)
        assert U.shape == (10, 2)
        np.testing.assert_array_equal(U[:, 0], np.zeros(10))


class TestErrorMetrics:
    def test_identical_trajectories(self):
        t = np.arange(5.0)
        traj = Trajectory(t, np.ones((5, 2)))
        report = error_metrics(traj, Trajectory(t, np.ones((5, 2))))
        np.testing.assert_array_equal(report.l2, [0.0, 0.0])
        np.testing.assert_array_equal(report.linf, [0.0, 0.0])

    def test_constant_offset(self):
        t = np.arange(9.0)
        a = Trajectory(t, np.zeros((9, 1)))
        b = Trajectory(t, np.full((9, 1), 0.5))
        report = error_metrics(a, b)
        assert report.l2[0] == pytest.approx(0.5 * 3.0)  # |c| sqrt(N), N = 9
        assert report.linf[0] == 0.5

    def test_grid_mismatch_rejected(self):
        a = Trajectory(np.arange(4.0), np.zeros((4, 1)))
        b = Trajectory(np.arange(1.0, 5.0), np.zeros((4, 1)))
        with pytest.raises(DimensionError):
            error_metrics(a, b)

    def test_output_map_applied(self):
        t = np.arange(3.0)
        ref = Trajectory(t, np.arange(6.0).reshape(3, 2))
        lifted = Trajectory(t, np.hstack([ref.states, np.ones((3, 1))]))
        report = error_metrics(ref, lifted, output_map=lambda Z: Z[:, :2])
        np.testing.assert_array_equal(report.l2, [0.0, 0.0])


class TestTrajectory:
    def test_monotone_times_enforced(self):
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)))

    def test_row_count_enforced(self):
        with pytest.raises(DimensionError):
            Trajectory(np.arange(3.0), np.zeros((4, 1)))


class TestDeterminism:
    def test_ct_simulation_bit_identical(self):
        bundle = ct_example()
        specs = [
            SignalSpec(kind="white_noise", variance=0.1, seed=(5, i)) for i in range(2)
        ]
        inputs = build_inputs(specs, 1e-3, 500)
        a = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs, ts=1e-3)
        b = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs, ts=1e-3)
        np.testing.assert_array_equal(a.states, b.states)


# ---------------------------------------------------------------------------
# generated RK4 kernels
# ---------------------------------------------------------------------------


def _plain_dot(M, v):
    """M @ v summed left to right, one rounding per product and per sum."""
    out = np.empty(M.shape[0])
    for r, row in enumerate(M.tolist()):
        acc = row[0] * float(v[0])
        for a, b in zip(row[1:], v[1:].tolist()):
            acc = acc + a * b
        out[r] = acc
    return out


def _plain_matmul(M, N):
    return np.stack([_plain_dot(M, N[:, j]) for j in range(N.shape[1])], axis=1)


def _plain_nonlinear(decomposition, x0, inputs, ts, **options):
    """simulate_nonlinear on the numpy _rk4 path."""
    f = decomposition.autonomous.evaluate
    g = decomposition.input_driven
    return simulate_ct(lambda x, u: f(x) + g(x, u), x0, inputs, ts, **options)


def _plain_lpv(model, z0, inputs, ts, decomposition, **options):
    """simulate_lpv on the numpy _rk4 path, with every product in plain order.

    B = dPhi/dx S is rebuilt as the factorisation builds it, from the
    decomposition's held ray sum (the held Jacobian at u = 0).
    """
    selector = list(model.dictionary.state_selector)
    nodes, weights = QuadratureSpec().rule()
    held = decomposition.input_held

    def factored(x, u):
        if u.any():
            h = held.ray_jacobians(u[None], nodes, weights)[0].tolist()
            S = np.reshape(held.jacobian_at(tuple(x.tolist()), h), (2, 2))
        else:
            h = held.jacobian(tuple(u.tolist()))
            S = np.reshape(held.jacobian_at(tuple(x.tolist()), h), (2, 2))
        return _plain_matmul(model.dictionary.jacobian(x), S)

    def step(z, u):
        return _plain_dot(model.A, z) + _plain_dot(factored(z[selector], u), u)

    return simulate_ct(step, z0, inputs, ts, state_selector=selector, **options)


def _numpy_lpv(model, z0, inputs, ts, **options):
    """simulate_lpv on the numpy _rk4 path exactly as it runs without a kernel."""
    selector = list(model.dictionary.state_selector)
    step = lifted_step(model.A, model.factored_input, selector)
    return simulate_ct(step, z0, inputs, ts, state_selector=selector, **options)


def _synthetic_control_affine():
    """dx1/dt = -0.3 x1 + u1, dx2/dt = -0.7 x2 + 0.4 x1^2 + x1 u2; exact on [x1, x2, x1^2]."""
    f = PolynomialMap(2, [{(1, 0): -0.3}, {(0, 1): -0.7, (2, 0): 0.4}])
    columns = [
        PolynomialMap(2, [{(0, 0): 1.0}, {}]),
        PolynomialMap(2, [{}, {(1, 0): 1.0}]),
    ]
    return control_affine_decomposition(f, columns, CONTINUOUS, name="synthetic")


def _random_inputs(seed, n_steps, scale=0.5):
    """Seeded white-noise rows with all-zero rows at t = 0 and in a block."""
    inputs = scale * np.random.default_rng(seed).standard_normal((n_steps + 1, 2))
    inputs[0] = 0.0
    inputs[40:45] = 0.0
    return inputs


def _assert_same_bits(a, b):
    """Equal arrays down to the sign of zero and the NaN payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def ct_model():
    bundle = ct_example()
    lifted = build_lifted_model(bundle.decomposition, bundle.dictionary)
    return bundle, lifted


class TestKernels:
    @pytest.mark.parametrize("seed, ts", [(1, 1e-2), (2, 1e-3), (3, 0.05)])
    def test_ct_example_nonlinear_bit_for_bit(self, seed, ts):
        # the oracle's numpy path makes no matrix product, so any step agrees
        bundle = ct_example()
        inputs = _random_inputs(seed, 400)
        assert nonlinear_kernel(bundle.decomposition) is not None
        fast = simulate_nonlinear(bundle.decomposition, [1.0, -0.5], inputs, ts=ts)
        slow = _plain_nonlinear(bundle.decomposition, [1.0, -0.5], inputs, ts)
        _assert_same_bits(fast.states, slow.states)

    @pytest.mark.parametrize("seed, ts", [(1, 1e-2), (2, 1e-3), (3, 0.05)])
    def test_ct_example_lpv_bit_for_bit(self, ct_model, seed, ts):
        bundle, model = ct_model
        inputs = _random_inputs(seed, 400)
        z0 = bundle.dictionary.evaluate(np.array([1.0, -0.5]))
        fast, _ = simulate_lpv(model, z0=z0, inputs=inputs, ts=ts)
        slow = _plain_lpv(model, z0, inputs, ts, decomposition=bundle.decomposition)
        _assert_same_bits(fast.states, slow.states)

    def test_control_affine_keeps_the_numpy_path(self):
        # polynomial input columns have no held-input form: no kernel, and the
        # states are the numpy loop's
        decomposition = _synthetic_control_affine()
        dictionary = ObservableDictionary(
            2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))]
        )
        model = build_lifted_model(decomposition, dictionary)
        assert nonlinear_kernel(decomposition) is None
        assert model.input_held is None and lpv_kernel(model) is None
        inputs = _random_inputs(4, 100)
        _assert_same_bits(
            simulate_nonlinear(decomposition, [0.8, -1.2], inputs, ts=1e-2).states,
            _plain_nonlinear(decomposition, [0.8, -1.2], inputs, 1e-2).states,
        )
        z0 = dictionary.evaluate(np.array([0.8, -1.2]))
        _assert_same_bits(
            simulate_lpv(model, z0=z0, inputs=inputs, ts=1e-2)[0].states,
            _numpy_lpv(model, z0, inputs, 1e-2).states,
        )

    @pytest.mark.parametrize("preset", ["ct-example-whitenoise", "ct-example-multisine"])
    def test_presets_match_numpy_path(self, ct_model, preset):
        # the presets' step and signals, as written to their trajectory files
        bundle, model = ct_model
        cfg = dict(preset_runs(preset)[0][2], horizon_seconds=0.2)
        c = resolve_config(cfg)
        ts = c["ts"]
        inputs = build_inputs(c["signals"], ts, c["n_steps"])
        x0 = np.array([1.0, 1.0])
        fast, _ = simulate_lpv(model, x0=x0, inputs=inputs, ts=ts)
        slow = _numpy_lpv(model, bundle.dictionary.evaluate(x0), inputs, ts)
        _assert_same_bits(fast.states, slow.states)

    @pytest.mark.parametrize("nodes", [8, 2])
    def test_kernel_takes_the_models_quadrature(self, ct_model, nodes):
        # the kernel's ray sum runs on model.quad's rule: a lift with fewer
        # nodes gives the numpy path's states of that lift, not the default's
        bundle, default = ct_model
        model = build_lifted_model(
            bundle.decomposition, bundle.dictionary, quad=QuadratureSpec(nodes)
        )
        assert lpv_kernel(model) is not None
        cfg = dict(preset_runs("ct-example-whitenoise")[0][2], horizon_seconds=0.2)
        c = resolve_config(cfg)
        ts = c["ts"]
        inputs = build_inputs(c["signals"], ts, c["n_steps"])
        z0 = bundle.dictionary.evaluate(np.array([1.0, 1.0]))
        fast, _ = simulate_lpv(model, z0=z0, inputs=inputs, ts=ts)
        _assert_same_bits(fast.states, _numpy_lpv(model, z0, inputs, ts).states)
        sixteen, _ = simulate_lpv(default, z0=z0, inputs=inputs, ts=ts)
        assert fast.states.tobytes() != sixteen.states.tobytes()

    def test_kernel_does_not_call_the_numpy_pieces(self, ct_model):
        bundle, model = ct_model
        calls = []

        def counted(x, u):
            calls.append(1)
            return model.factored_input(x, u)

        counting = dataclasses.replace(model, factored_input=counted)
        simulate_lpv(counting, x0=[1.0, 1.0], inputs=_random_inputs(6, 50), ts=1e-3)
        assert calls == []

    def test_large_models_keep_the_numpy_path(self, ct_model):
        _, model = ct_model
        big = monomial_dictionary(2, 3)  # 9 observables: A has 81 entries
        assert lpv_kernel(dataclasses.replace(model, A=np.eye(9), dictionary=big)) is None
        assert lpv_kernel(dataclasses.replace(model, input_held=None)) is None

    def test_code_cached_by_source(self, ct_model):
        _, model = ct_model
        assert lpv_kernel(model).run.__code__ is lpv_kernel(model).run.__code__

    def test_divergence_past_the_limit_same_step_and_message(self, ct_model):
        bundle, model = ct_model
        inputs = np.full((200, 2), 1.0)
        x0 = np.array([1.0, 1.0])
        z0 = model.dictionary.evaluate(x0)
        options = dict(divergence_limit=1.5, label="run")
        pairs = [
            (
                lambda: simulate_nonlinear(bundle.decomposition, x0, inputs, 0.05, **options),
                lambda: _plain_nonlinear(bundle.decomposition, x0, inputs, 0.05, **options),
            ),
            (
                lambda: simulate_lpv(model, z0=z0, inputs=inputs, ts=0.05, **options),
                lambda: _numpy_lpv(model, z0, inputs, 0.05, **options),
            ),
        ]
        for kernel_run, numpy_run in pairs:
            raised = []
            for run in (kernel_run, numpy_run):
                with pytest.raises(DivergenceError) as exc:
                    run()
                raised.append((exc.value.step, str(exc.value)))
            assert raised[0] == raised[1]
            assert raised[0][0] > 1

    def test_non_finite_lifted_coordinate_same_step_and_message(self, ct_model):
        bundle, model = ct_model
        inputs = _random_inputs(8, 30, scale=0.1)
        # x1^2 above the limit but finite: allowed under the state selector
        z0 = np.array([1.0, 1.0, 2e12])
        fast, _ = simulate_lpv(model, z0=z0, inputs=inputs, ts=1e-3)
        slow = _numpy_lpv(model, z0, inputs, 1e-3)
        assert np.all(fast.states[:, 2] > 1e12)
        _assert_same_bits(fast.states, slow.states)
        z0 = np.array([1.0, 1.0, np.inf])
        messages = []
        for run in (
            lambda: simulate_lpv(model, z0=z0, inputs=inputs, ts=1e-2, label="ct"),
            lambda: _numpy_lpv(model, z0, inputs, 1e-2),
        ):
            with pytest.raises(DivergenceError) as exc, np.errstate(invalid="ignore"):
                run()
            messages.append((exc.value.step, str(exc.value)))
        assert messages[0] == messages[1] == (1, messages[0][1])


def _preset_inputs(preset="ct-example-whitenoise", seconds=0.2):
    cfg = dict(preset_runs(preset)[0][2], horizon_seconds=seconds)
    c = resolve_config(cfg)
    return build_inputs(c["signals"], c["ts"], c["n_steps"])


def _counting_held(model):
    """``model`` with its held form's ``jacobian`` and ``ray_jacobians``
    recording their arguments, and the two records."""
    held = model.input_held
    exact, rays = [], []

    def jacobian(u):
        exact.append(u)
        return held.jacobian(u)

    def ray_jacobians(U, nodes, weights):
        rays.append(U.shape[0])
        return held.ray_jacobians(U, nodes, weights)

    counting = dataclasses.replace(held, jacobian=jacobian, ray_jacobians=ray_jacobians)
    return dataclasses.replace(model, input_held=counting), exact, rays


class TestRayTable:
    """The LPV kernel's per-run table of held ray-sum values."""

    @pytest.mark.parametrize("preset", ["ct-example-whitenoise", "ct-example-multisine"])
    def test_blocks_of_three_rows_equal_one_block(self, ct_model, monkeypatch, preset):
        bundle, model = ct_model
        inputs = _preset_inputs(preset)
        table = lpv_kernel(model).table
        monkeypatch.setattr(systems, "RAY_BLOCK_ROWS", 3)
        blocked = table(inputs)
        monkeypatch.setattr(systems, "RAY_BLOCK_ROWS", inputs.shape[0])
        whole = table(inputs)
        assert blocked.shape == (inputs.shape[0], 4)
        _assert_same_bits(blocked, whole)

    def test_all_zero_rows_take_the_exact_jacobian(self, ct_model):
        # the if-u0-or-u1 rule: only rows with every input zero (either sign)
        # take dg/du(x, u) itself; a NaN counts as non-zero, as in u.any()
        _, model = ct_model
        counting, exact, rays = _counting_held(model)
        table = lpv_kernel(counting).table
        inputs = np.array(
            [[0.0, 0.0], [-0.0, 0.0], [0.3, 0.0], [0.0, -0.2], [-0.0, -0.0], [np.nan, 0.0], [0.5, -0.5]]
        )
        exact.clear()
        values = table(inputs)
        held = model.input_held
        nodes, weights = model.quad.rule()
        zero = [0, 1, 4]
        assert exact == [tuple(inputs[k].tolist()) for k in zero]
        assert rays == [inputs.shape[0]]
        for k, u in enumerate(inputs):
            if k in zero:
                expect = np.array(held.jacobian(tuple(u.tolist())))
            else:
                expect = held.ray_jacobians(u[None], nodes, weights)[0]
            _assert_same_bits(values[k], expect)
        # dg/du(x, 0) keeps the sign of each zero input
        assert math.copysign(1.0, values[1, 3]) == -1.0
        assert math.copysign(1.0, values[4, 2]) == -1.0

    def test_signed_zero_rows_match_the_numpy_path(self, ct_model):
        bundle, model = ct_model
        inputs = _random_inputs(9, 300)
        inputs[50:60] = [-0.0, 0.0]
        inputs[60:70, 0] = 0.0
        inputs[70:80, 1] = -0.0
        # the numpy _rk4 path in plain order: BLAS's B u may differ from it in
        # the last bit on random inputs (see the kernels module docstring)
        z0 = bundle.dictionary.evaluate(np.array([1.0, -0.5]))
        fast, _ = simulate_lpv(model, z0=z0, inputs=inputs, ts=1e-2)
        slow = _plain_lpv(model, z0, inputs, 1e-2, decomposition=bundle.decomposition)
        _assert_same_bits(fast.states, slow.states)

    @pytest.mark.parametrize("block_rows", [100, 512])
    def test_ray_form_called_once_per_block(self, ct_model, monkeypatch, block_rows):
        bundle, model = ct_model
        monkeypatch.setattr(systems, "RAY_BLOCK_ROWS", block_rows)
        counting, exact, rays = _counting_held(model)
        inputs = _random_inputs(10, 1050)
        x0 = [1.0, 1.0]
        counted, _ = simulate_lpv(counting, x0=x0, inputs=inputs, ts=1e-3)
        # 1050 steps; the last input row is never applied
        n_blocks = -(-1050 // block_rows)
        assert rays == [block_rows] * (n_blocks - 1) + [1050 - block_rows * (n_blocks - 1)]
        # one probe of the table's width, then the six all-zero rows
        assert len(exact) == 1 + int(np.sum(~inputs[:-1].any(axis=1)))
        _assert_same_bits(counted.states, simulate_lpv(model, x0=x0, inputs=inputs, ts=1e-3)[0].states)

    @pytest.mark.parametrize("preset", ["ct-example-whitenoise", "ct-example-multisine"])
    def test_oracle_factored_equals_the_kernels_B(self, ct_model, preset):
        # B = dPhi/dx(x) S with S finished from the kernel's table row: the
        # numpy oracle takes the same ray sums through a one-row ray_jacobians
        # (its product is numpy's, which sums from +0.0 where the kernel's
        # plain order keeps a -0.0)
        bundle, model = ct_model
        inputs = _preset_inputs(preset, seconds=0.05)
        inputs[:3] = [[0.0, 0.0], [-0.0, 0.2], [0.0, -0.0]]
        table = lpv_kernel(model).table(inputs)
        held = model.input_held
        X = np.random.default_rng(12).uniform(-2.0, 2.0, (inputs.shape[0], 2))
        for x, u, h in zip(X, inputs, table):
            S = np.reshape(held.jacobian_at(tuple(x.tolist()), tuple(h.tolist())), (2, 2))
            expect = model.dictionary.jacobian(x) @ S
            _assert_same_bits(model.factored_input(x, u), expect)
