"""Integrators, excitation signals and error metrics."""

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
    make_lpv,
    multisine,
    rk4_integrate,
    signal_samples,
    simulate_ct,
    simulate_lpv,
    simulate_nonlinear,
    white_noise,
)
from kooplift.errors import DimensionError, DivergenceError
from kooplift.sim import multisine_frequencies


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
        lifted = build_lifted_model(bundle.decomposition, bundle.dictionary)
        model = make_lpv(lifted)
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
        model = make_lpv(build_lifted_model(bundle.decomposition, dictionary))
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
