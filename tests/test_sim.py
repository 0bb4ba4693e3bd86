"""Integrators, excitation signals and error metrics."""

import ast
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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
from kooplift import sim, systems
from kooplift.bounds import error_trajectory
from kooplift.edmd import BLOCK_STEPS, SnapshotData, _filters, tikhonov_runs
from kooplift.cli import preset_runs
from kooplift.config import resolve_config
from kooplift.dictionaries import monomial_dictionary
from kooplift.errors import DimensionError, DivergenceError
from kooplift.kernels import lpv_kernel, nonlinear_kernel
from kooplift.lpv import lifted_step, lti_step, make_lti
from kooplift.polynomials import PolynomialMap
from kooplift.sim import multisine_frequencies
from kooplift.systems import CONTINUOUS, DISCRETE, Decomposition, control_affine_decomposition
from test_lifting import _ct_exponential


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


def _state_rows_run(data, f, z0, inputs, limit, read):
    """(recorded z[read], divergence step) of the fit of the filter row f,
    stepped as the alpha search's recurrence steps one member: the ``read``
    rows of W beside K in one (1, r) product, those rows held to ``limit``
    and q needed finite."""
    U_Y, _, W = data.tikhonov_svd()
    U_z = U_Y[: data.n_f]
    shared = np.hstack([W[read].T, W.T @ U_z])
    driven = inputs @ U_Y[data.n_f :]
    fq = f * (z0 @ U_z + driven[0])
    recorded = [z0[read]]
    for k in range(1, len(inputs)):
        zq = (fq[None, None, :] @ shared)[0, 0]
        if np.any(np.abs(zq[: len(read)]) > limit) or not np.all(np.isfinite(zq)):
            return np.array(recorded), k
        recorded.append(zq[: len(read)])
        fq = f * (zq[len(read) :] + driven[k])
    return np.array(recorded), 0


class TestLtiStack:
    """The alpha search's recurrence in SVD coordinates (edmd.tikhonov_runs)
    against dt_simulate(lti_step(A_m, B_m)) of each member's explicit fit."""

    @staticmethod
    def _assert_members_match(data, filters, z0, inputs, limit):
        states, diverged_at = tikhonov_runs(
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
        # the recurrence forms only the recorded rows of z, and holds them
        # to the limit: each member against its own step-by-step run of the
        # same products, whichever coordinates are recorded
        rng = np.random.default_rng(11)
        A = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        data = _fitted(A, rng.normal(size=(6, 2)), rng)
        filters = np.linspace(0.6, 1.8, 12)[:, None] * _filters(data, np.zeros(1))
        z0 = rng.normal(size=6)
        inputs = rng.normal(size=(81, 2))
        steps = {}
        for read in (np.arange(6), np.array([4, 1])):
            states, diverged_at = tikhonov_runs(data, filters, z0, inputs, 1e6, read)
            assert states.shape == (12, 81, len(read))
            for m, f in enumerate(filters):
                ref, step = _state_rows_run(data, f, z0, inputs, 1e6, read)
                assert diverged_at[m] == step
                assert states[m, : len(ref)].tobytes() == ref.tobytes()
                assert np.isnan(states[m, len(ref) :]).all()
            steps[len(read)] = diverged_at
        # holding two coordinates stops no member sooner than holding all six
        assert np.all((steps[2] == 0) | (steps[2] >= steps[6]) & (steps[6] > 0))
        assert len(set(steps[2][steps[2] > 0])) >= 3

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
        states, diverged_at = tikhonov_runs(data, f, z0, inputs, 1e12, np.arange(4))
        s = data.tikhonov_svd()[1]
        tol = 30 * np.finfo(float).eps * max(1.0, s[0] * f.max())
        assert np.abs(states[0] - lifted.states).max() <= tol * np.abs(lifted.states).max()
        assert diverged_at.tolist() == [0]


def _per_step_runs(data, filters, z0, inputs, limit, read):
    """tikhonov_runs as it ran before its block screen: the divergence rule
    applied to the whole stack after every step, and a broken member
    dropped at once."""
    U_Y, _, W = data.tikhonov_svd()
    n_f, n_read = data.n_f, len(read)
    U_z = U_Y[:n_f]
    shared = np.hstack([W[read].T, W.T @ U_z])
    driven = inputs @ U_Y[n_f:]
    n_steps = inputs.shape[0] - 1
    states = np.full((len(filters), n_steps + 1, n_read), np.nan)
    states[:, 0] = z0[read]
    diverged_at = np.zeros(len(filters), dtype=int)
    members = np.arange(len(filters))
    rows = slice(None)
    fq = filters * (z0 @ U_z + driven[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            zq = (fq[:, None, :] @ shared)[:, 0]
            broken = sim.diverged(zq, limit, slice(n_read))
            if broken.any():
                diverged_at[members[broken]] = k + 1
                members, zq, filters = members[~broken], zq[~broken], filters[~broken]
                if members.size == 0:
                    break
                rows = members
            states[rows, k + 1] = zq[:, :n_read]
            fq = filters * (zq[:, n_read:] + driven[k + 1])
    return states, diverged_at


def _assert_screen_matches(data, filters, z0, inputs, limit, read):
    """tikhonov_runs against the per-step loop, bit for bit; returns its
    ``(states, diverged_at)``."""
    states, diverged_at = tikhonov_runs(data, filters, z0, inputs, limit, read)
    want_states, want_at = _per_step_runs(data, filters, z0, inputs, limit, read)
    _assert_same_bits(states, want_states)
    assert diverged_at.dtype == want_at.dtype
    assert diverged_at.tolist() == want_at.tolist()
    return states, diverged_at


def _breaking_at(steps, n_steps):
    """Snapshots of z+ = z + u and members growing from z0 = 1 under zero
    inputs so that each passes the limit 1e12 first at its step of
    ``steps`` (0: a member that decays and never does)."""
    data = _fitted(np.eye(1), np.ones((1, 1)), np.random.default_rng(17))
    growth = [10.0 ** (12.0 / (s - 0.5)) if s else 0.5 for s in steps]
    filters = np.array(growth)[:, None] * _filters(data, np.zeros(1))
    return data, filters, np.ones(1), np.zeros((n_steps + 1, 1))


def _decades(low, high):
    """10 ** e for e drawn from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


@st.composite
def _screen_cases(draw):
    """Random snapshot data, filter rows, initial state, inputs, recorded
    coordinates and limit for tikhonov_runs. Entries are multiples of 0.01,
    so no singular value squares to 0; the members' scales and the limits
    spread over decades, so members break at any step or not at all."""
    n_f, n_u = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    n_cols = draw(st.integers(1, 8))

    def matrix(rows, bound):
        hundredths = st.integers(-bound, bound).map(lambda i: i / 100)
        return draw(hnp.arrays(float, (rows, n_cols), elements=hundredths))

    data = SnapshotData(Z=matrix(n_f, 400), Zp=matrix(n_f, 4000), U=matrix(n_u, 400))
    n_members = draw(st.integers(1, 6))
    alphas = st.one_of(st.just(0.0), _decades(-6, 2))
    alphas = draw(st.lists(alphas, min_size=n_members, max_size=n_members))
    scales = draw(st.lists(_decades(-2, 3), min_size=n_members, max_size=n_members))
    n_steps = draw(st.integers(0, 3 * BLOCK_STEPS + 2))
    z0 = draw(hnp.arrays(float, n_f, elements=st.floats(-10.0, 10.0)))
    inputs = draw(hnp.arrays(float, (n_steps + 1, n_u), elements=st.floats(-10.0, 10.0)))
    read = draw(st.lists(st.integers(0, n_f - 1), min_size=1, max_size=n_f, unique=True))
    limit = draw(st.one_of(_decades(-2, 12), st.just(np.inf)))
    filters = np.array(scales)[:, None] * _filters(data, np.array(alphas))
    return data, filters, z0, inputs, limit, np.array(read)


class TestBlockScreen:
    """edmd.tikhonov_runs steps its stack BLOCK_STEPS steps at a time and
    applies the divergence rule once per block: every member against the
    per-step loop (_per_step_runs), bit for bit."""

    def test_breaks_at_the_block_edges(self):
        n_steps = 3 * BLOCK_STEPS + 5
        steps = [1, BLOCK_STEPS, BLOCK_STEPS + 1, n_steps, 0]
        data, filters, z0, inputs = _breaking_at(steps, n_steps)
        _, diverged_at = _assert_screen_matches(data, filters, z0, inputs, 1e12, np.arange(1))
        assert diverged_at.tolist() == steps

    def test_every_member_broken_in_the_first_block(self):
        n_steps = 3 * BLOCK_STEPS + 5
        steps = [BLOCK_STEPS, 1, 2, BLOCK_STEPS - 1]
        data, filters, z0, inputs = _breaking_at(steps, n_steps)
        _, diverged_at = _assert_screen_matches(data, filters, z0, inputs, 1e12, np.arange(1))
        assert diverged_at.tolist() == steps

    @pytest.mark.parametrize(
        "n_steps", [0, 1, 2, BLOCK_STEPS - 1, BLOCK_STEPS, 2 * BLOCK_STEPS + 3]
    )
    def test_short_and_ragged_runs(self, n_steps):
        # members scaling an orthogonal A by radii 0.6..1.8, and members
        # breaking at the last step and one step past it
        rng = np.random.default_rng(11)
        A = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        data = _fitted(A, rng.normal(size=(6, 2)), rng)
        filters = np.linspace(0.6, 1.8, 12)[:, None] * _filters(data, np.zeros(1))
        inputs = rng.normal(size=(n_steps + 1, 2))
        z0 = rng.normal(size=6)
        for limit in (1e6, 3.0, np.inf):
            _assert_screen_matches(data, filters, z0, inputs, limit, np.array([4, 1]))
        steps = [max(n_steps, 1), n_steps + 1]
        _assert_screen_matches(*_breaking_at(steps, n_steps), 1e12, np.arange(1))

    def test_a_member_whose_q_turns_inf_within_the_limit(self):
        # z+ = diag(1, 1e100) z on exact snapshots, only z_1 recorded: q
        # carries z_2 = 1e100^k, inf at step 4, while the state stays at 1;
        # a member scaled by 1e-100 holds z_2 at 1 and never diverges
        lti = make_lti(np.diag([1.0, 1e100]), np.zeros((2, 1)), np.eye(2)[:1])
        data, f = _exact_member(lti)
        filters = np.array([[1.0], [1e-100]]) * f
        inputs = np.zeros((3 * BLOCK_STEPS, 1))
        states, diverged_at = _assert_screen_matches(
            data, filters, np.ones(2), inputs, 1e12, np.array([0])
        )
        assert diverged_at.tolist() == [4, 0]
        assert np.all(states[0, :4] == 1.0) and np.isnan(states[0, 4:]).all()

    @pytest.mark.parametrize(
        "selector", [None, slice(2), np.array([3, 0])], ids=["all", "leading", "indices"]
    )
    def test_diverged_on_a_block_equals_the_per_state_calls(self, selector):
        # (b, M, n) = (5, 7, 4) blocks against the limit 100: all within it
        # (the fast path), then some coordinates past it or not finite
        rng = np.random.default_rng(23)
        for spread in (90.0, 150.0):
            block = rng.uniform(-spread, spread, size=(5, 7, 4))
            if spread > 100:
                block[1, 2, 3] = np.nan
                block[4, 0, 1] = -np.inf
                block[2, 6] = np.inf
            flags = sim.diverged(block, 100.0, selector)
            assert flags.shape == (5, 7) and flags.dtype == bool
            per_state = [[bool(sim.diverged(v, 100.0, selector)) for v in step] for step in block]
            assert flags.tolist() == per_state
            assert flags.any() == (spread > 100) and not flags.all()
            stacked = sim.diverged(block.reshape(35, 4), 100.0, selector)
            assert stacked.tolist() == flags.reshape(35).tolist()

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(_screen_cases())
    def test_random_cases_match_the_per_step_loop(self, case):
        _assert_screen_matches(*case)


def _rk4_step(rhs, ts):
    """One classical RK4 step written out, ``(x, (start, mid, end)) -> x_next``."""
    half, sixth = 0.5 * ts, ts / 6.0

    def step(x, stages):
        start, mid, end = stages
        k1 = rhs(x, start)
        k2 = rhs(x + half * k1, mid)
        k3 = rhs(x + half * k2, mid)
        k4 = rhs(x + ts * k3, end)
        return x + sixth * (k1 + 2.0 * (k2 + k3) + k4)

    return step


def _checked_run(step, x0, rows, limit, label):
    """A run with the divergence rule applied after every step: its states
    up to the first broken one, and that step with the DivergenceError
    message (None for a run that never breaks)."""
    x = np.asarray(x0, dtype=float)
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, row in enumerate(rows, 1):
            x = np.asarray(step(x, row), dtype=float)
            if np.any(np.abs(x) > limit) or not np.all(np.isfinite(x)):
                reason = f"|state| exceeded {limit:g} or became non-finite"
                return np.array(states), (k, f"simulation {label!r} diverged at step {k} ({reason})")
            states.append(x)
    return np.array(states), None


class TestOneMemberScreen:
    """dt_simulate, numpy-path simulate_ct and rk4_integrate are one-member
    runs of sim.run_stack, screened once per block: each against a run
    checked after every step, and a step called at most BLOCK_STEPS - 1
    times past the first broken state. Each run grows x1 from 1 about 2.7x
    per step and holds x2 at 0.5."""

    n_steps = 3 * BLOCK_STEPS + 5
    breaks = [1, BLOCK_STEPS, BLOCK_STEPS + 1, n_steps, 0]
    ts = 0.1
    x0 = [1.0, 0.5]

    @staticmethod
    def dt_map(x, u):
        return x * np.array([2.7, 1.0]) + u * np.array([1.0, 0.0])

    @staticmethod
    def ct_field(x, u):
        return x * np.array([10.0, 0.0]) + u * np.array([1.0, 0.0])

    @staticmethod
    def t_field(t, x):
        return x * np.array([9.0 + t, 0.0])

    def _path(self, path, rows=None):
        """(run(rows, limit, wrap), rows, reference step, reference rows):
        ``wrap`` wraps the map or field the run is handed."""
        n, ts, x0 = self.n_steps, self.ts, self.x0
        if path == "rk4":
            rows = 0.5 + ts * np.arange(n + 1)[:, None]
            field = lambda x, t: self.t_field(t, x)
            return (
                lambda rows, limit, wrap: rk4_integrate(
                    wrap(self.t_field), x0, ts, len(rows) - 1, t0=0.5,
                    divergence_limit=limit, label="screened",
                ),
                rows,
                _rk4_step(field, ts),
                [(t, t + 0.5 * ts, t + ts) for t in rows[:n, 0]],
            )
        rows = np.full((n + 1, 1), 0.25) if rows is None else rows
        if path == "dt":
            return (
                lambda rows, limit, wrap: dt_simulate(
                    wrap(self.dt_map), x0, rows, divergence_limit=limit, label="screened"
                ),
                rows,
                self.dt_map,
                list(rows[:n]),
            )
        return (
            lambda rows, limit, wrap: simulate_ct(
                wrap(self.ct_field), x0, rows, ts, divergence_limit=limit, label="screened"
            ),
            rows,
            _rk4_step(self.ct_field, ts),
            [(u, u, u) for u in rows[:n]],
        )

    @pytest.mark.parametrize("path", ["dt", "ct", "rk4"])
    @pytest.mark.parametrize("broken_at", breaks)
    def test_first_broken_step_states_and_calls(self, path, broken_at):
        run, rows, ref_step, ref_rows = self._path(path)
        # a limit between the states at steps broken_at - 1 and broken_at of
        # the run without one, or above all of it for a run that never breaks
        grown = _checked_run(ref_step, self.x0, ref_rows, np.inf, "screened")[0][:, 0]
        assert np.all(np.diff(grown) > 0)
        if broken_at:
            limit = np.sqrt(grown[broken_at - 1] * grown[broken_at])
        else:
            limit = 2.0 * grown[-1]
        want_states, want_error = _checked_run(ref_step, self.x0, ref_rows, limit, "screened")
        calls = []

        def wrap(f):
            def counted(*args):
                calls.append(1)
                return f(*args)

            return counted

        # one RK4 step makes four calls of its field
        per_step = 1 if path == "dt" else 4
        if not broken_at:
            assert want_error is None
            _assert_same_bits(run(rows, limit, wrap).states, want_states)
            assert len(calls) == self.n_steps * per_step
            return
        with pytest.raises(DivergenceError) as exc:
            run(rows, limit, wrap)
        assert want_error[0] == broken_at
        assert (exc.value.step, str(exc.value)) == want_error
        assert broken_at * per_step <= len(calls) <= (broken_at + BLOCK_STEPS - 1) * per_step
        # the states before the break, from a run that stops there
        if broken_at > 1:
            before = run(rows[:broken_at], limit, lambda f: f)
            _assert_same_bits(before.states, want_states)

    @pytest.mark.parametrize("path", ["dt", "ct"])
    @pytest.mark.parametrize("broken_at", breaks[:-1])
    def test_a_nan_input_breaks_at_its_step(self, path, broken_at):
        # input row k - 1 is NaN, so the state at step k is, and fails even
        # an infinite limit
        rows = np.full((self.n_steps + 1, 1), 0.25)
        rows[broken_at - 1] = np.nan
        run, rows, ref_step, ref_rows = self._path(path, rows)
        _, want_error = _checked_run(ref_step, self.x0, ref_rows, np.inf, "screened")
        assert want_error[0] == broken_at
        with pytest.raises(DivergenceError) as exc:
            run(rows, np.inf, lambda f: f)
        assert (exc.value.step, str(exc.value)) == want_error


def _scalar_lift(a):
    """The exact lift of x+ = a x + u on the monomials x, x^2, ..., x^20."""
    decomposition = control_affine_decomposition(
        PolynomialMap(1, [{(1,): a}]), [PolynomialMap(1, [{(0,): 1.0}])], DISCRETE
    )
    return build_lifted_model(decomposition, monomial_dictionary(1, 20))


def _exact_member(lti):
    """Snapshots Y = I, whose alpha = 0 fit is [A B] of ``lti`` bit for bit,
    and that fit's filter row."""
    n = lti.n_f + lti.n_u
    data = SnapshotData(
        Z=np.eye(n)[: lti.n_f], Zp=np.hstack([lti.A, lti.B]), U=np.eye(n)[lti.n_f :]
    )
    f = _filters(data, np.zeros(1))
    A, B = _fit_of(data, f[0])
    assert A.tobytes() == lti.A.tobytes() and B.tobytes() == lti.B.tobytes()
    return data, f


class TestOneDivergenceRule:
    """Every lifted run holds its state coordinates to the divergence limit
    and needs the others finite: the exact LPV run, simulate_lti, the
    approximate run of error_trajectory and the alpha search's recurrence.
    On x+ = a x + u under zero inputs the lift of x^j grows as a^(j k)."""

    inputs = np.zeros((31, 1))

    def _lti(self, lifted):
        return make_lti(lifted.A, np.eye(lifted.n_f)[:, :1], lifted.C)

    def test_large_observables_of_a_bounded_state_survive(self):
        # x = 5 stays put while x^20 = 5^20 ~ 9.5e13 sits past 1e12
        lifted = _scalar_lift(1.0)
        lti = self._lti(lifted)
        z0 = lifted.dictionary.evaluate(np.array([5.0]))
        assert z0[0] == 5.0 and z0[-1] > 1e12
        exact, _ = simulate_lpv(lifted, z0=z0, inputs=self.inputs)
        assert np.all(exact.states == z0)
        lifted_lti, output = simulate_lti(lti, z0, self.inputs)
        assert np.all(lifted_lti.states == z0) and np.all(output.states == 5.0)
        evolution = error_trajectory(lifted, lti, exact)
        assert np.all(evolution.norms == 0.0)
        data, f = _exact_member(lti)
        states, diverged_at = tikhonov_runs(data, f, z0, self.inputs, 1e12, np.array([0]))
        assert diverged_at.tolist() == [0] and np.all(states == 5.0)
        # holding every lifted coordinate would have stopped each run at once
        _, held_all = tikhonov_runs(data, f, z0, self.inputs, 1e12, np.arange(20))
        assert held_all.tolist() == [1]
        with pytest.raises(DivergenceError) as exc:
            dt_simulate(lti_step(lti.A, lti.B), z0, self.inputs)
        assert exc.value.step == 1

    def test_a_state_past_the_limit_diverges_at_the_same_step(self):
        # x_k = 4^k passes 1e12 at k = 20, where x^20 = 4^400 is finite
        lifted = _scalar_lift(4.0)
        lti = self._lti(lifted)
        z0 = lifted.dictionary.evaluate(np.array([1.0]))
        steps = []
        for run in (
            lambda: simulate_lpv(lifted, z0=z0, inputs=self.inputs),
            lambda: simulate_lti(lti, z0, self.inputs),
        ):
            with pytest.raises(DivergenceError) as exc:
                run()
            steps.append(exc.value.step)
        # the approximate run from the exact run of x+ = x + u, which stays
        # at x = 1
        steady = _scalar_lift(1.0)
        exact, _ = simulate_lpv(steady, z0=z0, inputs=self.inputs)
        with pytest.raises(DivergenceError) as exc:
            error_trajectory(steady, lti, exact)
        steps.append(exc.value.step)
        data, f = _exact_member(lti)
        _, diverged_at = tikhonov_runs(data, f, z0, self.inputs, 1e12, np.array([0]))
        steps.append(int(diverged_at[0]))
        assert steps == [20] * 4
        assert 4.0**19 <= 1e12 < 4.0**20

    @pytest.mark.parametrize("path", ["kernel", "numpy"])
    def test_an_infinite_state_diverges_under_an_infinite_limit(self, monkeypatch, path):
        # dx/dt = 1e300 x from 1e10 overflows to inf, not NaN, in the first
        # step; the kernel's prefilter hands it on although inf <= inf
        if path == "numpy":
            monkeypatch.setattr(sim, "nonlinear_kernel", lambda decomposition: None)
        decomposition = control_affine_decomposition(
            PolynomialMap(1, [{(1,): 1e300}]), [PolynomialMap(1, [{(0,): 1.0}])], CONTINUOUS
        )
        with pytest.raises(DivergenceError) as exc:
            simulate_nonlinear(
                decomposition, [1e10], np.zeros((3, 1)), ts=1e-3, divergence_limit=np.inf
            )
        assert exc.value.step == 1


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
        report = error_metrics(ref, lifted.with_states(lifted.states[:, :2], label="output"))
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


def _plain_lpv(model, z0, inputs, ts, **options):
    """simulate_lpv on the numpy _rk4 path, with every product in plain order
    and B(x, u) from the model's factored_input."""
    selector = list(model.dictionary.state_selector)

    def step(z, u):
        return _plain_dot(model.A, z) + _plain_dot(model.factored_input(z[selector], u), u)

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


def _unit_control_affine():
    """dx1/dt = x1 + u1 + x2 u2, dx2/dt = -x2 + x1^2 - u1 + x1 u1 + u2:
    input-only terms with the coefficients 1.0 and -1.0 in both rows of g
    and in B, and on [x1, x2, x1^2] an A of 1.0, -1.0, 2.0 and zeros."""
    f = PolynomialMap(2, [{(1, 0): 1.0}, {(0, 1): -1.0, (2, 0): 1.0}])
    columns = [
        PolynomialMap(2, [{(0, 0): 1.0}, {(0, 0): -1.0, (1, 0): 1.0}]),
        PolynomialMap(2, [{(0, 1): 1.0}, {(0, 0): 1.0}]),
    ]
    return control_affine_decomposition(f, columns, CONTINUOUS, name="unit-coefficients")


def _unit_rates():
    """Features at the rates 1.0 and -1.0 over (x1, x2, u1, u2, E1, E2):
    dx1/dt = x1 + E1 - x1 E2, dx2/dt = -x2 + x1^2 - u1 u2 + x2 E1 + E2."""
    f = PolynomialMap(2, [{(1, 0): 1.0}, {(0, 1): -1.0, (2, 0): 1.0}])
    g = PolynomialMap(
        6,
        [
            {(0, 0, 0, 0, 1, 0): 1.0, (1, 0, 0, 0, 0, 1): -1.0},
            {(0, 0, 1, 1, 0, 0): -1.0, (0, 1, 0, 0, 1, 0): 1.0, (0, 0, 0, 0, 0, 1): 1.0},
        ],
    )
    return Decomposition(2, 2, CONTINUOUS, f, g, ((0, 1.0), (1, -1.0)), "unit-rates")


_SIGNED_ZERO_INPUTS = {
    "zeros": np.zeros((30, 2)),
    "negative-zeros": np.full((30, 2), -0.0),
    "mixed": np.tile([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]], (10, 1)),
}


def _stage_lines(source):
    """The statements of the generated source that form an RK4 stage."""
    tree = ast.parse(source)
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and re.fullmatch(r"k\d_\d+", node.targets[0].id)
    ]


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
        slow = _plain_lpv(model, z0, inputs, ts)
        _assert_same_bits(fast.states, slow.states)

    def test_control_affine_gets_the_kernel(self):
        # a polynomial input part is data as well: both runs take the kernel,
        # with the states of the plain-order numpy loops
        decomposition = _synthetic_control_affine()
        dictionary = ObservableDictionary(
            2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))]
        )
        model = build_lifted_model(decomposition, dictionary)
        assert nonlinear_kernel(decomposition) is not None and lpv_kernel(model) is not None
        inputs = _random_inputs(4, 100)
        _assert_same_bits(
            simulate_nonlinear(decomposition, [0.8, -1.2], inputs, ts=1e-2).states,
            _plain_nonlinear(decomposition, [0.8, -1.2], inputs, 1e-2).states,
        )
        z0 = dictionary.evaluate(np.array([0.8, -1.2]))
        _assert_same_bits(
            simulate_lpv(model, z0=z0, inputs=inputs, ts=1e-2)[0].states,
            _plain_lpv(model, z0, inputs, 1e-2).states,
        )

    @pytest.mark.parametrize("seed, ts", [(11, 1e-2), (12, 1e-3), (13, 0.05)])
    def test_feature_rates_bit_for_bit(self, seed, ts):
        # features at the rates 0.5 and -3, whose z = d u and F = d (E / z)
        # round, unlike ct-example's rate 1: both kernels against the
        # plain-order numpy loops
        decomposition = _ct_exponential()
        dictionary = ObservableDictionary(
            2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))]
        )
        model = build_lifted_model(decomposition, dictionary)
        inputs = _random_inputs(seed, 300)
        inputs[50:60] = [-0.0, 0.0]
        x0 = np.array([0.8, -1.2])
        _assert_same_bits(
            simulate_nonlinear(decomposition, x0, inputs, ts=ts).states,
            _plain_nonlinear(decomposition, x0, inputs, ts).states,
        )
        z0 = dictionary.evaluate(x0)
        _assert_same_bits(
            simulate_lpv(model, z0=z0, inputs=inputs, ts=ts)[0].states,
            _plain_lpv(model, z0, inputs, ts).states,
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

    def test_kernels_call_only_expm1(self, ct_model):
        # the input part is written into the code: apart from the loop's
        # range, the only global either kernel calls is the feature helper,
        # and the limit test is a chained comparison; check, the divergence
        # hook, is an argument. An overflowing power is caught, and hands
        # check an infinite state
        bundle, model = ct_model
        for kernel in (nonlinear_kernel(bundle.decomposition), lpv_kernel(model)):
            code = kernel.run.__code__
            assert set(code.co_names) == {"range", "expm1", "OverflowError", "inf"}
            assert kernel.run.__globals__["expm1"] is systems.expm1
            assert kernel.run.__globals__["inf"] == math.inf
            assert "check" in code.co_varnames[: code.co_argcount]

    def test_kernel_does_not_call_the_numpy_pieces(self, ct_model):
        bundle, model = ct_model
        calls = []

        def counted(x, u):
            calls.append(1)
            return model.factored_input(x, u)

        counting = dataclasses.replace(model)
        counting.factored_input = counted
        simulate_lpv(counting, x0=[1.0, 1.0], inputs=_random_inputs(6, 50), ts=1e-3)
        assert calls == []

    def test_large_models_keep_the_numpy_path(self, ct_model):
        _, model = ct_model
        big = monomial_dictionary(2, 3)  # 9 observables: A has 81 entries
        assert lpv_kernel(dataclasses.replace(model, A=np.eye(9), dictionary=big)) is None
        # nine states: f's Jacobian would have 81 entries
        f = PolynomialMap(9, [{tuple(int(i == r) for i in range(9)): -1.0} for r in range(9)])
        column = PolynomialMap(9, [{(0,) * 9: 1.0}] * 9)
        assert nonlinear_kernel(control_affine_decomposition(f, [column], CONTINUOUS)) is None

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
            with pytest.raises(DivergenceError) as exc:
                run()
            messages.append((exc.value.step, str(exc.value)))
        assert messages[0] == messages[1] == (1, messages[0][1])

    def test_signed_zero_rows_match_the_plain_path(self, ct_model):
        # F_k = d_k at z_k = +0 and -0 alike; E_k keeps the sign of zero
        bundle, model = ct_model
        inputs = _random_inputs(9, 300)
        inputs[50:60] = [-0.0, 0.0]
        inputs[60:70, 0] = 0.0
        inputs[70:80, 1] = -0.0
        z0 = bundle.dictionary.evaluate(np.array([1.0, -0.5]))
        fast, _ = simulate_lpv(model, z0=z0, inputs=inputs, ts=1e-2)
        _assert_same_bits(fast.states, _plain_lpv(model, z0, inputs, 1e-2).states)
        fast = simulate_nonlinear(bundle.decomposition, [1.0, -0.5], inputs, ts=1e-2)
        slow = _plain_nonlinear(bundle.decomposition, [1.0, -0.5], inputs, 1e-2)
        _assert_same_bits(fast.states, slow.states)

    @pytest.mark.parametrize(
        "system", [_unit_control_affine, _unit_rates], ids=["control-affine", "unit-rates"]
    )
    @pytest.mark.parametrize("inputs", list(_SIGNED_ZERO_INPUTS))
    @pytest.mark.parametrize(
        "x0", [[0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0]], ids=["x0=+0,+0", "x0=-0,-0", "x0=-0,+0"]
    )
    def test_signed_zeros_under_unit_coefficients(self, system, inputs, x0):
        # the kernels leave out unit factors and form input-only values once
        # per step; from zero states under zero inputs every sum is a sum of
        # signed zeros, whose sign a dropped zero entry of A or a dropped
        # 0.0 row start would change
        decomposition = system()
        dictionary = ObservableDictionary(
            2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))]
        )
        model = build_lifted_model(decomposition, dictionary)
        assert nonlinear_kernel(decomposition) and lpv_kernel(model)
        assert {1.0, -1.0, 0.0} <= set(model.A.ravel().tolist())
        inputs, x0 = _SIGNED_ZERO_INPUTS[inputs], np.array(x0)
        _assert_same_bits(
            simulate_nonlinear(decomposition, x0, inputs, ts=0.1).states,
            _plain_nonlinear(decomposition, x0, inputs, 0.1).states,
        )
        z0 = dictionary.evaluate(x0)
        _assert_same_bits(
            simulate_lpv(model, z0=z0, inputs=inputs, ts=0.1)[0].states,
            _plain_lpv(model, z0, inputs, 0.1).states,
        )

    def test_stages_compute_only_state_dependent_products(self, ct_model):
        # input-only terms and B entries, such as u0 * u1 in g and 0.5 * u1
        # in B, are formed once per step: every product or power in a stage
        # reads a state coordinate (x or y). No unit factor is written, the
        # limit test takes no abs, and every zero entry of A stays
        bundle, model = ct_model
        lpv = lpv_kernel(model)
        for kernel in (nonlinear_kernel(bundle.decomposition), lpv):
            stages = _stage_lines(kernel.source)
            assert len(stages) == 4 * kernel.n
            for stage in stages:
                for node in ast.walk(stage.value):
                    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Pow)):
                        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                        assert any(re.fullmatch(r"[xy]\d+", n) for n in names), ast.unparse(node)
            assert not re.search(r"(?<![\w.])1\.0 \*", kernel.source)
            assert "abs(" not in kernel.source
        # the first stage of the lifted run reads x: all five zeros of A
        first = {node.targets[0].id: ast.unparse(node.value) for node in _stage_lines(lpv.source)}
        zeros = list(zip(*np.nonzero(model.A == 0.0)))
        assert len(zeros) == 5
        assert all(f"0.0 * x{c}" in first[f"k1_{r}"] for r, c in zeros)

    def test_overflowing_power_same_step_and_message(self):
        # dx/dt = 0.5 x + x^30 u under u = 0, lifted on [x, x^2], whose B
        # holds x^30 and 2 x^31: x grows from 2e9, well within the limit,
        # until a power passes the float range. The kernel's x ** e raises
        # there, and the numpy path's power gives inf, times u = 0 NaN: both
        # stop at the same step
        decomposition = control_affine_decomposition(
            PolynomialMap(1, [{(1,): 0.5}]), [PolynomialMap(1, [{(30,): 1.0}])], CONTINUOUS
        )
        dictionary = monomial_dictionary(1, 2)
        model = build_lifted_model(decomposition, dictionary)
        assert nonlinear_kernel(decomposition) and lpv_kernel(model)
        x0 = np.array([2e9])
        z0 = dictionary.evaluate(x0)
        inputs = np.zeros((40, 1))
        pairs = [
            (
                lambda: simulate_nonlinear(decomposition, x0, inputs, 0.5, label="run"),
                lambda: _plain_nonlinear(decomposition, x0, inputs, 0.5, label="run"),
            ),
            (
                lambda: simulate_lpv(model, z0=z0, inputs=inputs, ts=0.5, label="run"),
                lambda: _numpy_lpv(model, z0, inputs, 0.5, label="run"),
            ),
        ]
        steps = []
        for kernel_run, numpy_run in pairs:
            raised = []
            for run in (kernel_run, numpy_run):
                with pytest.raises(DivergenceError) as exc:
                    run()
                raised.append((exc.value.step, str(exc.value)))
            assert raised[0] == raised[1]
            steps.append(raised[0][0])
        # 2 x^31 passes the float range before x^30 does, both below 1e12
        assert 1 < steps[1] < steps[0]
        assert 2e9 * np.exp(0.5 * 0.5 * steps[0]) < 1e12

    def test_overflowing_input_same_step_and_message(self, ct_model):
        # expm1(u) overflows past u = 709.78: E_k and F_k are inf, and both
        # paths stop at step 1 with the divergence message, not an
        # OverflowError
        bundle, model = ct_model
        inputs = np.zeros((5, 2))
        inputs[0] = [800.0, -0.5]
        x0 = np.array([1.0, 1.0])
        z0 = model.dictionary.evaluate(x0)
        options = dict(label="run")
        pairs = [
            (
                lambda: simulate_nonlinear(bundle.decomposition, x0, inputs, 1e-3, **options),
                lambda: _plain_nonlinear(bundle.decomposition, x0, inputs, 1e-3, **options),
            ),
            (
                lambda: simulate_lpv(model, z0=z0, inputs=inputs, ts=1e-3, **options),
                lambda: _numpy_lpv(model, z0, inputs, 1e-3, **options),
            ),
        ]
        for kernel_run, numpy_run in pairs:
            raised = []
            for run in (kernel_run, numpy_run):
                with pytest.raises(DivergenceError) as exc:
                    run()
                raised.append((exc.value.step, str(exc.value)))
            assert raised[0] == raised[1] and raised[0][0] == 1
