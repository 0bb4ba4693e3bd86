"""Snapshot construction and least-squares matrix fits."""

import numpy as np
import pytest

from kooplift import (
    SignalSpec,
    SnapshotData,
    alpha_grid_search,
    build_inputs,
    build_lifted_model,
    build_snapshots,
    default_alpha_grid,
    dt_example,
    edmd_full,
    edmd_tikhonov,
    edmdc_input_fit,
    monomial_dictionary,
    simulate_nonlinear,
)
from kooplift.errors import DimensionError, DivergenceError


def _dt_run(n_steps=100, seed=21, variance=0.5):
    bundle = dt_example()
    spec = SignalSpec(kind="white_noise", variance=variance, seed=seed)
    inputs = build_inputs([spec], 1.0, n_steps)
    traj = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs)
    return bundle, traj


def _relative_gap(fit, reference):
    return np.linalg.norm(np.hstack(fit) - reference) / np.linalg.norm(reference)


def _random_lti_data(rng, n_f=3, n_u=1, n=60):
    A = rng.normal(size=(n_f, n_f))
    A *= 0.6 / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n_f, n_u))
    Z = np.empty((n_f, n + 1))
    Z[:, 0] = rng.normal(size=n_f)
    U = rng.normal(size=(n_u, n))
    for k in range(n):
        Z[:, k + 1] = A @ Z[:, k] + B @ U[:, k]
    return A, B, SnapshotData(Z=Z[:, :-1], Zp=Z[:, 1:], U=U)


class TestBuildSnapshots:
    def test_two_state_trajectory_single_column(self):
        bundle, _ = _dt_run()
        from kooplift import Trajectory

        traj = Trajectory(
            np.arange(2.0), np.array([[1.0, 1.0], [1.2, 0.7]]), np.array([[0.5], [0.0]])
        )
        data = build_snapshots(traj, bundle.dictionary)
        assert data.n_samples == 1
        np.testing.assert_array_equal(data.Z[:, 0], [1.0, 1.0, 1.0])

    def test_hundred_state_trajectory_has_99_pairs(self):
        bundle, traj = _dt_run(n_steps=99)  # 100 recorded states
        data = build_snapshots(traj, bundle.dictionary)
        assert data.n_samples == 99
        assert data.Z.shape == (3, 99)
        assert data.U.shape == (1, 99)

    def test_columns_are_aligned_shifted_lifts(self):
        bundle, traj = _dt_run(n_steps=20)
        data = build_snapshots(traj, bundle.dictionary)
        for k in (0, 7, 19):
            np.testing.assert_array_equal(
                data.Zp[:, k], bundle.dictionary.evaluate(traj.states[k + 1])
            )

    def test_matrices_are_read_only_copies(self):
        Z = np.ones((2, 3))
        data = SnapshotData(Z=Z, Zp=Z, U=np.ones(3))
        Z[0, 0] = 5.0
        assert data.Z[0, 0] == 1.0
        for matrix in (data.Z, data.Zp, data.U):
            with pytest.raises(ValueError):
                matrix[0, 0] = 2.0

    def test_too_short_rejected(self):
        bundle, _ = _dt_run()
        from kooplift import Trajectory

        with pytest.raises(DimensionError):
            build_snapshots(
                Trajectory(np.array([0.0]), np.ones((1, 2)), np.ones((1, 1))),
                bundle.dictionary,
            )


class TestEdmdcInputFit:
    def test_recovers_constant_input_matrix(self):
        rng = np.random.default_rng(0)
        A, B, data = _random_lti_data(rng)
        B_hat, residual = edmdc_input_fit(data, A)
        np.testing.assert_allclose(B_hat, B, rtol=0, atol=1e-10)
        assert residual <= 1e-10

    def test_benchmark_residual_positive(self):
        # the exact lifted input matrix is state/input dependent, so a
        # constant fit cannot be consistent
        bundle, traj = _dt_run()
        lifted = build_lifted_model(bundle.decomposition, bundle.dictionary)
        data = build_snapshots(traj, bundle.dictionary)
        _, residual = edmdc_input_fit(data, lifted.A)
        assert residual > 1e-3

    def test_single_sample_scalar_solve(self):
        A = np.diag([0.5, 0.5])
        z0 = np.array([1.0, 2.0])
        z1 = np.array([2.0, -1.0])
        u0 = 0.8
        data = SnapshotData(
            Z=z0[:, None], Zp=z1[:, None], U=np.array([[u0]])
        )
        B_hat, _ = edmdc_input_fit(data, A)
        np.testing.assert_allclose(B_hat[:, 0], (z1 - A @ z0) / u0, rtol=1e-12)

    def test_zero_inputs_rejected(self):
        rng = np.random.default_rng(1)
        _, _, data = _random_lti_data(rng)
        bad = SnapshotData(Z=data.Z, Zp=data.Zp, U=np.zeros_like(data.U))
        with pytest.raises(ValueError):
            edmdc_input_fit(bad, np.eye(3))

    def test_least_squares_optimality(self):
        # perturbing the fit never reduces the residual
        bundle, traj = _dt_run()
        lifted = build_lifted_model(bundle.decomposition, bundle.dictionary)
        data = build_snapshots(traj, bundle.dictionary)
        B_hat, residual = edmdc_input_fit(data, lifted.A)
        target = data.Zp - lifted.A @ data.Z
        rng = np.random.default_rng(2)
        for _ in range(100):
            delta = rng.normal(size=B_hat.shape) * 10.0 ** rng.integers(-6, 2)
            perturbed = np.linalg.norm(target - (B_hat + delta) @ data.U)
            assert perturbed >= residual - 1e-12

    def test_normal_equation_orthogonality(self):
        bundle, traj = _dt_run()
        lifted = build_lifted_model(bundle.decomposition, bundle.dictionary)
        data = build_snapshots(traj, bundle.dictionary)
        B_hat, _ = edmdc_input_fit(data, lifted.A)
        residual_matrix = data.Zp - lifted.A @ data.Z - B_hat @ data.U
        gram = residual_matrix @ data.U.T
        scale = np.linalg.norm(data.Zp) * np.linalg.norm(data.U)
        assert np.abs(gram).max() <= 1e-8 * scale


class TestEdmdFull:
    def test_exact_recovery_on_lti_data(self):
        rng = np.random.default_rng(3)
        A, B, data = _random_lti_data(rng, n=80)
        A_hat, B_hat = edmd_full(data)
        np.testing.assert_allclose(A_hat, A, rtol=0, atol=1e-8)
        np.testing.assert_allclose(B_hat, B, rtol=0, atol=1e-8)

    def test_matches_direct_least_squares_oracle(self):
        bundle, traj = _dt_run()
        data = build_snapshots(traj, bundle.dictionary)
        A_hat, B_hat = edmd_full(data)
        Y = np.vstack([data.Z, data.U])
        AB = (np.linalg.pinv(Y.T) @ data.Zp.T).T
        np.testing.assert_allclose(
            np.hstack([A_hat, B_hat]), AB, rtol=0, atol=1e-8 * (1 + np.abs(AB).max())
        )


class TestTikhonov:
    def test_huge_alpha_shrinks_to_zero(self):
        bundle, traj = _dt_run()
        data = build_snapshots(traj, bundle.dictionary)
        A_hat, B_hat = edmd_tikhonov(data, 1e20)
        assert np.abs(A_hat).max() <= 1e-8
        assert np.abs(B_hat).max() <= 1e-8

    def test_zero_alpha_matches_full(self):
        bundle, traj = _dt_run()
        data = build_snapshots(traj, bundle.dictionary)
        A0, B0 = edmd_tikhonov(data, 0.0)
        A1, B1 = edmd_full(data)
        np.testing.assert_array_equal(A0, A1)
        np.testing.assert_array_equal(B0, B1)

    def test_matches_solve_reference_over_grid(self):
        # well-conditioned data: the filter-factor fit and a direct solve
        # of the regularised normal equations agree to rounding
        rng = np.random.default_rng(11)
        data = SnapshotData(
            Z=rng.normal(size=(6, 80)),
            Zp=rng.normal(size=(6, 80)),
            U=rng.normal(size=(2, 80)),
        )
        Y = np.vstack([data.Z, data.U])
        grid = [a for a in default_alpha_grid() if 1e-6 <= a <= 1e6]
        assert len(grid) == 13
        for alpha in grid:
            reference = np.linalg.solve(
                Y @ Y.T + alpha * np.eye(Y.shape[0]), Y @ data.Zp.T
            ).T
            fit = edmd_tikhonov(data, alpha)
            assert _relative_gap(fit, reference) <= 1e-9, alpha

    def test_matches_augmented_least_squares_at_degree_six(self):
        # the whitenoise preset's snapshots (seed 715) on a degree-6
        # dictionary; the reference solves min ||[Y^T; sqrt(alpha) I] X - [Z+^T; 0]||
        bundle = dt_example()
        spec = SignalSpec(kind="white_noise", variance=0.5, seed=(715, 0))
        inputs = build_inputs([spec], 1.0, 100)
        traj = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs)
        data = build_snapshots(traj, monomial_dictionary(2, 6))
        Y = np.vstack([data.Z, data.U])
        p = Y.shape[0]
        for alpha in (1e-10, 1.0, 1e5):
            augmented = np.vstack([Y.T, np.sqrt(alpha) * np.eye(p)])
            target = np.vstack([data.Zp.T, np.zeros((p, data.n_f))])
            reference = np.linalg.lstsq(augmented, target, rcond=None)[0].T
            fit = edmd_tikhonov(data, alpha)
            assert _relative_gap(fit, reference) <= 1e-10, alpha

    def test_small_alpha_converges_to_full(self):
        rng = np.random.default_rng(4)
        _, _, data = _random_lti_data(rng, n=80)
        A_full, B_full = edmd_full(data)
        gaps = []
        for alpha in (1e-2, 1e-6, 1e-10):
            A_a, B_a = edmd_tikhonov(data, alpha)
            gaps.append(
                np.abs(np.hstack([A_a, B_a]) - np.hstack([A_full, B_full])).max()
            )
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-10

    def test_solution_norm_monotone_in_alpha(self):
        # ill-conditioned synthetic data: heavier regularisation never
        # increases the solution norm
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(4, 30))
        Z[3] = Z[2] * (1 + 1e-9)  # nearly dependent rows
        data = SnapshotData(Z=Z[:, :-1], Zp=Z[:, 1:], U=rng.normal(size=(1, 29)))
        norms = []
        for alpha in np.logspace(-12, 4, 9):
            A_a, B_a = edmd_tikhonov(data, alpha)
            norms.append(np.linalg.norm(np.hstack([A_a, B_a])))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_negative_alpha_rejected(self):
        rng = np.random.default_rng(6)
        _, _, data = _random_lti_data(rng)
        with pytest.raises(ValueError):
            edmd_tikhonov(data, -1.0)


class TestAlphaSearch:
    def test_constant_objective_breaks_tie_to_smallest(self):
        rng = np.random.default_rng(7)
        _, _, data = _random_lti_data(rng)
        result = alpha_grid_search(data, [1e-3, 0.0, 10.0], lambda a, fit: 1.0)
        assert result.best_alpha == 0.0

    def test_objective_receives_the_tikhonov_fit(self):
        rng = np.random.default_rng(12)
        _, _, data = _random_lti_data(rng)
        received = {}

        def objective(alpha, fit):
            received[alpha] = fit
            return 1.0

        grid = default_alpha_grid()
        alpha_grid_search(data, grid, objective)
        assert sorted(received) == list(grid)
        for alpha, (A_hat, B_hat) in received.items():
            A_ref, B_ref = edmd_tikhonov(data, alpha)
            np.testing.assert_array_equal(A_hat, A_ref)
            np.testing.assert_array_equal(B_hat, B_ref)

    def test_single_element_grid(self):
        rng = np.random.default_rng(8)
        _, _, data = _random_lti_data(rng)
        result = alpha_grid_search(data, [0.25], lambda a, fit: a)
        assert result.best_alpha == 0.25

    def test_argmin_no_worse_than_zero(self):
        bundle, traj = _dt_run()
        dictionary = bundle.dictionary
        data = build_snapshots(traj, dictionary)

        def objective(alpha, fit):
            A_hat, B_hat = fit
            return float(np.linalg.norm(data.Zp - A_hat @ data.Z - B_hat @ data.U))

        result = alpha_grid_search(data, default_alpha_grid(), objective)
        assert result.cost_at(result.best_alpha) <= result.cost_at(0.0) + 1e-12

    def test_divergent_points_flagged_and_skipped(self):
        rng = np.random.default_rng(9)
        _, _, data = _random_lti_data(rng)

        def objective(alpha, fit):
            if alpha < 1.0:
                raise DivergenceError("boom", step=3)
            return alpha

        result = alpha_grid_search(data, [0.1, 2.0, 5.0], objective)
        assert result.best_alpha == 2.0
        assert [row["diverged"] for row in result.costs] == [True, False, False]

    def test_all_divergent_raises_with_listing(self):
        rng = np.random.default_rng(10)
        _, _, data = _random_lti_data(rng)

        def objective(alpha, fit):
            raise DivergenceError("boom", step=1)

        with pytest.raises(DivergenceError) as exc:
            alpha_grid_search(data, [0.1, 1.0], objective)
        assert "0.1" in str(exc.value) and "1" in str(exc.value)

    def test_default_grid_shape(self):
        grid = default_alpha_grid()
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-15)
        assert grid[-1] == pytest.approx(1e20)
        assert len(grid) == 37
