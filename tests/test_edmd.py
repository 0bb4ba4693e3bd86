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
from kooplift import cli, edmd
from kooplift.errors import DimensionError, DivergenceError, NumericEvaluationError
from kooplift.lpv import output_matrix


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
        assert data.Z.shape[1] == 1
        np.testing.assert_array_equal(data.Z[:, 0], [1.0, 1.0, 1.0])

    def test_hundred_state_trajectory_has_99_pairs(self):
        bundle, traj = _dt_run(n_steps=99)  # 100 recorded states
        data = build_snapshots(traj, bundle.dictionary)
        assert data.Z.shape[1] == 99
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

    @pytest.mark.parametrize("excitation", ["whitenoise", "multisine"])
    def test_leading_rows_are_the_lower_degree_lift(self, excitation):
        # the degree sweep lifts once at degree 20 and takes each degree's
        # snapshots, C and z0 from the leading rows
        cfg = {label: cfg for label, _, cfg in cli.preset_runs("degree-sweep")}[excitation]
        traj = cli.run_simulate(cfg)["trajectories"]["nonlinear"]
        top_dictionary = monomial_dictionary(2, 20)
        top = build_snapshots(traj, top_dictionary)
        z0 = top_dictionary.evaluate(traj.states[0])
        for degree in range(2, 21):
            dictionary = monomial_dictionary(2, degree)
            data = build_snapshots(traj, dictionary)
            leading = top.leading(dictionary.n_f)
            for name in ("Z", "Zp", "U"):
                assert getattr(leading, name).tobytes() == getattr(data, name).tobytes()
            assert z0[: dictionary.n_f].tobytes() == dictionary.evaluate(
                traj.states[0]
            ).tobytes()
            np.testing.assert_array_equal(
                output_matrix(top_dictionary)[:, : dictionary.n_f],
                output_matrix(dictionary),
            )

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

    def test_drops_singular_values_below_the_gramian_cutoff(self):
        # Y = [Z; U] with relative singular values 1, 0.5 and 1e-10: the last
        # lies below sqrt(p eps) = 2.6e-8, where a pseudoinverse of Y Y^T
        # drops it, and above the plain Y^+ cutoff 40 eps = 8.9e-15
        rng = np.random.default_rng(17)
        left = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        right = np.linalg.qr(rng.normal(size=(40, 3)))[0]
        Y = (left * [1.0, 0.5, 1e-10]) @ right.T
        data = SnapshotData(Z=Y[:2], Zp=rng.normal(size=(2, 40)), U=Y[2:])
        reference = data.Zp @ np.linalg.pinv(Y, rcond=np.sqrt(3 * np.finfo(float).eps))
        fit = np.hstack(edmd_full(data))
        np.testing.assert_allclose(fit, reference, rtol=0, atol=1e-12)
        # keeping 1e-10 would put a 1e10 gain on noise in Z+
        assert np.abs(data.Zp @ np.linalg.pinv(Y)).max() > 1e8

    @pytest.mark.parametrize("excitation", ["whitenoise", "multisine"])
    def test_matches_the_normal_equations_on_preset_snapshots(self, excitation):
        # the normal-equation fit Z+ Y^T (Y Y^T)^+, with the Gramian cutoff
        # p * eps * ||Y Y^T||, keeps the same directions at every sweep degree
        # and agrees to the rounding of the squared conditioning at degrees
        # 2-6 (largest gap 4.6e-7, multisine degree 6, cond(Y) 4.5e12)
        cfg = {label: cfg for label, _, cfg in cli.preset_runs("degree-sweep")}[excitation]
        traj = cli.run_simulate(cfg)["trajectories"]["nonlinear"]
        eps = np.finfo(float).eps
        for degree in range(2, 21):
            data = build_snapshots(traj, monomial_dictionary(2, degree))
            Y = np.vstack([data.Z, data.U])
            p = Y.shape[0]
            G = Y @ Y.T
            s_G = np.linalg.svd(G, compute_uv=False)
            s = data.tikhonov_svd()[1]
            assert np.sum(s_G > p * eps * s_G[0]) == np.sum(s > np.sqrt(p * eps) * s[0])
            if degree > 6:
                continue
            reference = data.Zp @ Y.T @ np.linalg.pinv(G, rcond=p * eps)
            assert _relative_gap(edmd_full(data), reference) <= 1e-6, degree


class TestUnfittableSnapshots:
    def test_largest_singular_value_must_square_to_a_float(self):
        # s_max ~ 1e155 squares past 1.8e308; 1e150 still fits
        rng = np.random.default_rng(18)
        Z, Zp, U = rng.normal(size=(3, 2, 20))
        with pytest.raises(NumericEvaluationError, match="float range"):
            edmd_tikhonov(SnapshotData(Z=1e155 * Z, Zp=Zp, U=U), 1.0)
        with pytest.raises(NumericEvaluationError):
            data = SnapshotData(Z=Z, Zp=Zp, U=1e155 * U)
            alpha_grid_search(data, [0.0], _per_candidate(data, lambda a, fit: a))
        assert np.isfinite(np.hstack(edmd_full(SnapshotData(Z=1e150 * Z, Zp=Zp, U=U)))).all()

    @pytest.mark.parametrize("name", ["Z", "Zp", "U"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_snapshots_raise(self, name, value):
        rng = np.random.default_rng(19)
        snapshots = dict(zip(("Z", "Zp", "U"), rng.normal(size=(3, 2, 20))))
        snapshots[name][1, 3] = value
        with pytest.raises(NumericEvaluationError, match="non-finite"):
            edmd_full(SnapshotData(**snapshots))


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


def _per_candidate(data, cost):
    """A search objective applying ``cost(alpha, (A, B))`` to the fit
    [A B] = (Z+ V_Y) diag(f) U_Y^T of each candidate's filter row f."""

    def objective(alphas, filters):
        U_Y, _, W = data.tikhonov_svd()
        fits = [(W * f) @ U_Y.T for f in filters]
        return [
            cost(alpha, (fit[:, : data.n_f], fit[:, data.n_f :]))
            for alpha, fit in zip(alphas, fits)
        ]

    return objective


def _scaled(data, factor):
    """``data`` with every snapshot scaled by ``factor``."""
    return SnapshotData(Z=factor * data.Z, Zp=factor * data.Zp, U=factor * data.U)


def _filter(data, alpha):
    """s / (s^2 + alpha), with alpha = 0 cut at sqrt((n_f + n_u) eps) s_max."""
    s = data.tikhonov_svd()[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = s / (s * s + alpha)
    if alpha == 0:
        f[s <= np.sqrt((data.n_f + data.n_u) * np.finfo(float).eps) * s[0]] = 0.0
    return f


def _candidates(data, grid):
    """The smallest alpha of each distinct filter, 0 included."""
    first = {}
    for alpha in sorted(grid):
        first.setdefault(_filter(data, alpha).tobytes(), alpha)
    return list(first.values())


class TestAlphaSearch:
    def test_constant_objective_breaks_tie_to_smallest(self):
        rng = np.random.default_rng(7)
        _, _, data = _random_lti_data(rng)
        result = alpha_grid_search(
            data, [1e-3, 0.0, 10.0], lambda alphas, filters: [1.0] * len(alphas)
        )
        assert result.best_alpha == 0.0

    def test_objective_receives_the_tikhonov_fit(self):
        # the smallest alpha of each distinct filter, with its own filter
        # row, whose fit (Z+ V_Y) diag(f) U_Y^T is edmd_tikhonov's bit for
        # bit; at scale 1e9 the smallest s^2 is 3.1e17, whose half ulp is
        # 32, so alpha = 0 and the 17 alphas up to 10 share one filter
        grid = default_alpha_grid()
        for scale, n_candidates in ((1.0, 37), (1e9, 20)):
            data = _scaled(_random_lti_data(np.random.default_rng(12))[2], scale)
            received = {}

            def objective(alphas, filters):
                assert alphas == sorted(alphas)
                assert filters.shape == (len(alphas), 4)
                received.update(zip(alphas, filters.copy()))
                return [1.0] * len(alphas)

            alpha_grid_search(data, grid, objective)
            assert list(received) == _candidates(data, grid)
            assert len(received) == n_candidates
            U_Y, _, W = data.tikhonov_svd()
            for alpha, f in received.items():
                assert f.tobytes() == _filter(data, alpha).tobytes()
                fit = (W * f) @ U_Y.T
                A_ref, B_ref = edmd_tikhonov(data, alpha)
                assert fit.tobytes() == np.hstack([A_ref, B_ref]).tobytes()

    def test_alphas_sharing_a_filter_share_the_representatives_cost(self):
        # at scale 1e21 every s^2 exceeds 1e40, so s^2 + alpha rounds to s^2
        # for every alpha on the grid: the objective sees alpha = 0 only, and
        # the other 36 rows repeat its cost
        rng = np.random.default_rng(14)
        data = _scaled(_random_lti_data(rng)[2], 1e21)
        seen = []

        def objective(alphas, filters):
            seen.extend(alphas)
            return [float(np.abs(f).sum()) for f in filters]

        grid = default_alpha_grid()
        result = alpha_grid_search(data, grid, objective)
        assert seen == [0.0]
        costs = [row["cost"] for row in result.costs]
        assert [row["alpha"] for row in result.costs] == list(grid)
        assert len(set(costs)) == 1
        assert result.best_alpha == 0.0
        A0, B0 = edmd_tikhonov(data, 0.0)
        for alpha in grid[1:]:
            A, B = edmd_tikhonov(data, alpha)
            assert A.tobytes() == A0.tobytes() and B.tobytes() == B0.tobytes()

    def test_stacked_fits_match_their_own_products(self):
        # each member of the search's stacked recurrence holds the bits of
        # its own one-member run, at every lifted dimension of the degree
        # sweep
        bundle, traj = _dt_run()
        alphas = default_alpha_grid()
        for degree in range(1, 21):
            dictionary = monomial_dictionary(2, degree)
            data = build_snapshots(traj, dictionary)
            filters = edmd._filters(data, alphas)
            z0 = dictionary.evaluate(traj.states[0])
            read = np.arange(data.n_f)
            stacked, stacked_at = cli._search_runs(data, filters, z0, traj.inputs, 1e12, read)
            for m in range(len(alphas)):
                own, own_at = cli._search_runs(
                    data, filters[m : m + 1], z0, traj.inputs, 1e12, read
                )
                assert stacked[m].tobytes() == own[0].tobytes(), (degree, m)
                assert stacked_at[m] == own_at[0]

    def test_single_element_grid(self):
        rng = np.random.default_rng(8)
        _, _, data = _random_lti_data(rng)
        result = alpha_grid_search(data, [0.25], _per_candidate(data, lambda a, fit: a))
        assert result.best_alpha == 0.25

    def test_argmin_no_worse_than_zero(self):
        bundle, traj = _dt_run()
        dictionary = bundle.dictionary
        data = build_snapshots(traj, dictionary)

        def cost(alpha, fit):
            A_hat, B_hat = fit
            return float(np.linalg.norm(data.Zp - A_hat @ data.Z - B_hat @ data.U))

        result = alpha_grid_search(data, default_alpha_grid(), _per_candidate(data, cost))
        costs = {row["alpha"]: row["cost"] for row in result.costs}
        assert costs[result.best_alpha] <= costs[0.0] + 1e-12

    def test_divergent_points_flagged_and_skipped(self):
        rng = np.random.default_rng(9)
        _, _, data = _random_lti_data(rng)
        objective = _per_candidate(data, lambda a, fit: np.inf if a < 1.0 else a)
        result = alpha_grid_search(data, [0.1, 2.0, 5.0], objective)
        assert result.best_alpha == 2.0
        assert [row["diverged"] for row in result.costs] == [True, False, False]

    def test_all_divergent_raises_with_listing(self):
        rng = np.random.default_rng(10)
        _, _, data = _random_lti_data(rng)
        objective = _per_candidate(data, lambda a, fit: np.nan if a < 1.0 else np.inf)

        with pytest.raises(DivergenceError) as exc:
            alpha_grid_search(data, [0.1, 1.0], objective)
        assert "0.1" in str(exc.value) and "1" in str(exc.value)

    def test_one_call_costs_every_distinct_filter(self):
        # the objective is called once, with one candidate per distinct
        # filter: all 37 here, 1 once a scale of 1e21 merges every filter
        rng = np.random.default_rng(13)
        _, _, data = _random_lti_data(rng, n_f=3, n_u=1)
        sizes = []

        def objective(alphas, filters):
            sizes.append(len(alphas))
            return [1.0] * len(alphas)

        alpha_grid_search(data, default_alpha_grid(), objective)
        assert len(_candidates(data, default_alpha_grid())) == 37
        assert sizes == [37]
        sizes.clear()
        alpha_grid_search(_scaled(data, 1e21), default_alpha_grid(), objective)
        assert sizes == [1]

    def test_member_costs_do_not_depend_on_their_stack(self):
        # the sweep's own objective at degree 14, where 16 of 37 candidates
        # diverge at steps 20-26: each candidate's cost has the same bits
        # alone, in the whole grid, and beside a mate that diverges mid-run
        bundle, traj = _dt_run()
        dictionary = monomial_dictionary(2, 14)
        data = build_snapshots(traj, dictionary)
        z0 = dictionary.evaluate(traj.states[0])
        objective = cli._alpha_objective(
            data, traj, output_matrix(dictionary), z0, traj.inputs, 1e12, {}
        )
        grid = default_alpha_grid()
        result = alpha_grid_search(data, grid, objective)
        costs = {row["alpha"]: row["cost"] for row in result.costs}
        filters = edmd._filters(data, grid)
        _, diverged_at = cli._search_runs(
            data, filters, z0, traj.inputs, 1e12, np.arange(data.n_f)
        )
        steps = diverged_at[diverged_at > 0]
        assert len(steps) == 16 and steps.min() > 1 and steps.max() < len(traj.inputs) - 1
        mate = filters[np.argmax(diverged_at)]
        for alpha, f in zip(grid, filters):
            alone = objective([alpha], f[None])
            paired = objective([alpha, -1.0], np.stack([f, mate]))
            assert np.array(alone[0]).tobytes() == np.array(costs[alpha]).tobytes()
            assert np.array(paired[0]).tobytes() == np.array(costs[alpha]).tobytes()
            assert paired[1] == np.inf
        assert sum(row["diverged"] for row in result.costs) == 16

    def test_objective_must_cost_every_candidate(self):
        rng = np.random.default_rng(11)
        _, _, data = _random_lti_data(rng)
        with pytest.raises(ValueError):
            alpha_grid_search(data, [0.1, 1.0], lambda alphas, filters: [1.0])

    def test_default_grid_shape(self):
        grid = default_alpha_grid()
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-15)
        assert grid[-1] == pytest.approx(1e20)
        assert len(grid) == 37
