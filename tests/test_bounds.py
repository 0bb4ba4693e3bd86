"""Error bounds: stability scalars, beta scans, bound curves."""

import numpy as np
import pytest

from kooplift import (
    DomainBox,
    SignalSpec,
    beta_grid,
    beta_trajectory,
    bounds_curve,
    build_bound_report,
    build_inputs,
    build_lifted_model,
    build_snapshots,
    dt_example,
    edmdc_input_fit,
    error_trajectory,
    make_lti,
    simulate_lpv,
    simulate_nonlinear,
    stability_scalars,
)
from kooplift.bounds import BoundReport
from kooplift.errors import DimensionError


def _dt_setup(signal=None, n_steps=100):
    bundle = dt_example()
    lpv = build_lifted_model(bundle.decomposition, bundle.dictionary)
    if signal is None:
        signal = SignalSpec(kind="white_noise", variance=0.5, seed=33)
    inputs = build_inputs([signal], 1.0, n_steps)
    traj = simulate_nonlinear(bundle.decomposition, [1.0, 1.0], inputs)
    data = build_snapshots(traj, bundle.dictionary)
    B_hat, _ = edmdc_input_fit(data, lpv.A)
    lti = make_lti(lpv.A, B_hat, lpv.C)
    return bundle, lpv, lti, inputs, traj


class TestStabilityScalars:
    def test_benchmark_lifted_matrix(self):
        bundle = dt_example()
        lifted = build_lifted_model(bundle.decomposition, bundle.dictionary)
        rho, sigma = stability_scalars(lifted.A)
        # triangular matrix: eigenvalues are the diagonal {0.7, 0.7, 0.49}
        assert rho == pytest.approx(0.7, abs=1e-12)
        assert sigma == pytest.approx(0.9165424177698643, abs=1e-10)
        assert sigma < 1.0

    def test_identity(self):
        rho, sigma = stability_scalars(np.eye(4))
        assert rho == pytest.approx(1.0) and sigma == pytest.approx(1.0)

    def test_normal_diagonal(self):
        rho, sigma = stability_scalars(np.diag([0.5, -0.9]))
        assert rho == pytest.approx(0.9) and sigma == pytest.approx(0.9)

    def test_triangular_eigenvalues_equal_diagonal(self):
        A = np.triu(np.random.default_rng(0).normal(size=(4, 4)))
        rho, _ = stability_scalars(A)
        assert rho == pytest.approx(np.abs(np.diag(A)).max(), rel=1e-10)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            stability_scalars(np.zeros((2, 3)))


class TestBetaScans:
    def test_constant_matrix_gives_zero(self):
        # an LPV model whose input matrix is constant: B_hat equal to it
        # makes the gap vanish identically
        bundle, lpv, lti, inputs, traj = _dt_setup()
        B_const = np.array([[1.0], [0.0], [0.0]])

        class ConstModel:
            factored_batch = None
            factored_input = staticmethod(lambda x, u: B_const)

        scan = beta_grid(
            ConstModel(),
            B_const,
            DomainBox([-2, -2], [2, 2]),
            DomainBox([-1], [1]),
            grid_density=7,
        )
        assert scan.beta == 0.0

    def test_benchmark_grid_against_bruteforce_oracle(self):
        # B(x, u) = [1, x1^2, 2 a1 x1 + u]; exhaustive evaluation of the
        # same grid is the oracle
        bundle, lpv, _, _, _ = _dt_setup()
        B_hat = np.array([[1.0], [0.0], [0.0]])
        state_box = DomainBox([-2.0, -2.0], [2.0, 2.0])
        input_box = DomainBox([-1.0], [1.0])
        density = 21
        scan = beta_grid(lpv, B_hat, state_box, input_box, grid_density=density)

        best = -1.0
        for x1 in np.linspace(-2, 2, density):
            for x2 in np.linspace(-2, 2, density):
                for u in np.linspace(-1, 1, density):
                    col = np.array([1.0, x1**2, 2 * 0.7 * x1 + u]) - B_hat[:, 0]
                    best = max(best, float(np.linalg.norm(col)))
        assert scan.beta == pytest.approx(best, rel=1e-12)
        # analytic maximum on this box sits at |x1| = 2, aligned u
        assert scan.beta == pytest.approx(np.sqrt(16.0 + (2.8 + 1.0) ** 2), rel=1e-12)

    def test_grid_refinement_monotone(self):
        bundle, lpv, lti, _, _ = _dt_setup()
        state_box = DomainBox([-1.5, -1.5], [1.5, 1.5])
        input_box = DomainBox([-1.0], [1.0])
        densities = [2, 3, 5, 9, 17, 33]  # nested grids: d -> 2d - 1
        betas = [
            beta_grid(lpv, lti.B, state_box, input_box, grid_density=d).beta
            for d in densities
        ]
        for a, b in zip(betas, betas[1:]):
            assert b >= a - 1e-14

    def test_ten_nested_grids_monotone_scalar_system(self):
        # ten nesting levels on a scalar system keep the scan affordable
        from kooplift import PolynomialMap, monomial_dictionary
        from kooplift.systems import control_affine_decomposition

        f = PolynomialMap(1, [{(1,): 0.5}])
        column = PolynomialMap(1, [{(0,): 1.0, (2,): 1.0}])
        split = control_affine_decomposition(f, [column], "discrete")
        lpv = build_lifted_model(split, monomial_dictionary(1, 2))
        B_hat = np.array([[1.0], [0.2]])
        state_box = DomainBox([-1.0], [1.0])
        input_box = DomainBox([-1.0], [1.0])
        densities = [2, 3, 5, 9, 17, 33, 65, 129, 257, 513]
        betas = [
            beta_grid(lpv, B_hat, state_box, input_box, grid_density=d).beta
            for d in densities
        ]
        for a, b in zip(betas, betas[1:]):
            assert b >= a - 1e-14

    def test_reported_beta_is_exact_grid_maximum(self):
        # argmax bookkeeping: the scan result equals the max of the norms
        # evaluated on the identical point set
        bundle, lpv, lti, _, _ = _dt_setup()
        from kooplift.bounds import _gap_norms

        state_box = DomainBox([-2.0, -2.0], [2.0, 2.0])
        input_box = DomainBox([-1.0], [1.0])
        scan = beta_grid(lpv, lti.B, state_box, input_box, grid_density=9)
        axes = state_box.grid(9) + input_box.grid(9)
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        norms = _gap_norms(lpv, lti.B, points[:, :2], points[:, 2:])
        assert scan.beta == norms.max()
        assert scan.n_points == points.shape[0]

    def test_trajectory_scan_reports_argmax(self):
        bundle, lpv, lti, inputs, traj = _dt_setup()
        scan = beta_trajectory(lpv, lti.B, traj.states[:-1], inputs[:-1])
        norms = [
            np.linalg.norm(lpv.factored_input(x, u) - lti.B)
            for x, u in zip(traj.states[:-1], inputs[:-1])
        ]
        assert scan.beta == max(norms)
        assert scan.mode == "trajectory"


class TestErrorTrajectory:
    def test_true_constant_matrix_gives_zero_error(self):
        # an LTI-in-lift synthetic system: the fitted matrix is exact and
        # the gap vanishes
        rng = np.random.default_rng(1)
        from kooplift import PolynomialMap, monomial_dictionary
        from kooplift.systems import control_affine_decomposition

        F = np.array([[0.5, 0.1], [0.0, 0.3]])
        f = PolynomialMap(
            2, [{(1, 0): F[0, 0], (0, 1): F[0, 1]}, {(0, 1): F[1, 1]}]
        )
        column = PolynomialMap(2, [{(0, 0): 1.0}, {(0, 0): -0.5}])
        split = control_affine_decomposition(f, [column], "discrete")
        d = monomial_dictionary(2, 1)
        lpv = build_lifted_model(split, d)
        B_true = np.array([[1.0], [-0.5]])
        lti = make_lti(lpv.A, B_true, lpv.C)
        inputs = rng.normal(size=(40, 1))
        evol = error_trajectory(lpv, lti, d.evaluate([1.0, -1.0]), inputs)
        assert np.abs(evol.norms).max() <= 1e-12

    def test_zero_input_zero_error(self):
        bundle, lpv, lti, _, _ = _dt_setup()
        z0 = bundle.dictionary.evaluate([1.0, 1.0])
        evol = error_trajectory(lpv, lti, z0, np.zeros((60, 1)))
        np.testing.assert_array_equal(evol.norms, np.zeros(60))

    def test_exact_states_are_the_lpv_simulation(self):
        # error_trajectory and simulate_lpv take the same lifted step
        bundle, lpv, lti, inputs, _ = _dt_setup()
        lifted, _ = simulate_lpv(lpv, x0=[1.0, 1.0], inputs=inputs)
        evol = error_trajectory(lpv, lti, lifted.states[0], inputs)
        assert np.array_equal(evol.exact_states, lifted.states)

    def test_recurrence_matches_simulation_difference(self):
        bundle, lpv, lti, inputs, _ = _dt_setup()
        z0 = bundle.dictionary.evaluate([1.0, 1.0])
        evol = error_trajectory(lpv, lti, z0, inputs)
        scale = 1 + np.abs(evol.norms).max()
        assert np.abs(evol.norms - evol.norms_recurrence).max() <= 1e-12 * scale


class TestBoundsCurve:
    def test_first_step_value(self):
        # tv[1] = beta * ||u||_linf * ||A^0||
        A = np.diag([0.5, 0.2])
        inputs = np.array([[2.0], [1.0], [0.5]])
        tv, absolute = bounds_curve(A, beta=3.0, inputs=inputs)
        assert tv[0] == 0.0
        assert tv[1] == pytest.approx(3.0 * 2.0)
        assert absolute == pytest.approx(3.0 * 2.0 / (1 - 0.5))

    def test_zero_matrix(self):
        inputs = np.ones((10, 1))
        tv, absolute = bounds_curve(np.zeros((3, 3)), beta=2.0, inputs=inputs)
        np.testing.assert_allclose(tv[1:], 2.0)
        assert absolute == pytest.approx(2.0)

    def test_unstable_sigma_disables_absolute(self):
        A = np.array([[0.9, 1.0], [0.0, 0.9]])  # sigma_max > 1, rho < 1
        rho, sigma = stability_scalars(A)
        assert rho < 1 < sigma
        tv, absolute = bounds_curve(A, beta=1.0, inputs=np.ones((30, 1)))
        assert absolute is None
        assert np.all(np.isfinite(tv))
        assert np.all(np.diff(tv) >= -1e-12)

    def test_curve_monotone_and_convergent(self):
        bundle, lpv, lti, inputs, _ = _dt_setup(n_steps=120)
        from kooplift.bounds import beta_trajectory as scan_traj

        scan = scan_traj(lpv, lti.B, np.zeros((1, 2)), np.zeros((1, 1)))
        tv, absolute = bounds_curve(lpv.A, 5.0, inputs)
        assert np.all(np.diff(tv) >= -1e-12)
        # geometric tail: late increments below 1e-9
        assert tv[-1] - tv[-10] < 1e-9
        assert tv[-1] < absolute / 5.0 * 5.0


class TestBoundReport:
    @pytest.mark.parametrize(
        "signal",
        [
            SignalSpec(kind="white_noise", variance=0.5, seed=33),
            SignalSpec(
                kind="multisine", n_freq=6, f_low=0.01, f_high=0.1, amplitude=0.5
            ),
        ],
    )
    def test_validity_chain(self, signal):
        bundle, lpv, lti, inputs, traj = _dt_setup(signal=signal)
        z0 = bundle.dictionary.evaluate([1.0, 1.0])
        report = build_bound_report(lpv, lti, z0, inputs)
        assert report.valid()
        assert np.all(report.error_norm <= report.timevarying_bound + 1e-12)
        assert report.absolute_applicable
        assert np.all(report.timevarying_bound <= report.absolute_bound + 1e-12)
        # the curve converges and its limit stays strictly conservative
        assert report.timevarying_bound[-1] < report.absolute_bound
        assert (
            report.timevarying_bound[-1] - report.timevarying_bound[-5] < 1e-9
        )

    @pytest.mark.parametrize("mode", ["trajectory", "grid"])
    def test_beta_argmax_reproduces_beta(self, mode):
        bundle, lpv, lti, inputs, _ = _dt_setup()
        z0 = bundle.dictionary.evaluate([1.0, 1.0])
        scan = None
        if mode == "grid":
            scan = beta_grid(
                lpv,
                lti.B,
                DomainBox([-1.5, -1.5], [1.5, 1.5]),
                DomainBox([-1.0], [1.0]),
                grid_density=9,
            )
        report = build_bound_report(lpv, lti, z0, inputs, beta_scan=scan)
        x_star, u_star = report.beta_argmax_state, report.beta_argmax_input
        gap = lpv.factored_input(x_star, u_star) - lti.B
        assert report.beta_mode == mode
        assert np.linalg.norm(gap, 2) == pytest.approx(report.beta, rel=1e-12, abs=0)
        doc = report.to_document()
        assert doc["beta_argmax_state"] == [float(v) for v in x_star]
        assert doc["beta_argmax_input"] == [float(v) for v in u_star]

    @staticmethod
    def _report(error, tv, absolute=None):
        return BoundReport(
            rho=0.5,
            sigma=0.5,
            beta=1.0,
            u_linf=1.0,
            absolute_bound=absolute,
            timevarying_bound=np.asarray(tv, dtype=float),
            error_norm=np.asarray(error, dtype=float),
        )

    def test_validity_slack_is_relative_to_the_bound(self):
        # one part in 1e15 of a 1e6-scale bound is rounding, not a violation
        assert self._report([0.0, 1e6 * (1 + 1e-15)], [0.0, 1e6]).valid()
        assert not self._report([0.0, 1e6 * (1 + 1e-6)], [0.0, 1e6]).valid()
        assert self._report([0.0, 0.0], [0.0, 1e6 * (1 + 1e-15)], absolute=1e6).valid()
        assert not self._report([0.0, 0.0], [0.0, 1e6 * (1 + 1e-6)], absolute=1e6).valid()
        # below scale 1 the slack stays absolute
        assert self._report([0.0, 1e-3 + 1e-13], [0.0, 1e-3]).valid()
        assert not self._report([0.0, 1e-3 + 1e-11], [0.0, 1e-3]).valid()

    def test_document_shape(self):
        bundle, lpv, lti, inputs, _ = _dt_setup()
        z0 = bundle.dictionary.evaluate([1.0, 1.0])
        report = build_bound_report(lpv, lti, z0, inputs)
        doc = report.to_document()
        assert len(doc["k"]) == len(doc["error_norm"]) == len(doc["tv_bound"])
        assert doc["rho_A"] == report.rho

    def test_not_applicable_flag_in_document(self):
        A = np.array([[0.9, 1.0], [0.0, 0.9]])
        tv, absolute = bounds_curve(A, 1.0, np.ones((5, 1)))
        from kooplift.bounds import BoundReport

        report = BoundReport(
            rho=0.9,
            sigma=float(np.linalg.svd(A, compute_uv=False)[0]),
            beta=1.0,
            u_linf=1.0,
            absolute_bound=None,
            timevarying_bound=tv,
            error_norm=np.zeros_like(tv),
        )
        doc = report.to_document()
        assert "not applicable" in doc["absolute_bound"]
        assert report.valid()
