"""Error bounds: stability scalars, beta scans, bound curves."""

import numpy as np
import pytest

from kooplift import (
    DomainBox,
    Monomial,
    ObservableDictionary,
    SignalSpec,
    beta_grid,
    beta_trajectory,
    bounds_curve,
    build_bound_report,
    build_inputs,
    build_lifted_model,
    build_snapshots,
    ct_example,
    dt_example,
    edmdc_input_fit,
    error_trajectory,
    make_lti,
    simulate_lpv,
    simulate_lti,
    simulate_nonlinear,
    stability_scalars,
)
from kooplift.bounds import BoundReport
from kooplift.errors import DimensionError, NumericEvaluationError


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


def _exact_run(lpv, z0, inputs):
    """The exact model's lifted run from z0."""
    return simulate_lpv(lpv, z0=z0, inputs=inputs)[0]


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
            factored_input = staticmethod(lambda x, u: B_const)
            factored_batch = staticmethod(lambda X, U: np.stack([B_const] * len(X)))

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

    def test_streamed_grid_matches_meshgrid_reference(self, monkeypatch):
        # the scan builds each chunk from flat indices; the reference is the
        # full meshgrid cut into the same chunks with the same strict ">"
        # rule. With B_hat = e1 the gap sqrt(x1^4 + (1.4 x1 + u)^2) peaks at
        # (x1, u) = (2, 1) and (-2, -1) with equal bits, for every x2, so the
        # maximum is tied and the first point reaching it must win
        import kooplift.bounds as bounds_module

        bundle, lpv, _, _, _ = _dt_setup()
        B_hat = np.array([[1.0], [0.0], [0.0]])
        state_box = DomainBox([-2.0, -2.0], [2.0, 2.0])
        input_box = DomainBox([-1.0], [1.0])
        density, chunk = 9, 83  # 729 points: 9 chunks, each ending inside a row of 9
        gap_norms = bounds_module._gap_norms
        blocks = []

        def recording(model, B, X, U):
            blocks.append(np.hstack([X, U]))
            return gap_norms(model, B, X, U)

        monkeypatch.setattr(bounds_module, "GRID_CHUNK_POINTS", chunk)
        monkeypatch.setattr(bounds_module, "_gap_norms", recording)
        scan = beta_grid(lpv, B_hat, state_box, input_box, grid_density=density)

        axes = state_box.grid(density) + input_box.grid(density)
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        beta, arg, ref_blocks = -np.inf, None, []
        for start in range(0, points.shape[0], chunk):
            block = points[start : start + chunk]
            ref_blocks.append(block)
            norms = gap_norms(lpv, B_hat, block[:, :2], block[:, 2:])
            idx = int(np.argmax(norms))
            if norms[idx] > beta:
                beta, arg = float(norms[idx]), block[idx]

        all_norms = gap_norms(lpv, B_hat, points[:, :2], points[:, 2:])
        assert np.count_nonzero(all_norms == all_norms.max()) > 1
        assert len(blocks) == len(ref_blocks) == 9
        for got, want in zip(blocks, ref_blocks):
            assert np.array_equal(got, want)
        assert scan.beta == beta
        assert np.array_equal(scan.argmax_state, arg[:2])
        assert np.array_equal(scan.argmax_input, arg[2:])
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


    def test_held_model_scans_are_the_pointwise_gap_norms(self):
        # ct-example's lift has exponential columns: factored_batch takes
        # their features row by row with factored_input's helper, and both
        # scans take the maximum of the per-point induced 2-norms, bit for bit
        bundle = ct_example()
        lpv = build_lifted_model(bundle.decomposition, bundle.dictionary)
        rng = np.random.default_rng(19)
        B_hat = rng.normal(size=(lpv.n_f, lpv.n_u))

        def worst(points):
            return max(
                np.linalg.norm(lpv.factored_input(p[:2], p[2:]) - B_hat, 2) for p in points
            )

        X, U = rng.uniform(-2.0, 2.0, (40, 2)), rng.uniform(-1.0, 1.0, (40, 2))
        U[7] = 0.0
        scan = beta_trajectory(lpv, B_hat, X, U)
        assert scan.beta == worst(np.hstack([X, U]))
        boxes = bundle.state_box, bundle.input_box
        scan = beta_grid(lpv, B_hat, *boxes, grid_density=3)
        grid = np.stack(np.meshgrid(*boxes[0].grid(3), *boxes[1].grid(3), indexing="ij"), axis=-1)
        assert scan.n_points == 81
        assert scan.beta == worst(grid.reshape(-1, 4))

    def test_empty_trajectory_raises_a_dimension_error(self):
        # zero (x, u) pairs, or inputs cut short to none, leave no gap to
        # maximise
        bundle, lpv, lti, inputs, traj = _dt_setup()
        for states, us in ((traj.states[:0], inputs[:0]), (traj.states[:-1], inputs[:0])):
            with pytest.raises(DimensionError, match="empty point set"):
                beta_trajectory(lpv, lti.B, states, us)

    @pytest.mark.parametrize("density", [0, -3])
    def test_empty_grid_raises_a_dimension_error(self, density):
        bundle, lpv, lti, inputs, traj = _dt_setup()
        with pytest.raises(DimensionError, match=f"empty point set: grid_density {density}"):
            beta_grid(lpv, lti.B, bundle.state_box, bundle.input_box, grid_density=density)

    def test_nan_in_a_later_chunk_raises(self, monkeypatch):
        # np.argmax picks a NaN, and NaN > beta is False: the chunk holding
        # the first NaN point (100, x1 = 1) was skipped, finite points and all
        import kooplift.bounds as bounds_module

        class NanModel:
            @staticmethod
            def factored_input(x, u):
                return np.array([[x[0] + u[0] if x[0] < 1.0 else np.nan], [0.0]])

            @classmethod
            def factored_batch(cls, X, U):
                return np.stack([cls.factored_input(x, u) for x, u in zip(X, U)])

        monkeypatch.setattr(bounds_module, "GRID_CHUNK_POINTS", 7)
        B_hat = np.zeros((2, 1))
        boxes = DomainBox([0.0, 0.0], [1.0, 1.0]), DomainBox([0.0], [1.0])
        with pytest.raises(NumericEvaluationError, match=r"point 100 \(x=\[1.0, 0.0\], u=\[0.0\]\)") as exc:
            beta_grid(NanModel(), B_hat, *boxes, grid_density=5)
        assert exc.value.index == 100
        states = np.array([[0.5, 0.0], [0.25, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(NumericEvaluationError, match="point 2") as exc:
            beta_trajectory(NanModel(), B_hat, states, np.zeros((4, 1)))
        assert exc.value.index == 2

    def test_overflowing_gap_raises(self, monkeypatch):
        # x = 1e20 overflows x1^12 on the weighted D = 12 dictionary; one
        # point per chunk puts it after a finite chunk
        import kooplift.bounds as bounds_module

        dictionary = ObservableDictionary(
            2, [Monomial((a, b)) for b in range(7) for a in range(13 - 2 * b) if a + b]
        )
        lpv = build_lifted_model(dt_example().decomposition, dictionary)
        monkeypatch.setattr(bounds_module, "GRID_CHUNK_POINTS", 1)
        boxes = DomainBox([0.0, 0.0], [1e20, 1e20]), DomainBox([0.0], [1e20])
        with np.errstate(all="ignore"), pytest.raises(NumericEvaluationError, match="not finite") as exc:
            beta_grid(lpv, np.zeros((dictionary.n_f, 1)), *boxes, grid_density=3)
        assert exc.value.index == 1


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
        evol = error_trajectory(
            lpv, lti, _exact_run(lpv, d.evaluate([1.0, -1.0]), inputs)
        )
        assert np.abs(evol.norms).max() <= 1e-12

    def test_zero_input_zero_error(self):
        bundle, lpv, lti, _, _ = _dt_setup()
        z0 = bundle.dictionary.evaluate([1.0, 1.0])
        evol = error_trajectory(lpv, lti, _exact_run(lpv, z0, np.zeros((60, 1))))
        np.testing.assert_array_equal(evol.norms, np.zeros(60))

    def test_exact_states_are_the_lpv_simulation(self):
        # the error is the given exact run minus the LTI model's own run from
        # that run's first state, bit for bit
        bundle, lpv, lti, inputs, _ = _dt_setup()
        lifted = _exact_run(lpv, bundle.dictionary.evaluate([1.0, 1.0]), inputs)
        evol = error_trajectory(lpv, lti, lifted)
        approx, _ = simulate_lti(lti, lifted.states[0], inputs)
        assert np.array_equal(evol.errors, lifted.states - approx.states)
        assert np.array_equal(evol.norms, np.linalg.norm(lifted.states - approx.states, axis=1))

    def test_recurrence_matches_simulation_difference(self):
        bundle, lpv, lti, inputs, _ = _dt_setup()
        z0 = bundle.dictionary.evaluate([1.0, 1.0])
        lifted = _exact_run(lpv, z0, inputs)
        evol = error_trajectory(lpv, lti, lifted)
        # e_k = A e_{k-1} + (B(x_{k-1}, u_{k-1}) - B_hat) u_{k-1}, with the
        # B(x, u) of the run's own states
        selector = list(lpv.dictionary.state_selector)
        e, rec = np.zeros(lpv.n_f), [0.0]
        for x, u in zip(lifted.states[:-1, selector], inputs):
            e = lpv.A @ e + (lpv.factored_input(x, u) - lti.B) @ u
            rec.append(np.linalg.norm(e))
        scale = 1 + np.abs(evol.norms).max()
        assert np.abs(evol.norms - np.array(rec)).max() <= 1e-12 * scale


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
        _, lpv, _, inputs, _ = _dt_setup(n_steps=120)
        tv, absolute = bounds_curve(lpv.A, 5.0, inputs)
        assert np.all(np.diff(tv) >= -1e-12)
        # geometric tail: late increments below 1e-9
        assert tv[-1] - tv[-10] < 1e-9
        assert tv[-1] < absolute

    @pytest.mark.parametrize("n_steps", [-1, 4])
    def test_rejects_steps_outside_inputs(self, n_steps):
        # four steps would read an input row that ||u||_linf never saw
        inputs = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(DimensionError):
            bounds_curve(np.diag([0.5, 0.2]), 1.0, inputs, n_steps=n_steps)

    def test_steps_may_use_every_input(self):
        inputs = np.array([[1.0], [2.0], [3.0]])
        tv, _ = bounds_curve(np.diag([0.5, 0.2]), 1.0, inputs, n_steps=3)
        assert tv.tolist() == [0.0, 3.0, 4.5, 5.25]
        with pytest.raises(DimensionError):
            bounds_curve(np.diag([0.5, 0.2]), 1.0, np.zeros((0, 1)))


def _curve_reference(A, beta, inputs, n_steps=None):
    """The curve from one full SVD of A^m per step, summed left to right."""
    A = np.asarray(A, dtype=float)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_steps is None:
        n_steps = inputs.shape[0] - 1
    used = inputs[:n_steps]
    u_linf = float(np.max(np.linalg.norm(used, axis=1))) if used.size else 0.0
    tv = np.zeros(n_steps + 1)
    power = np.eye(A.shape[0])
    partial = 0.0
    for k in range(1, n_steps + 1):
        partial += float(np.linalg.svd(power, compute_uv=False)[0])
        tv[k] = beta * u_linf * partial
        power = A @ power
    return tv


def _permuted_block_diagonal(blocks, rng):
    """A block-diagonal matrix under a random symmetric permutation, and the
    sorted index set each block lands on."""
    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n))
    sets, start = [], 0
    for b in blocks:
        stop = start + b.shape[0]
        A[start:stop, start:stop] = b
        sets.append(np.arange(start, stop))
        start = stop
    perm = rng.permutation(n)
    where = np.argsort(perm)  # A's index i moves to where[i]
    return A[np.ix_(perm, perm)], [np.sort(where[s]) for s in sets]


def _reducible(rng):
    contracting = rng.normal(size=(4, 4))
    contracting *= 0.8 / np.linalg.norm(contracting, 2)
    blocks = [
        np.array([[0.5]]),
        np.array([[-0.95]]),
        np.zeros((1, 1)),  # a zero block is a set of uncoupled 1x1 blocks
        np.zeros((1, 1)),
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]),  # nilpotent
        np.array([[0.9, 1.0], [0.0, 0.9]]),  # sigma_max > 1 > rho
        contracting,
        np.array([[0.3, -0.2], [0.2, 0.3]]),  # scaled rotation, stacked with the Jordan block
    ]
    return _permuted_block_diagonal(blocks, rng)


def _per_block_norms(A, n_powers):
    """||A^m||_2 from one SVD of every block power, each block advanced by its
    own recurrence: the curve with nothing skipped."""
    from kooplift.bounds import _decoupled_blocks

    norms = np.zeros(n_powers)
    for idx in _decoupled_blocks(A):
        block = A[np.ix_(idx, idx)]
        power = np.eye(idx.size)
        for m in range(n_powers):
            norms[m] = np.maximum(norms[m], np.linalg.svd(power, compute_uv=False)[0])
            power = block @ power
    return norms


def _weighted_lift_A(degree):
    """A of dt-example's lift on {x1^a x2^b : 0 < a + 2b <= degree}."""
    monomials = [
        Monomial((a, b))
        for b in range(degree // 2 + 1)
        for a in range(degree - 2 * b + 1)
        if a + b
    ]
    lifted = build_lifted_model(dt_example().decomposition, ObservableDictionary(2, monomials))
    return lifted.A


class TestBlockCurve:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_matrix_keeps_every_bit(self, order):
        # one block: the products run on A itself, in its own memory order
        rng = np.random.default_rng(5)
        A = rng.normal(size=(60, 60))
        A = np.asarray(A * 0.97 / np.max(np.abs(np.linalg.eigvals(A))), order=order)
        inputs = rng.normal(size=(151, 2))
        tv, _ = bounds_curve(A, 1.7, inputs)
        assert np.array_equal(tv, _curve_reference(A, 1.7, inputs))

    def test_blocks_are_the_coupling_components(self):
        from kooplift.bounds import _decoupled_blocks

        A, sets = _reducible(np.random.default_rng(9))
        found = sorted(_decoupled_blocks(A), key=lambda s: s[0])
        expected = sorted(sets, key=lambda s: s[0])
        assert [s.tolist() for s in found] == [s.tolist() for s in expected]
        # one-way coupling joins a block as well: triangular A is one block
        assert len(_decoupled_blocks(np.triu(np.ones((4, 4))))) == 1

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_reducible_matrix_within_rounding(self, seed):
        rng = np.random.default_rng(seed)
        A, _ = _reducible(rng)
        inputs = rng.normal(size=(121, 1))
        tv, absolute = bounds_curve(A, 2.5, inputs)
        ref = _curve_reference(A, 2.5, inputs)
        assert tv[0] == 0.0
        rel = np.abs(tv[1:] - ref[1:]) / ref[1:]
        assert np.max(rel) <= 1e-15
        assert absolute is None  # the 2x2 Jordan block has sigma_max > 1

    def test_lifted_matrices(self):
        # dt-example's default lift splits into {x1} and {x2, x1^2}
        _, lpv, _, inputs, _ = _dt_setup()
        tv, _ = bounds_curve(lpv.A, 1.0, inputs)
        ref = _curve_reference(lpv.A, 1.0, inputs)
        assert np.max(np.abs(tv[1:] - ref[1:]) / ref[1:]) <= 1e-15

    @pytest.mark.parametrize("chunk", [1, 7, 50, 1000])
    def test_chunks_keep_bits(self, monkeypatch, chunk):
        import kooplift.bounds as bounds_module

        rng = np.random.default_rng(3)
        reducible, _ = _reducible(rng)
        dense = rng.normal(size=(6, 6)) / 4.0
        inputs = rng.normal(size=(61, 1))
        whole = [bounds_curve(A, 1.0, inputs)[0] for A in (reducible, dense)]
        monkeypatch.setattr(bounds_module, "CURVE_CHUNK_ENTRIES", chunk)
        for A, tv in zip((reducible, dense), whole):
            assert np.array_equal(bounds_curve(A, 1.0, inputs)[0], tv)

    def test_memory_stays_within_chunks(self):
        # 2000 stacked 60x60 powers would hold 57.6 MB; the curve holds one
        # chunk of CURVE_CHUNK_ENTRIES doubles at a time
        import tracemalloc

        from kooplift.bounds import CURVE_CHUNK_ENTRIES

        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(60, 60)))
        A = 0.999 * q
        inputs = np.ones((2001, 1))
        tracemalloc.start()
        try:
            tv, _ = bounds_curve(A, 1.0, inputs, sigma=0.999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * CURVE_CHUNK_ENTRIES
        assert tv[-1] == pytest.approx(sum(0.999**m for m in range(2000)), rel=1e-9)

    @pytest.mark.parametrize("degree", [2, 12, 16, 20])
    def test_skipped_blocks_keep_bits_on_weighted_lifts(self, degree):
        # D = 2 is the default dictionary [x1, x2, x1^2] as [x1, x1^2, x2]
        from kooplift.bounds import _power_norms

        A = _weighted_lift_A(degree)
        assert np.array_equal(_power_norms(A, 100), _per_block_norms(A, 100))

    @pytest.mark.parametrize("chunk", [1, 7, 50, 1000])
    def test_skipped_blocks_keep_bits_in_every_window(self, monkeypatch, chunk):
        import kooplift.bounds as bounds_module

        A, _ = _reducible(np.random.default_rng(3))
        monkeypatch.setattr(bounds_module, "CURVE_CHUNK_ENTRIES", chunk)
        assert np.array_equal(bounds_module._power_norms(A, 60), _per_block_norms(A, 60))

    def test_near_tie_keeps_bits(self):
        # a block and its transpose have equal norms; their computed top
        # singular values may differ in the last bits, and the larger is kept
        from kooplift.bounds import _power_norms

        rng = np.random.default_rng(12)
        M = rng.normal(size=(4, 4))
        M *= 0.9 / np.linalg.norm(M, 2)
        A, _ = _permuted_block_diagonal([M, M.T, 0.5 * M], rng)
        assert np.array_equal(_power_norms(A, 80), _per_block_norms(A, 80))

    def test_brackets_hold_within_the_slack(self):
        # the skipping rests on lower (1 - slack) <= computed sigma_max <=
        # upper (1 + slack), slack = 8 (size + 1)**2 eps; rank-one and
        # one-column matrices have sigma_max equal to a bound, and the tiny
        # and huge scales would underflow or overflow unscaled squares
        from kooplift.bounds import _norm_brackets

        rng = np.random.default_rng(21)
        for size in range(1, 12):
            slack = 8 * (size + 1) ** 2 * np.finfo(float).eps
            column = np.zeros((40, size, size))
            column[:, :, 0] = rng.normal(size=(40, size))
            stacks = [
                rng.normal(size=(40, size, size)),
                rng.normal(size=(40, size, 1)) * rng.normal(size=(40, 1, size)),
                column,
            ]
            for stack in stacks:
                for scale in (1.0, 1e-170, 1e300):
                    M = stack * scale
                    upper, lower = _norm_brackets(M)
                    top = np.linalg.svd(M, compute_uv=False)[:, 0]
                    assert np.all(top <= upper * (1 + slack))
                    assert np.all(lower * (1 - slack) <= top)

    def test_only_candidate_blocks_reach_the_svd(self, monkeypatch):
        # D = 20: 20 blocks, so 2000 block powers over 100 steps
        from kooplift.bounds import _decoupled_blocks, _power_norms

        A = _weighted_lift_A(20)
        assert len(_decoupled_blocks(A)) == 20
        svd = np.linalg.svd
        passed = []

        def counting_svd(a, *args, **kwargs):
            passed.append(int(np.prod(a.shape[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        norms = _power_norms(A, 100)
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert 0 < sum(passed) <= 200
        assert np.array_equal(norms, _per_block_norms(A, 100))

    def test_overflowing_powers_match_without_warning(self):
        # powers of the 1e100 block overflow to inf from m = 4 on, whose SVD
        # is NaN: the curve is the per-block result that ignores the
        # overflows, and no warning is raised
        from kooplift.bounds import _power_norms

        rng = np.random.default_rng(8)
        blocks = [
            np.array([[1e100]]),
            np.array([[0.9, 1.0], [0.0, 0.9]]),
            np.array([[-3.0]]),
        ]
        A, _ = _permuted_block_diagonal(blocks, rng)
        with np.errstate(all="ignore"):
            expected = _per_block_norms(A, 12)
        assert np.isfinite(expected[3]) and np.isnan(expected[4:]).all()
        assert np.array_equal(_power_norms(A, 12), expected, equal_nan=True)
        tv, _ = bounds_curve(A, 1.0, np.ones((13, 1)), sigma=1e100)
        assert np.array_equal(tv[1:], np.cumsum(expected), equal_nan=True)
        # a scaled rotation's powers reach inf - inf = NaN, on which LAPACK
        # does not converge: both curves raise that error
        c, s = np.cos(0.3), np.sin(0.3)
        A, _ = _permuted_block_diagonal(blocks + [1e60 * np.array([[c, -s], [s, c]])], rng)
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            _per_block_norms(A, 12)
        with pytest.raises(np.linalg.LinAlgError):
            _power_norms(A, 12)


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
        report = build_bound_report(lpv, lti, _exact_run(lpv, z0, inputs))
        assert report.valid()
        assert np.all(report.error_norm <= report.timevarying_bound + 1e-12)
        assert report.absolute_bound is not None
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
        report = build_bound_report(lpv, lti, _exact_run(lpv, z0, inputs), beta_scan=scan)
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
        report = build_bound_report(lpv, lti, _exact_run(lpv, z0, inputs))
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
