"""The benchmark's workloads: their inputs, one pass, and the checks on it.

A workload is a list of operations, each one call of a ``kooplift.cli``
entry point that writes its files into its own directory. One pass runs
every operation once, in order; the benchmark times the pass and then
checks what each operation returned and wrote. Checks use the
benchmark's own computations (a reference RK4, monomial evaluation,
closed-form matrices, least squares) or properties the method must have;
none compares against stored outputs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from math import comb
from pathlib import Path

import numpy as np

DEFAULT_SEED = 715

# ct-exact: continuous-time horizon in seconds at the presets' Ts = 1e-4
CT_HORIZON_SECONDS = 0.5
# dt-lift-scale: weighted degrees D of {x1^a x2^b : a + 2b <= D}; n_f = 48, 80, 120
LIFT_LADDER = (12, 16, 20)
LIFT_GRID_DENSITY = 5
# at the presets' variance of 0.5 the lifted coordinates x1^20 and x2^10 pass
# the simulations' divergence limit of 1e12 on about one seed in eight
LIFT_NOISE_VARIANCE = 0.1
LIFT_SAMPLE_POINTS = 4
SWEEP_DEGREES = (2, 20)

# the built-in default dictionary [x1, x2, x1^2], in its order
DEFAULT_DICTIONARY = ((1, 0), (0, 1), (2, 0))

# dt-example and ct-example coefficients, written out from their equations
DT_A1, DT_A2, DT_A3 = 0.7, 0.7, 0.5
CT_MU, CT_LAM = -0.05, -1.0


class Operation:
    """One entry-point call of a pass."""

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def file_digests(directory: Path) -> dict:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def read_csv(path: Path):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def weighted_monomials(degree: int):
    """Exponents (a, b) with 0 < a + 2b <= degree."""
    return [
        (a, b)
        for b in range(degree // 2 + 1)
        for a in range(degree - 2 * b + 1)
        if a + b
    ]


def full_monomials(degree: int):
    """Exponents of total degree 1..degree, graded, x1-major within a degree."""
    return [(a, d - a) for d in range(1, degree + 1) for a in range(d, -1, -1)]


def lift_points(exponents, X):
    """Phi(x) = [x1^a x2^b] at each row of X (shape (N, 2))."""
    E = np.asarray(exponents, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X[:, None, 0] ** E[None, :, 0] * X[:, None, 1] ** E[None, :, 1]


def closed_form_A(exponents):
    """A of dt-example for a dictionary closed under its autonomous map.

    (x1^a x2^b)(f(x)) = sum_i C(b, i) a1^a a2^(b-i) (-a3)^i x1^(a+2i) x2^(b-i).
    """
    index = {e: k for k, e in enumerate(exponents)}
    A = np.zeros((len(exponents), len(exponents)))
    for row, (a, b) in enumerate(exponents):
        for i in range(b + 1):
            col = index[(a + 2 * i, b - i)]
            A[row, col] = comb(b, i) * DT_A1**a * DT_A2 ** (b - i) * (-DT_A3) ** i
    return A


def dt_example_step(x, u):
    x1, x2 = x
    return np.array([DT_A1 * x1 + u, DT_A2 * x2 - DT_A3 * x1 * x1 + x1 * x1 * u])


def dt_example_step_magnitude(x, u):
    """The successor with every term taken by magnitude.

    Phi of this point is the sum of the magnitudes of the expanded terms of
    Phi(f(x) + g(x)u), which bounds the rounding in any evaluation of it.
    """
    x1, x2, u = abs(x[0]), abs(x[1]), abs(u)
    return np.array([DT_A1 * x1 + u, DT_A2 * x2 + DT_A3 * x1 * x1 + x1 * x1 * u])


def ct_reference_rk4(x0, inputs, ts):
    """Classical RK4 of ct-example with the input held over each step."""

    def rhs(x1, x2, u1, u2):
        return (
            CT_MU * x1 + x1 * math.expm1(u1),
            CT_LAM * (x2 - x1 * x1) + u1 * u2 + x2 * math.expm1(u2),
        )

    x1, x2 = float(x0[0]), float(x0[1])
    out = [(x1, x2)]
    half, sixth = 0.5 * ts, ts / 6.0
    for u1, u2 in inputs[:-1].tolist():
        a1, a2 = rhs(x1, x2, u1, u2)
        b1, b2 = rhs(x1 + half * a1, x2 + half * a2, u1, u2)
        c1, c2 = rhs(x1 + half * b1, x2 + half * b2, u1, u2)
        d1, d2 = rhs(x1 + ts * c1, x2 + ts * c2, u1, u2)
        x1 += sixth * (a1 + 2.0 * (b1 + c1) + d1)
        x2 += sixth * (a2 + 2.0 * (b2 + c2) + d2)
        out.append((x1, x2))
    return np.array(out)


def _trajectory_csv_matches(path: Path, trajectory, failures, label):
    header, rows = read_csv(path)
    n_x = trajectory.states.shape[1]
    n_u = trajectory.inputs.shape[1]
    expected = ["t"] + [f"x{i + 1}" for i in range(n_x)] + [f"u{j + 1}" for j in range(n_u)]
    if header != expected:
        failures.append(f"{label}: header {header} != {expected}")
        return
    values = np.array([[float(v) for v in row] for row in rows])
    recorded = np.hstack([trajectory.times[:, None], trajectory.states, trajectory.inputs])
    if values.shape != recorded.shape or not np.array_equal(values, recorded):
        failures.append(f"{label}: CSV does not parse back to the simulated values")


class Workload:
    name = ""

    def __init__(self, kooplift, seed: int, work_dir: Path):
        self.kl = kooplift
        self.cli = kooplift.cli
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.operations = []
        self._digests = {}

    def out(self, op_name: str) -> str:
        return str(self.work_dir / op_name)

    def _runner(self, entry, cfg, name):
        # looked up at call time, so a traced pass sees the wrapped entry point
        return lambda: getattr(self.cli, entry)(cfg, out_dir=self.out(name))

    def check(self, op: Operation, result) -> list:
        """Failures of one operation's outputs, including drift between passes."""
        failures = op.check(result, Path(self.out(op.name)))
        digests = file_digests(Path(self.out(op.name)))
        first = self._digests.setdefault(op.name, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests) if first.get(k) != digests.get(k))
            failures.append(f"files differ from the first pass: {changed}")
        return failures


class CtExact(Workload):
    """Both continuous-time presets through run_simulate, shortened horizon."""

    name = "ct-exact"

    def __init__(self, kooplift, seed, work_dir):
        super().__init__(kooplift, seed, work_dir)
        for preset in ("ct-example-whitenoise", "ct-example-multisine"):
            ((_, _, cfg),) = self.cli.preset_runs(preset)
            cfg = {**cfg, "seed": self.seed, "horizon_seconds": CT_HORIZON_SECONDS}
            self.operations.append(
                Operation(preset, self._runner("run_simulate", cfg, preset), self._check)
            )

    def _check(self, result, out: Path) -> list:
        failures = []
        nonlinear = result["trajectories"]["nonlinear"]
        lpv = result["trajectories"]["koopman_lpv"]
        eps = nonlinear.states - lpv.states
        l2 = np.sqrt(np.sum(eps * eps, axis=0))
        linf = np.max(np.abs(eps), axis=0)
        if not (np.all(l2 <= 1e-9) and np.all(linf <= 1e-11)):
            failures.append(f"LPV vs nonlinear l2 {l2.tolist()} linf {linf.tolist()}")
        ts = float(result["meta"]["ts"])
        reference = ct_reference_rk4(nonlinear.states[0], nonlinear.inputs, ts)
        scale = max(1.0, float(np.max(np.abs(reference))))
        gap = float(np.max(np.abs(reference - nonlinear.states)))
        if gap > 1e-12 * scale:
            failures.append(f"nonlinear trajectory is {gap:.3e} from the reference RK4")
        _trajectory_csv_matches(out / "traj_nonlinear.csv", nonlinear, failures, "nonlinear")
        _trajectory_csv_matches(out / "traj_koopman_lpv.csv", lpv, failures, "koopman_lpv")
        return failures


class DtDegreeSweep(Workload):
    """The degree-sweep preset for both excitations through run_edmd."""

    name = "dt-degree-sweep"

    def __init__(self, kooplift, seed, work_dir):
        super().__init__(kooplift, seed, work_dir)
        for label, _, cfg in self.cli.preset_runs("degree-sweep"):
            cfg = {**cfg, "seed": self.seed}
            self.operations.append(
                Operation(label, self._runner("run_edmd", cfg, label), self._check)
            )

    def _check(self, result, out: Path) -> list:
        failures = []
        header, rows = read_csv(out / "sweep.csv")
        if header != ["degree", "alpha", "l2_e1", "l2_e2", "diverged"]:
            return [f"sweep.csv header {header}"]
        rows = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), int(r[4])) for r in rows]
        _, baselines = read_csv(out / "sweep_baselines.csv")
        exact = next((b for b in baselines if b[0] == "exact_lpv"), None)
        if exact is None:
            return failures + ["sweep_baselines.csv has no exact_lpv row"]
        exact_e1, exact_e2 = float(exact[3]), float(exact[4])
        if exact_e1 != 0.0:
            failures.append(f"exact LPV state-1 error {exact_e1!r} is not 0")

        lo, hi = SWEEP_DEGREES
        by_degree = {}
        for row in rows:
            by_degree.setdefault(row[0], []).append(row)
        if sorted(by_degree) != list(range(lo, hi + 1)):
            failures.append(f"sweep degrees {sorted(by_degree)}")
        for degree, found in sorted(by_degree.items()):
            if len(found) != 2 or found[0][1] != 0.0:
                failures.append(f"degree {degree}: rows {found}")
                continue
            plain, searched = found
            if not plain[4] and not (searched[2] + searched[3] <= plain[2] + plain[3]):
                failures.append(f"degree {degree}: searched row costs more than alpha = 0")
            for row in found:
                if not row[4] and not row[3] > 1e6 * exact_e2:
                    failures.append(f"degree {degree}: l2_e2 {row[3]!r} near the exact LPV")
        failures += self._check_degree_two(out, by_degree.get(2, []))
        return failures

    def _check_degree_two(self, out: Path, rows) -> list:
        """Own least squares at degree 2 against edmd_full and the sweep row."""
        _, traj = read_csv(out / "traj_nonlinear.csv")
        values = np.array([[float(v) for v in row] for row in traj])
        X, U = values[:, 1:3], values[:, 3:4]
        exponents = full_monomials(2)
        Z = lift_points(exponents, X)
        Y = np.hstack([Z[:-1], U[:-1]])
        own_T, *_ = np.linalg.lstsq(Y, Z[1:], rcond=None)
        own = own_T.T
        n_f = len(exponents)
        data = self.kl.SnapshotData(Z=Z[:-1].T, Zp=Z[1:].T, U=U[:-1].T)
        A_full, B_full = self.kl.edmd_full(data)
        library = np.hstack([A_full, B_full])
        failures = []
        if not np.allclose(library, own, rtol=0, atol=1e-8 * np.max(np.abs(own))):
            gap = float(np.max(np.abs(library - own)))
            failures.append(f"degree 2: edmd_full differs from own least squares by {gap:.3e}")
        A, B = own[:, :n_f], own[:, n_f:]
        z = Z[0].copy()
        states = [z[:2].copy()]
        for k in range(X.shape[0] - 1):
            z = A @ z + B @ U[k]
            states.append(z[:2].copy())
        err = X - np.array(states)
        own_l2 = np.sqrt(np.sum(err * err, axis=0))
        if not rows or rows[0][4]:
            return failures + ["degree 2: no finite alpha = 0 row"]
        reported = np.array(rows[0][2:4])
        # state 1 is fitted to rounding level, where only an absolute scale means anything
        atol = 1e-9 * float(np.linalg.norm(X))
        if not np.allclose(reported, own_l2, rtol=1e-6, atol=atol):
            failures.append(f"degree 2: sweep l2 {reported.tolist()} vs own {own_l2.tolist()}")
        return failures


class DtLiftScale(Workload):
    """Exact lifts of dt-example on weighted-degree dictionaries of growing size."""

    name = "dt-lift-scale"

    def __init__(self, kooplift, seed, work_dir):
        super().__init__(kooplift, seed, work_dir)
        ((_, _, base),) = self.cli.preset_runs("dt-example-whitenoise")
        base = {
            **base,
            "seed": self.seed,
            "signals": [{"kind": "white_noise", "variance": LIFT_NOISE_VARIANCE}],
        }
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 2])))
        self.samples = (
            rng.uniform(-1.5, 1.5, size=(LIFT_SAMPLE_POINTS, 2)),
            rng.uniform(-1.0, 1.0, size=(LIFT_SAMPLE_POINTS, 1)),
        )
        for degree in LIFT_LADDER:
            exponents = weighted_monomials(degree)
            closed = closed_form_A(exponents)
            cfg = {**base, "dictionary": {"monomials": [list(e) for e in exponents]}}
            self.operations += [
                Operation(
                    f"lift-D{degree}",
                    self._runner("run_lift", cfg, f"lift-D{degree}"),
                    self._lift_check(exponents, closed),
                ),
                Operation(
                    f"bounds-trajectory-D{degree}",
                    self._runner(
                        "run_bounds",
                        {**cfg, "bounds": {"mode": "trajectory"}},
                        f"bounds-trajectory-D{degree}",
                    ),
                    self._bounds_check(exponents),
                ),
                Operation(
                    f"bounds-grid-D{degree}",
                    self._runner(
                        "run_bounds",
                        {**cfg, "bounds": {"mode": "grid", "grid_density": LIFT_GRID_DENSITY}},
                        f"bounds-grid-D{degree}",
                    ),
                    self._bounds_check(exponents),
                ),
            ]
        # the bounds preset at the default dictionary, where sigma_max(A) < 1
        for label, _, cfg in self.cli.preset_runs("bounds"):
            name = f"bounds-preset-{label}"
            self.operations.append(
                Operation(
                    name,
                    self._runner("run_bounds", {**cfg, "seed": self.seed}, name),
                    self._bounds_check(DEFAULT_DICTIONARY, absolute=True),
                )
            )

    def _lift_check(self, exponents, closed):
        def check(result, out: Path) -> list:
            failures = []
            lifted, lpv = result["lifted"], result["lpv"]
            if lifted.residual != 0.0:
                failures.append(f"span residual {lifted.residual!r} is not 0")
            A = np.asarray(lifted.A)
            if A.shape != closed.shape:
                return failures + [f"A has shape {A.shape}, closed form {closed.shape}"]
            structure = (A != 0) != (closed != 0)
            if structure.any() or not np.allclose(A, closed, rtol=1e-13, atol=0):
                gap = float(np.max(np.abs(A - closed)))
                failures.append(f"A differs from the closed form by {gap:.3e}")
            X, U = self.samples
            for x, u in zip(X, U):
                successor = lift_points(exponents, dt_example_step(x, u[0]))[0]
                phi = lift_points(exponents, x)[0]
                B = np.asarray(lpv.factored_input(x, u))
                rhs = A @ phi + B @ u
                scale = lift_points(exponents, dt_example_step_magnitude(x, u[0]))[0]
                if np.any(np.abs(successor - rhs) > 1e-12 * scale):
                    failures.append(f"Phi(f(x) + g(x)u) != A Phi(x) + B(x,u)u at x={x}, u={u}")
            return failures

        return check

    def _bounds_check(self, exponents, absolute=False):
        def check(result, out: Path) -> list:
            failures = []
            report, base = result["report"], result["base"]
            lpv = base["lpv"]
            B_hat = base["fitted"]["koopman_lti_edmdc"].B
            inputs = base["inputs"]
            nonlinear = base["trajectories"]["nonlinear"].states

            _, rows = read_csv(out / "bounds.csv")
            error = np.array([float(r[1]) for r in rows])
            tv = np.array([float(r[2]) for r in rows])
            slack = 1e-12 * float(np.max(tv))
            if not np.all(error <= tv + slack):
                k = int(np.argmax(error - tv))
                failures.append(f"||e_k|| above the bound curve at k={k}")
            if absolute:
                if report.absolute_bound is None or not report.sigma < 1.0:
                    failures.append("absolute bound not applicable")
                elif not np.all(tv <= report.absolute_bound + slack):
                    failures.append("bound curve above the absolute bound")

            lifted, _ = self.kl.simulate_lpv(lpv, x0=nonlinear[0], inputs=inputs)
            phi = lift_points(exponents, nonlinear)
            # rounding grows with the largest coordinate of each lifted state
            scale = np.maximum(np.max(np.abs(phi), axis=1, keepdims=True), 1.0)
            if not np.all(np.abs(lifted.states - phi) <= 1e-10 * scale):
                gap = float(np.max(np.abs(lifted.states - phi) / scale))
                failures.append(f"lifted LPV states are {gap:.3e} from Phi(x_k)")

            if report.beta_mode == "grid":
                scan = self.kl.beta_grid(
                    lpv,
                    B_hat,
                    self.kl.DomainBox.from_envelope(nonlinear),
                    self.kl.DomainBox.from_envelope(inputs),
                    LIFT_GRID_DENSITY,
                )
            else:
                states = lifted.states[:-1, list(lpv.dictionary.state_selector)]
                scan = self.kl.beta_trajectory(lpv, B_hat, states, inputs[:-1])
            if scan.beta != report.beta:
                failures.append(f"beta {report.beta!r} != rescanned {scan.beta!r}")
            gap = np.asarray(lpv.factored_input(scan.argmax_state, scan.argmax_input)) - B_hat
            at_argmax = float(np.linalg.norm(gap, 2))
            if not abs(at_argmax - report.beta) <= 1e-12 * report.beta:
                failures.append(f"beta {report.beta!r} != gap norm {at_argmax!r} at its argmax")
            return failures

        return check


WORKLOADS = {cls.name: cls for cls in (CtExact, DtDegreeSweep, DtLiftScale)}
