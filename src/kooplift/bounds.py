"""State-response error bounds between exact LPV and approximate LTI models.

With a shared initial lift and input record, the gap e_k between the exact
parameter-varying model and a constant-input-matrix approximation obeys

    e_k = A e_{k-1} + (B_{k-1} - B_hat) u_{k-1},        e_0 = 0.

Its 2-norm is dominated by the partial-sum curve

    ||e_k|| <= beta * ||u||_linf * sum_{m=0}^{k-1} ||A^m||,

where beta is the worst induced-2-norm gap between the scheduled input
matrix and B_hat over the operating set, and, when the largest singular
value of A is below one, by the absolute ceiling

    beta * ||u||_linf / (1 - sigma_max(A)).

beta is evaluated either on a uniform grid over the state/input boxes or
restricted to the points visited by a trajectory (which is enough, and
tight, for validating a specific run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError
from .lifting import LiftedModel
from .lpv import LTIKoopmanModel, lifted_step, lti_step
from .sim import DEFAULT_DIVERGENCE_LIMIT, dt_simulate
from .systems import DISCRETE, DomainBox


def stability_scalars(A: np.ndarray) -> Tuple[float, float]:
    """Spectral radius and largest singular value of a square matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    return rho, sigma


@dataclass
class BetaScan:
    """Result of a worst-case input-matrix gap scan."""

    beta: float
    argmax_state: np.ndarray
    argmax_input: np.ndarray
    n_points: int
    mode: str = "grid"


def _gap_norms(model: LiftedModel, B_hat: np.ndarray, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Induced-2-norm of B(x, u) - B_hat for stacked evaluation points."""
    if model.factored_batch is not None:
        diff = model.factored_batch(X, U) - B_hat[None, :, :]
    else:
        diff = np.stack(
            [model.factored_input(x, u) - B_hat for x, u in zip(X, U)]
        )
    if diff.shape[2] == 1:
        return np.linalg.norm(diff[:, :, 0], axis=1)
    return np.linalg.svd(diff, compute_uv=False)[:, 0]


# largest beta grid (density ** (n_x + n_u) points) a config may ask for:
# the grid is held in memory, about 16 (n_x + n_u) bytes per point, and the
# default density 101 gives 1.03e6 points for n_x + n_u = 3
MAX_GRID_POINTS = 2_000_000


def beta_grid(
    model: LiftedModel,
    B_hat: np.ndarray,
    state_box: DomainBox,
    input_box: DomainBox,
    grid_density: int = 101,
) -> BetaScan:
    """Worst input-matrix gap over a uniform grid of the operating boxes.

    The grid is the Cartesian product of ``grid_density`` points per state
    and input dimension, endpoints included; the reported beta is exactly
    the maximum of the evaluated set.
    """
    B_hat = np.asarray(B_hat, dtype=float)
    axes = state_box.grid(grid_density) + input_box.grid(grid_density)
    if any(a.size == 0 for a in axes):
        raise ValueError("empty grid")
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    n_x = state_box.dim
    beta = -np.inf
    arg = None
    # chunked so the batched path stays cache-friendly on dense grids
    chunk = 200_000
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        norms = _gap_norms(model, B_hat, block[:, :n_x], block[:, n_x:])
        idx = int(np.argmax(norms))
        if norms[idx] > beta:
            beta = float(norms[idx])
            arg = block[idx]
    return BetaScan(
        beta=beta,
        argmax_state=arg[:n_x].copy(),
        argmax_input=arg[n_x:].copy(),
        n_points=points.shape[0],
        mode="grid",
    )


def beta_trajectory(
    model: LiftedModel,
    B_hat: np.ndarray,
    states: np.ndarray,
    inputs: np.ndarray,
) -> BetaScan:
    """Worst input-matrix gap over the points visited by a trajectory.

    Restricting the scan to the observed (x_k, u_k) pairs is exactly what
    the partial-sum bound needs to dominate that run's error.
    """
    B_hat = np.asarray(B_hat, dtype=float)
    X = np.asarray(states, dtype=float)
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = min(X.shape[0], U.shape[0])
    X, U = X[:n], U[:n]
    norms = _gap_norms(model, B_hat, X, U)
    idx = int(np.argmax(norms))
    return BetaScan(
        beta=float(norms[idx]),
        argmax_state=X[idx].copy(),
        argmax_input=U[idx].copy(),
        n_points=n,
        mode="trajectory",
    )


@dataclass
class ErrorEvolution:
    """Lifted-state error between the exact and approximate models."""

    norms: np.ndarray
    norms_recurrence: np.ndarray
    errors: np.ndarray
    exact_states: np.ndarray


def error_trajectory(
    exact: LiftedModel,
    approx: LTIKoopmanModel,
    z0: Sequence[float],
    inputs: np.ndarray,
    n_steps: Optional[int] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
) -> ErrorEvolution:
    """Per-step 2-norm of the model gap from a shared initial lift.

    Simulates both models under the same inputs and also propagates the
    error recurrence directly; the two computations agree up to rounding
    and are both returned. ``divergence_limit`` applies to both simulations
    as in :func:`~kooplift.sim.dt_simulate`.
    """
    if exact.time_domain != DISCRETE or approx.time_domain != DISCRETE:
        raise ValueError("error bounds are formulated for discrete-time models")
    z0 = np.asarray(z0, dtype=float)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_steps is None:
        n_steps = inputs.shape[0] - 1
    selector = list(exact.dictionary.state_selector)
    A, factored = exact.A, exact.factored_input
    # B(x_k, u_k) of each exact step, reused by the error recurrence below
    input_matrices = []

    def recorded(x, u):
        input_matrices.append(factored(x, u))
        return input_matrices[-1]

    exact_traj = dt_simulate(
        lifted_step(A, recorded, selector),
        z0,
        inputs,
        n_steps=n_steps,
        divergence_limit=divergence_limit,
        label="exact-lpv",
        state_selector=selector,
    )
    approx_traj = dt_simulate(
        lti_step(approx.A, approx.B),
        z0,
        inputs,
        n_steps=n_steps,
        divergence_limit=divergence_limit,
        label="approx-lti",
    )
    errors = exact_traj.states - approx_traj.states
    norms = np.linalg.norm(errors, axis=1)

    rec = np.zeros(n_steps + 1)
    e = np.zeros(z0.shape[0])
    for k, Bk in enumerate(input_matrices):
        e = A @ e + (Bk - approx.B) @ inputs[k]
        rec[k + 1] = np.linalg.norm(e)
    return ErrorEvolution(
        norms=norms,
        norms_recurrence=rec,
        errors=errors,
        exact_states=exact_traj.states,
    )


def bounds_curve(
    A: np.ndarray,
    beta: float,
    inputs: np.ndarray,
    n_steps: Optional[int] = None,
) -> Tuple[np.ndarray, Optional[float]]:
    """Partial-sum error bound and, when sigma_max(A) < 1, the absolute one.

    The curve accumulates beta * ||u||_linf * sum of iterated matrix-power
    norms; the absolute ceiling is returned as None when the largest
    singular value of A reaches one, in which case only the time-varying
    curve applies (boundedness still needs rho(A) < 1).
    """
    A = np.asarray(A, dtype=float)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_steps is None:
        n_steps = inputs.shape[0] - 1
    used = inputs[:n_steps]
    u_linf = float(np.max(np.linalg.norm(used, axis=1))) if used.size else 0.0
    _, sigma = stability_scalars(A)

    tv = np.zeros(n_steps + 1)
    power = np.eye(A.shape[0])
    partial = 0.0
    for k in range(1, n_steps + 1):
        # tv[k] uses powers A^0 .. A^{k-1}
        partial += float(np.linalg.svd(power, compute_uv=False)[0])
        tv[k] = beta * u_linf * partial
        power = A @ power
    absolute = beta * u_linf / (1.0 - sigma) if sigma < 1.0 else None
    return tv, absolute


@dataclass
class BoundReport:
    """Bundle of stability scalars, beta, bound curves and observed errors."""

    rho: float
    sigma: float
    beta: float
    u_linf: float
    absolute_bound: Optional[float]
    timevarying_bound: np.ndarray
    error_norm: np.ndarray
    beta_mode: str = "trajectory"
    # the (x, u) point where the scan found beta, when a scan produced it
    beta_argmax_state: Optional[np.ndarray] = None
    beta_argmax_input: Optional[np.ndarray] = None

    @property
    def absolute_applicable(self) -> bool:
        return self.absolute_bound is not None

    def valid(self, slack: float = 1e-12) -> bool:
        """Observed error below the curve, curve below the absolute bound.

        ``slack`` is relative to each bound's scale, taken as at least 1.
        """
        tv = self.timevarying_bound
        ok = bool(np.all(self.error_norm <= tv + slack * max(1.0, float(np.max(tv)))))
        if self.absolute_bound is not None:
            absolute = self.absolute_bound
            ok = ok and bool(np.all(tv <= absolute + slack * max(1.0, absolute)))
        return ok

    def to_document(self, meta: Optional[dict] = None) -> dict:
        doc = {
            "rho_A": self.rho,
            "sigma_A": self.sigma,
            "beta": self.beta,
            "beta_mode": self.beta_mode,
            "beta_argmax_state": None
            if self.beta_argmax_state is None
            else [float(v) for v in self.beta_argmax_state],
            "beta_argmax_input": None
            if self.beta_argmax_input is None
            else [float(v) for v in self.beta_argmax_input],
            "u_linf": self.u_linf,
            "absolute_bound": self.absolute_bound
            if self.absolute_bound is not None
            else "not applicable (sigma_max(A) >= 1)",
            "k": list(range(self.error_norm.shape[0])),
            "error_norm": [float(v) for v in self.error_norm],
            "tv_bound": [float(v) for v in self.timevarying_bound],
        }
        if meta:
            doc["meta"] = meta
        return doc

    def csv_rows(self) -> List[List[float]]:
        return [
            [k, float(e), float(tv)]
            for k, (e, tv) in enumerate(zip(self.error_norm, self.timevarying_bound))
        ]


def build_bound_report(
    exact: LiftedModel,
    approx: LTIKoopmanModel,
    z0: Sequence[float],
    inputs: np.ndarray,
    n_steps: Optional[int] = None,
    beta_scan: Optional[BetaScan] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
) -> BoundReport:
    """Evaluate the error bounds for one run.

    Without an explicit ``beta_scan`` the gap is scanned along the exact
    model's own trajectory, which is sufficient for the bound to hold on
    that run.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_steps is None:
        n_steps = inputs.shape[0] - 1
    evolution = error_trajectory(
        exact, approx, z0, inputs, n_steps=n_steps, divergence_limit=divergence_limit
    )
    if beta_scan is None:
        selector = list(exact.dictionary.state_selector)
        beta_scan = beta_trajectory(
            exact,
            approx.B,
            evolution.exact_states[:-1, selector],
            inputs[:n_steps],
        )
    tv, absolute = bounds_curve(exact.A, beta_scan.beta, inputs, n_steps=n_steps)
    rho, sigma = stability_scalars(exact.A)
    used = inputs[:n_steps]
    u_linf = float(np.max(np.linalg.norm(used, axis=1))) if used.size else 0.0
    return BoundReport(
        rho=rho,
        sigma=sigma,
        beta=beta_scan.beta,
        u_linf=u_linf,
        absolute_bound=absolute,
        timevarying_bound=tv,
        error_norm=evolution.norms,
        beta_mode=beta_scan.mode,
        beta_argmax_state=beta_scan.argmax_state,
        beta_argmax_input=beta_scan.argmax_input,
    )
