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
tight, for validating a specific run). Either way it is a maximum over
sampled points: over a whole box it estimates the supremum from below, so
the bounds built on it are not certified for the box.

Each ||A^m|| is taken block by block: A is block diagonal, up to a
permutation, over the connected components of its coupling graph, and the
largest singular value of A^m is the largest over its blocks. Only the
blocks that can hold that largest value get an SVD: a block whose Frobenius
norm is below another block's largest column norm, with a slack for
rounding and for LAPACK's error, is skipped. The largest value is a
selection among the blocks that remain, so the curve keeps the bits of one
SVD per block power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DimensionError, NumericEvaluationError
from .lifting import LiftedModel
from .lpv import LTIKoopmanModel, lti_step
from .sim import DEFAULT_DIVERGENCE_LIMIT, Trajectory, dt_simulate
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
    diff = model.factored_batch(X, U) - B_hat[None, :, :]
    if diff.shape[2] == 1:
        return np.linalg.norm(diff[:, :, 0], axis=1)
    return np.linalg.svd(diff, compute_uv=False)[:, 0]


def _check_finite(norms: np.ndarray, X: np.ndarray, U: np.ndarray, offset: int = 0) -> None:
    """Raise on the first gap norm that is not finite: ``np.argmax`` would
    take a NaN as the maximum and no comparison with it holds."""
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        k = int(bad[0])
        raise NumericEvaluationError(
            f"input-matrix gap ||B(x, u) - B_hat|| is not finite ({norms[k]}) at point {offset + k} "
            f"(x={X[k].tolist()}, u={U[k].tolist()})",
            index=offset + k,
        )


# largest beta grid (density ** (n_x + n_u) points) a config may ask for; the
# default density 101 gives 1.03e6 points for n_x + n_u = 3. The scan holds
# one chunk of points at a time, so this caps its run time, not its memory.
MAX_GRID_POINTS = 2_000_000

# grid points generated and evaluated at a time
GRID_CHUNK_POINTS = 200_000


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
    the maximum of the evaluated set. Points are taken in row-major order of
    the product (the order of ``np.meshgrid(..., indexing="ij")`` raveled)
    and generated chunk by chunk from their flat indices, so memory stays
    proportional to ``GRID_CHUNK_POINTS``; the first point reaching the
    maximum is reported. A gap norm that is not finite raises
    :class:`NumericEvaluationError` naming its point.
    """
    B_hat = np.asarray(B_hat, dtype=float)
    axes = state_box.grid(grid_density) + input_box.grid(grid_density)
    if any(a.size == 0 for a in axes):
        raise ValueError("empty grid")
    shape = tuple(a.size for a in axes)
    n_points = math.prod(shape)
    n_x = state_box.dim
    beta = -np.inf
    arg = None
    for start in range(0, n_points, GRID_CHUNK_POINTS):
        flat = np.arange(start, min(start + GRID_CHUNK_POINTS, n_points))
        block = np.stack(
            [axis[i] for axis, i in zip(axes, np.unravel_index(flat, shape))], axis=1
        )
        norms = _gap_norms(model, B_hat, block[:, :n_x], block[:, n_x:])
        _check_finite(norms, block[:, :n_x], block[:, n_x:], start)
        idx = int(np.argmax(norms))
        if norms[idx] > beta:
            beta = float(norms[idx])
            arg = block[idx]
    return BetaScan(
        beta=beta,
        argmax_state=arg[:n_x].copy(),
        argmax_input=arg[n_x:].copy(),
        n_points=n_points,
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
    the partial-sum bound needs to dominate that run's error. A gap norm
    that is not finite raises :class:`NumericEvaluationError`.
    """
    B_hat = np.asarray(B_hat, dtype=float)
    X = np.asarray(states, dtype=float)
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = min(X.shape[0], U.shape[0])
    X, U = X[:n], U[:n]
    norms = _gap_norms(model, B_hat, X, U)
    _check_finite(norms, X, U)
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
    errors: np.ndarray


def error_trajectory(
    exact: LiftedModel,
    approx: LTIKoopmanModel,
    exact_run: Trajectory,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
) -> ErrorEvolution:
    """Per-step 2-norm of the model gap along a run of the exact model.

    ``exact_run`` is the lifted trajectory of ``exact`` (``simulate_lpv``).
    The approximate model is simulated from the same initial lift under the
    same inputs, and the gap is the difference of the two runs. Its run
    holds the dictionary's state coordinates to ``divergence_limit`` and
    needs the others finite, the rule of the exact run.
    """
    if exact.time_domain != DISCRETE or approx.time_domain != DISCRETE:
        raise ValueError("error bounds are formulated for discrete-time models")
    n_steps = exact_run.states.shape[0] - 1
    approx_traj = dt_simulate(
        lti_step(approx.A, approx.B),
        exact_run.states[0],
        exact_run.inputs,
        n_steps=n_steps,
        divergence_limit=divergence_limit,
        label="approx-lti",
        state_selector=list(exact.dictionary.state_selector),
    )
    errors = exact_run.states - approx_traj.states
    return ErrorEvolution(norms=np.linalg.norm(errors, axis=1), errors=errors)


def _input_linf(inputs: np.ndarray, n_steps: int) -> float:
    """Largest 2-norm among the first ``n_steps`` input vectors (0 for none)."""
    used = inputs[:n_steps]
    return float(np.max(np.linalg.norm(used, axis=1))) if used.size else 0.0


# matrix entries of block powers, over all block sizes, held at a time;
# 131072 float64 entries are 1 MiB
CURVE_CHUNK_ENTRIES = 131_072


def _decoupled_blocks(A: np.ndarray) -> List[np.ndarray]:
    """Sorted index sets of the connected components of A's coupling graph.

    Indices i and j are coupled when A[i, j] or A[j, i] is nonzero, so A is
    block diagonal over the returned sets up to a permutation, and so is
    every power of A. The sets come in the order of their smallest index.
    """
    coupled = (A != 0) | (A.T != 0)
    n = A.shape[0]
    # each index takes the smallest label among its own and its neighbours',
    # then its label's label, until no label moves; every component then
    # carries its smallest index
    label = np.arange(n)
    while True:
        moved = np.minimum(label, np.where(coupled, label, n).min(axis=1, initial=n))
        moved = moved[moved]
        if (moved == label).all():
            roots = np.flatnonzero(label == np.arange(n))
            return [np.flatnonzero(label == root) for root in roots]
        label = moved


def _norm_brackets(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Frobenius norm and largest column 2-norm of each matrix in a stack.

    They bracket the largest singular value from above and below. Each
    matrix is scaled by its largest entry before squaring, so no square
    overflows and none that matters underflows; a matrix holding an infinity
    or a NaN gets NaN brackets.
    """
    q = np.abs(stack)
    scale = q.max(axis=(-2, -1))
    scale[scale == 0] = 1.0
    q /= scale[..., None, None]
    q *= q
    columns = q.sum(axis=-2)
    return scale * np.sqrt(columns.sum(axis=-1)), scale * np.sqrt(columns.max(axis=-1))


def _power_norms(A: np.ndarray, n_powers: int) -> np.ndarray:
    """||A^m||_2 for m = 0 .. n_powers - 1, taken block by block.

    The singular values of a permuted block-diagonal matrix are the union of
    its blocks' singular values, so each ||A^m||_2 is the largest over the
    blocks of :func:`_decoupled_blocks`. Blocks of one size are stacked and
    advance together through the recurrence ``power = A_b @ power``; a
    window of powers of every size group, at most ``CURVE_CHUNK_ENTRIES``
    entries in all, is held at a time.

    Only the block powers that can hold the maximum go to an SVD. For each
    power m, every block's Frobenius norm bounds its top singular value from
    above and its largest column 2-norm from below (:func:`_norm_brackets`);
    a block whose upper bound, raised by ``slack``, is below the largest
    lower bound at that m, lowered by ``slack``, is skipped. ``slack`` is
    ``8 (size + 1)**2 eps`` for the largest block order ``size``. The
    rounding of both bounds (scaling, squaring, two sums, a square root and
    the rescaling) stays under ``2 size + 8`` half-ulps, and the rest covers
    LAPACK's error bound ``p(size) eps ||M||_2`` on a top singular value,
    ``p`` a modestly growing function. So a skipped block's computed
    singular value lies below the one computed for the block with the
    largest lower bound, and the maximum, a selection, keeps its bits. A NaN
    or infinite bound skips nothing. Each kept matrix still gets its own
    product and LAPACK call, and a matrix that is one block runs the
    recurrence on A itself with no bounds, so its norms keep the bits of one
    SVD per full power. Overflowing powers give inf or NaN norms without a
    warning; a NaN power stops LAPACK with ``LinAlgError``, as it would
    without the skipping.
    """
    norms = np.zeros(n_powers)
    blocks = _decoupled_blocks(A)
    groups = []
    for size in sorted({idx.size for idx in blocks}):
        idx = np.stack([b for b in blocks if b.size == size])
        groups.append(A[None] if size == A.shape[0] else A[idx[:, :, None], idx[:, None, :]])
    slack = 8 * (groups[-1].shape[-1] + 1) ** 2 * np.finfo(float).eps
    per_chunk = max(1, CURVE_CHUNK_ENTRIES // sum(group.size for group in groups))
    rows = min(per_chunk, n_powers)
    # one allocation holds every group's stack: a dozen small ones would stay
    # on the heap and raise the process's peak resident memory
    sizes = [rows * group.size for group in groups]
    parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    stacks = [part.reshape((rows,) + group.shape) for part, group in zip(parts, groups)]
    powers = [np.repeat(np.eye(group.shape[1])[None], len(group), axis=0) for group in groups]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_powers, per_chunk):
            count = min(per_chunk, n_powers - start)
            windows = [stack[:count] for stack in stacks]
            for k, (group, window) in enumerate(zip(groups, windows)):
                window[0] = powers[k]
                for previous, current in zip(window, window[1:]):
                    np.matmul(group, previous, out=current)
                if start + count < n_powers:
                    powers[k] = group @ window[-1]
            if len(blocks) == 1:
                norms[start : start + count] = np.linalg.svd(windows[0], compute_uv=False)[:, 0, 0]
                continue
            upper, lower = zip(*map(_norm_brackets, windows))
            reach = np.max([bound.max(axis=1) for bound in lower], axis=0) * (1 - slack)
            for window, bound in zip(windows, upper):
                m, b = np.nonzero(~(bound * (1 + slack) < reach[:, None]))
                top = np.linalg.svd(window[m, b], compute_uv=False)[:, 0]
                np.maximum.at(norms, start + m, top)
    return norms


def bounds_curve(
    A: np.ndarray,
    beta: float,
    inputs: np.ndarray,
    n_steps: Optional[int] = None,
    sigma: Optional[float] = None,
) -> Tuple[np.ndarray, Optional[float]]:
    """Partial-sum error bound and, when sigma_max(A) < 1, the absolute one.

    The curve accumulates beta * ||u||_linf * sum of iterated matrix-power
    norms (:func:`_power_norms`); the absolute ceiling is returned as None
    when the largest singular value of A reaches one, in which case only the
    time-varying curve applies (boundedness still needs rho(A) < 1).
    ``n_steps`` (default: one fewer than the input rows) must lie in
    ``0 .. len(inputs)``, since ||u||_linf is taken over the inputs the
    steps use. ``sigma`` is that singular value when the caller already has
    it from :func:`stability_scalars`.
    """
    A = np.asarray(A, dtype=float)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_steps is None:
        n_steps = inputs.shape[0] - 1
    if not 0 <= n_steps <= inputs.shape[0]:
        raise DimensionError(
            f"n_steps must lie in 0 .. {inputs.shape[0]} (the input rows), got {n_steps}"
        )
    u_linf = _input_linf(inputs, n_steps)
    if sigma is None:
        _, sigma = stability_scalars(A)

    # tv[k] uses powers A^0 .. A^{k-1}
    tv = np.zeros(n_steps + 1)
    tv[1:] = beta * u_linf * np.cumsum(_power_norms(A, n_steps))
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
    exact_run: Trajectory,
    beta_scan: Optional[BetaScan] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
) -> BoundReport:
    """Evaluate the error bounds along one run of the exact model.

    ``exact_run`` is as in :func:`error_trajectory`.
    Without an explicit ``beta_scan`` the gap is scanned along that run,
    which is sufficient for the bound to hold on it.
    """
    inputs = exact_run.inputs
    n_steps = exact_run.states.shape[0] - 1
    evolution = error_trajectory(exact, approx, exact_run, divergence_limit=divergence_limit)
    if beta_scan is None:
        selector = list(exact.dictionary.state_selector)
        beta_scan = beta_trajectory(
            exact,
            approx.B,
            exact_run.states[:-1, selector],
            inputs[:n_steps],
        )
    rho, sigma = stability_scalars(exact.A)
    tv, absolute = bounds_curve(
        exact.A, beta_scan.beta, inputs, n_steps=n_steps, sigma=sigma
    )
    return BoundReport(
        rho=rho,
        sigma=sigma,
        beta=beta_scan.beta,
        u_linf=_input_linf(inputs, n_steps),
        absolute_bound=absolute,
        timevarying_bound=tv,
        error_norm=evolution.norms,
        beta_mode=beta_scan.mode,
        beta_argmax_state=beta_scan.argmax_state,
        beta_argmax_input=beta_scan.argmax_input,
    )
