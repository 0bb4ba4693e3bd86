"""Least-squares fitting of constant lifted matrices from snapshot data.

Two estimators are provided: an input-matrix-only fit that keeps an
analytically derived state-transition matrix fixed,

    B_hat = (Z+ - A Z) U^+,

and the Tikhonov-regularised fit of both matrices,

    [A B] = Z+ Y^T (Y Y^T + alpha I)^-1,       Y = [Z; U],

with a grid search helper that picks alpha by a simulation-error cost.
Every alpha, 0 included, is read off one thin SVD Y = U_Y S V_Y^T, cached
on the snapshot set, through the filter factors s / (s^2 + alpha) (Hansen,
Rank-Deficient and Discrete Ill-Posed Problems, 1998):

    [A B] = (Z+ V_Y) diag(s / (s^2 + alpha)) U_Y^T,

so an alpha grid costs one factorisation and never forms the
squared-conditioned Gramian. alpha = 0 is the least-squares fit: its
filter s / (s * s) is zeroed wherever s <= sqrt((n_f + n_u) * eps) * s_max,
the cutoff a Gramian pseudoinverse applies to s^2. Every fit of a grid
shares Z+ V_Y and U_Y, so the search hands its objective the filter rows,
one per distinct filter, instead of fits: an objective can simulate all of
them in the SVD's coordinates without forming any (A, B). U^+ uses an SVD
cutoff of max(m, n) * eps relative to the largest singular value.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dictionaries import ObservableDictionary
from .errors import DimensionError, DivergenceError, NumericEvaluationError
from .sim import Trajectory

log = logging.getLogger(__name__)

_EPS = float(np.finfo(float).eps)


@dataclass
class SnapshotData:
    """Aligned lifted snapshots: Z holds Phi(x_k), Zp holds Phi(x_{k+1}).

    The matrices are private read-only copies, so the SVD that Tikhonov
    fits cache on the instance always describes the data it holds.
    """

    Z: np.ndarray
    Zp: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        self.Z = _frozen(self.Z)
        self.Zp = _frozen(self.Zp)
        self.U = _frozen(np.atleast_2d(np.asarray(self.U, dtype=float)))
        if not (self.Z.shape[1] == self.Zp.shape[1] == self.U.shape[1]):
            raise DimensionError(
                "snapshot matrices must share the column count, got "
                f"{self.Z.shape[1]}, {self.Zp.shape[1]}, {self.U.shape[1]}"
            )
        if self.Z.shape[0] != self.Zp.shape[0]:
            raise DimensionError("Z and Z+ must have the same lifted dimension")
        self._svd: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def n_f(self) -> int:
        return self.Z.shape[0]

    @property
    def n_u(self) -> int:
        return self.U.shape[0]

    def leading(self, n_f: int) -> "SnapshotData":
        """The snapshots of the first ``n_f`` observables only (``self`` when
        that is all of them)."""
        if n_f == self.n_f:
            return self
        return SnapshotData(Z=self.Z[:n_f], Zp=self.Zp[:n_f], U=self.U)

    def tikhonov_svd(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U_Y, s, Z+ V_Y) of the thin SVD Y = U_Y diag(s) V_Y^T, Y = [Z; U].

        Computed on the first call and cached. Non-finite snapshots, or a
        largest singular value whose square overflows, raise
        :class:`NumericEvaluationError`: no filter s / (s^2 + alpha) can be
        formed from them.
        """
        if self._svd is None:
            Y = np.vstack([self.Z, self.U])
            if not (np.isfinite(Y).all() and np.isfinite(self.Zp).all()):
                raise NumericEvaluationError("snapshot matrices hold non-finite values")
            U_Y, s, Vt_Y = np.linalg.svd(Y, full_matrices=False)
            # a Python float product overflows to inf without a warning
            if s.size and not np.isfinite(float(s[0]) * float(s[0])):
                raise NumericEvaluationError(
                    f"largest singular value {s[0]:.3e} of the snapshots squares "
                    "past the float range; the fit cannot be formed"
                )
            self._svd = (U_Y, s, self.Zp @ Vt_Y.T)
        return self._svd


def _frozen(M) -> np.ndarray:
    """A read-only float copy of ``M``."""
    M = np.array(M, dtype=float)
    M.setflags(write=False)
    return M


def build_snapshots(
    trajectory: Trajectory, dictionary: ObservableDictionary
) -> SnapshotData:
    """Lift a trajectory into shifted snapshot pairs.

    A trajectory with R recorded states yields R - 1 columns; the inputs
    exclude the final sample, which is never applied.
    """
    if trajectory.states.shape[0] < 2:
        raise DimensionError("need at least two states to form snapshot pairs")
    if trajectory.inputs is None:
        raise DimensionError("trajectory carries no inputs")
    lifted = dictionary.evaluate_batch(trajectory.states)
    return SnapshotData(
        Z=lifted[:-1].T,
        Zp=lifted[1:].T,
        U=trajectory.inputs[:-1].T,
    )


def _pinv(M: np.ndarray) -> Tuple[np.ndarray, int]:
    """SVD pseudoinverse with cutoff max(shape) * eps * sigma_max."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(M.shape[::-1]), 0
    cutoff = max(M.shape) * _EPS * s[0]
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * inv_s) @ U.T, rank


def edmdc_input_fit(
    data: SnapshotData, A: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Least-squares input matrix with the state-transition matrix fixed.

    Returns (B_hat, residual) where the residual is the Frobenius norm of
    Z+ - A Z - B_hat U. A rank-deficient input record yields the
    minimum-norm solution and is logged.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (data.n_f, data.n_f):
        raise DimensionError(
            f"A of shape {A.shape} does not match the lifted dimension {data.n_f}"
        )
    if not np.any(data.U):
        raise ValueError("input record is identically zero; cannot fit B")
    U_pinv, rank = _pinv(data.U)
    if rank < data.n_u:
        log.info(
            "input record has rank %d < %d; returning the minimum-norm fit",
            rank,
            data.n_u,
        )
    target = data.Zp - A @ data.Z
    B_hat = target @ U_pinv
    residual = float(np.linalg.norm(target - B_hat @ data.U))
    return B_hat, residual


def edmd_full(data: SnapshotData) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of both lifted matrices: ``edmd_tikhonov(data, 0.0)``."""
    return edmd_tikhonov(data, 0.0)


def edmd_tikhonov(
    data: SnapshotData, alpha: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Tikhonov-regularised fit: [A B] = Z+ Y^T (Y Y^T + alpha I)^-1.

    The fit is (Z+ V_Y) diag(s / (s^2 + alpha)) U_Y^T from the snapshot
    set's cached SVD; alpha = 0 drops the singular values at or below
    sqrt((n_f + n_u) * eps) * s_max.
    """
    if alpha < 0:
        raise ValueError(f"regularisation weight must be non-negative, got {alpha}")
    U_Y, _, W = data.tikhonov_svd()
    fit = (W * _filters(data, np.array([alpha], dtype=float))[0]) @ U_Y.T
    return fit[:, : data.n_f], fit[:, data.n_f :]


def _filters(data: SnapshotData, alphas: np.ndarray) -> np.ndarray:
    """The (M, r) filter factors s / (s^2 + alpha), one row per alpha; a row
    of alpha = 0 is 0 wherever s <= sqrt((n_f + n_u) * eps) * s_max."""
    s = data.tikhonov_svd()[1]
    cutoff = np.sqrt((data.n_f + data.n_u) * _EPS) * s[:1]
    denominators = s * s + alphas[:, None]
    filters = np.zeros(denominators.shape)
    return np.divide(
        s, denominators, out=filters, where=(s > cutoff) | (alphas[:, None] > 0)
    )


@dataclass
class AlphaSearchResult:
    best_alpha: float
    costs: List[dict]


def default_alpha_grid() -> np.ndarray:
    """{0} plus one alpha per decade over [1e-15, 1e20], ascending."""
    return np.concatenate(([0.0], np.logspace(-15.0, 20.0, 36)))


def alpha_grid_search(
    data: SnapshotData,
    grid: Sequence[float],
    objective: Callable[[List[float], np.ndarray], Sequence[float]],
) -> AlphaSearchResult:
    """Pick the regularisation weight minimising a simulation-error cost.

    ``objective(alphas, filters)`` returns one cost per candidate for the
    ascending alphas and their (M, r) filter rows: the fit of row f is
    (Z+ V_Y) diag(f) U_Y^T, from ``data.tikhonov_svd()``. A non-finite cost
    marks the candidate as divergent instead of aborting the sweep. Alphas
    with the same filter share one fit, so only the smallest of them is
    handed on, and every grid alpha gets its cost in ``costs``. Ties break
    toward smaller alpha; if every candidate diverges an error lists them
    all.
    """
    grid = sorted(float(a) for a in grid)
    if not grid:
        raise ValueError("alpha grid is empty")
    if grid[0] < 0:
        raise ValueError(f"regularisation weight must be non-negative, got {grid[0]}")
    filters = _filters(data, np.array(grid))
    # the candidate each grid alpha shares its fit with, and the candidates
    # as indices into the grid
    group = {}
    shared = [group.setdefault(f.tobytes(), i) for i, f in enumerate(filters)]
    candidates = list(group.values())
    costs = objective([grid[i] for i in candidates], filters[candidates])
    cost_of = dict(zip(candidates, map(float, costs), strict=True))
    rows: List[dict] = []
    best_alpha = None
    best_cost = np.inf
    for alpha, i in zip(grid, shared):
        cost = cost_of[i]
        diverged = not np.isfinite(cost)
        rows.append({"alpha": alpha, "cost": cost, "diverged": diverged})
        if not diverged and cost < best_cost:
            best_alpha = alpha
            best_cost = cost
    if best_alpha is None:
        raise DivergenceError(
            "every candidate diverged: "
            + ", ".join(f"{row['alpha']:g}" for row in rows),
            step=None,
        )
    return AlphaSearchResult(best_alpha=best_alpha, costs=rows)
