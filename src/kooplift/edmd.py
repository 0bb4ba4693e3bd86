"""Least-squares fitting of constant lifted matrices from snapshot data.

Three estimators are provided: an input-matrix-only fit that keeps an
analytically derived state-transition matrix fixed,

    B_hat = (Z+ - A Z) U^+,

the full normal-equation fit of both matrices for larger datasets,

    [A B] = (Z+ Y^T)(Y Y^T)^+,       Y = [Z; U],

and its Tikhonov-regularised variant

    [A B] = Z+ Y^T (Y Y^T + alpha I)^-1,

with a grid search helper that picks alpha by a simulation-error cost.
For alpha > 0 the Tikhonov fit is read off one thin SVD Y = U_Y S V_Y^T,
computed on the first such fit and cached on the snapshot set, through
the filter factors s / (s^2 + alpha) (Hansen, Rank-Deficient and Discrete
Ill-Posed Problems, 1998):

    [A B] = (Z+ V_Y) diag(s / (s^2 + alpha)) U_Y^T,

so a whole alpha grid costs one factorisation and a matrix product per
grid point, and never forms the squared-conditioned Gramian. alpha = 0
stays the pseudoinverse of the normal equations, as in the full fit.
Pseudoinverses use an SVD cutoff of max(m, n) * eps relative to the largest
singular value.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dictionaries import ObservableDictionary
from .errors import DimensionError, DivergenceError
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

    @property
    def n_samples(self) -> int:
        return self.Z.shape[1]

    def tikhonov_svd(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U_Y, s, Z+ V_Y) of the thin SVD Y = U_Y diag(s) V_Y^T, Y = [Z; U].

        Computed on the first call and cached.
        """
        if self._svd is None:
            U_Y, s, Vt_Y = np.linalg.svd(
                np.vstack([self.Z, self.U]), full_matrices=False
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
    """Normal-equation fit of both lifted matrices: [A B] = (Z+ Y^T)(Y Y^T)^+."""
    Y = np.vstack([data.Z, data.U])
    G = Y @ Y.T
    V = data.Zp @ Y.T
    G_pinv, rank = _pinv(G)
    if rank < G.shape[0]:
        log.info("snapshot Gramian is rank deficient (rank %d < %d)", rank, G.shape[0])
    AB = V @ G_pinv
    return AB[:, : data.n_f], AB[:, data.n_f :]


def edmd_tikhonov(
    data: SnapshotData, alpha: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Tikhonov-regularised fit: [A B] = Z+ Y^T (Y Y^T + alpha I)^-1.

    For alpha > 0 the fit is (Z+ V_Y) diag(s / (s^2 + alpha)) U_Y^T from
    the snapshot set's cached SVD. alpha = 0 reduces to :func:`edmd_full`;
    with a singular Gramian the inverse is then a pseudoinverse.
    """
    if alpha < 0:
        raise ValueError(f"regularisation weight must be non-negative, got {alpha}")
    if alpha == 0.0:
        return edmd_full(data)
    U_Y, s, W = data.tikhonov_svd()
    AB = (W * (s / (s * s + alpha))) @ U_Y.T
    return AB[:, : data.n_f], AB[:, data.n_f :]


@dataclass
class AlphaSearchResult:
    best_alpha: float
    costs: List[dict]

    def cost_at(self, alpha: float) -> float:
        for row in self.costs:
            if row["alpha"] == alpha:
                return row["cost"]
        raise KeyError(f"alpha {alpha} not in the search grid")


def default_alpha_grid(per_decade: int = 1) -> np.ndarray:
    """{0} plus a logarithmic grid over [1e-15, 1e20], ascending."""
    count = 35 * per_decade + 1
    return np.concatenate(([0.0], np.logspace(-15.0, 20.0, count)))


def alpha_grid_search(
    data: SnapshotData,
    grid: Sequence[float],
    objective: Callable[[float, Tuple[np.ndarray, np.ndarray]], float],
) -> AlphaSearchResult:
    """Pick the regularisation weight minimising a simulation-error cost.

    ``objective(alpha, (A, B))`` returns the cost of the fitted model and
    may raise :class:`DivergenceError`, which marks the grid point as
    divergent instead of aborting the sweep. Ties break toward smaller
    alpha; if every candidate diverges an error lists them all.
    """
    grid = sorted(float(a) for a in grid)
    if not grid:
        raise ValueError("alpha grid is empty")
    rows: List[dict] = []
    best_alpha = None
    best_cost = np.inf
    for alpha in grid:
        fit = edmd_tikhonov(data, alpha)
        try:
            cost = float(objective(alpha, fit))
            diverged = not np.isfinite(cost)
        except DivergenceError:
            cost = np.inf
            diverged = True
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
