"""Dynamics containers: domain boxes and decompositions.

The central object is the split of controlled dynamics into a polynomial
autonomous part and an input-driven remainder that vanishes at zero input,

    f_d(x, u) = f(x) + g(x, u),        g(x, 0) = 0.

A polynomial ``g`` is kept as one map over (x, u), which the symbolic lift
reads; a continuous-time ``g`` may instead be a callable with its input
Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DimensionError
from .polynomials import PolynomialMap

CONTINUOUS = "continuous"
DISCRETE = "discrete"


def _check_time_domain(time_domain: str) -> str:
    if time_domain not in (CONTINUOUS, DISCRETE):
        raise ValueError(
            f"time_domain must be '{CONTINUOUS}' or '{DISCRETE}', got {time_domain!r}"
        )
    return time_domain


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box, used as the operating set for states or inputs."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape:
            raise DimensionError("box bounds must have matching shapes")
        if np.any(lower > upper):
            raise ValueError("box lower bounds must not exceed upper bounds")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, point: Sequence[float], atol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(
            np.all(p >= self.lower - atol) and np.all(p <= self.upper + atol)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def grid(self, density: int) -> List[np.ndarray]:
        """Per-dimension uniform grids with ``density`` points, endpoints included."""
        if density < 1:
            raise ValueError("grid density must be positive")
        if density == 1:
            return [np.array([0.5 * (lo + hi)]) for lo, hi in zip(self.lower, self.upper)]
        return [
            np.linspace(lo, hi, density) for lo, hi in zip(self.lower, self.upper)
        ]

    @classmethod
    def from_envelope(cls, points: np.ndarray, inflate: float = 0.1) -> "DomainBox":
        """Smallest box around observed points, inflated by a relative margin."""
        pts = np.asarray(points, dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        pad = inflate * np.maximum(hi - lo, 1e-12)
        return cls(lo - pad, hi + pad)


@dataclass(frozen=True)
class HeldInput:
    """The input-driven part and its input Jacobian with the input held fixed.

    Under a zero-order hold everything that depends on the input alone is
    fixed across the Runge-Kutta stages of a step, so it is computed once
    per step: ``driven(u)`` returns those values ``h`` for ``g(x, u)`` and
    ``jacobian(u)`` those for ``dg/du(x, u)``; ``driven_at(x, h)`` and
    ``jacobian_at(x, h)`` finish the evaluation at a state. States and
    inputs are tuples of floats and results are flat tuples of floats, the
    Jacobian row-major. They must equal ``input_driven`` and
    ``input_jacobian`` bit for bit.

    ``ray_jacobians(U, nodes, weights)`` takes the values for the ray sum
    ``sum_q w_q dg/du(x, nodes_q * u)`` of many held inputs at once: an
    (N, n_u) array of inputs in, an (N, k) float array out, row i being the
    ``h`` that ``jacobian_at`` finishes for input row i, with k the length
    of ``jacobian``'s tuple. Each row must not depend on the other rows, so
    a run's rows give the same bits in any blocking, and must equal the
    node-by-node sum of ``input_jacobian`` up to rounding: the factorisation
    and the continuous-time LPV kernel both take the ray integral from it.
    """

    driven: Callable
    driven_at: Callable
    jacobian: Callable
    ray_jacobians: Callable
    jacobian_at: Callable


@dataclass
class Decomposition:
    """Autonomous + input-driven split of controlled dynamics.

    ``autonomous`` is the polynomial map ``f`` over the ``n_x`` states and
    ``input_driven`` a callable ``(x, u) -> dx`` with ``input_driven(x, 0) =
    0``. A polynomial input part is also held as ``input_polynomial``:
    ``g(x, u)`` as one :class:`PolynomialMap` over the ``n_x + n_u`` joint
    variables ``(x, u)``, with ``n_x`` rows and an input exponent in every
    term, so ``g(x, 0) = 0`` holds identically. The lift reads it in both
    time domains, and a discrete-time decomposition must have it. A
    continuous-time input without it is taken through the callables, which
    then need the input Jacobian ``input_jacobian(x, u)``.
    """

    n_x: int
    n_u: int
    time_domain: str
    autonomous: PolynomialMap
    input_driven: Callable[[np.ndarray, np.ndarray], np.ndarray]
    input_jacobian: Optional[Callable] = None
    # optional held-input form of input_driven and input_jacobian (see
    # HeldInput); purely a fast path for the factorisation's ray integral and
    # the continuous-time simulation kernels, which it lets skip numpy calls
    input_held: Optional[HeldInput] = None
    input_polynomial: Optional[PolynomialMap] = None
    name: str = "system"

    def __post_init__(self):
        _check_time_domain(self.time_domain)
        f, g = self.autonomous, self.input_polynomial
        if not isinstance(f, PolynomialMap):
            raise TypeError("the autonomous part must be a PolynomialMap")
        if f.n_vars != self.n_x or f.n_out != self.n_x:
            raise DimensionError("the autonomous part must map the n_x states to n_x outputs")
        if g is None:
            if self.time_domain == DISCRETE:
                raise TypeError("a discrete-time decomposition needs input_polynomial")
            if self.input_jacobian is None:
                raise TypeError("an input part without input_polynomial needs input_jacobian")
        else:
            if g.n_vars != self.n_x + self.n_u or g.n_out != self.n_x:
                raise DimensionError(
                    "input_polynomial must map the n_x + n_u joint variables to n_x outputs"
                )
            if not g.arrays.exps[self.n_x :].any(axis=0).all():
                raise DimensionError("every term of input_polynomial needs an input exponent")
        if self.input_held is not None and self.input_jacobian is None:
            raise ValueError("input_held needs the input_jacobian it mirrors")

    def eval_full(self, x, u) -> np.ndarray:
        return self.autonomous.evaluate(x) + np.asarray(self.input_driven(x, u), dtype=float)


def control_affine_decomposition(
    f: PolynomialMap,
    g_columns: Sequence[PolynomialMap],
    time_domain: str,
    name: str = "control-affine",
) -> Decomposition:
    """Decomposition of ``f(x) + G(x) u`` with polynomial ``f`` and ``G``.

    Column ``j`` of ``G`` enters ``input_polynomial`` with ``u_j`` to the
    first power in each of its terms.
    """
    g_columns = list(g_columns)
    n_x = f.n_out
    n_u = len(g_columns)
    if any(col.n_out != n_x or col.n_vars != n_x for col in g_columns):
        raise DimensionError("control-affine columns must map the state to n_x outputs")
    rows = [{} for _ in range(n_x)]
    for j, column in enumerate(g_columns):
        unit = tuple(int(k == j) for k in range(n_u))
        for row, terms in zip(rows, column.rows):
            row.update((exps + unit, c) for exps, c in terms.items())

    def input_driven(x, u):
        G = np.stack([col.evaluate(x) for col in g_columns], axis=1)
        return G @ np.asarray(u, dtype=float)

    return Decomposition(
        n_x=n_x,
        n_u=n_u,
        time_domain=time_domain,
        autonomous=f,
        input_driven=input_driven,
        input_polynomial=PolynomialMap(n_x + n_u, rows),
        name=name,
    )
