"""Dynamics containers: domain boxes and decompositions.

The central object is the split of controlled dynamics into a polynomial
autonomous part and an input-driven remainder that vanishes at zero input,

    f_d(x, u) = f(x) + g(x, u),        g(x, 0) = 0.

``g`` is held once, in one of two forms: one polynomial map over (x, u),
which the symbolic lift reads, or, in continuous time, a held-input form
(:class:`HeldInput`) that defines ``g`` and its input Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DimensionError
from .polynomials import PolynomialMap

CONTINUOUS = "continuous"
DISCRETE = "discrete"

# a held form's ray sums are formed this many input rows at a time, so a long
# run never holds the (rows, nodes) values of all its steps at once
RAY_BLOCK_ROWS = 512


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
    """A continuous-time input part ``g(x, u)`` and its input Jacobian, split
    for an input held fixed.

    Under a zero-order hold everything that depends on the input alone is
    fixed across the Runge-Kutta stages of a step, so it is computed once
    per step: ``driven(u)`` returns those values ``h`` for ``g(x, u)`` and
    ``jacobian(u)`` those for ``dg/du(x, u)``; ``driven_at(x, h)`` and
    ``jacobian_at(x, h)`` finish the evaluation at a state. States and
    inputs are tuples of floats and results are flat tuples of floats, the
    Jacobian row-major. These four functions are ``g`` and its Jacobian.

    ``ray_jacobians(U, nodes, weights)`` takes the values for the ray sum
    ``sum_q w_q dg/du(x, nodes_q * u)`` of many held inputs at once: an
    (N, n_u) array of inputs in, an (N, k) float array out, row i being the
    ``h`` that ``jacobian_at`` finishes for input row i, with k the length
    of ``jacobian``'s tuple. Each row must not depend on the other rows, so
    a run's rows give the same bits in any blocking, and must equal the
    node-by-node sum of ``jacobian`` up to rounding. The factorisation and
    the continuous-time LPV kernel both read the ray integral from
    :meth:`ray_table`.
    """

    driven: Callable
    driven_at: Callable
    jacobian: Callable
    ray_jacobians: Callable
    jacobian_at: Callable

    def ray_table(self, inputs: np.ndarray, nodes, weights) -> np.ndarray:
        """Row k: the held ray-sum values of input row k, formed by
        ``ray_jacobians`` ``RAY_BLOCK_ROWS`` rows per call. A row whose
        inputs are all zero takes ``jacobian`` of it instead, ``dg/du(x, 0)``
        itself, since every node of the ray collapses to the origin there."""
        first = self.ray_jacobians(inputs[:RAY_BLOCK_ROWS], nodes, weights)
        table = np.empty((inputs.shape[0], first.shape[1]))
        table[:RAY_BLOCK_ROWS] = first
        for start in range(RAY_BLOCK_ROWS, inputs.shape[0], RAY_BLOCK_ROWS):
            stop = start + RAY_BLOCK_ROWS
            table[start:stop] = self.ray_jacobians(inputs[start:stop], nodes, weights)
        for k in np.flatnonzero(~inputs.any(axis=1)).tolist():
            table[k] = self.jacobian(tuple(inputs[k].tolist()))
        return table


@dataclass
class Decomposition:
    """Autonomous + input-driven split of controlled dynamics.

    ``autonomous`` is the polynomial map ``f`` over the ``n_x`` states. The
    input part ``g`` is given in exactly one form:

    - ``input_polynomial``: one :class:`PolynomialMap` over the ``n_x +
      n_u`` joint variables ``(x, u)``, with ``n_x`` rows and an input
      exponent in every term, so ``g(x, 0) = 0`` holds identically. The
      lift reads it in both time domains;
    - ``input_held``: the :class:`HeldInput` form, continuous time only.
      Construction probes it: it must give ``n_x`` values of ``g`` and
      ``n_x * n_u`` of its Jacobian, and ``g(x, 0) = 0`` exactly at ``x = 0``
      and at ``x = (1, ..., 1)``.

    :meth:`input_driven` evaluates whichever is set.
    """

    n_x: int
    n_u: int
    time_domain: str
    autonomous: PolynomialMap
    input_polynomial: Optional[PolynomialMap] = None
    input_held: Optional[HeldInput] = None
    name: str = "system"

    def __post_init__(self):
        _check_time_domain(self.time_domain)
        f, g, held = self.autonomous, self.input_polynomial, self.input_held
        if not isinstance(f, PolynomialMap):
            raise TypeError("the autonomous part must be a PolynomialMap")
        if f.n_vars != self.n_x or f.n_out != self.n_x:
            raise DimensionError("the autonomous part must map the n_x states to n_x outputs")
        if (g is None) == (held is None):
            raise TypeError("give the input part as exactly one of input_polynomial and input_held")
        if held is not None:
            if self.time_domain == DISCRETE:
                raise TypeError("a discrete-time input part must be input_polynomial")
            x, u = (0.0,) * self.n_x, (0.0,) * self.n_u
            try:
                h = held.driven(u)
                at_rest = [held.driven_at(p, h) for p in (x, (1.0,) * self.n_x)]
                sizes = (*map(len, at_rest), len(held.jacobian_at(x, held.jacobian(u))))
            except (IndexError, ValueError) as exc:
                raise DimensionError(
                    f"input_held fails on n_x states and n_u inputs: {exc}"
                ) from exc
            if sizes != (self.n_x, self.n_x, self.n_x * self.n_u):
                raise DimensionError(
                    "input_held must give n_x values of g and n_x * n_u of its Jacobian"
                )
            if any(v != 0.0 for g0 in at_rest for v in g0):
                raise ValueError(
                    f"input_held must give g(x, 0) = 0; at x = 0 and x = 1 it gives {at_rest}"
                )
        elif g.n_vars != self.n_x + self.n_u or g.n_out != self.n_x:
            raise DimensionError(
                "input_polynomial must map the n_x + n_u joint variables to n_x outputs"
            )
        elif not g.arrays.exps[self.n_x :].any(axis=0).all():
            raise DimensionError("every term of input_polynomial needs an input exponent")

    def input_driven(self, x, u) -> np.ndarray:
        """``g(x, u)``, from whichever form is set."""
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        if self.input_polynomial is not None:
            return self.input_polynomial.evaluate(np.concatenate([x, u]))
        held = self.input_held
        return np.array(held.driven_at(tuple(x.tolist()), held.driven(tuple(u.tolist()))))

    def eval_full(self, x, u) -> np.ndarray:
        return self.autonomous.evaluate(x) + self.input_driven(x, u)


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
    return Decomposition(
        n_x=n_x,
        n_u=n_u,
        time_domain=time_domain,
        autonomous=f,
        input_polynomial=PolynomialMap(n_x + n_u, rows),
        name=name,
    )
