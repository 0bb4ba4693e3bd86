"""Dynamics containers: domain boxes and decompositions.

The central object is the split of controlled dynamics into a polynomial
autonomous part and an input-driven remainder that vanishes at zero input,

    f_d(x, u) = f(x) + g(x, u),        g(x, 0) = 0.

``g`` is held once, as one polynomial map over the joint variables
(x, u, E): the states, the inputs and, in continuous time, the input
features E_k = expm1(d_k u_{j_k}). Every term carries an input exponent or
exactly one feature to the first power, so g(x, 0) = 0 holds term by term.
The symbolic lift reads the map in both time domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionError
from .polynomials import PolynomialMap

CONTINUOUS = "continuous"
DISCRETE = "discrete"


def expm1(z: float) -> float:
    """``math.expm1(z)``, with inf where that overflows (z above about
    709.78) instead of an OverflowError, so such an input diverges like any
    other. The numpy path and the generated kernels take every input feature
    from this one function, so the two agree bit for bit."""
    try:
        return math.expm1(z)
    except OverflowError:
        return math.inf


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


@dataclass
class Decomposition:
    """Autonomous + input-driven split of controlled dynamics.

    ``autonomous`` is the polynomial map ``f`` over the ``n_x`` states.
    ``input_polynomial`` is ``g``: one :class:`PolynomialMap` with ``n_x``
    rows over the joint variables ``(x, u, E)``, the ``n_x`` states, the
    ``n_u`` inputs and one feature per entry ``(j, d)`` of
    ``exponentials``, ``E_k = expm1(d u_j)`` (continuous time only). Every
    term has an input exponent or one ``E`` factor to the first power, not
    both, so ``g(x, 0) = 0`` holds identically.

    :meth:`features` gives, per held input, the features ``E_k`` or the
    factors ``F_k = d phi1(d u_j)`` that the lift's ``B(x, u)`` carries in
    their place, with ``phi1(z) = expm1(z) / z`` and ``phi1(0) = 1``; it
    forms only the kind asked for.
    """

    n_x: int
    n_u: int
    time_domain: str
    autonomous: PolynomialMap
    input_polynomial: PolynomialMap
    exponentials: Tuple[Tuple[int, float], ...] = ()
    name: str = "system"

    def __post_init__(self):
        _check_time_domain(self.time_domain)
        f, g = self.autonomous, self.input_polynomial
        if not isinstance(f, PolynomialMap):
            raise TypeError("the autonomous part must be a PolynomialMap")
        if not isinstance(g, PolynomialMap):
            raise TypeError("the input part input_polynomial must be a PolynomialMap")
        if f.n_vars != self.n_x or f.n_out != self.n_x:
            raise DimensionError("the autonomous part must map the n_x states to n_x outputs")
        self.exponentials = tuple((int(j), float(d)) for j, d in self.exponentials)
        if self.exponentials and self.time_domain == DISCRETE:
            raise TypeError(
                "exponential input features are continuous-time only: a discrete-time "
                "composition would multiply expm1 factors"
            )
        for j, d in self.exponentials:
            if not 0 <= j < self.n_u:
                raise DimensionError(f"an exponential feature reads input {j} of {self.n_u}")
            if not math.isfinite(d) or d == 0.0:
                raise ValueError(f"an exponential feature needs a finite nonzero rate, got {d}")
        n_in = self.n_x + self.n_u
        if g.n_vars != n_in + len(self.exponentials) or g.n_out != self.n_x:
            raise DimensionError(
                "input_polynomial must map the joint variables (n_x states, n_u inputs, "
                "one per exponential feature) to n_x outputs"
            )
        exps = g.arrays.exps
        powers, count = exps[n_in:], (exps[n_in:] > 0).sum(axis=0)
        driven = exps[self.n_x : n_in].any(axis=0)
        for bad, message in (
            (powers.max(axis=0, initial=0) > 1, "takes an exponential feature squared"),
            (count > 1, "multiplies two exponential features"),
            (driven & (count > 0), "has an input exponent and an exponential feature"),
            (~driven & (count == 0), "needs an input exponent or one exponential feature"),
        ):
            if bad.any():
                term = tuple(exps[:, int(np.argmax(bad))].tolist())
                raise DimensionError(f"a term of input_polynomial {message}: exponents {term}")

    def features(self, u: Sequence[float], feature: int = 0) -> List[float]:
        """``E_k = expm1(z_k)`` (``feature`` 0), or ``F_k = d_k (E_k / z_k)``,
        and ``d_k`` at ``z_k = 0`` (1), with ``z_k = d_k u_{j_k}``, of the
        input ``u`` (a sequence of floats). ``F_k u_{j_k} = E_k``."""
        if not feature:
            return [expm1(d * u[j]) for j, d in self.exponentials]
        F = []
        for j, d in self.exponentials:
            z = d * u[j]
            F.append(d * (expm1(z) / z) if z else d)
        return F

    def joint(self, x, u, feature: int = 0) -> np.ndarray:
        """The point ``[x; u; E]`` (``feature`` 0) or ``[x; u; F]`` (1) at
        which maps over the joint variables are evaluated."""
        u = np.asarray(u, dtype=float).tolist()
        return np.array(np.asarray(x, dtype=float).tolist() + u + self.features(u, feature))

    def joint_batch(self, X, U, feature: int = 0) -> np.ndarray:
        """:meth:`joint` of the point rows of ``X`` and ``U``, as rows."""
        U = np.asarray(U, dtype=float)
        parts = [np.asarray(X, dtype=float), U]
        if self.exponentials:
            rows = [self.features(u, feature) for u in U.tolist()]
            parts.append(np.array(rows, dtype=float).reshape(U.shape[0], len(self.exponentials)))
        return np.hstack(parts)

    def input_driven(self, x, u) -> np.ndarray:
        """``g(x, u)``."""
        return self.input_polynomial.evaluate(self.joint(x, u))

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
