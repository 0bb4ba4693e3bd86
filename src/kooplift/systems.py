"""Dynamics containers: black-box oracles, domain boxes and decompositions.

The central object is the split of controlled dynamics into an autonomous
part and an input-driven remainder that vanishes at zero input,

    f_d(x, u) = f(x) + g(x, u),        g(x, 0) = 0,

which always exists (take f(x) = f_d(x, 0)). Systems built from explicit
polynomial pieces keep them, enabling the exact symbolic lifting path;
everything else goes through callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainEvaluationError
from .polynomials import PolynomialMap
from .quadrature import central_difference

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


class DynamicsOracle:
    """Black-box evaluatable dynamics ``f_d(x, u)``.

    ``input_jacobian`` returns the n_x-by-n_u Jacobian with respect to the
    input; when absent, :func:`decompose` leaves the input-driven part to
    central finite differences.
    """

    def __init__(
        self,
        n_x: int,
        n_u: int,
        eval: Callable[[np.ndarray, np.ndarray], np.ndarray],
        input_jacobian: Optional[Callable] = None,
        time_domain: str = CONTINUOUS,
        name: str = "oracle",
    ):
        self.n_x = int(n_x)
        self.n_u = int(n_u)
        self.eval = eval
        self.input_jacobian = input_jacobian
        self.time_domain = _check_time_domain(time_domain)
        self.name = name

    def __call__(self, x, u) -> np.ndarray:
        return np.asarray(self.eval(x, u), dtype=float)

    def __repr__(self):
        return (
            f"DynamicsOracle({self.name}, n_x={self.n_x}, n_u={self.n_u}, "
            f"{self.time_domain})"
        )


@dataclass(frozen=True)
class HeldInput:
    """The input-driven part and its input Jacobian with the input held fixed.

    Under a zero-order hold everything that depends on the input alone is
    fixed across the Runge-Kutta stages of a step, so it is computed once
    per step: ``driven(u)`` returns those values ``h`` for ``g(x, u)`` and
    ``jacobian(u, nodes, weights)`` those for the ray sum
    ``sum_q w_q dg/du(x, nodes_q * u)``, or for ``dg/du(x, u)`` itself when
    ``nodes`` is None. ``driven_at(x, h)`` and ``jacobian_at(x, h)`` finish
    the evaluation at a state. States and inputs are tuples of floats and
    results are flat tuples of floats, the Jacobian row-major. The results
    must equal ``input_driven`` and ``input_jacobian`` bit for bit, and the
    ray sum the node-by-node sum of ``input_jacobian`` up to rounding: the
    factorisation takes its ray integral from this form when it is present.
    """

    driven: Callable
    driven_at: Callable
    jacobian: Callable
    jacobian_at: Callable


@dataclass
class Decomposition:
    """Autonomous + input-driven split of controlled dynamics.

    ``autonomous`` is a :class:`PolynomialMap` (exact path) or a callable
    ``x -> dx``; ``input_driven`` is a callable ``(x, u) -> dx`` satisfying
    ``input_driven(x, 0) = 0``. For control-affine systems with polynomial
    input maps, ``control_affine_columns`` holds one PolynomialMap per input
    channel so the lifting can stay symbolic.
    """

    n_x: int
    n_u: int
    time_domain: str
    autonomous: object
    input_driven: Callable[[np.ndarray, np.ndarray], np.ndarray]
    input_jacobian: Optional[Callable] = None
    # optional held-input form of input_driven and input_jacobian (see
    # HeldInput); purely a fast path for the factorisation's ray integral and
    # the continuous-time simulation kernels, which it lets skip numpy calls
    input_held: Optional[HeldInput] = None
    control_affine_columns: Optional[List[PolynomialMap]] = None
    state_box: Optional[DomainBox] = None
    input_box: Optional[DomainBox] = None
    name: str = "system"

    def __post_init__(self):
        _check_time_domain(self.time_domain)
        if self.input_held is not None and self.input_jacobian is None:
            raise ValueError("input_held needs the input_jacobian it mirrors")
        if self.control_affine_columns is not None:
            if len(self.control_affine_columns) != self.n_u:
                raise DimensionError(
                    "need one control-affine column per input channel"
                )
            for col in self.control_affine_columns:
                if col.n_out != self.n_x or col.n_vars != self.n_x:
                    raise DimensionError(
                        "control-affine columns must map the state to n_x outputs"
                    )

    @property
    def autonomous_is_polynomial(self) -> bool:
        return isinstance(self.autonomous, PolynomialMap)

    def eval_autonomous(self, x) -> np.ndarray:
        if self.autonomous_is_polynomial:
            return self.autonomous.evaluate(x)
        return np.asarray(self.autonomous(x), dtype=float)

    def eval_input_driven(self, x, u) -> np.ndarray:
        return np.asarray(self.input_driven(x, u), dtype=float)

    def eval_full(self, x, u) -> np.ndarray:
        return self.eval_autonomous(x) + self.eval_input_driven(x, u)

    def input_jacobian_at(self, x, u) -> np.ndarray:
        if self.input_jacobian is not None:
            return np.asarray(self.input_jacobian(x, u), dtype=float)
        return central_difference(lambda v: self.input_driven(x, v), u)


def decompose(f_d: DynamicsOracle) -> Decomposition:
    """Split an oracle into autonomous and input-driven parts.

    The split evaluates ``f_d(x, 0)`` for the autonomous part and
    ``f_d(x, u) - f_d(x, 0)`` for the remainder, so ``g(x, 0) = 0`` holds
    bitwise. Evaluation failures at zero input are reported with the
    offending state.
    """
    zero_u = np.zeros(f_d.n_u)

    def autonomous(x):
        try:
            value = np.asarray(f_d.eval(x, zero_u), dtype=float)
        except Exception as exc:  # noqa: BLE001 - reported with context
            raise DomainEvaluationError(
                f"dynamics of {f_d.name!r} undefined at u=0 for x={np.asarray(x)!r}",
                point=np.asarray(x, dtype=float),
            ) from exc
        return value

    def input_driven(x, u):
        return np.asarray(f_d.eval(x, u), dtype=float) - autonomous(x)

    return Decomposition(
        n_x=f_d.n_x,
        n_u=f_d.n_u,
        time_domain=f_d.time_domain,
        autonomous=autonomous,
        input_driven=input_driven,
        # d/du [f_d(x,u) - f_d(x,0)] = d/du f_d(x,u)
        input_jacobian=f_d.input_jacobian,
        name=f_d.name,
    )


def control_affine_decomposition(
    f: PolynomialMap,
    g_columns: Sequence[PolynomialMap],
    time_domain: str,
    state_box: Optional[DomainBox] = None,
    input_box: Optional[DomainBox] = None,
    name: str = "control-affine",
) -> Decomposition:
    """Decomposition of ``f(x) + G(x) u`` with polynomial ``f`` and ``G``."""
    g_columns = list(g_columns)
    n_x = f.n_out
    n_u = len(g_columns)

    def input_driven(x, u):
        G = np.stack([col.evaluate(x) for col in g_columns], axis=1)
        return G @ np.asarray(u, dtype=float)

    def input_jacobian(x, u):
        return np.stack([col.evaluate(x) for col in g_columns], axis=1)

    return Decomposition(
        n_x=n_x,
        n_u=n_u,
        time_domain=_check_time_domain(time_domain),
        autonomous=f,
        input_driven=input_driven,
        input_jacobian=input_jacobian,
        control_affine_columns=g_columns,
        state_box=state_box,
        input_box=input_box,
        name=name,
    )
