"""Built-in benchmark systems, loadable by name from the CLI and tests.

``ct-example`` is a continuous-time system with a polynomial autonomous
part and exponential input coupling,

    dx1/dt = coef_mu * x1 - x1 + x1 * exp(u1)
    dx2/dt = coef_lam * (x2 - x1^2) - x2 + u1 * u2 + x2 * exp(u2)

``dt-example`` is a discrete-time control-affine polynomial system,

    x1+ = a1 * x1            + u
    x2+ = a2 * x2 - a3 * x1^2 + x1^2 * u

Both are exactly liftable with the dictionary [x1, x2, x1^2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .dictionaries import Monomial, ObservableDictionary
from .polynomials import PolynomialMap
from .systems import (
    CONTINUOUS,
    DISCRETE,
    Decomposition,
    DomainBox,
    HeldInput,
    control_affine_decomposition,
)


@dataclass
class SystemBundle:
    """A named system with its default dictionary and operating boxes."""

    name: str
    time_domain: str
    decomposition: Decomposition
    dictionary: ObservableDictionary
    state_box: DomainBox
    input_box: DomainBox
    coefficients: Dict[str, float]

    @property
    def n_x(self) -> int:
        return self.decomposition.n_x

    @property
    def n_u(self) -> int:
        return self.decomposition.n_u


def _default_dictionary() -> ObservableDictionary:
    return ObservableDictionary(
        2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))]
    )


def ct_example(coef_mu: float = -0.05, coef_lam: float = -1.0) -> SystemBundle:
    """Continuous-time benchmark with exponential input nonlinearities."""
    f_c = PolynomialMap(
        2,
        [
            {(1, 0): coef_mu},
            {(0, 1): coef_lam, (2, 0): -coef_lam},
        ],
    )

    # g(x, u) and its input Jacobian, defined with the input held: the
    # input-only factors first, then the products and sums at the state
    def held_driven(u):
        # expm1 keeps x*exp(u) - x accurate near u = 0
        return (math.expm1(u[0]), math.expm1(u[1]), u[0] * u[1])

    def held_driven_at(x, h):
        return (x[0] * h[0], h[2] + x[1] * h[1])

    def held_jacobian(u):
        return (math.exp(u[0]), math.exp(u[1]), u[1], u[0])

    def held_ray_jacobians(U, nodes, weights):
        # weighted node sums of dg/du(x, nodes_q * u), one row per input row;
        # only the exp entries vary with the node. numpy hands each stacked
        # (1, q) @ (q, 1) product to the dot routine that the 1-D
        # weights @ exp(nodes * u) uses, so every row has the bits of the
        # one-input sum whatever the number of rows
        half = weights @ nodes
        column = weights[:, None]
        rays = np.empty((U.shape[0], 4))
        for j in range(2):
            E = np.exp(np.multiply.outer(U[:, j], nodes))
            rays[:, j] = (E[:, None, :] @ column)[:, 0, 0]
        rays[:, 2] = half * U[:, 1]
        rays[:, 3] = half * U[:, 0]
        return rays

    def held_jacobian_at(x, h):
        return (x[0] * h[0], 0.0, h[2], h[3] + x[1] * h[1])

    state_box = DomainBox([-2.0, -2.0], [2.0, 2.0])
    input_box = DomainBox([-1.0, -1.0], [1.0, 1.0])
    decomposition = Decomposition(
        n_x=2,
        n_u=2,
        time_domain=CONTINUOUS,
        autonomous=f_c,
        input_held=HeldInput(
            driven=held_driven,
            driven_at=held_driven_at,
            jacobian=held_jacobian,
            ray_jacobians=held_ray_jacobians,
            jacobian_at=held_jacobian_at,
        ),
        name="ct-example",
    )

    return SystemBundle(
        name="ct-example",
        time_domain=CONTINUOUS,
        decomposition=decomposition,
        dictionary=_default_dictionary(),
        state_box=state_box,
        input_box=input_box,
        coefficients={"coef_mu": coef_mu, "coef_lam": coef_lam},
    )


def dt_example(a1: float = 0.7, a2: float = 0.7, a3: float = 0.5) -> SystemBundle:
    """Discrete-time control-affine polynomial benchmark."""
    f = PolynomialMap(
        2,
        [
            {(1, 0): a1},
            {(0, 1): a2, (2, 0): -a3},
        ],
    )
    g_col = PolynomialMap(2, [{(0, 0): 1.0}, {(2, 0): 1.0}])
    state_box = DomainBox([-2.0, -2.0], [2.0, 2.0])
    input_box = DomainBox([-1.0], [1.0])
    decomposition = control_affine_decomposition(
        f, [g_col], DISCRETE, name="dt-example"
    )
    return SystemBundle(
        name="dt-example",
        time_domain=DISCRETE,
        decomposition=decomposition,
        dictionary=_default_dictionary(),
        state_box=state_box,
        input_box=input_box,
        coefficients={"a1": a1, "a2": a2, "a3": a3},
    )


_REGISTRY = {
    "ct-example": ct_example,
    "dt-example": dt_example,
}


def builtin_system(name: str) -> SystemBundle:
    """Instantiate a built-in system by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown built-in system {name!r}; known: {known}") from None
    return factory()
