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

from dataclasses import dataclass

from .dictionaries import Monomial, ObservableDictionary
from .polynomials import PolynomialMap
from .systems import (
    CONTINUOUS,
    DISCRETE,
    Decomposition,
    DomainBox,
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

    # g over (x1, x2, u1, u2, E1, E2) with E_j = expm1(u_j): the rows
    # x1 E1 and u1 u2 + x2 E2; expm1 keeps x exp(u) - x accurate near u = 0
    g = PolynomialMap(
        6,
        [
            {(1, 0, 0, 0, 1, 0): 1.0},
            {(0, 0, 1, 1, 0, 0): 1.0, (0, 1, 0, 0, 0, 1): 1.0},
        ],
    )
    state_box = DomainBox([-2.0, -2.0], [2.0, 2.0])
    input_box = DomainBox([-1.0, -1.0], [1.0, 1.0])
    decomposition = Decomposition(
        n_x=2,
        n_u=2,
        time_domain=CONTINUOUS,
        autonomous=f_c,
        input_polynomial=g,
        exponentials=((0, 1.0), (1, 1.0)),
        name="ct-example",
    )

    return SystemBundle(
        name="ct-example",
        time_domain=CONTINUOUS,
        decomposition=decomposition,
        dictionary=_default_dictionary(),
        state_box=state_box,
        input_box=input_box,
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
