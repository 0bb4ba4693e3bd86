"""Gauss-Legendre quadrature on the unit interval.

All line integrals in this package are taken over a straight segment
parameterised on [0, 1], so a single cached family of rules suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureSpec:
    """Number of Gauss-Legendre nodes for the unit-interval integrals.

    The n-node rule is exact for polynomial integrands of degree <= 2n - 1;
    the default of 16 nodes therefore integrates polynomials up to degree 31
    exactly, which covers every polynomial system composed with the monomial
    dictionaries used here, and converges exponentially for analytic
    integrands such as exponentials.
    """

    nodes: int = 16

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"quadrature needs at least one node, got {self.nodes}")

    def rule(self):
        return unit_gauss_legendre(self.nodes)


@lru_cache(maxsize=None)
def unit_gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    if n < 1:
        raise ValueError(f"quadrature needs at least one node, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
