"""Gauss-Legendre quadrature on the unit interval.

The library takes every ray integral in closed form; this rule is the
reference the tests integrate those closed forms against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def unit_gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]; exact
    for polynomial integrands of degree <= 2n - 1."""
    if n < 1:
        raise ValueError(f"quadrature needs at least one node, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
