"""Gauss-Legendre quadrature on the unit interval and central differences.

All line integrals in this package are taken over a straight segment
parameterised on [0, 1], so a single cached family of rules suffices.
Derivatives that no analytic form supplies are taken by one central
difference rule.
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


# step h = cbrt(eps) * max(1, |v_j|) per coordinate: the standard
# accuracy/roundoff balance for second-order central differences
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def central_difference(func, v) -> np.ndarray:
    """Central-difference Jacobian of ``func(v)`` with respect to ``v``.

    The derivative along ``v_j`` is the last axis of the result, so a
    scalar ``func`` gives its gradient and a vector one its Jacobian.
    """
    v = np.asarray(v, dtype=float)
    cols = []
    for j in range(v.shape[0]):
        h = _FD_STEP * max(1.0, abs(float(v[j])))
        vp = v.copy()
        vm = v.copy()
        vp[j] += h
        vm[j] -= h
        fp = np.asarray(func(vp), dtype=float)
        fm = np.asarray(func(vm), dtype=float)
        cols.append((fp - fm) / (vp[j] - vm[j]))
    return np.stack(cols, axis=-1)
