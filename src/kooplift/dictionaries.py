"""Observable dictionaries: ordered scalar functions lifting the state.

A dictionary is an ordered list of distinct monomial observables
(:class:`~kooplift.polynomials.Monomial`), with exact batched evaluation
and exact Jacobians.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, NumericEvaluationError
from .polynomials import Monomial, PolynomialMap, graded


class ObservableDictionary:
    """Ordered set of monomial observables with evaluation and state-Jacobian.

    Each monomial appears once; a repeated one raises ``ValueError``.

    ``state_selector`` lists, per state coordinate, the index of the
    observable that is the identity on that coordinate; it is detected
    automatically and makes the inverse transformation
    (state recovery from the lifted vector) a plain gather. ``exponents``
    is the read-only (n_f, n_x) int64 array of the observables' exponents.
    """

    def __init__(
        self,
        n_x: int,
        observables: Sequence[Monomial],
        state_selector: Optional[Sequence[int]] = None,
    ):
        self.n_x = int(n_x)
        for entry in observables:
            if not isinstance(entry, Monomial):
                raise TypeError("observables must be Monomial instances")
            if entry.n_vars != self.n_x:
                raise DimensionError(
                    f"monomial {entry.exponents} does not match state dimension {self.n_x}"
                )
        self.observables: Tuple[Monomial, ...] = tuple(observables)
        seen = set()
        for entry in self.observables:
            if entry in seen:
                raise ValueError(f"monomial {entry} appears more than once in the dictionary")
            seen.add(entry)
        if state_selector is None:
            state_selector = _detect_state_selector(self.observables, self.n_x)
        elif not _selector_is_identity(self.observables, self.n_x, state_selector):
            raise ValueError(
                "state_selector entries must point at identity monomials, "
                f"got {tuple(state_selector)}"
            )
        self.state_selector = (
            tuple(int(i) for i in state_selector) if state_selector is not None else None
        )
        if self.state_selector is not None and self.n_f < self.n_x:
            raise DimensionError(
                "a dictionary with a state selector needs at least n_x observables"
            )
        self.exponents = np.array(
            [o.exponents for o in self.observables], dtype=np.int64
        ).reshape(self.n_f, self.n_x)
        self.exponents.setflags(write=False)

    @property
    def n_f(self) -> int:
        return len(self.observables)

    @cached_property
    def jacobian_map(self) -> PolynomialMap:
        """Exact Jacobian of the observables, built on first use.

        Flattened row-major: row ``r * n_x + i`` is the derivative of the
        r-th observable with respect to ``x_i``.
        """
        return PolynomialMap(
            self.n_x, [{o.exponents: 1.0} for o in self.observables]
        ).jacobian()

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_x,):
            raise DimensionError(f"expected state of shape ({self.n_x},), got {x.shape}")
        out = self._monomials(x)
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise NumericEvaluationError(
                f"observable {bad[0]} evaluated to a non-finite value at x={x!r}",
                index=int(bad[0]),
            )
        return out

    __call__ = evaluate

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n_x:
            raise DimensionError(
                f"expected points of shape (N, {self.n_x}), got {pts.shape}"
            )
        return self._monomials(pts)

    @cached_property
    def _power_columns(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Per variable, the exponents ``0..top`` of its power table and each
        observable's exponent of it."""
        return tuple(
            (np.arange(int(column.max(initial=0)) + 1), np.ascontiguousarray(column))
            for column in self.exponents.T
        )

    def _monomials(self, x: np.ndarray) -> np.ndarray:
        """The observables at the point(s) ``x``, shape (..., n_x).

        One power table ``x_i ** [0, 1, ..., top_i]`` per variable, numpy's
        power over an exponent array as in ``x ** exponents``, and one gather
        from it per observable. The factors are multiplied onto 1.0, which is
        exact, in variable order, as ``np.prod`` over the variables multiplies
        them.
        """
        out = np.ones(x.shape[:-1] + (self.n_f,))
        for i, (powers, column) in enumerate(self._power_columns):
            out *= np.take(x[..., i, None] ** powers, column, axis=-1)
        return out

    def jacobian(self, x: Sequence[float]) -> np.ndarray:
        """Exact state-Jacobian at ``x``: shape (n_f, n_x)."""
        return self.jacobian_map.evaluate(np.asarray(x, dtype=float)).reshape(-1, self.n_x)

    def describe(self) -> dict:
        return {
            "n_x": self.n_x,
            "observables": [{"exponents": list(o.exponents)} for o in self.observables],
            "state_selector": list(self.state_selector)
            if self.state_selector is not None
            else None,
        }

    @classmethod
    def from_description(cls, doc: dict) -> "ObservableDictionary":
        obs = [Monomial(entry["exponents"]) for entry in doc["observables"]]
        return cls(doc["n_x"], obs, state_selector=doc.get("state_selector"))

    def __repr__(self):
        return f"ObservableDictionary(n_x={self.n_x}, n_f={self.n_f})"


def _identity_exponents(n_x: int, coordinate: int) -> Tuple[int, ...]:
    return tuple(1 if i == coordinate else 0 for i in range(n_x))


def _detect_state_selector(observables, n_x: int) -> Optional[List[int]]:
    selector = []
    for coord in range(n_x):
        target = _identity_exponents(n_x, coord)
        for j, obs in enumerate(observables):
            if obs.exponents == target:
                selector.append(j)
                break
        else:
            return None
    return selector


def _selector_is_identity(observables, n_x: int, selector) -> bool:
    if len(selector) != n_x:
        return False
    return all(
        observables[int(j)].exponents == _identity_exponents(n_x, coord)
        for coord, j in enumerate(selector)
    )


def monomial_dictionary(
    n_x: int, degree: int, include_constant: bool = False
) -> ObservableDictionary:
    """Full dictionary of monomials ``x1**a1 * ... * xn**an`` up to ``degree``.

    Ordered by (total degree, reverse-lexicographic exponents) so the n_x
    identity observables come first and ``state_selector`` is ``0..n_x-1``;
    the constant observable, when requested, is appended at the end to keep
    that property. Without the constant the count is C(n_x+degree, n_x) - 1.
    """
    if degree < 1:
        raise ValueError(f"dictionary degree must be at least 1, got {degree}")
    if n_x < 1:
        raise ValueError(f"state dimension must be at least 1, got {n_x}")
    exponents = []
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n_x), d):
            exps = [0] * n_x
            for idx in combo:
                exps[idx] += 1
            exponents.append(tuple(exps))
    observables = [Monomial(e) for e in graded(exponents)]
    if include_constant:
        observables.append(Monomial((0,) * n_x))
    dictionary = ObservableDictionary(n_x, observables)
    expected = comb(n_x + degree, n_x) - 1 + (1 if include_constant else 0)
    assert dictionary.n_f == expected
    return dictionary


_MONOMIAL_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, n_x: int) -> Monomial:
    """Parse a monomial like ``x1^2*x2`` (or ``1`` for the constant)."""
    text = text.strip()
    if text in ("1", ""):
        return Monomial((0,) * n_x)
    exps = [0] * n_x
    for factor in text.split("*"):
        m = _MONOMIAL_FACTOR.match(factor.strip())
        if not m:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        idx = int(m.group(1)) - 1
        if not 0 <= idx < n_x:
            raise ValueError(
                f"variable x{idx + 1} out of range for state dimension {n_x}"
            )
        exps[idx] += int(m.group(2) or 1)
    return Monomial(exps)


def parse_dictionary(text: str, n_x: int) -> ObservableDictionary:
    """Parse a comma-separated monomial list like ``x1,x2,x1^2``."""
    monomials = [parse_monomial(tok, n_x) for tok in text.split(",") if tok.strip()]
    if not monomials:
        raise ValueError("dictionary specification is empty")
    return ObservableDictionary(n_x, monomials)
