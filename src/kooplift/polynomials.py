"""Sparse multivariate polynomials with exact coefficient arithmetic.

A polynomial is stored as a mapping from exponent tuples to coefficients;
a :class:`PolynomialMap` is a vector of such polynomials sharing one
variable set. Jacobians, products and compositions are carried out on the
coefficients directly, so the symbolic lifting path introduces no sampling
or differencing error: matrices derived from polynomial dynamics are exact
up to floating-point arithmetic on the coefficients themselves.

Terms are kept in graded order (total degree, then reverse-lexicographic
exponents) so evaluation order, serialisation and reported residuals are
deterministic.

Evaluation has two forms, chosen per map by its term count. A map with
fewer than ``KERNEL_MIN_TERMS`` terms keeps a flat ``(coeff, ((i, e), ...))``
tuple per term and is evaluated by a Python loop. A larger map is compiled
once into arrays: per term, its coefficient ``c``, its gather indices into a
power table ``P[i, e] = x_i ** e`` and its slot in a zero-padded
``(n_out, width)`` layout, ``width`` being the longest row. The term values
``c * P[0, e_0] * P[1, e_1] * ...`` are scattered into that layout and each
row is summed with ``np.cumsum``.

Both forms give the bits of a term-by-term loop. Each term multiplies its
powers onto its coefficient in variable order (a zero exponent contributes
an exact 1.0), and each row is summed sequentially in term order starting
from 0.0; ``np.sum`` and ``np.add.reduceat`` sum pairwise and would not.
``evaluate`` takes its powers with Python's ``float(x_i) ** e`` and
``evaluate_batch`` with numpy's ``pts[:, i] ** e``. These two power
functions can differ in the last bit, so ``evaluate`` and ``evaluate_batch``
agree only to rounding, while each matches its own loop exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError

Exponents = Tuple[int, ...]
TermDict = Dict[Exponents, float]

# Maps with at least this many terms are evaluated by the array kernel. A
# single-point evaluate of a 4-row, 3-variable map took 16.2 us in the tuple
# loop and 17.1 us in the kernel at 32 terms, 24.0 and 17.6 us at 48, and
# 2.6 and 15.2 us at 3 terms (Python 3.11, numpy 2.4, one x86-64 core).
KERNEL_MIN_TERMS = 32

# evaluate_batch takes as many points at a time as keep the padded
# (points, n_out, width) block near 1 MB of float64
_BATCH_BLOCK_FLOATS = 1 << 17


def _term_order_key(exponents: Exponents):
    # graded order: by total degree, then x1-major (reverse lexicographic)
    return (sum(exponents), tuple(-e for e in exponents))


def _canonical_exponents(exponents: Iterable[int]) -> Exponents:
    exps = tuple(int(e) for e in exponents)
    if any(e < 0 for e in exps):
        raise ValueError(f"monomial exponents must be non-negative, got {exps}")
    return exps


class Monomial:
    """A single monomial ``prod_i x_i**e_i`` identified by its exponents."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[int]):
        self.exponents = _canonical_exponents(exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def n_vars(self) -> int:
        return len(self.exponents)

    def evaluate(self, x: Sequence[float]) -> float:
        if len(x) != len(self.exponents):
            raise DimensionError(
                f"monomial over {len(self.exponents)} variables evaluated at "
                f"point of length {len(x)}"
            )
        value = 1.0
        for xi, e in zip(x, self.exponents):
            if e:
                value *= float(xi) ** e
        return value

    def __call__(self, x):
        return self.evaluate(x)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial({self.exponents})"

    def __str__(self):
        if not any(self.exponents):
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def _add_term(terms: TermDict, exponents: Exponents, coeff: float) -> None:
    if coeff == 0.0:
        return
    new = terms.get(exponents, 0.0) + coeff
    if new == 0.0:
        terms.pop(exponents, None)
    else:
        terms[exponents] = new


def _sorted_terms(terms: TermDict) -> TermDict:
    return {k: terms[k] for k in sorted(terms, key=_term_order_key)}


def poly_add(a: TermDict, b: TermDict) -> TermDict:
    out = dict(a)
    for exps, c in b.items():
        _add_term(out, exps, c)
    return _sorted_terms(out)


def poly_mul(a: TermDict, b: TermDict) -> TermDict:
    out: TermDict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(i + j for i, j in zip(ea, eb))
            _add_term(out, exps, ca * cb)
    return _sorted_terms(out)


def poly_pow(base: TermDict, k: int, cache: List[TermDict]) -> TermDict:
    """k-th power by repeated multiplication, memoised in ``cache``.

    ``cache[j]`` holds base**j and must be seeded with the degree-0 constant;
    the list is extended as needed so repeated compositions against the same
    base reuse earlier powers.
    """
    if k < 0:
        raise ValueError("negative polynomial powers are not defined")
    if not cache:
        raise ValueError("power cache must be seeded with the degree-0 entry")
    while len(cache) <= k:
        cache.append(poly_mul(cache[-1], base))
    return cache[k]


def constant_term(n_vars: int, value: float = 1.0) -> TermDict:
    return {tuple(0 for _ in range(n_vars)): value} if value != 0.0 else {}


class _Kernel:
    """Array form of a polynomial map's terms, in row-major term order.

    ``index[i]`` holds each term's column in the flat power table for
    variable ``i`` (offset past the columns of earlier variables),
    ``coeffs`` the coefficients and ``slots`` each term's position in the
    zero-padded ``(n_out, width)`` row layout.
    """

    __slots__ = ("max_exp", "index", "coeffs", "slots", "n_out", "width")

    def __init__(self, rows: Sequence[TermDict], n_vars: int):
        self.n_out = len(rows)
        self.width = max(len(row) for row in rows)
        self.coeffs = np.array([c for row in rows for c in row.values()])
        exps = np.array(
            [e for row in rows for e in row], dtype=np.intp
        ).reshape(self.coeffs.shape[0], n_vars)
        self.slots = np.array(
            [r * self.width + j for r, row in enumerate(rows) for j in range(len(row))],
            dtype=np.intp,
        )
        self.max_exp = tuple(int(m) for m in exps.max(axis=0))
        offsets = np.cumsum((0,) + tuple(m + 1 for m in self.max_exp[:-1]))
        self.index = tuple(np.ascontiguousarray((exps + offsets).T))

    def _sum_terms(self, table: np.ndarray) -> np.ndarray:
        """Row values from a power table of shape (..., columns)."""
        lead = table.shape[:-1]
        vals = np.broadcast_to(self.coeffs, lead + self.coeffs.shape).copy()
        for index in self.index:
            vals *= table[..., index]
        padded = np.zeros(lead + (self.n_out * self.width,))
        padded[..., self.slots] = vals
        sums = np.cumsum(padded.reshape(lead + (self.n_out, self.width)), axis=-1)
        # the loop starts each row from 0.0, which turns an all -0.0 row into
        # +0.0; adding 0.0 does the same and leaves every other value alone
        return sums[..., -1] + 0.0

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        return self._sum_terms(
            np.array(
                [xi ** e for xi, m in zip(map(float, x), self.max_exp) for e in range(m + 1)]
            )
        )

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty((pts.shape[0], self.n_out))
        step = max(1, _BATCH_BLOCK_FLOATS // (self.n_out * self.width))
        for start in range(0, pts.shape[0], step):
            block = pts[start : start + step]
            table = np.stack(
                [block[:, i] ** e for i, m in enumerate(self.max_exp) for e in range(m + 1)],
                axis=1,
            )
            out[start : start + step] = self._sum_terms(table)
        return out


class PolynomialMap:
    """Vector-valued sparse polynomial over a shared variable set.

    Rows are independent polynomials; ``evaluate`` returns the stacked row
    values. Zero coefficients are never stored and duplicate exponent keys
    are merged on construction.
    """

    def __init__(self, n_vars: int, rows: Sequence[TermDict | Iterable]):
        self.n_vars = int(n_vars)
        canon: List[TermDict] = []
        for row in rows:
            items = row.items() if isinstance(row, dict) else row
            terms: TermDict = {}
            for exps, coeff in items:
                exps = _canonical_exponents(exps)
                if len(exps) != self.n_vars:
                    raise DimensionError(
                        f"exponent tuple {exps} does not match {self.n_vars} variables"
                    )
                _add_term(terms, exps, float(coeff))
            canon.append(_sorted_terms(terms))
        self.rows: Tuple[TermDict, ...] = tuple(canon)
        # one evaluation form per map: arrays for large maps, else a flat
        # term list per row for the scalar loop
        self._kernel = self._terms = None
        if sum(len(row) for row in self.rows) >= KERNEL_MIN_TERMS:
            self._kernel = _Kernel(self.rows, self.n_vars)
        else:
            self._terms = tuple(
                tuple(
                    (c, tuple((i, e) for i, e in enumerate(exps) if e))
                    for exps, c in row.items()
                )
                for row in self.rows
            )

    @property
    def n_out(self) -> int:
        return len(self.rows)

    @property
    def scalar_terms(self):
        """Per row, the ``(coeff, ((variable, exponent), ...))`` terms the
        scalar loop evaluates, in its order; None for a compiled map."""
        return self._terms

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        if len(x) != self.n_vars:
            raise DimensionError(
                f"map over {self.n_vars} variables evaluated at point of length {len(x)}"
            )
        if self._kernel is not None:
            return self._kernel.evaluate(x)
        out = np.empty(self.n_out)
        for r, terms in enumerate(self._terms):
            acc = 0.0
            for coeff, nz in terms:
                v = coeff
                for i, e in nz:
                    v *= float(x[i]) ** e
                acc += v
            out[r] = acc
        return out

    __call__ = evaluate

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many points at once; ``points`` is (N, n_vars)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n_vars:
            raise DimensionError(
                f"expected points of shape (N, {self.n_vars}), got {pts.shape}"
            )
        if self._kernel is not None:
            return self._kernel.evaluate_batch(pts)
        out = np.zeros((pts.shape[0], self.n_out))
        for r, row in enumerate(self.rows):
            for exps, coeff in row.items():
                vals = np.full(pts.shape[0], coeff)
                for i, e in enumerate(exps):
                    if e:
                        vals *= pts[:, i] ** e
                out[:, r] += vals
        return out

    def jacobian(self) -> "PolynomialMap":
        """Exact partial derivatives, flattened row-major.

        Row ``j * n_vars + i`` holds d(row j)/d(x_i).
        """
        rows: List[TermDict] = []
        for row in self.rows:
            for i in range(self.n_vars):
                deriv: TermDict = {}
                for exps, coeff in row.items():
                    e = exps[i]
                    if e:
                        lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                        _add_term(deriv, lowered, coeff * e)
                rows.append(deriv)
        return PolynomialMap(self.n_vars, rows)

    def jacobian_matrix(self, x: Sequence[float]) -> np.ndarray:
        return self.jacobian().evaluate(x).reshape(self.n_out, self.n_vars)

    def pad_vars(self, n_total: int) -> "PolynomialMap":
        """Embed into a larger variable set, appending zero exponents."""
        if n_total < self.n_vars:
            raise DimensionError("cannot shrink the variable set of a polynomial map")
        extra = n_total - self.n_vars
        rows = [
            {exps + (0,) * extra: c for exps, c in row.items()} for row in self.rows
        ]
        return PolynomialMap(n_total, rows)

    def to_terms(self) -> List[List[dict]]:
        return [
            [{"exponents": list(exps), "coeff": c} for exps, c in row.items()]
            for row in self.rows
        ]

    @classmethod
    def from_terms(cls, n_vars: int, rows: Sequence[Sequence[dict]]) -> "PolynomialMap":
        return cls(
            n_vars,
            [[(t["exponents"], t["coeff"]) for t in row] for row in rows],
        )

    def same_terms(self, other: "PolynomialMap") -> bool:
        return self.n_vars == other.n_vars and self.rows == other.rows

    def __repr__(self):
        return f"PolynomialMap(n_vars={self.n_vars}, n_out={self.n_out})"


def compose_monomial(
    exponents: Exponents,
    components: Sequence[TermDict],
    n_vars: int,
    power_caches: List[List[TermDict]],
) -> TermDict:
    """Substitute polynomial components into a monomial.

    Computes ``prod_i components[i] ** exponents[i]`` over the components'
    variable set of size ``n_vars``. ``power_caches`` must hold one cache
    list per component, each seeded with the degree-0 constant, and is
    shared between calls so composing a whole dictionary reuses the
    component powers.
    """
    result: TermDict | None = None
    for i, e in enumerate(exponents):
        if not e:
            continue
        factor = poly_pow(components[i], e, power_caches[i])
        result = dict(factor) if result is None else poly_mul(result, factor)
    if result is None:
        return constant_term(n_vars)
    return _sorted_terms(result)


def fresh_power_caches(components: Sequence[TermDict], n_vars: int) -> List[List[TermDict]]:
    return [[constant_term(n_vars)] for _ in components]
