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
``(width, n_pad)`` layout, ``width`` being the longest row and
``n_pad = max(n_out, 2)``; term ``j`` of row ``r`` sits in slot
``j * n_pad + r``. The term values ``c * P[0, e_0] * P[1, e_1] * ...`` are
scattered into that layout and summed over its ``width`` axis by
``np.add.reduce``.

Both forms give the bits of a term-by-term loop. Each term multiplies its
powers onto its coefficient in variable order (a zero exponent contributes
an exact 1.0), and each row is summed sequentially in term order starting
from 0.0. numpy reduces an axis that is not the innermost one by adding
whole rows of the layout elementwise, term position after term position,
which is that order. Along the innermost axis numpy sums pairwise, in
another order, so neither ``np.sum`` nor ``np.add.reduceat`` over a row's
terms gives the loop's bits; that is also why ``n_out`` is padded to 2 (see
:class:`_Kernel`). ``evaluate`` takes its powers with Python's
``float(x_i) ** e`` and ``evaluate_batch`` with numpy's ``pts[:, i] ** e``.
These two power functions can differ in the last bit, so ``evaluate`` and
``evaluate_batch`` agree only to rounding, while each matches its own loop
exactly.
"""

from __future__ import annotations

from operator import add
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError

Exponents = Tuple[int, ...]
TermDict = Dict[Exponents, float]

# Maps with at least this many terms are evaluated by the array kernel. On
# 4-row, 3-variable maps with exponents up to 9 (median of five maps), one
# evaluate took 2.6 us in the tuple loop and 19.7 us in the kernel at 3
# terms, 14.4 and 31.5 us at 32, 19.5 and 21.7 us at 48, and 27.7 and 28.5 us
# at 64; a 100-point evaluate_batch took 0.90 and 0.34 ms at 32 terms
# (Python 3.11, numpy 2.4, one core of a shared x86-64 VM whose repeated
# runs differ by up to 1.5x).
KERNEL_MIN_TERMS = 32

# evaluate_batch takes as many points at a time as keep the padded
# (points, width, n_pad) block near 1 MB of float64
_BATCH_BLOCK_FLOATS = 1 << 17


def graded(exponents: Iterable[Exponents]) -> List[Exponents]:
    """Distinct exponent tuples in graded order: by total degree, then
    x1-major (reverse lexicographic).

    Two C-level sorts without a per-key Python call: descending tuples, then
    a stable sort by degree. Equal tuples would keep no defined order, so the
    tuples must be distinct.
    """
    out = sorted(exponents, reverse=True)
    out.sort(key=sum)
    return out


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
    return {k: terms[k] for k in graded(terms)}


def poly_add(a: TermDict, b: TermDict) -> TermDict:
    out = dict(a)
    for exps, c in b.items():
        _add_term(out, exps, c)
    return _sorted_terms(out)


def poly_mul(a: TermDict, b: TermDict) -> TermDict:
    """Product in graded order; each coefficient is summed in the order the
    operands' terms are walked, so operands in graded order give the same
    bits every time."""
    out: TermDict = {}
    get = out.get
    # _add_term inlined: this loop is most of a symbolic lift
    for ea, ca in a.items():
        for eb, cb in b.items():
            c = ca * cb
            if c == 0.0:
                continue
            exps = tuple(map(add, ea, eb))
            new = get(exps, 0.0) + c
            if new == 0.0:
                del out[exps]
            else:
                out[exps] = new
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
    zero-padded ``(width, n_pad)`` layout: term ``j`` of row ``r`` sits at
    ``j * n_pad + r``, and the padding holds 0.0.

    ``np.add.reduce`` over the ``width`` axis adds the layout's rows
    ``[j, :]`` elementwise in ``j`` order, so each output sums its terms left
    to right as the term loop does, then its padding, which changes nothing
    but the sign of a zero. That holds only while ``width`` is not the
    innermost axis, which numpy would sum pairwise. A one-row map would have a
    unit last axis, which numpy drops; ``n_pad = max(n_out, 2)`` keeps it.
    """

    __slots__ = ("max_exp", "index", "coeffs", "slots", "n_out", "n_pad", "width")

    def __init__(self, rows: Sequence[TermDict], n_vars: int):
        self.n_out = len(rows)
        self.width = max(len(row) for row in rows)
        self.coeffs = np.array([c for row in rows for c in row.values()])
        exps = np.array(
            [e for row in rows for e in row], dtype=np.intp
        ).reshape(self.coeffs.shape[0], n_vars)
        self.n_pad = max(self.n_out, 2)
        self.slots = np.array(
            [j * self.n_pad + r for r, row in enumerate(rows) for j in range(len(row))],
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
        padded = np.zeros(lead + (self.width * self.n_pad,))
        padded[..., self.slots] = vals
        sums = np.add.reduce(padded.reshape(lead + (self.width, self.n_pad)), axis=-2)
        # the loop starts each row from 0.0, which turns an all -0.0 row into
        # +0.0; adding 0.0 does the same and leaves every other value alone
        return sums[..., : self.n_out] + 0.0

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        return self._sum_terms(
            np.array(
                [xi ** e for xi, m in zip(map(float, x), self.max_exp) for e in range(m + 1)]
            )
        )

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty((pts.shape[0], self.n_out))
        step = max(1, _BATCH_BLOCK_FLOATS // (self.width * self.n_pad))
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
        self._set_rows(canon)

    @classmethod
    def _from_graded(cls, n_vars: int, rows: Sequence[TermDict]) -> "PolynomialMap":
        """A map over rows the library built itself, taken as they are.

        Each row must already be what the constructor would make of it:
        non-negative int exponent tuples of length ``n_vars``, distinct, in
        graded order, with nonzero float coefficients. Nothing is checked.
        """
        poly = cls.__new__(cls)
        poly.n_vars = n_vars
        poly._set_rows(rows)
        return poly

    def _set_rows(self, rows: Sequence[TermDict]) -> None:
        self.rows: Tuple[TermDict, ...] = tuple(rows)
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

        Row ``j * n_vars + i`` holds d(row j)/d(x_i). Lowering one exponent
        maps distinct terms to distinct terms and keeps their graded order,
        and ``coeff * e`` with ``e >= 1`` is never zero, so the rows need no
        merging or sorting.
        """
        rows: List[TermDict] = []
        for row in self.rows:
            for i in range(self.n_vars):
                rows.append(
                    {
                        exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: coeff * exps[i]
                        for exps, coeff in row.items()
                        if exps[i]
                    }
                )
        return PolynomialMap._from_graded(self.n_vars, rows)

    def pad_vars(self, n_total: int) -> "PolynomialMap":
        """Embed into a larger variable set, appending zero exponents."""
        if n_total < self.n_vars:
            raise DimensionError("cannot shrink the variable set of a polynomial map")
        pad = (0,) * (n_total - self.n_vars)
        # trailing zeros keep the graded order
        rows = [{exps + pad: c for exps, c in row.items()} for row in self.rows]
        return PolynomialMap._from_graded(n_total, rows)

    @classmethod
    def from_terms(cls, n_vars: int, rows: Sequence[Sequence[dict]]) -> "PolynomialMap":
        return cls(
            n_vars,
            [[(t["exponents"], t["coeff"]) for t in row] for row in rows],
        )

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
    # powers and products are already in graded order
    return result


def fresh_power_caches(components: Sequence[TermDict], n_vars: int) -> List[List[TermDict]]:
    return [[constant_term(n_vars)] for _ in components]
