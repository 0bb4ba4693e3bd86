"""Sparse multivariate polynomials with exact coefficient arithmetic.

A polynomial is a mapping from exponent tuples to coefficients; a
:class:`PolynomialMap` is a vector of such polynomials sharing one variable
set. Jacobians, products and compositions are carried out on the
coefficients directly, so the symbolic lifting path introduces no sampling
or differencing error: matrices derived from polynomial dynamics are exact
up to floating-point arithmetic on the coefficients themselves.

Terms are kept in graded order (total degree, then reverse-lexicographic
exponents) so evaluation order, serialisation and reported residuals are
deterministic.

Products and compositions work on a set of rows held as arrays
(:class:`TermArrays`): per term, its row, its exponents and its
coefficient. :func:`multiply_rows` multiplies every row of a set by a row
of another in one call, and :func:`compose_rows` substitutes polynomials
into every monomial of a dictionary with one such call per power and per
variable. A product forms all its term pairs, walked left term by left
term, drops the products equal to 0.0, sorts the pairs' (row, exponents)
keys into graded order with one stable ``np.lexsort`` on (row, degree,
exponents) and adds each key's products with one ``np.bincount``. That
keeps the bits of a term-by-term dict loop ``out[k] = out.get(k, 0.0) + v``:
the stable sort leaves each key's products in walk order, and
``np.bincount`` adds them one after another from 0.0. A sum that reaches
0.0 on the way and then grows again is the same in both, since adding to
0.0 is exact, and a key whose sum ends at 0.0 is dropped, as the loop drops
it. The keys are compared field by field, so no packed integer key can
overflow.

Evaluation has two forms, chosen per map by its term count. A map with
fewer than ``KERNEL_MIN_TERMS`` terms keeps a flat ``(coeff, ((i, e), ...))``
tuple per term and is evaluated by a Python loop. A larger map is compiled
once into arrays: per term, its coefficient ``c``, its gather indices into a
power table ``P[i, e] = x_i ** e`` and its slot in a zero-padded
``(width, n_pad)`` layout, ``width`` being the longest row and
``n_pad = max(n_out, 2)``; term ``j`` of row ``r`` sits in slot
``j * n_pad + r``. The term values ``c * P[0, e_0] * P[1, e_1] * ...`` are
gathered into that layout, the padding taking a 0.0, and summed over its
``width`` axis by ``np.add.reduce``.

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

from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

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


class TermArrays(NamedTuple):
    """A set of polynomial rows as arrays, one entry per term.

    Term ``k`` belongs to row ``row[k]`` of ``n_rows`` and is
    ``coeff[k] * prod_i x_i ** exps[i, k]``; the exponents are stored one
    variable per row, so sums and maxima over the variables run along
    contiguous memory. Terms are grouped by row, rows ascending; within a
    row they are in the order the row is walked. Every set that
    :meth:`canonical` or :func:`multiply_rows` returns holds, per row,
    distinct exponents with nonzero coefficients in graded order: the rows
    of a ``PolynomialMap``.
    """

    row: np.ndarray
    exps: np.ndarray
    coeff: np.ndarray
    n_rows: int

    @classmethod
    def from_rows(cls, rows: Sequence[TermDict], n_vars: int) -> "TermArrays":
        """The arrays of dict rows over ``n_vars`` variables, in their order."""
        coeff = np.array([c for row in rows for c in row.values()], dtype=float)
        exps = np.array([e for row in rows for e in row], dtype=np.intp)
        row = np.repeat(
            np.arange(len(rows)), np.array([len(r) for r in rows], dtype=np.intp)
        )
        exps = np.ascontiguousarray(exps.reshape(coeff.shape[0], n_vars).T)
        return cls(row, exps, coeff, len(rows))

    @classmethod
    def constant(cls, n_rows: int, n_vars: int) -> "TermArrays":
        """Every row the constant 1."""
        return cls(
            np.arange(n_rows), np.zeros((n_vars, n_rows), dtype=np.intp), np.ones(n_rows), n_rows
        )

    def select(self, mask: np.ndarray) -> "TermArrays":
        exps = np.compress(mask, self.exps, axis=1)
        return TermArrays(self.row[mask], exps, self.coeff[mask], self.n_rows)

    def row_starts(self) -> np.ndarray:
        """Row ``r`` holds terms ``starts[r]`` to ``starts[r + 1]``."""
        return np.searchsorted(self.row, np.arange(self.n_rows + 1))

    def to_rows(self) -> Tuple[TermDict, ...]:
        rows: Tuple[TermDict, ...] = tuple({} for _ in range(self.n_rows))
        for r, exps, c in zip(
            self.row.tolist(), map(tuple, self.exps.T.tolist()), self.coeff.tolist()
        ):
            rows[r][exps] = c
        return rows

    def canonical(self) -> "TermArrays":
        """Terms with equal (row, exponents) summed, in graded order.

        ``np.lexsort`` is stable, so equal keys keep the order they are
        given in, and ``np.bincount`` adds each key's values one after
        another from 0.0: the bits of the loop
        ``out[k] = out.get(k, 0.0) + v``. Exact-zero sums are dropped.
        """
        n_vars = self.exps.shape[0]
        degree = self.exps.sum(axis=0)
        # numpy sorts 16-bit keys by radix, about ten times faster than
        # 64-bit ones at 10,000 terms; wider keys where a value needs them
        narrow = max(int(degree.max(initial=0)), self.n_rows) < 1 << 15
        keys = np.empty((n_vars + 2, self.row.shape[0]), dtype=np.int16 if narrow else np.intp)
        # last key first: row, degree, then x1-major with larger exponents first
        np.negative(self.exps[::-1], out=keys[:n_vars])
        keys[n_vars] = degree
        keys[n_vars + 1] = self.row
        order = np.lexsort(keys)
        keys = np.take(keys, order, axis=1)
        new = np.ones(order.shape[0], dtype=bool)
        np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=new[1:])
        sums = np.bincount(new.cumsum() - 1, weights=self.coeff[order])
        keep = sums != 0.0
        first = order[new][keep]
        return TermArrays(self.row[first], np.take(self.exps, first, axis=1), sums[keep], self.n_rows)


def _stack(parts: Sequence[TermArrays], n_rows: int) -> TermArrays:
    return TermArrays(
        np.concatenate([p.row for p in parts]),
        np.concatenate([p.exps for p in parts], axis=1),
        np.concatenate([p.coeff for p in parts]),
        n_rows,
    )


# multiply_rows forms the pairs of as many whole left rows at a time as keep
# a block near this many pairs; a row with more pairs is a block of its own.
# A pair takes about 100 bytes of working arrays at three variables, so a
# block stays near 2 MB however large the dictionary.
_PRODUCT_BLOCK_PAIRS = 1 << 14


def multiply_rows(left: TermArrays, right: TermArrays, pick: np.ndarray) -> TermArrays:
    """Row products: row ``r`` of the result is the sum, over the terms
    ``t`` of left row ``r``, of term ``t`` times right row ``pick[t]``.

    The pairs are walked left-term-major: each left term in its row's order,
    against the terms of its right row in theirs. Products equal to 0.0,
    either sign, are dropped, and the rest are summed per key in walk order
    by :meth:`TermArrays.canonical`. That is the dict loop of a
    term-by-term product, so a left row of one polynomial and one pick gives
    the bits of ``a * b`` walked term by term, and a left row of single
    terms ``c_i m_i`` with picks ``i`` the bits of ``sum_i (c_i m_i) * b_i``
    added product after product. Rows are independent, so forming the pairs
    a block of rows at a time changes no bit.
    """
    if not left.n_rows:
        return left
    starts = right.row_starts()
    first = starts[pick]
    counts = starts[pick + 1] - first
    left_starts = left.row_starts()
    before = np.concatenate(([0], counts.cumsum()))[left_starts]
    parts = []
    lo = 0
    while lo < left.n_rows:
        end = before.searchsorted(before[lo] + _PRODUCT_BLOCK_PAIRS, side="right")
        hi = max(lo + 1, int(end) - 1)
        a, b = left_starts[lo], left_starts[hi]
        n = counts[a:b]
        lt = np.arange(a, b).repeat(n)
        rt = np.arange(lt.shape[0]) + (first[a:b] - n.cumsum() + n).repeat(n)
        vals = left.coeff[lt] * right.coeff[rt]
        nonzero = vals != 0.0
        if not nonzero.all():
            lt, rt, vals = lt[nonzero], rt[nonzero], vals[nonzero]
        exps = np.take(left.exps, lt, axis=1) + np.take(right.exps, rt, axis=1)
        parts.append(TermArrays(left.row[lt], exps, vals, left.n_rows).canonical())
        lo = hi
    return parts[0] if len(parts) == 1 else _stack(parts, left.n_rows)


def compose_rows(exponents: np.ndarray, components: TermArrays) -> TermArrays:
    """Row ``r``: ``prod_i components[i] ** exponents[r, i]``, over the
    components' variables.

    Each power is ``P_i ** e = P_i ** (e - 1) * P_i``, and each row
    multiplies its factors onto the constant 1 in variable order, a zero
    exponent multiplying by 1; products with 1 are exact. So one
    :func:`multiply_rows` call per exponent builds that power of every
    component, and one per variable the next factor of every row. The
    components must be canonical rows.
    """
    n_out, n = exponents.shape
    n_vars = components.exps.shape[0]
    top = exponents.max(axis=0, initial=0)
    # row e * n + i of the power table holds P_i ** e; P_i ** 0 is 1
    levels = [TermArrays.constant(n, n_vars), components]
    for e in range(2, int(top.max(initial=1)) + 1):
        below = levels[-1].select(top[levels[-1].row] >= e)
        levels.append(multiply_rows(below, components, below.row))
    powers = _stack(
        [level._replace(row=level.row + e * n) for e, level in enumerate(levels)],
        len(levels) * n,
    )
    result = TermArrays.constant(n_out, n_vars)
    for i in range(n):
        result = multiply_rows(result, powers, exponents[result.row, i] * n + i)
    return result


class _Kernel:
    """Array form of a polynomial map's terms, in row-major term order.

    ``index[i]`` holds each term's column in the flat power table for
    variable ``i`` (offset past the columns of earlier variables) and
    ``coeffs`` the coefficients. One more term with coefficient 0.0 and no
    variables follows them; since ``x ** 0`` is 1.0 for every ``x``, its
    value is 0.0. ``fill`` lays the term values out in the ``(width,
    n_pad)`` layout: term ``j`` of row ``r`` sits at ``j * n_pad + r``, and
    the padding takes the trailing 0.0.

    ``np.add.reduce`` over the ``width`` axis adds the layout's rows
    ``[j, :]`` elementwise in ``j`` order, so each output sums its terms left
    to right as the term loop does, then its padding, which changes nothing
    but the sign of a zero. That holds only while ``width`` is not the
    innermost axis, which numpy would sum pairwise. A one-row map would have a
    unit last axis, which numpy drops; ``n_pad = max(n_out, 2)`` keeps it.
    """

    __slots__ = ("max_exp", "index", "coeffs", "fill", "n_out", "n_pad", "width")

    def __init__(self, terms: TermArrays):
        self.n_out = terms.n_rows
        n_terms = terms.coeff.shape[0]
        starts = terms.row_starts()
        self.width = int(np.diff(starts).max())
        self.n_pad = max(self.n_out, 2)
        self.fill = np.full(self.width * self.n_pad, n_terms, dtype=np.intp)
        self.fill[(np.arange(n_terms) - starts[terms.row]) * self.n_pad + terms.row] = np.arange(
            n_terms
        )
        self.coeffs = np.append(terms.coeff, 0.0)
        self.max_exp = tuple(terms.exps.max(axis=1, initial=0).tolist())
        offsets = np.cumsum((0,) + tuple(m + 1 for m in self.max_exp[:-1]))
        # the trailing term takes column e = 0 of every variable
        index = np.empty((len(self.max_exp), n_terms + 1), dtype=np.intp)
        np.add(terms.exps, offsets[:, None], out=index[:, :n_terms])
        index[:, n_terms] = offsets
        self.index = tuple(index)

    def _sum_terms(self, table: np.ndarray) -> np.ndarray:
        """Row values from a power table of shape (..., columns)."""
        # np.take gathers along the last axis faster than table[..., index]
        vals = np.take(table, self.index[0], axis=-1) * self.coeffs
        for index in self.index[1:]:
            vals *= np.take(table, index, axis=-1)
        padded = np.take(vals, self.fill, axis=-1)
        sums = np.add.reduce(padded.reshape(table.shape[:-1] + (self.width, self.n_pad)), axis=-2)
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

    A map holds its rows as dicts (``rows``), as arrays (``arrays``) or both;
    the form it was not built from is made on first read.
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
        self._set_rows(tuple(canon), None)

    @classmethod
    def _from_graded(cls, n_vars: int, rows: Sequence[TermDict]) -> "PolynomialMap":
        """A map over rows the library built itself, taken as they are.

        Each row must already be what the constructor would make of it:
        non-negative int exponent tuples of length ``n_vars``, distinct, in
        graded order, with nonzero float coefficients. Nothing is checked.
        """
        poly = cls.__new__(cls)
        poly.n_vars = n_vars
        poly._set_rows(tuple(rows), None)
        return poly

    @classmethod
    def _from_arrays(cls, n_vars: int, arrays: TermArrays) -> "PolynomialMap":
        """A map over canonical term arrays (see :class:`TermArrays`), taken
        as they are; its ``rows`` dicts are built only when read."""
        poly = cls.__new__(cls)
        poly.n_vars = n_vars
        poly._set_rows(None, arrays)
        return poly

    def _set_rows(self, rows, arrays) -> None:
        self._rows: Tuple[TermDict, ...] | None = rows
        self._arrays: TermArrays | None = arrays
        if rows is not None:
            self.n_out = len(rows)
            n_terms = sum(len(row) for row in rows)
        else:
            self.n_out = arrays.n_rows
            n_terms = arrays.coeff.shape[0]
        # one evaluation form per map: arrays for large maps, else a flat
        # term list per row for the scalar loop
        self._kernel = self._terms = None
        if n_terms >= KERNEL_MIN_TERMS:
            self._kernel = _Kernel(self.arrays)
        else:
            self._terms = tuple(
                tuple(
                    (c, tuple((i, e) for i, e in enumerate(exps) if e))
                    for exps, c in row.items()
                )
                for row in self.rows
            )

    @property
    def rows(self) -> Tuple[TermDict, ...]:
        if self._rows is None:
            self._rows = self._arrays.to_rows()
        return self._rows

    @property
    def arrays(self) -> TermArrays:
        if self._arrays is None:
            self._arrays = TermArrays.from_rows(self._rows, self.n_vars)
        return self._arrays

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

    @classmethod
    def from_terms(cls, n_vars: int, rows: Sequence[Sequence[dict]]) -> "PolynomialMap":
        return cls(
            n_vars,
            [[(t["exponents"], t["coeff"]) for t in row] for row in rows],
        )

    def __repr__(self):
        return f"PolynomialMap(n_vars={self.n_vars}, n_out={self.n_out})"

