"""Sparse multivariate polynomials with exact coefficient arithmetic.

A polynomial is a sum of terms ``coeff * prod_i x_i ** e_i``; a
:class:`PolynomialMap` is a vector of such polynomials sharing one variable
set. Jacobians, products and compositions are carried out on the
coefficients directly, so the symbolic lifting path introduces no sampling
or differencing error: matrices derived from polynomial dynamics are exact
up to floating-point arithmetic on the coefficients themselves.

A map stores its rows in one form, canonical term arrays
(:class:`TermArrays`): per term, its row, its exponents and its
coefficient, each row's exponents distinct, with nonzero coefficients, in
graded order (total degree, then reverse-lexicographic exponents), so
evaluation order, serialisation and reported residuals are deterministic.
The constructor merges the terms it is given in their order by
:meth:`TermArrays.canonical`, as products merge theirs (below), and
``rows`` reads the arrays back as one dict per row.

:func:`multiply_rows` multiplies every row of a set by a row of another in
one call, and :func:`compose_rows` substitutes polynomials
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

A map is evaluated in its own canonical term order. Its gather, built on
first use, holds each variable's top exponent, per variable each term's
column in a power table ``P[i, e] = x_i ** e``, each row's first term and
the length of the longest row. The term values
``c * P[0, e_0] * P[1, e_1] * ...`` are gathered from the table, and each
row is summed by one ``np.bincount`` over the terms' rows, as
:meth:`TermArrays.canonical` sums its keys. A single point takes this
array form on a map with at least ``KERNEL_MIN_TERMS`` terms; a smaller map
keeps a flat ``(coeff, ((i, e), ...))`` tuple per term and is evaluated by
a Python loop.

A batch is taken in point blocks as wide as one chunk of
``_BATCH_CHUNK_FLOATS`` term values allows next to the longest row: one
power table of shape (columns, n) per block of ``n`` points. The block's
terms are walked in chunks of whole rows that hold at most that many
values, a longer row a chunk of its own; each chunk gathers its term values
as (terms, n) rows and sums them with one ``np.bincount``, bin
``(r - lo) * n + p`` holding row ``r`` at point ``p`` for a chunk starting
at row ``lo``. A row never spans two chunks, so each output is its row's
terms added in term order from 0.0, whatever the block and chunk sizes.

Every form gives the bits of a term-by-term loop. Each term multiplies its
powers onto its coefficient in variable order (a zero exponent contributes
an exact 1.0), and each row is summed sequentially in term order starting
from 0.0. ``np.bincount`` adds each bin's weights one after another from
0.0, which is that order, and so turns a row of -0.0 terms into +0.0 as
the loop does; numpy's ``np.sum`` and ``np.add.reduceat`` sum pairwise, in
another order, and do not give the loop's bits, nor does
``np.add.reduce(..., axis=0)`` over a one-point block.

``evaluate`` takes its powers with Python's ``float(x_i) ** e`` and
``evaluate_batch`` with numpy's ``pts[:, i] ** e``. These two power
functions can differ in the last bit, so ``evaluate`` and ``evaluate_batch``
agree only to rounding, while each matches its own loop exactly. Where
Python's power overflows it raises; ``evaluate`` takes the signed inf
numpy's power gives instead (:func:`power`), so a run whose state grows past
the float range diverges rather than failing.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionError

Exponents = Tuple[int, ...]
TermDict = Dict[Exponents, float]


def power(x: float, e: int) -> float:
    """``x ** e`` of a Python float, or the signed inf of numpy's power
    where Python's overflows and raises; a finite power keeps its bits."""
    try:
        return x ** e
    except OverflowError:
        return -math.inf if x < 0 and e % 2 else math.inf


# Maps with at least this many terms are evaluated at a single point in the
# array form, smaller ones by a loop over term tuples. On 4-row, 3-variable
# maps with exponents up to 9 (median of five maps), one evaluate took 2.3 us
# in the tuple loop and 11.7 us in the array form at 3 terms, 8.0 and 12.2 us
# at 16, 12.6 and 11.7 us at 24, 14.9 and 11.9 us at 32, and 29.7 and 12.8 us
# at 64: the two cross between 16 and 24 terms. The maps the benchmark
# workloads evaluate have at most 4 terms, 6-9x faster in the loop, or at
# least 1,078. A batch always takes the array form: a 100-point batch took
# 0.21 ms in it against 0.68 ms in a term loop at 32 terms, and 0.13 against
# 0.06 ms at 3, a few tens of us that buy one batch path (Python 3.11, numpy
# 2.4, one core of a shared 2-core x86-64 VM whose repeated runs differ by
# up to 1.5x).
KERNEL_MIN_TERMS = 32

# evaluate_batch forms about this many term values at a time. A block of
# max(1, _BATCH_CHUNK_FLOATS // longest row) points shares one power table,
# and its terms are walked in chunks of whole rows of at most
# _BATCH_CHUNK_FLOATS // points terms, a longer row a chunk of its own, each
# chunk summed by one np.bincount. A row never leaves its chunk, so its
# terms are added in their order and the sizes change no bit. A chunk's live
# temporaries, its values beside one gathered factor or the bin index, take
# 0.5 MB; over 125 or 4,000 points of the n_f = 120 input column a batch
# held 0.7 MB beside its output (tracemalloc). On that column 2**14 to 2**16
# ran within 10% of one another and 2**13 and 2**17 slower (one core of a
# shared 2-core x86-64 VM, numpy 2.4).
_BATCH_CHUNK_FLOATS = 1 << 15


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
                value *= power(float(xi), e)
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
        if not self.row.shape[0]:
            # np.bincount of no values would give int64 coefficients
            return self
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


def _row_chunks(starts: List[int], budget: int) -> Iterator[Tuple[int, int]]:
    """Consecutive runs ``(lo, hi)`` of whole rows, row ``r`` holding items
    ``starts[r]`` to ``starts[r + 1]``: each run takes as many rows as keep
    it within ``budget`` items, and a longer row is a run of its own."""
    lo = 0
    while lo < len(starts) - 1:
        hi = max(lo + 1, bisect.bisect_right(starts, starts[lo] + budget) - 1)
        yield lo, hi
        lo = hi


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
    for lo, hi in _row_chunks(before.tolist(), _PRODUCT_BLOCK_PAIRS):
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


class _Gather(NamedTuple):
    """How a map's terms are read from a power table.

    ``top`` is each variable's top exponent. ``columns`` holds, per
    variable, each term's column in the flat power table ``P[i, e] =
    x_i ** e`` (offset past the columns of earlier variables), the terms in
    the map's own order. Row ``r`` holds terms ``starts[r]`` to
    ``starts[r + 1]``, and ``longest`` is the most terms of a row.
    """

    top: Tuple[int, ...]
    columns: Tuple[np.ndarray, ...]
    starts: List[int]
    longest: int


def _term_values(table: np.ndarray, columns: Sequence[np.ndarray], coeff: np.ndarray) -> np.ndarray:
    """Term values from a power table of shape (columns,) or (columns,
    points), one row per term: the coefficient, shaped to broadcast against
    a gathered row, times each variable's power, in variable order."""
    vals = np.take(table, columns[0], axis=0)
    vals *= coeff
    for c in columns[1:]:
        vals *= np.take(table, c, axis=0)
    return vals


class PolynomialMap:
    """Vector-valued sparse polynomial over a shared variable set.

    Rows are independent polynomials; ``evaluate`` returns the stacked row
    values. The map stores its rows as canonical term arrays (``arrays``,
    see :class:`TermArrays`) and nothing else: zero coefficients are never
    stored, and duplicate exponent keys are merged on construction, summed
    in the order given. ``rows`` is a dict per row, built from the arrays on
    each read.
    """

    def __init__(self, n_vars: int, rows: Sequence[TermDict | Iterable]):
        n_vars = int(n_vars)
        row, exps, coeff = [], [], []
        n_rows = 0
        for terms in rows:
            for e, c in terms.items() if isinstance(terms, dict) else terms:
                e = _canonical_exponents(e)
                if len(e) != n_vars:
                    raise DimensionError(f"exponent tuple {e} does not match {n_vars} variables")
                row.append(n_rows)
                exps.append(e)
                coeff.append(float(c))
            n_rows += 1
        arrays = TermArrays(
            np.array(row, dtype=np.intp),
            np.array(exps, dtype=np.intp).reshape(len(coeff), n_vars).T.copy(),
            np.array(coeff, dtype=float),
            n_rows,
        )
        self._set(n_vars, arrays.canonical())

    @classmethod
    def _from_arrays(cls, n_vars: int, arrays: TermArrays) -> "PolynomialMap":
        """A map over canonical term arrays, taken as they are."""
        poly = cls.__new__(cls)
        poly._set(n_vars, arrays)
        return poly

    def _set(self, n_vars: int, arrays: TermArrays) -> None:
        self.n_vars = n_vars
        self.arrays = arrays
        self.n_out = arrays.n_rows
        # a small map's single-point form: a flat term tuple list per row
        self._terms = None
        if arrays.coeff.shape[0] < KERNEL_MIN_TERMS:
            terms: List[list] = [[] for _ in range(self.n_out)]
            for r, e, c in zip(arrays.row.tolist(), arrays.exps.T.tolist(), arrays.coeff.tolist()):
                terms[r].append((c, tuple((i, k) for i, k in enumerate(e) if k)))
            self._terms = tuple(map(tuple, terms))

    @cached_property
    def _gather(self) -> "_Gather":
        """The layout evaluation reads, built on first use (see
        :class:`_Gather`)."""
        exps = self.arrays.exps
        top = tuple(exps.max(axis=1, initial=0).tolist())
        offsets = np.cumsum((0,) + tuple(m + 1 for m in top[:-1]))
        starts = self.arrays.row_starts()
        longest = int(np.diff(starts).max(initial=0))
        return _Gather(top, tuple(exps + offsets[:, None]), starts.tolist(), longest)

    @property
    def rows(self) -> Tuple[TermDict, ...]:
        return self.arrays.to_rows()

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        if len(x) != self.n_vars:
            raise DimensionError(
                f"map over {self.n_vars} variables evaluated at point of length {len(x)}"
            )
        if self._terms is None:
            x = tuple(map(float, x))
            top = self._gather.top
            try:
                table = [xi ** e for xi, m in zip(x, top) for e in range(m + 1)]
            except OverflowError:
                table = [power(xi, e) for xi, m in zip(x, top) for e in range(m + 1)]
            values = _term_values(np.array(table), self._gather.columns, self.arrays.coeff)
            return np.bincount(self.arrays.row, values, self.n_out)
        out = np.empty(self.n_out)
        for r, terms in enumerate(self._terms):
            acc = 0.0
            for coeff, nz in terms:
                v = coeff
                for i, e in nz:
                    try:
                        v *= float(x[i]) ** e
                    except OverflowError:
                        v *= power(float(x[i]), e)
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
        g = self._gather
        out = np.empty((pts.shape[0], self.n_out))
        step = max(1, _BATCH_CHUNK_FLOATS // max(g.longest, 1))
        for start in range(0, pts.shape[0], step):
            block = pts[start : start + step]
            n = block.shape[0]
            table = np.array([block[:, i] ** e for i, m in enumerate(g.top) for e in range(m + 1)])
            for lo, hi in _row_chunks(g.starts, _BATCH_CHUNK_FLOATS // n):
                out[start : start + n, lo:hi] = self._row_sums(table, lo, hi).reshape(hi - lo, n).T
        return out

    def _row_sums(self, table: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo`` to ``hi`` at the ``n`` points of a (columns, n) power
        table: bin ``(r - lo) * n + p`` of the sums holds row ``r`` at point
        ``p``, its terms added in their order."""
        g = self._gather
        a, b = g.starts[lo], g.starts[hi]
        columns = [c[a:b] for c in g.columns]
        coeff, row = self.arrays.coeff[a:b], self.arrays.row[a:b] - lo
        n = table.shape[1]
        vals = _term_values(table, columns, coeff[:, None])
        bins = (row * n)[:, None] + np.arange(n)
        return np.bincount(bins.ravel(), vals.ravel(), (hi - lo) * n)

    def jacobian(self) -> "PolynomialMap":
        """Exact partial derivatives, flattened row-major.

        Row ``j * n_vars + i`` holds d(row j)/d(x_i): the terms of row j
        with ``e_i > 0``, in their order, each with ``e_i`` lowered by one
        and its coefficient multiplied by ``e_i``. Lowering one exponent
        maps distinct terms to distinct terms and keeps their graded order,
        and ``coeff * e_i`` with ``e_i >= 1`` is never zero, so the rows
        need no merging or sorting.
        """
        t, n = self.arrays, self.n_vars
        term, var = np.nonzero(t.exps.T > 0)
        order = np.argsort(t.row[term] * n + var, kind="stable")
        term, var = term[order], var[order]
        exps = np.take(t.exps, term, axis=1)
        exps[var, np.arange(term.shape[0])] -= 1
        coeff = t.coeff[term] * t.exps[var, term]
        rows = TermArrays(t.row[term] * n + var, exps, coeff, t.n_rows * n)
        return PolynomialMap._from_arrays(n, rows)

    @classmethod
    def from_terms(cls, n_vars: int, rows: Sequence[Sequence[dict]]) -> "PolynomialMap":
        return cls(
            n_vars,
            [[(t["exponents"], t["coeff"]) for t in row] for row in rows],
        )

    def __repr__(self):
        return f"PolynomialMap(n_vars={self.n_vars}, n_out={self.n_out})"

