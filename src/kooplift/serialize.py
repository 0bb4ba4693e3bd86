"""JSON and CSV emission with fixed decimal precision.

Every float is written with 17 significant digits, which round-trips any
IEEE double bit-exactly; a small hand-rolled JSON emitter is used because
the standard encoder does not expose the float format. :func:`fmt_float`
is the one reference for a float's text.

The trajectory CSVs of one run are written by one call, block by block of
rows. The files of a run share their time grid and inputs, and often some
states, so each distinct column block is formatted once per block and its
cells are used by every file that holds it; nothing is kept past the call.
Those cells come from a block formatter that writes ``fmt_float``'s bytes
for a whole array in a fixed number of numpy passes: the digits from an
exactly rounded double-double scaling by a power of ten, the layout from
per-exponent tables, and no Python string per cell. The cells it cannot
certify (a possible rounding tie, a magnitude outside [1e-280, 1e280), NaN
and the infinities) it hands to ``fmt_float`` itself.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError


def fmt_float(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def _emit(obj, out: list) -> None:
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.size:
            out.append(_nested(distinct_cells(obj, fmt_float), obj.shape))
        else:
            _emit(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        # a list of finite floats, a float array's row among them, takes one
        # %.17g template, which writes what fmt_float writes for finite
        # floats; one with a NaN or an infinity goes cell by cell below
        if kinds == {float} and all(map(math.isfinite, obj)):
            out.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]")
            return
        # a list of ints takes one join of their str; a bool's type is bool,
        # so a list holding one goes cell by cell
        if kinds == {int}:
            out.append("[" + ", ".join(map(str, obj)) + "]")
            return
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise object of type {type(obj).__name__}")


def distinct_cells(values: np.ndarray, fmt) -> list:
    """``fmt`` of every cell of a float64 array, in C order, called once per
    distinct bit pattern: a model matrix repeats few values, mostly 0.0."""
    bits = np.ascontiguousarray(values).view(np.int64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = [fmt(value) for value in distinct.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


def _nested(cells: list, shape: Sequence[int]) -> str:
    """The JSON nested list of shape ``shape`` (no zero extent) holding the
    C-order ``cells``."""
    for n in reversed(shape):
        cells = ["[" + ", ".join(cells[k : k + n]) + "]" for k in range(0, len(cells), n)]
    return cells[0]


def dumps_json(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_json(obj) + "\n")
    return path


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """CSV with 17-significant-digit floats; integers and strings pass through."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_csv_cell(cell) for cell in row) + "\n")
    return path


def _csv_cell(cell) -> str:
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return fmt_float(cell)
    return str(cell)


# a run's trajectory CSVs are written this many rows at a time: memory holds
# one block's cells (52 bytes each) and the formatter's arrays, and does not
# grow with the run. A ct-example run's two files (7 distinct columns) peak at
# about 0.4 MB at 256 rows. 512 rows wrote them ~8% faster but held twice as
# much, and 1024 rows were slower again
CSV_BLOCK_ROWS = 256


def write_trajectory_csv(files) -> list:
    """The trajectory CSVs of one run, ``{path: trajectory}``, written together.

    Each file has the header ``t,x1..xn,u1..unu`` and one row per grid
    point; every trajectory must be on the same time grid. The files are
    written ``CSV_BLOCK_ROWS`` rows at a time. Within a block each distinct
    column block, keyed by its bytes, is formatted once, all of them in one
    :func:`_format_cells` call, and every file takes its columns' cells from
    that call: the files of one run share ``t`` and the inputs, and often
    some states. Returns the paths in the order given.
    """
    tables = []
    grid = None
    for path, trajectory in files.items():
        if grid is None:
            grid = trajectory.times
        elif not np.array_equal(trajectory.times, grid):
            raise DimensionError(
                f"{path}: the trajectory CSVs of one run need one time grid"
            )
        n_x = trajectory.states.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n_x)]
        columns = [trajectory.times, *trajectory.states.T]
        if trajectory.inputs is not None:
            header += [f"u{j + 1}" for j in range(trajectory.inputs.shape[1])]
            columns += list(trajectory.inputs.T)
        tables.append((Path(path), header, columns))
    n_rows = 0 if grid is None else len(grid)
    # the cells of a block and one file's block of them, allocated once
    widths = [len(columns) for _, _, columns in tables]
    block_cells = min(CSV_BLOCK_ROWS, n_rows) * _CELL_WORDS
    cells = np.empty(block_cells * sum(widths), np.uint32)
    block = np.empty(block_cells * max(widths, default=0), np.uint32)
    with ExitStack() as stack:
        handles = []
        for path, header, _ in tables:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = stack.enter_context(path.open("wb"))
            handle.write((",".join(header) + "\n").encode())
            handles.append(handle)
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            rows = min(CSV_BLOCK_ROWS, n_rows - start)
            distinct: dict = {}
            layout = [
                [
                    distinct.setdefault(column[start : start + rows].tobytes(), len(distinct))
                    for column in columns
                ]
                for _, _, columns in tables
            ]
            # the distinct column blocks one after another, and their cells
            values = np.frombuffer(b"".join(distinct), np.float64).reshape(-1, rows)
            formatted = _format_cells(values, cells[: values.size * _CELL_WORDS])
            formatted = formatted.reshape(*values.shape, _CELL_WORDS)
            for handle, columns in zip(handles, layout):
                size = rows * len(columns) * _CELL_WORDS
                shaped = block[:size].reshape(rows, len(columns), _CELL_WORDS)
                for j, column in enumerate(columns):
                    shaped[:, j] = formatted[column]
                text = shaped.view(np.uint8)
                text[:, -1, -1] = ord("\n")
                handle.write(text[text != 0])
    return [path for path, _, _ in tables]


# --- the block formatter ----------------------------------------------------
#
# _format_cells writes what fmt_float writes, for a whole float64 array in a
# fixed number of numpy passes. A cell is 13 4-byte words; its bytes, read in
# order with every NUL dropped, are its text and then a separator:
#   bytes  0-7   sign and "0.000" prefix, right-aligned, then the first digit
#   bytes  8-23  digits 1-16 before the dot
#   bytes 24-27  the dot, in the last byte
#   bytes 28-43  digits 1-16 after the dot
#   bytes 44-51  exponent suffix "e+XX" or "e-XXX", then the separator
# The kept bytes of a cell come in a few runs, which keeps dropping the NULs
# cheap: a layout with a dot slot after every digit dropped them about 2.5x
# slower. Every word is an AND or OR of table words that are uint32 views of
# bytes, so no byte order is assumed.
_CELL_WORDS = 13
_CELL_BYTES = 4 * _CELL_WORDS
# the digits of |v| are those of N = round(|v| 10^(16 - E)), a 17-digit
# integer. 10^(16 - E) is held as an unevaluated sum H + L, and |v| H is
# formed by Dekker's two-product, which is error-free where no split
# overflows and no partial product underflows: for |v| in [1e-280, 1e280).
# Other magnitudes, NaN and the infinities go to fmt_float
_LOW, _HIGH = 1e-280, 1e280
# |E| of a cell in that range, after its one re-scale, is below this
_E_SCALED = 283
# the exponent tables hold E in [-_E_TABLE, _E_TABLE)
_E_TABLE = 300
# Veltkamp's splitter for a 53-bit significand: 2^27 + 1
_SPLIT = 134217729.0
# a rounding fraction this close to one half may be a tie, or on the other
# side of one, within the error of the double-double product (a few 1e-15
# on a 17-digit N, mostly from rounding a L): such a cell goes to fmt_float
_TIE_MARGIN = 1e-6


def _ascii(strings, width: int, right: bool = False) -> np.ndarray:
    """``strings`` as a ``(len(strings), width)`` uint8 array, NUL-padded on
    the right, or on the left when ``right``."""
    raw = np.zeros((len(strings), width), np.uint8)
    for row, text in zip(raw, strings):
        if text:
            at = width - len(text) if right else 0
            row[at : at + len(text)] = list(text.encode())
    return raw


def _words(raw: np.ndarray) -> list:
    """The columns of the uint32 view of a ``(rows, 4 k)`` uint8 array."""
    return list(np.ascontiguousarray(raw).view(np.uint32).T.copy())


@lru_cache(maxsize=None)
def _cell_tables() -> SimpleNamespace:
    """The block formatter's tables, built on first use."""
    t = SimpleNamespace()
    # 10^s as H + L for every scale s = 16 - E a cell can ask for, and H's
    # Veltkamp halves; L = 10^s - H from exact integers, since float() of an
    # int and int / int are correctly rounded
    scales = range(16 - _E_SCALED, 17 + _E_SCALED)
    t.scale0 = scales[0]
    hi, lo = [], []
    for s in scales:
        if s >= 0:
            hi.append(float(10**s))
            lo.append(float(10**s - int(hi[-1])))
        else:
            hi.append(1 / 10**-s)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-s) / (den * 10**-s))
    H = np.array(hi)
    split = H * _SPLIT
    H_hi = split - (split - H)
    # one row per scale, gathered at once: H, its halves, and L
    t.scale = np.column_stack([H, H_hi, H - H_hi, lo])
    # the 4-digit chunks. Chunk c holds digits 1 + 4c .. 4 + 4c, and
    # significant[c] counts the digits up to its last nonzero one (0: none)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    chunks = np.empty((10_000, 4), np.uint8)
    for i, step in enumerate((1000, 100, 10, 1)):
        chunks[:, i] = np.tile(np.repeat(digits, step), 1000 // step)
    (t.chunk,) = _words(chunks)
    last = np.zeros(10_000, np.uint8)
    for i in range(4):
        last[chunks[:, i] != ord("0")] = i + 1
    t.significant = [np.where(last > 0, last + 1 + 4 * c, 0).astype(np.uint8) for c in range(4)]
    # the digit slots of chunk c below digit K, at K, and from digit D below
    # digit K, at 18 D + K
    digit = 1 + 4 * np.arange(4)[:, None, None] + np.arange(4)
    below = np.where(digit < np.arange(18)[:, None], 255, 0).astype(np.uint8)
    t.below = [_words(below[c])[0] for c in range(4)]
    t.between = [(t.below[c] & ~t.below[c][:, None]).ravel() for c in range(4)]
    (t.first,) = _words(_ascii("0123456789", 4, right=True))
    t.dot = _words(_ascii(["."], 4, right=True))[0][0]
    # per exponent E, as %g lays it out: fixed form for -4 <= E < 17, else
    # exponent form. keep counts the digits shown even when zero (the
    # integer part, or the first digit), and the dot follows digit dot_after
    # (16: no dot). The head of a cell is at 2 (E + _E_TABLE) + its sign bit
    exponents = range(-_E_TABLE, _E_TABLE)
    prefix = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in exponents]
    head = _ascii([sign + text for text in prefix for sign in ("", "-")], 7, right=True)
    t.head = _words(np.pad(head, ((0, 0), (0, 1))))
    suffix = _ascii(["" if -4 <= e < 17 else "e%+03d" % e for e in exponents], 8)
    suffix[:, -1] = ord(",")
    t.suffix = _words(suffix)
    t.keep = np.array([e + 1 if 0 <= e < 17 else 1 for e in exponents])
    t.dot_after = np.array([e if 0 <= e < 17 else 16 if -4 <= e < 0 else 0 for e in exponents])
    return t


def _scaled(a: np.ndarray, e: np.ndarray, t: SimpleNamespace):
    """``N = round(a 10^(16 - e))`` as int64 and its rounding fraction
    ``a 10^(16 - e) - N``, from Dekker's two-product of ``a`` and ``H``."""
    H, H_hi, H_lo, L = np.take(t.scale, 16 - t.scale0 - e, axis=0).T
    p = a * H
    # Veltkamp's split: a_hi = s - (s - a) with s = a (2^27 + 1)
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # p + err is a H exactly, and a L adds the rest of 10^s
    err = a_hi * H_hi
    err -= p
    err += a_hi * H_lo
    err += a_lo * H_hi
    err += a_lo * H_lo
    err += a * L
    # p >= 2^53 is an integer, so N is p and the rounded rest
    whole = np.rint(err)
    err -= whole
    N = p.astype(np.int64)
    N += whole.astype(np.int64)
    return N, err


def _off_decade(N: np.ndarray, frac: np.ndarray):
    """Where ``N + frac`` is below ``10^16``, so E is one lower, and where
    ``N`` is past ``10^17``, so E is one higher. ``N = 10^16`` reached from
    below rounds at the lower E; ``N = 10^17`` carries to ``10^16``."""
    return (N < 10**16) | ((N == 10**16) & (frac < 0)), N > 10**17


def _format_cells(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The cells of every value of a float64 array, in C order, written to
    ``out`` (``values.size * _CELL_WORDS`` uint32) and returned as its
    ``(values.size, _CELL_WORDS)`` view: each cell's bytes, NULs dropped,
    are the text :func:`fmt_float` writes and a ``,``."""
    t = _cell_tables()
    v = np.ravel(values)
    a = np.abs(v)
    zero = a == 0
    scaled = (a >= _LOW) & (a < _HIGH)
    a[~scaled] = 1.0
    # E is the exponent of |v| rounded to 17 digits. It is settled on N, not
    # by a float compare: floor(log10) is off by at most one, so a cell off
    # its decade is re-scaled once, and one still off it goes to fmt_float
    e = np.floor(np.log10(a)).astype(np.int64)
    N, frac = _scaled(a, e, t)
    low, high = _off_decade(N, frac)
    redo = np.flatnonzero(low | high)
    if redo.size:
        e[redo] += np.where(high[redo], 1, -1)
        N[redo], frac[redo] = _scaled(a[redo], e[redo], t)
        low, high = _off_decade(N[redo], frac[redo])
        scaled[redo[low | high]] = False
    carry = N == 10**17
    N[carry] = 10**16
    e += carry
    scaled &= np.abs(np.abs(frac) - 0.5) >= _TIE_MARGIN
    # the float arrays are done with; the digit arrays below take their room
    del a, frac, low, high
    N[zero] = 0
    e[zero] = 0
    # the first digit and the four 4-digit chunks
    first = N // 10**16
    N -= first * 10**16
    top = N // 10**8
    N -= top * 10**8
    chunks = (top // 10**4, N // 10**4)
    top -= chunks[0] * 10**4
    N -= chunks[1] * 10**4
    chunks = (chunks[0], top, chunks[1], N)
    row = e
    row += _E_TABLE
    # the digits shown: up to the last nonzero one, and the integer part
    shown = t.keep[row]
    for table, q in zip(t.significant, chunks):
        np.maximum(shown, table[q], out=shown)
    dot = t.dot_after[row]
    dot += 1
    before = np.minimum(shown, dot)
    after = dot * 18
    after += shown
    cells = out.reshape(v.size, _CELL_WORDS)
    head = 2 * row + np.signbit(v)
    cells[:, 0] = t.head[0][head]
    np.bitwise_or(t.head[1][head], t.first[first], out=cells[:, 1])
    for c, q in enumerate(chunks):
        word = t.chunk[q]
        np.bitwise_and(word, t.below[c][before], out=cells[:, 2 + c])
        np.bitwise_and(word, t.between[c][after], out=cells[:, 7 + c])
    np.multiply(shown > dot, t.dot, out=cells[:, 6])
    cells[:, 11] = t.suffix[0][row]
    cells[:, 12] = t.suffix[1][row]
    raw = cells.view(np.uint8)
    for i in np.flatnonzero(~(scaled | zero)).tolist():
        text = fmt_float(v[i]).encode()
        raw[i, :-1] = 0
        raw[i, : len(text)] = list(text)
    return cells
