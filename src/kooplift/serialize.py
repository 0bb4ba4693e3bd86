"""JSON and CSV emission with fixed decimal precision.

Every float is written with 17 significant digits, which round-trips any
IEEE double bit-exactly; a small hand-rolled JSON emitter is used because
the standard encoder does not expose the float format.

The trajectory CSVs of one run are written by one call, block by block of
rows. The files of a run share their time grid and inputs, and often some
states, so each distinct column block is formatted once per block and its
cells are used by every file that holds it; nothing is kept past the call.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from pathlib import Path
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
# one block of formatted cells per file and does not grow with the run. At
# 1024 rows a ct-example run's two files (t, two states, two inputs each,
# sharing t and the inputs) peak at about 0.85 MB; 64 rows paid the
# per-block cost 16 times as often, and 4096 rows were slower again
CSV_BLOCK_ROWS = 1024


def write_trajectory_csv(files) -> list:
    """The trajectory CSVs of one run, ``{path: trajectory}``, written together.

    Each file has the header ``t,x1..xn,u1..unu`` and one row per grid
    point; every trajectory must be on the same time grid. The files are
    written ``CSV_BLOCK_ROWS`` rows at a time, and within a block each
    distinct column block, keyed by its bytes, is formatted once and used
    by every file that holds it: the files of one run share ``t`` and the
    inputs, and often some states. Returns the paths in the order given.
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
    with ExitStack() as stack:
        handles = []
        for path, header, _ in tables:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = stack.enter_context(path.open("w", newline=""))
            handle.write(",".join(header) + "\n")
            handles.append(handle)
        n_rows = 0 if grid is None else len(grid)
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            formatted: dict = {}
            for handle, (_, _, columns) in zip(handles, tables):
                cells = []
                for column in columns:
                    part = column[start : start + CSV_BLOCK_ROWS]
                    key = part.tobytes()
                    if key not in formatted:
                        formatted[key] = _format_column(part)
                    cells.append(formatted[key])
                handle.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return [path for path, _, _ in tables]


def _format_column(values: np.ndarray) -> list:
    """The cells of one column block: one ``%.17g`` template when every value
    is finite, which writes what :func:`fmt_float` writes for finite floats,
    else :func:`fmt_float` cell by cell."""
    cells = values.tolist()
    if np.isfinite(values).all():
        return (",".join(["%.17g"] * len(cells)) % tuple(cells)).split(",")
    return [fmt_float(cell) for cell in cells]
