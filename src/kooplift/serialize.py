"""JSON and CSV emission with fixed decimal precision.

Every float is written with 17 significant digits, which round-trips any
IEEE double bit-exactly; a small hand-rolled JSON emitter is used because
the standard encoder does not expose the float format.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


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
        _emit(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        # a list of finite floats, a float array's row among them, takes one
        # %.17g template, which writes what fmt_float writes for finite
        # floats; one with a NaN or an infinity goes cell by cell below
        if (
            obj
            and set(map(type, obj)) == {float}
            and all(map(math.isfinite, obj))
        ):
            out.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]")
            return
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise object of type {type(obj).__name__}")


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


# trajectory CSV rows are formatted this many at a time: one table of Python
# floats for a whole run takes about 1.5 MB at 5001 rows and scales with them
CSV_BLOCK_ROWS = 64


def write_trajectory_csv(path, trajectory) -> Path:
    """Trajectory CSV: header t,x1..xn,u1..unu with one row per grid point.

    Rows of finite values are formatted by one ``%.17g`` template, which
    writes what :func:`fmt_float` writes for finite floats; rows with a
    NaN or an infinity go through :func:`fmt_float` cell by cell.
    """
    n_x = trajectory.states.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n_x)]
    columns = [trajectory.times[:, None], trajectory.states]
    if trajectory.inputs is not None:
        header += [f"u{j + 1}" for j in range(trajectory.inputs.shape[1])]
        columns.append(trajectory.inputs)
    template = ",".join(["%.17g"] * len(header)) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(trajectory.times), CSV_BLOCK_ROWS):
            block = np.hstack([c[start : start + CSV_BLOCK_ROWS] for c in columns])
            finite = np.isfinite(block).all(axis=1).tolist()
            for row, row_finite in zip(block.tolist(), finite):
                if row_finite:
                    handle.write(template % tuple(row))
                else:
                    handle.write(",".join(fmt_float(cell) for cell in row) + "\n")
    return path
