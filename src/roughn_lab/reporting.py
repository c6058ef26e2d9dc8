"""Deterministic CSV/JSON emission shared by the library and the CLI.

All real numbers are written with 17 significant digits and a '.' decimal
separator so that repeated runs produce byte-identical files.  A CSV is
written column by column: each column is classified and checked once, so a
non-finite value is refused before the file is opened, and the rows are then
formatted a block at a time.  Every file is written through a sibling
temporary file and renamed into place, so a crash mid-write never leaves a
half-written report.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

CSV_BLOCK_ROWS = 1 << 14


@contextmanager
def replace_on_success(path, mode: str = "w"):
    """Open a sibling temporary file for writing; rename it onto path when the
    block finishes, remove it when the block raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def format_real(x) -> str:
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("refusing to write a non-finite value")
    return f"{v:.17g}"


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return format_real(v)
    return str(v)


def _csv_column(column):
    """The %-format of one CSV column and the cells it applies to.

    Integers take '%d' and finite floats '%.17g', which print what
    format_cell prints for each cell; any other column (bools, strings,
    mixed types) becomes format_cell's strings under '%s'.
    """
    if isinstance(column, np.ndarray):
        if column.ndim != 1:
            raise ValueError("a CSV column must be one-dimensional")
        if column.dtype.kind in "iu":
            return "%d", column
        if column.dtype.kind == "f":
            if not np.isfinite(column).all():
                raise ValueError("refusing to write a non-finite value")
            return "%.17g", column
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds <= {int}:
        return "%d", column
    if kinds == {float}:
        return _csv_column(np.array(column, dtype=np.float64))
    return "%s", [format_cell(v) for v in column]


def write_csv(path, header, columns) -> None:
    """Write a CSV from its columns, one per header name.

    A column is a numpy array or a sequence of cells; an array's cells are
    its tolist() values.  The bytes are those of format_cell applied to
    every cell.  Every column is checked before the file is opened, and the
    rows are written CSV_BLOCK_ROWS at a time.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} CSV header names but {len(columns)} columns")
    checked = [_csv_column(column) for column in columns]
    lengths = {len(cells) for _, cells in checked}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    width = len(checked)
    row = ",".join(fmt for fmt, _ in checked) + "\n"
    with replace_on_success(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n_rows)
            flat = [None] * ((hi - lo) * width)
            for j, (_, cells) in enumerate(checked):
                part = cells[lo:hi]
                flat[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write(row * (hi - lo) % tuple(flat))


def columns_of(rows, width: int) -> list:
    """write_csv's columns for rows of the given width (width empty columns
    when there are no rows)."""
    return list(zip(*rows)) or [()] * width


def write_json(path, payload) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with replace_on_success(path) as fh:
        fh.write(text + "\n")
