"""Deterministic CSV/JSON emission shared by the library and the CLI.

All real numbers are written with 17 significant digits and a '.' decimal
separator so that repeated runs produce byte-identical files.  Every file is
written through a sibling temporary file and renamed into place, so a crash
mid-write never leaves a half-written report.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


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


def write_csv(path, header, rows) -> None:
    with replace_on_success(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def write_json(path, payload) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with replace_on_success(path) as fh:
        fh.write(text + "\n")
