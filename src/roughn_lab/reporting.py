"""Deterministic CSV/JSON emission shared by the library and the CLI.

All real numbers are written with 17 significant digits and a '.' decimal
separator so that repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json


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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def write_json(path, payload) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
