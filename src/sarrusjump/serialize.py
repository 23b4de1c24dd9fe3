"""Deterministic CSV/JSON emission: fixed 12-significant-digit floats,
non-finite values serialised as null, no timestamps."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


# Rows formatted per write: enough to amortise the per-chunk calls, few
# enough that a chunk's Python floats and text stay small next to the
# arrays they come from.
_CHUNK_ROWS = 2048


def round12(obj):
    """Recursively round floats to 12 significant digits; NaN/inf to None."""
    if isinstance(obj, dict):
        return {key: round12(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [round12(val) for val in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return None
        return float(f"{value:.12g}")
    return obj


def write_csv(path, header, columns) -> Path:
    """Write parallel columns under header, one line per row.

    A column of strings is written as is; any other column as numbers in
    12-significant-digit %g text (nan, inf, -inf and -0 included).  Rows
    are formatted through one row template, a chunk of rows at a time.
    """
    path = Path(path)
    columns = [np.asarray(column) for column in columns]
    template = ",".join("%s" if c.dtype.kind == "U" else "%.12g" for c in columns) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join([template % row for row in zip(*chunk)]))
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(round12(obj), indent=2, allow_nan=False) + "\n")
    return path
