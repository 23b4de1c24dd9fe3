"""Deterministic CSV/JSON emission: fixed 12-significant-digit floats,
non-finite values serialised as null, no timestamps."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    """One cell: a string as is, a number as 12-significant-digit text
    (nan, inf and -inf included)."""
    return value if isinstance(value, str) else f"{float(value):.12g}"


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


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(round12(obj), indent=2, allow_nan=False) + "\n")
    return path
