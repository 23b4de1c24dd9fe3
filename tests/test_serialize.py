"""The columnar CSV writer against the per-cell writer it replaced.

write_csv formats a chunk of rows at a time through one %-template; the
old writer formatted each cell with f"{float(value):.12g}".  Both must
give the same bytes for every value the 12-digit %g format treats
specially, for string columns, and at the chunk boundaries.
"""

import math

import numpy as np
import pytest

from sarrusjump.serialize import _CHUNK_ROWS, write_csv


def _per_cell_csv(header, columns) -> str:
    """The file the per-cell writer produced for these columns."""
    def fmt(value):
        return value if isinstance(value, str) else f"{float(value):.12g}"

    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    # 12-digit %g writes exponent form below 1e-4 (1e-05 is the first) and
    # from 1e12 up; rounding to 12 digits can carry a value across either
    # switch (9.9999999999996e-05 -> 0.0001, 999999999999.5 -> 1e+12).
    1e-4, 9.99999999999e-5, 9.9999999999996e-5, -9.9999999999996e-5,
    1e-5, 9.99999999999e-6, 9.999999999999e-6, 1.0000000000005e-5,
    1e12, 999999999999.0, 999999999999.4, 999999999999.5, -999999999999.5,
    1e11, 99999999999.96, 1.5e12,
    0.1, 1.0 / 3.0, 2.0 / 3.0, 123456789012.5, 1.234567890125, 7.0, -7.25,
]


def _check(tmp_path, header, columns):
    path = write_csv(tmp_path / "out.csv", header, columns)
    assert path == tmp_path / "out.csv"
    assert path.read_bytes() == _per_cell_csv(header, columns).encode()


def test_special_values_match_per_cell_writer(tmp_path):
    values = np.array(SPECIAL)
    _check(tmp_path, ("x", "minus_x", "scaled"), [values, -values, values * 1e-3])


def test_random_magnitudes_match_per_cell_writer(tmp_path):
    rng = np.random.default_rng(7)
    n = 3 * _CHUNK_ROWS + 17
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
               for _ in range(5)]
    _check(tmp_path, tuple("abcde"), columns)


def test_string_columns_match_per_cell_writer(tmp_path):
    status = ["ok", "stiction", "kneeinversion", "ok", "invalid"]
    _check(tmp_path, ("parameter", "proportion", "eta_pct", "status"),
           [["m5"] * 5, np.linspace(0.0, 1.0, 5),
            np.array([63.1, math.nan, math.nan, 1e-5, math.nan]), status])


@pytest.mark.parametrize("n_rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                                    _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS])
def test_chunk_boundaries_match_per_cell_writer(tmp_path, n_rows):
    t = np.arange(n_rows) * 1e-5
    labels = [f"row{i}" for i in range(n_rows)]
    _check(tmp_path, ("t", "label", "sin"), [t, labels, np.sin(t * 1e3)])
