"""Plain-CSV matrix files.

No header by default; every float is written with 17 significant digits,
which round-trips IEEE doubles exactly.
"""

import csv
import math

import numpy as np

from .errors import ParseError, RaggedRows
from .linalg import as_matrix


def save_matrix_csv(m, path):
    """Write a matrix as bare numeric CSV."""
    m = as_matrix(m)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in m:
            writer.writerow([format(x, ".17g") for x in row])


def load_matrix_csv(path, header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV into a float64 matrix.

    Raises ParseError with 1-based (row, col) on a cell that is not a
    finite number and RaggedRows when a row's width differs from the first
    data row.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not record:
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise RaggedRows(lineno, width, len(record))
            parsed = []
            for col, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise ParseError(lineno, col, f"not a number: {cell!r}") from exc
                if not math.isfinite(value):
                    raise ParseError(lineno, col, f"not finite: {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(1, 1, "no data rows")
    return np.asarray(rows, dtype=np.float64)
