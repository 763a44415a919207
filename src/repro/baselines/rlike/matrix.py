"""R's matrix type and the data.table <-> matrix conversions.

R cannot run complex matrix operations on data.tables: the data must be
converted to the ``matrix`` type first (and results converted back) — this
conversion is what Fig. 14a measures.  The matrix kernels themselves are
BLAS-backed in R, so numpy stands in for them directly.

Character matrices (``as_character_matrix``) exist because R *can* hold
mixed data in a matrix of strings; the paper's §8.5 measures how painfully
slow relational operations over them are (40s vs 2s for a BIXI join), which
:func:`character_matrix_join` reproduces structurally: every value is a
python string and every comparison re-parses it.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.baselines.rlike.frame import RFrame
from repro.errors import ReproError


def as_matrix(frame: RFrame, columns: Sequence[str] | None = None,
              timings: dict | None = None) -> np.ndarray:
    """``as.matrix(dt[, cols])``: copy columns into a dense matrix.

    R validates and coerces each column during the copy; the per-column
    astype + column_stack below performs the same two passes.
    """
    start = time.perf_counter()
    names = list(columns) if columns is not None else frame.names
    converted = []
    for name in names:
        values = frame[name]
        if values.dtype == object:
            raise ReproError(
                f"as.matrix over non-numeric column {name!r}; use a "
                "character matrix")
        converted.append(values.astype(np.float64))
    dense = np.column_stack(converted) if converted else np.empty((0, 0))
    if timings is not None:
        timings["to_matrix"] = timings.get("to_matrix", 0.0) \
            + time.perf_counter() - start
    return dense


def matrix_to_frame(matrix: np.ndarray, names: Sequence[str],
                    timings: dict | None = None) -> RFrame:
    """``as.data.table(m)``: copy a matrix back into frame columns."""
    start = time.perf_counter()
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    columns = {name: np.ascontiguousarray(matrix[:, j])
               for j, name in enumerate(names)}
    frame = RFrame(columns)
    if timings is not None:
        timings["to_frame"] = timings.get("to_frame", 0.0) \
            + time.perf_counter() - start
    return frame


def as_character_matrix(frame: RFrame) -> np.ndarray:
    """A matrix of strings holding mixed data (R's only mixed-type matrix)."""
    columns = [np.array([str(v) for v in frame[name]], dtype=object)
               for name in frame.names]
    return np.column_stack(columns)


def character_matrix_join(left: np.ndarray, left_key: int,
                          right: np.ndarray, right_key: int) -> np.ndarray:
    """Join two character matrices on string-typed key columns.

    Every key is a python string and the output is rebuilt string by
    string — the §8.5 pathology.
    """
    index: dict[str, list[int]] = {}
    for j in range(right.shape[0]):
        index.setdefault(right[j, right_key], []).append(j)
    rows = []
    for i in range(left.shape[0]):
        for j in index.get(left[i, left_key], ()):
            rows.append(list(left[i, :])
                        + [right[j, c] for c in range(right.shape[1])
                           if c != right_key])
    if not rows:
        return np.empty((0, left.shape[1] + right.shape[1] - 1),
                        dtype=object)
    return np.array(rows, dtype=object)
