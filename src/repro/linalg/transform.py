"""Instrumented transforms between column lists and dense arrays.

The MKL delegation path must copy BAT columns into one contiguous array of
doubles and copy results back (paper §7.3); Fig. 14 measures exactly this
overhead.  Every byte and second spent here is recorded in a
:class:`TransformStats` so benchmarks can report the transformation share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class TransformStats:
    """Accumulated cost of column <-> dense transformations."""

    copy_in_seconds: float = 0.0
    copy_out_seconds: float = 0.0
    kernel_seconds: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    calls: int = 0

    @property
    def transform_seconds(self) -> float:
        return self.copy_in_seconds + self.copy_out_seconds

    @property
    def total_seconds(self) -> float:
        return self.transform_seconds + self.kernel_seconds

    def transform_share(self) -> float:
        """Fraction of total time spent copying (the Fig. 14 metric)."""
        total = self.total_seconds
        if total == 0.0:
            return 0.0
        return self.transform_seconds / total


def to_dense(columns: Sequence[np.ndarray],
             stats: TransformStats | None = None) -> np.ndarray:
    """Copy a column list into one contiguous (n, k) float64 array.

    This is the "copy BATs to an MKL compatible format" step; the copy is
    explicit and measured.
    """
    start = time.perf_counter()
    n = len(columns[0]) if columns else 0
    dense = np.empty((n, len(columns)), dtype=np.float64, order="F")
    for j, col in enumerate(columns):
        dense[:, j] = col
    if stats is not None:
        stats.copy_in_seconds += time.perf_counter() - start
        stats.bytes_in += dense.nbytes
    return dense


def from_dense(dense: np.ndarray,
               stats: TransformStats | None = None) -> list[np.ndarray]:
    """Copy a dense result back into per-column arrays (BAT tails)."""
    start = time.perf_counter()
    if dense.ndim == 0:
        columns = [np.array([float(dense)], dtype=np.float64)]
    elif dense.ndim == 1:
        columns = [np.array(dense, dtype=np.float64, copy=True)]
    else:
        columns = [np.ascontiguousarray(dense[:, j], dtype=np.float64)
                   for j in range(dense.shape[1])]
    if stats is not None:
        stats.copy_out_seconds += time.perf_counter() - start
        stats.bytes_out += sum(c.nbytes for c in columns)
    return columns
