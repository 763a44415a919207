"""Sparse-aware column arithmetic and RLE compression.

The paper's Table 5 shows that MonetDB's built-in compression makes ``add``
over sparse relations up to ~2x faster than over dense relations.  We
reproduce the mechanism: columns with many zeros are processed through a
nonzero-index path whose cost is proportional to the number of nonzero
entries, and an RLE codec provides the storage-side counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.errors import BatError

SPARSE_SAMPLE = 1024
"""How many elements to sample when estimating column density."""

SPARSE_DENSITY_THRESHOLD = 0.02
"""Estimated nonzero fraction below which the sparse add path is used.

MonetDB's storage-level compression makes sparse adds cheaper from ~10%
zeros onward (paper Table 5).  Substrate difference: numpy's dense add is
already memory-bandwidth optimal, so an index-based sparse path cannot
beat it except on essentially empty columns; the threshold is set so the
engine never regresses.  Table 5 is therefore a *deviating* result in this
reproduction: the sparse path engages only above 98% zeros.
"""


def estimate_density(values: np.ndarray, sample: int = SPARSE_SAMPLE) -> float:
    """Estimate the nonzero fraction of a numeric array from a sample."""
    n = len(values)
    if n == 0:
        return 0.0
    if n <= sample:
        return float(np.count_nonzero(values)) / n
    # Deterministic strided sample: density estimation must not perturb
    # benchmark runs with RNG state.
    step = max(1, n // sample)
    probe = values[::step]
    return float(np.count_nonzero(probe)) / len(probe)


def sparse_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add two arrays touching only nonzero positions.

    Cost is O(nnz(a) + nnz(b)) plus the zero-initialized result, which is the
    behaviour compressed storage gives MonetDB.
    """
    out = np.zeros(len(a), dtype=np.result_type(a.dtype, b.dtype))
    nz_a = np.nonzero(a)[0]
    nz_b = np.nonzero(b)[0]
    if len(nz_a):
        out[nz_a] = a[nz_a]
    if len(nz_b):
        out[nz_b] += b[nz_b]
    return out


def add_sparse_aware(a: BAT, b: BAT,
                     threshold: float = SPARSE_DENSITY_THRESHOLD) -> BAT:
    """Element-wise add that routes through the sparse path when profitable."""
    if not (a.dtype.is_numeric and b.dtype.is_numeric):
        raise BatError("sparse-aware add requires numeric columns")
    if len(a) != len(b):
        raise BatError("sparse-aware add requires aligned columns")
    va, vb = a.tail, b.tail
    if estimate_density(va) < threshold and estimate_density(vb) < threshold:
        out = sparse_add(va, vb)
    else:
        out = va + vb
    dtype = (DataType.INT if a.dtype is DataType.INT
             and b.dtype is DataType.INT else DataType.DBL)
    return BAT(dtype, out.astype(dtype.numpy_dtype), a.hseqbase)


@dataclass(frozen=True)
class RleColumn:
    """Run-length encoded numeric column.

    ``starts[i]`` is the first position of run ``i``; run ``i`` covers
    positions ``starts[i] .. starts[i+1]-1`` (the last run ends at ``n``)
    and holds the constant ``values[i]``.
    """

    starts: np.ndarray
    values: np.ndarray
    n: int

    @property
    def run_count(self) -> int:
        return len(self.starts)

    def compression_ratio(self) -> float:
        """Stored runs relative to plain storage (lower is better)."""
        if self.n == 0:
            return 1.0
        return (2 * self.run_count) / self.n


def rle_encode(values: np.ndarray) -> RleColumn:
    """Run-length encode a numeric array."""
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return RleColumn(np.empty(0, np.int64), values.copy(), 0)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.nonzero(change)[0].astype(np.int64)
    return RleColumn(starts, values[starts].copy(), n)


def rle_decode(column: RleColumn) -> np.ndarray:
    """Materialize an RLE column back into a plain array."""
    if column.n == 0:
        return column.values.copy()
    lengths = np.diff(np.append(column.starts, column.n))
    return np.repeat(column.values, lengths)


def rle_add_scalar(column: RleColumn, scalar: float) -> RleColumn:
    """Add a scalar without decompressing (runs are preserved)."""
    return RleColumn(column.starts.copy(), column.values + scalar, column.n)
