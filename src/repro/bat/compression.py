"""Sparse-aware column arithmetic.

The paper's Table 5 shows that MonetDB's built-in compression makes ``add``
over sparse relations up to ~2x faster than over dense relations.  We
reproduce the mechanism, not the storage: :meth:`BatBackend._add
<repro.linalg.bat_backend.BatBackend>` estimates each column's density and
routes columns with almost no nonzeros through a nonzero-index path whose
cost is proportional to the number of nonzero entries.
"""

from __future__ import annotations

import numpy as np

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
