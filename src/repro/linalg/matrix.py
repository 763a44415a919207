"""Column-list matrix representation and shared validation.

``Columns`` is the kernel-level matrix type: a list of aligned float64
arrays, one per matrix column.  This is a zero-copy view of the BATs of an
application part, so the BAT backend can compute on relation storage
directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.opspec import OpSpec

Columns = list
"""Type alias: ``list[np.ndarray]`` of aligned float64 columns."""


def nrows(columns: Sequence[np.ndarray]) -> int:
    """Number of matrix rows (0 for an empty column list)."""
    return len(columns[0]) if columns else 0


def ncols(columns: Sequence[np.ndarray]) -> int:
    """Number of matrix columns."""
    return len(columns)


def as_columns(values) -> Columns:
    """Coerce a 2-D array / nested list into a column list."""
    dense = np.asarray(values, dtype=np.float64)
    if dense.ndim == 1:
        dense = dense.reshape(-1, 1)
    if dense.ndim != 2:
        raise ShapeError(f"expected a matrix, got {dense.ndim} dimensions")
    return [np.ascontiguousarray(dense[:, j]) for j in range(dense.shape[1])]


def columns_to_dense(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Materialize columns into a dense (n, k) array (test/diagnostic aid)."""
    if not columns:
        return np.empty((0, 0))
    return np.column_stack(columns)


def check_dims(spec: OpSpec, a: Sequence[np.ndarray],
               b: Sequence[np.ndarray] | None = None) -> None:
    """Enforce the dimension preconditions of an operation (paper Table 1)."""
    na, ka = nrows(a), ncols(a)
    if ka == 0:
        raise ShapeError(f"{spec.name}: empty application part")
    if na == 0:
        raise ShapeError(f"{spec.name}: matrix has no rows")
    if spec.square and na != ka:
        raise ShapeError(
            f"{spec.name} requires a square matrix, got {na}x{ka}")
    if spec.tall and na < ka:
        raise ShapeError(
            f"{spec.name} requires nrows >= ncols, got {na}x{ka}")
    if spec.arity == 2:
        if b is None:
            raise ShapeError(f"{spec.name} is binary; second matrix missing")
        nb, kb = nrows(b), ncols(b)
        if kb == 0 or nb == 0:
            raise ShapeError(f"{spec.name}: empty second matrix")
        if spec.same_shape and (na != nb or ka != kb):
            raise ShapeError(
                f"{spec.name} requires equal shapes, got {na}x{ka} "
                f"and {nb}x{kb}")
        if spec.inner_dims and ka != nb:
            raise ShapeError(
                f"{spec.name} requires ncols(a) == nrows(b), got "
                f"{na}x{ka} and {nb}x{kb}")
        if spec.same_rows and na != nb:
            raise ShapeError(
                f"{spec.name} requires equal row counts, got {na} and {nb}")
        if spec.same_cols and ka != kb:
            raise ShapeError(
                f"{spec.name} requires equal column counts, got {ka} "
                f"and {kb}")
    elif b is not None:
        raise ShapeError(f"{spec.name} is unary; got a second matrix")


def check_symmetric(name: str, columns: Sequence[np.ndarray],
                    tolerance: float = 1e-8) -> None:
    """Check symmetry of a square column matrix (for chf, Jacobi eigen)."""
    dense = columns_to_dense(columns)
    if not np.allclose(dense, dense.T, atol=tolerance,
                       rtol=tolerance):
        raise ShapeError(f"{name} requires a symmetric matrix")
