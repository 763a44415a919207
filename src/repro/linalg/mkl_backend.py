"""The "MKL" delegation backend: numpy/LAPACK with explicit copies.

The paper delegates complex matrix operations to Intel MKL after copying
BATs into a contiguous array of doubles (§7.3).  numpy is itself a BLAS/
LAPACK binding, so it plays MKL's role here; what matters for the
experiments is the cost structure — copy in, fast dense kernel, copy out —
and all three phases are timed through :class:`TransformStats`.
"""

from __future__ import annotations

import ctypes
import functools
import time
from contextlib import contextmanager

import numpy as np

from repro.errors import LinAlgError, ShapeError, SingularMatrixError
from repro.linalg.matrix import Columns, check_dims
from repro.linalg.transform import TransformStats, from_dense, to_dense
from repro.opspec import spec_of


def _positive_diagonal_qr(q: np.ndarray,
                          r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a QR factorization so R has a non-negative diagonal.

    QR is unique up to column signs; fixing diag(R) >= 0 makes the two
    backends produce identical factors (the Gram-Schmidt kernel produces a
    positive diagonal naturally).
    """
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, r * signs[:, None]


def _eigen(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues/vectors sorted by decreasing magnitude (R's convention)."""
    if np.allclose(dense, dense.T, atol=1e-10):
        values, vectors = np.linalg.eigh(dense)
    else:
        values, vectors = np.linalg.eig(dense)
        if np.abs(values.imag).max(initial=0.0) > 1e-9 * max(
                1.0, np.abs(values.real).max(initial=0.0)):
            raise LinAlgError(
                "evc/evl: matrix has complex eigenvalues; relations store "
                "doubles — symmetrize the input or use SVD")
        values, vectors = values.real, vectors.real
    order = np.argsort(-np.abs(values), kind="stable")
    return values[order], vectors[:, order]


@functools.cache
def _openblas_thread_setter():
    """OpenBLAS's per-thread thread-count setter, or None.

    Looks through the shared libraries the process has mapped (Linux's
    ``/proc/self/maps``) for the OpenBLAS numpy links against.  Other BLAS
    builds and platforms get None and keep the library's own threading.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


@contextmanager
def _one_blas_thread():
    """Run the enclosed BLAS calls of this thread on this thread alone."""
    setter = _openblas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


class MklBackend:
    """Dense LAPACK kernels behind an instrumented copy boundary."""

    name = "mkl"

    def __init__(self):
        self.stats = TransformStats()

    def compute(self, op: str, a: Columns,
                b: Columns | None = None) -> Columns:
        """Run one matrix operation; returns result columns."""
        spec = spec_of(op)
        check_dims(spec, a, b)
        da = to_dense(a, self.stats)
        # A self-operand (``b is a``) is copied in once.
        db = da if b is a else (
            to_dense(b, self.stats) if b is not None else None)
        start = time.perf_counter()
        if db is da:
            # A second BLAS thread speeds dsyrk up little (1.2x on a
            # 20000 x 150 Gram, 2-CPU x86 host) but stalls the call whenever
            # its core is busy (2x slower); one thread keeps it steady.
            with _one_blas_thread():
                result = self._kernel(op, da, db)
        else:
            result = self._kernel(op, da, db)
        self.stats.kernel_seconds += time.perf_counter() - start
        self.stats.calls += 1
        return from_dense(result, self.stats)

    # -- kernels -----------------------------------------------------------

    def _kernel(self, op: str, a: np.ndarray,
                b: np.ndarray | None) -> np.ndarray:
        # ``a`` is this call's own dense copy, so element-wise results are
        # written into it: no fresh output buffer to allocate and fault in.
        if op == "add":
            return np.add(a, b, out=a)
        if op == "sub":
            return np.subtract(a, b, out=a)
        if op == "emu":
            return np.multiply(a, b, out=a)
        if op == "mmu":
            return a @ b
        if op == "opd":
            return a @ b.T
        if op == "cpd":
            # For a self-operand ``b`` is the same dense buffer, and numpy
            # routes a.T @ a to dsyrk as the paper does: half the flops and
            # an exactly symmetric result.
            return a.T @ b
        if op == "tra":
            return a.T.copy()
        if op == "sol":
            solution, *_ = np.linalg.lstsq(a, b, rcond=None)
            return solution
        if op == "inv":
            try:
                return np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(f"inv: {exc}") from exc
        if op == "det":
            return np.array([[np.linalg.det(a)]])
        if op == "rnk":
            return np.array([[float(np.linalg.matrix_rank(a))]])
        if op == "qqr":
            q, r = np.linalg.qr(a, mode="reduced")
            q, _ = _positive_diagonal_qr(q, r)
            return q
        if op == "rqr":
            q, r = np.linalg.qr(a, mode="reduced")
            _, r = _positive_diagonal_qr(q, r)
            return r
        if op == "evl":
            values, _ = _eigen(a)
            return values.reshape(-1, 1)
        if op == "evc":
            _, vectors = _eigen(a)
            return vectors
        if op == "chf":
            if not np.allclose(a, a.T, atol=1e-8):
                raise ShapeError("chf requires a symmetric matrix")
            try:
                lower = np.linalg.cholesky(a)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(f"chf: {exc}") from exc
            # R's chol() returns the upper factor U with U'U = A.
            return lower.T.copy()
        if op == "usv":
            u, _, _ = np.linalg.svd(a, full_matrices=True)
            return u
        if op == "dsv":
            _, s, _ = np.linalg.svd(a, full_matrices=False)
            return np.diag(s)
        if op == "vsv":
            _, _, vt = np.linalg.svd(a, full_matrices=False)
            return vt.T.copy()
        raise LinAlgError(f"unhandled operation {op!r}")  # pragma: no cover
