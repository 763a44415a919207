"""No-copy kernel algorithms over column lists (the paper's BAT path).

These kernels never materialize a contiguous matrix: they compute with
whole-column vector operations plus scalar ``sel`` accesses, which is the
reduction style the paper describes for MonetDB (Alg. 2 is the inversion
below).  The rule of thumb from §7.3 applies: "design algorithms that access
entire columns and minimize accesses to single elements".

Conventions shared with the MKL backend:

* QR factors are normalized to a non-negative diagonal of R;
* eigenvalues are sorted by decreasing magnitude (R's convention);
* ``chf`` returns the upper Cholesky factor (R's ``chol``);
* SVD singular values are sorted in decreasing order.

The eigen kernels require a symmetric matrix (cyclic Jacobi); general
eigenproblems must go to the MKL backend.  This mirrors the paper's setup
where complex operations are delegated anyway.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import (
    ConvergenceError,
    LinAlgError,
    SingularMatrixError,
    UnsupportedByBackendError,
)
from repro.linalg.matrix import (
    Columns,
    check_dims,
    check_symmetric,
    ncols,
    nrows,
)
from repro.opspec import spec_of

_PIVOT_TOLERANCE = 1e-12
_JACOBI_SWEEPS = 100
_SVD_SWEEPS = 100


def _copy(columns: Columns) -> list[np.ndarray]:
    return [np.array(col, dtype=np.float64, copy=True) for col in columns]


def _identity_columns(n: int) -> list[np.ndarray]:
    cols = []
    for j in range(n):
        col = np.zeros(n, dtype=np.float64)
        col[j] = 1.0
        cols.append(col)
    return cols


class BatBackend:
    """Column-at-a-time kernels computing directly on BAT tails."""

    name = "bat"

    def compute(self, op: str, a: Columns,
                b: Columns | None = None) -> Columns:
        spec = spec_of(op)
        check_dims(spec, a, b)
        kernel = getattr(self, f"_{op}")
        if spec.arity == 2:
            return kernel(a, b)
        return kernel(a)

    # -- element-wise ------------------------------------------------------

    def _add(self, a: Columns, b: Columns) -> Columns:
        return [x + y for x, y in zip(a, b)]

    def _sub(self, a: Columns, b: Columns) -> Columns:
        return [x - y for x, y in zip(a, b)]

    def _emu(self, a: Columns, b: Columns) -> Columns:
        return [x * y for x, y in zip(a, b)]

    # -- products ----------------------------------------------------------

    def _mmu(self, a: Columns, b: Columns) -> Columns:
        """Matrix multiplication: result column j is a linear combination of
        a's columns, weighted by b's column j (one AXPY per term)."""
        n = nrows(a)
        out = []
        for bj in b:
            acc = np.zeros(n, dtype=np.float64)
            for k, ak in enumerate(a):
                weight = bj[k]
                if weight != 0.0:
                    acc += ak * weight
            out.append(acc)
        return out

    def _opd(self, a: Columns, b: Columns) -> Columns:
        """Outer product A @ B.T: result column j is a combination of a's
        columns weighted by row j of b."""
        n = nrows(a)
        rows_b = nrows(b)
        out = []
        for j in range(rows_b):
            acc = np.zeros(n, dtype=np.float64)
            for k, ak in enumerate(a):
                weight = b[k][j]
                if weight != 0.0:
                    acc += ak * weight
            out.append(acc)
        return out

    def _cpd(self, a: Columns, b: Columns) -> Columns:
        """Cross product A.T @ B: one whole-column dot per result cell.

        For a self-operand (``b is a``) the result is symmetric and only the
        upper triangle is computed (the paper's dsyrk analogue).
        """
        ka, kb = ncols(a), ncols(b)
        out = [np.empty(ka, dtype=np.float64) for _ in range(kb)]
        if b is a:
            for q in range(kb):
                for p in range(q + 1):
                    value = float(a[p] @ b[q])
                    out[q][p] = value
                    out[p][q] = value
        else:
            for q in range(kb):
                col = out[q]
                for p in range(ka):
                    col[p] = float(a[p] @ b[q])
        return out

    # -- transpose ---------------------------------------------------------

    def _tra(self, a: Columns) -> Columns:
        """Transpose via one bulk stride-copy per result column."""
        stacked = np.stack(a, axis=0)  # shape (k, n): row c is column c of A
        return [np.ascontiguousarray(stacked[:, m])
                for m in range(stacked.shape[1])]

    # -- inversion & determinant (paper Alg. 2) -----------------------------

    def _inv(self, a: Columns) -> Columns:
        """Gauss-Jordan elimination with column operations (paper Alg. 2),
        extended with column pivoting for numerical stability."""
        n = ncols(a)
        work = _copy(a)
        result = _identity_columns(n)
        scale = max(float(np.abs(col).max()) for col in work) or 1.0
        for i in range(n):
            pivot_j = max(range(i, n), key=lambda j: abs(work[j][i]))
            v1 = work[pivot_j][i]
            if abs(v1) <= _PIVOT_TOLERANCE * scale:
                raise SingularMatrixError(
                    "inv: matrix is singular (zero pivot)")
            if pivot_j != i:
                work[i], work[pivot_j] = work[pivot_j], work[i]
                result[i], result[pivot_j] = result[pivot_j], result[i]
            v1 = work[i][i]
            work[i] = work[i] / v1
            result[i] = result[i] / v1
            for j in range(n):
                if j == i:
                    continue
                v2 = work[j][i]
                if v2 != 0.0:
                    work[j] = work[j] - work[i] * v2
                    result[j] = result[j] - result[i] * v2
        return result

    def _det(self, a: Columns) -> Columns:
        """Determinant as the product of Gauss-Jordan pivots."""
        n = ncols(a)
        work = _copy(a)
        scale = max(float(np.abs(col).max()) for col in work) or 1.0
        det = 1.0
        for i in range(n):
            pivot_j = max(range(i, n), key=lambda j: abs(work[j][i]))
            v1 = work[pivot_j][i]
            if abs(v1) <= _PIVOT_TOLERANCE * scale:
                return [np.array([0.0])]
            if pivot_j != i:
                work[i], work[pivot_j] = work[pivot_j], work[i]
                det = -det
            v1 = work[i][i]
            det *= v1
            work[i] = work[i] / v1
            for j in range(i + 1, n):
                v2 = work[j][i]
                if v2 != 0.0:
                    work[j] = work[j] - work[i] * v2
        return [np.array([det])]

    # -- QR (modified Gram-Schmidt, paper §8.3) ------------------------------

    def _gram_schmidt(self, a: Columns) -> tuple[list[np.ndarray],
                                                 list[np.ndarray]]:
        """Modified Gram-Schmidt; returns (Q columns, R columns)."""
        k = ncols(a)
        q: list[np.ndarray] = []
        r = [np.zeros(k, dtype=np.float64) for _ in range(k)]
        scale = max(float(np.linalg.norm(col)) for col in a) or 1.0
        for j in range(k):
            v = np.array(a[j], dtype=np.float64, copy=True)
            for i in range(j):
                rij = float(q[i] @ v)
                r[j][i] = rij
                v -= rij * q[i]
            rjj = float(np.linalg.norm(v))
            if rjj <= 1e-12 * scale:
                raise LinAlgError(
                    "qr: matrix is rank deficient; Gram-Schmidt requires "
                    "linearly independent columns")
            r[j][j] = rjj
            q.append(v / rjj)
        return q, r

    def _qqr(self, a: Columns) -> Columns:
        q, _ = self._gram_schmidt(a)
        return q

    def _rqr(self, a: Columns) -> Columns:
        _, r = self._gram_schmidt(a)
        return r

    def _rnk(self, a: Columns) -> Columns:
        """Rank via Gram-Schmidt with column skipping (wide inputs are
        transposed first: rank(A) = rank(A^T))."""
        work = a if nrows(a) >= ncols(a) else self._tra(a)
        scale = max(float(np.linalg.norm(col)) for col in work) or 1.0
        tolerance = 1e-10 * scale * max(nrows(work), ncols(work))
        q: list[np.ndarray] = []
        rank = 0
        for col in work:
            v = np.array(col, dtype=np.float64, copy=True)
            for qi in q:
                v -= float(qi @ v) * qi
            norm = float(np.linalg.norm(v))
            if norm > tolerance:
                q.append(v / norm)
                rank += 1
        return [np.array([float(rank)])]

    # -- least squares -------------------------------------------------------

    def _sol(self, a: Columns, b: Columns) -> Columns:
        """Least-squares solve via QR: R x = Q^T b by back substitution."""
        q, r = self._gram_schmidt(a)
        k = len(q)
        out = []
        for bcol in b:
            y = np.array([float(qi @ bcol) for qi in q])
            x = np.zeros(k, dtype=np.float64)
            for i in range(k - 1, -1, -1):
                acc = y[i]
                for j in range(i + 1, k):
                    acc -= r[j][i] * x[j]
                x[i] = acc / r[i][i]
            out.append(x)
        return out

    # -- Cholesky ------------------------------------------------------------

    def _chf(self, a: Columns) -> Columns:
        """Left-looking column Cholesky; returns the upper factor U with
        U'U = A (matching R's chol)."""
        check_symmetric("chf", a)
        n = ncols(a)
        lower: list[np.ndarray] = []
        for j in range(n):
            v = np.array(a[j], dtype=np.float64, copy=True)
            for k in range(j):
                ljk = lower[k][j]
                if ljk != 0.0:
                    v -= lower[k] * ljk
            d = v[j]
            if d <= 0.0:
                raise SingularMatrixError(
                    "chf: matrix is not positive definite")
            col = v / math.sqrt(d)
            col[:j] = 0.0
            lower.append(col)
        return self._tra(lower)

    # -- symmetric eigendecomposition (cyclic Jacobi) -------------------------

    def _jacobi(self, a: Columns) -> tuple[np.ndarray, list[np.ndarray]]:
        check_symmetric("evc/evl", a)
        n = ncols(a)
        work = _copy(a)
        vectors = _identity_columns(n)
        scale = max(float(np.abs(col).max()) for col in work) or 1.0
        for _ in range(_JACOBI_SWEEPS):
            off = 0.0
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = work[q][p]
                    if abs(apq) <= 1e-14 * scale:
                        continue
                    off = max(off, abs(apq))
                    app, aqq = work[p][p], work[q][q]
                    tau = (aqq - app) / (2.0 * apq)
                    t = math.copysign(1.0,
                                      tau) / (abs(tau) +
                                              math.sqrt(1.0 + tau * tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    # Column rotation (vectorized whole-column update).
                    colp = work[p] * c - work[q] * s
                    colq = work[p] * s + work[q] * c
                    work[p], work[q] = colp, colq
                    # Restore symmetry: rows p and q mirror columns p and q.
                    for j in range(n):
                        if j == p or j == q:
                            continue
                        work[j][p] = work[p][j]
                        work[j][q] = work[q][j]
                    app_new = c * c * app - 2 * c * s * apq + s * s * aqq
                    aqq_new = s * s * app + 2 * c * s * apq + c * c * aqq
                    work[p][p] = app_new
                    work[q][q] = aqq_new
                    work[p][q] = 0.0
                    work[q][p] = 0.0
                    vp = vectors[p] * c - vectors[q] * s
                    vq = vectors[p] * s + vectors[q] * c
                    vectors[p], vectors[q] = vp, vq
            if off <= 1e-13 * scale:
                values = np.array([work[j][j] for j in range(n)])
                order = np.argsort(-np.abs(values), kind="stable")
                return values[order], [vectors[j] for j in order]
        raise ConvergenceError("evc/evl: Jacobi iteration did not converge")

    def _evl(self, a: Columns) -> Columns:
        values, _ = self._jacobi(a)
        return [values]

    def _evc(self, a: Columns) -> Columns:
        _, vectors = self._jacobi(a)
        return vectors

    # -- SVD (one-sided Jacobi / Hestenes) ------------------------------------

    def _hestenes(self, a: Columns) -> tuple[list[np.ndarray], np.ndarray,
                                             list[np.ndarray]]:
        """One-sided Jacobi SVD: orthogonalize column pairs with plane
        rotations (pure column operations).  Returns (U columns with norm
        sigma, sigma, V columns), sorted by decreasing sigma."""
        k = ncols(a)
        u = _copy(a)
        v = _identity_columns(k)
        norm_scale = max(float(np.linalg.norm(col)) for col in a) or 1.0
        for _ in range(_SVD_SWEEPS):
            rotated = False
            for p in range(k - 1):
                for q in range(p + 1, k):
                    alpha = float(u[p] @ u[p])
                    beta = float(u[q] @ u[q])
                    gamma = float(u[p] @ u[q])
                    if abs(gamma) <= 1e-14 * norm_scale * norm_scale:
                        continue
                    if abs(gamma) <= 1e-13 * math.sqrt(alpha * beta):
                        continue
                    rotated = True
                    zeta = (beta - alpha) / (2.0 * gamma)
                    t = math.copysign(1.0, zeta) / (
                        abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = c * t
                    up = c * u[p] - s * u[q]
                    uq = s * u[p] + c * u[q]
                    u[p], u[q] = up, uq
                    vp = c * v[p] - s * v[q]
                    vq = s * v[p] + c * v[q]
                    v[p], v[q] = vp, vq
            if not rotated:
                break
        else:
            raise ConvergenceError(
                "svd: one-sided Jacobi did not converge")
        sigma = np.array([float(np.linalg.norm(col)) for col in u])
        order = np.argsort(-sigma, kind="stable")
        return ([u[j] for j in order], sigma[order], [v[j] for j in order])

    def _dsv(self, a: Columns) -> Columns:
        _, sigma, _ = self._hestenes(a)
        k = len(sigma)
        out = []
        for j in range(k):
            col = np.zeros(k, dtype=np.float64)
            col[j] = sigma[j]
            out.append(col)
        return out

    def _vsv(self, a: Columns) -> Columns:
        _, _, v = self._hestenes(a)
        return v

    def _usv(self, a: Columns) -> Columns:
        """Full left singular vectors (n x n): economy U from the Hestenes
        sweep, completed to an orthonormal basis with Gram-Schmidt."""
        n = nrows(a)
        if n > 4096:
            raise UnsupportedByBackendError(
                f"usv on {n} rows would materialize an {n}x{n} result; "
                "use the MKL backend or reduce the input")
        u_scaled, sigma, _ = self._hestenes(a)
        tolerance = 1e-12 * (sigma[0] if len(sigma) else 1.0)
        basis: list[np.ndarray] = []
        for col, s in zip(u_scaled, sigma):
            if s > tolerance:
                basis.append(col / s)
        # Complete the basis against unit probes.
        probe = 0
        while len(basis) < n and probe < n:
            v = np.zeros(n, dtype=np.float64)
            v[probe] = 1.0
            for existing in basis:
                v -= float(existing @ v) * existing
            norm = float(np.linalg.norm(v))
            if norm > 1e-10:
                basis.append(v / norm)
            probe += 1
        if len(basis) < n:
            raise LinAlgError("usv: failed to complete orthonormal basis")
        return basis
