"""Backend equivalence: the BAT kernels must agree with numpy/LAPACK.

This is the core guarantee behind the paper's §7.3 flexibility claim — the
engine may route any operation to either backend and get the same relation.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import (
    LinAlgError,
    ShapeError,
    SingularMatrixError,
    UnsupportedByBackendError,
)
from repro.linalg import BatBackend, MklBackend
from repro.linalg.matrix import as_columns, columns_to_dense
from repro.linalg.mkl_backend import GRAM_BLOCK_ROWS, gram_partition

BAT = BatBackend()
MKL = MklBackend()

well_conditioned = st.integers(2, 6).flatmap(
    lambda n: arrays(np.float64, (n + 2, n),
                     elements=st.floats(-10, 10, allow_nan=False,
                                        allow_infinity=False)))


def _dense(op, backend, a, b=None):
    cols_a = as_columns(a)
    cols_b = as_columns(b) if b is not None else None
    return columns_to_dense(backend.compute(op, cols_a, cols_b))


def _spd(matrix: np.ndarray) -> np.ndarray:
    """Make a symmetric positive-definite matrix from any matrix."""
    n = matrix.shape[1]
    return matrix.T @ matrix + np.eye(n) * (1.0 + abs(matrix).sum())


class TestElementwise:
    @pytest.mark.parametrize("op,func", [
        ("add", np.add), ("sub", np.subtract), ("emu", np.multiply)])
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_matches_numpy(self, op, func, backend, rng):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        assert np.allclose(_dense(op, backend, a, b), func(a, b))

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_add_is_the_ieee_add_on_zero_columns(self, backend):
        minus_zero = np.full((4, 2), -0.0)
        assert np.signbit(_dense("add", backend, minus_zero,
                                 minus_zero)).all()

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_shape_mismatch_rejected(self, backend):
        with pytest.raises(ShapeError):
            _dense("add", backend, np.ones((2, 2)), np.ones((3, 2)))


class TestProducts:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_mmu(self, backend, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(3, 4))
        assert np.allclose(_dense("mmu", backend, a, b), a @ b)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_mmu_inner_dim_rejected(self, backend):
        with pytest.raises(ShapeError):
            _dense("mmu", backend, np.ones((5, 3)), np.ones((4, 2)))

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_opd(self, backend, rng):
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(3, 2))
        assert np.allclose(_dense("opd", backend, a, b), a @ b.T)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_cpd(self, backend, rng):
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 4))
        assert np.allclose(_dense("cpd", backend, a, b), a.T @ b)

    def test_cpd_symmetric_fast_path(self, rng):
        a = rng.normal(size=(60, 7))
        cols = as_columns(a)
        out = columns_to_dense(BAT.compute("cpd", cols, cols))
        assert np.allclose(out, a.T @ a)
        assert np.array_equal(out, out.T)

    def test_cpd_symmetric_fast_path_mkl(self, rng):
        a = rng.normal(size=(60, 7))
        cols = as_columns(a)
        out = columns_to_dense(MKL.compute("cpd", cols, cols))
        assert np.allclose(out, a.T @ a)
        assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_tra(self, backend, rng):
        a = rng.normal(size=(4, 3))
        assert np.allclose(_dense("tra", backend, a), a.T)


class TestInverse:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_inverse_times_matrix_is_identity(self, backend, rng):
        a = rng.normal(size=(5, 5)) + np.eye(5) * 5
        inv = _dense("inv", backend, a)
        assert np.allclose(inv @ a, np.eye(5), atol=1e-8)

    def test_backends_agree(self, rng):
        a = rng.normal(size=(6, 6)) + np.eye(6) * 4
        assert np.allclose(_dense("inv", BAT, a), _dense("inv", MKL, a),
                           atol=1e-8)

    def test_needs_pivoting(self):
        # Zero on the diagonal: plain Alg. 2 would divide by zero.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(_dense("inv", BAT, a), a)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_singular_rejected(self, backend):
        singular = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            _dense("inv", backend, singular)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_non_square_rejected(self, backend):
        with pytest.raises(ShapeError):
            _dense("inv", backend, np.ones((3, 2)))

    @given(well_conditioned)
    @settings(max_examples=25, deadline=None)
    def test_property_inverse(self, matrix):
        n = matrix.shape[1]
        square = matrix[:n, :] + np.eye(n) * (1.0 + abs(matrix).sum())
        inv_bat = _dense("inv", BAT, square)
        assert np.allclose(inv_bat @ square, np.eye(n), atol=1e-6)


class TestDetRank:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_det_matches_numpy(self, backend, rng):
        a = rng.normal(size=(5, 5))
        out = _dense("det", backend, a)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.linalg.det(a), rel=1e-8)

    def test_det_paper_example(self):
        # Fig. 3: det([[6,7],[8,5]]) = -26.
        a = np.array([[6.0, 7.0], [8.0, 5.0]])
        assert _dense("det", BAT, a)[0, 0] == pytest.approx(-26.0)

    def test_det_singular_is_zero(self):
        assert _dense("det", BAT, np.ones((3, 3)))[0, 0] == 0.0

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_rank_full(self, backend, rng):
        a = rng.normal(size=(6, 3))
        assert _dense("rnk", backend, a)[0, 0] == 3.0

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_rank_deficient(self, backend, rng):
        col = rng.normal(size=(6, 1))
        a = np.hstack([col, 2 * col, col - col])
        assert _dense("rnk", backend, a)[0, 0] == 1.0

    def test_rank_wide_matrix(self, rng):
        a = rng.normal(size=(2, 5))
        assert _dense("rnk", BAT, a)[0, 0] == 2.0


class TestQr:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_qr_reconstructs(self, backend, rng):
        a = rng.normal(size=(8, 4))
        q = _dense("qqr", backend, a)
        r = _dense("rqr", backend, a)
        assert np.allclose(q @ r, a, atol=1e-8)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-8)
        assert np.allclose(r, np.triu(r))
        assert (np.diag(r) >= 0).all()

    def test_backends_agree(self, rng):
        a = rng.normal(size=(7, 3))
        assert np.allclose(_dense("qqr", BAT, a), _dense("qqr", MKL, a),
                           atol=1e-8)
        assert np.allclose(_dense("rqr", BAT, a), _dense("rqr", MKL, a),
                           atol=1e-8)

    def test_paper_fig8_rqr(self):
        # Fig. 8: RQR of g = [[1,3],[1,4],[6,7],[8,5]].
        g = np.array([[1.0, 3.0], [1.0, 4.0], [6.0, 7.0], [8.0, 5.0]])
        r = _dense("rqr", MKL, g)
        # paper reports (-10.1, -8.8; 0, -4.6) up to sign: with positive
        # diagonal normalization both entries flip.
        assert abs(r[0, 0]) == pytest.approx(10.1, abs=0.05)
        assert abs(r[0, 1]) == pytest.approx(8.8, abs=0.05)
        assert abs(r[1, 1]) == pytest.approx(4.6, abs=0.05)

    def test_rank_deficient_rejected(self, rng):
        col = rng.normal(size=(5, 1))
        a = np.hstack([col, col])
        with pytest.raises(LinAlgError):
            _dense("qqr", BAT, a)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_wide_rejected(self, backend):
        with pytest.raises(ShapeError):
            _dense("qqr", backend, np.ones((2, 4)))


class TestSolve:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_square_solve(self, backend, rng):
        a = rng.normal(size=(4, 4)) + np.eye(4) * 4
        x = rng.normal(size=(4, 2))
        b = a @ x
        assert np.allclose(_dense("sol", backend, a, b), x, atol=1e-8)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_least_squares(self, backend, rng):
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=(20, 1))
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.allclose(_dense("sol", backend, a, b), expected,
                           atol=1e-8)


class TestCholesky:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_upper_factor(self, backend, rng):
        a = _spd(rng.normal(size=(6, 4)))
        u = _dense("chf", backend, a)
        assert np.allclose(u, np.triu(u))
        assert np.allclose(u.T @ u, a, rtol=1e-8)

    def test_backends_agree(self, rng):
        a = _spd(rng.normal(size=(5, 3)))
        assert np.allclose(_dense("chf", BAT, a), _dense("chf", MKL, a),
                           atol=1e-8)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_not_positive_definite_rejected(self, backend):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises((SingularMatrixError, ShapeError)):
            _dense("chf", backend, a)

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_asymmetric_rejected(self, backend):
        with pytest.raises(ShapeError):
            _dense("chf", backend, np.array([[2.0, 1.0], [0.0, 2.0]]))


class TestEigen:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_symmetric_eigenpairs(self, backend, rng):
        a = _spd(rng.normal(size=(6, 4)))
        values = _dense("evl", backend, a).ravel()
        vectors = _dense("evc", backend, a)
        for j in range(4):
            assert np.allclose(a @ vectors[:, j], values[j] * vectors[:, j],
                               atol=1e-7 * max(1.0, abs(values[0])))
        # Sorted by decreasing magnitude (R's convention).
        assert (np.abs(values)[:-1] >= np.abs(values)[1:] - 1e-12).all()

    def test_eigenvalues_agree_across_backends(self, rng):
        a = _spd(rng.normal(size=(5, 3)))
        assert np.allclose(_dense("evl", BAT, a).ravel(),
                           _dense("evl", MKL, a).ravel(), atol=1e-8)

    def test_bat_requires_symmetry(self, rng):
        a = rng.normal(size=(4, 4))
        with pytest.raises(ShapeError):
            _dense("evl", BAT, a)

    def test_mkl_complex_rejected(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(LinAlgError):
            _dense("evl", MKL, rotation)


class TestSvd:
    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_singular_values(self, backend, rng):
        a = rng.normal(size=(8, 4))
        d = _dense("dsv", backend, a)
        expected = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(np.diag(d), expected, atol=1e-8)
        assert np.allclose(d, np.diag(np.diag(d)))

    @pytest.mark.parametrize("backend", [BAT, MKL], ids=["bat", "mkl"])
    def test_reconstruction(self, backend, rng):
        a = rng.normal(size=(7, 3))
        u = _dense("usv", backend, a)
        d = _dense("dsv", backend, a)
        v = _dense("vsv", backend, a)
        sigma = np.zeros((7, 3))
        sigma[:3, :3] = d
        assert np.allclose(u @ sigma @ v.T, a, atol=1e-7)
        assert np.allclose(u.T @ u, np.eye(7), atol=1e-7)
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-7)

    def test_usv_guard_against_huge_result(self):
        big = [np.zeros(5000), np.ones(5000)]
        with pytest.raises(UnsupportedByBackendError):
            BAT.compute("usv", big)


class TestMklStats:
    def test_copy_accounting(self, rng):
        backend = MklBackend()
        a = rng.normal(size=(100, 4))
        b = rng.normal(size=(100, 4))
        backend.compute("add", as_columns(a), as_columns(b))
        stats = backend.stats
        assert stats.calls == 1
        assert stats.bytes_in == 2 * a.nbytes
        assert stats.bytes_out == a.nbytes
        assert stats.total_seconds > 0
        assert 0.0 <= stats.transform_share() <= 1.0

    def test_self_operand_copied_once(self, rng):
        backend = MklBackend()
        n, k = 200, 5
        cols = as_columns(rng.normal(size=(n, k)))
        out = columns_to_dense(backend.compute("cpd", cols, cols))
        assert backend.stats.bytes_in == n * k * 8
        assert np.array_equal(out, out.T)
        backend = MklBackend()
        other = as_columns(rng.normal(size=(n, k)))
        backend.compute("cpd", cols, other)
        assert backend.stats.bytes_in == 2 * n * k * 8


class _ThreadLocalSetter:
    """A fake of OpenBLAS's per-thread setter: one count per thread."""

    def __init__(self, start: int = 4):
        self.start = start
        self.counts: dict[int, int] = {}

    def __call__(self, threads: int) -> int:
        ident = threading.get_ident()
        previous = self.counts.get(ident, self.start)
        self.counts[ident] = threads
        return previous

    def current(self) -> int:
        return self.counts.get(threading.get_ident(), self.start)


class TestSelfOperandBlasThreads:
    """A self-operand cpd runs every dsyrk on its calling thread alone."""

    # Above the blocked Gram's floor: three row blocks.
    BLOCKED = (2 * GRAM_BLOCK_ROWS + 7, 48)

    @staticmethod
    def _fake_setter(monkeypatch, start=4):
        from repro.linalg import mkl_backend
        setter = _ThreadLocalSetter(start)
        monkeypatch.setattr(mkl_backend, "_openblas_thread_setter",
                            lambda: setter)
        return setter

    def _threads_in_kernel(self, monkeypatch, backend, setter):
        seen = []
        kernel = backend._kernel

        def recording(op, a, b):
            seen.append(setter.current())
            return kernel(op, a, b)

        monkeypatch.setattr(backend, "_kernel", recording)
        return seen

    def test_self_operand_one_thread_then_restored(self, monkeypatch, rng):
        setter = self._fake_setter(monkeypatch)
        backend = MklBackend()
        seen = self._threads_in_kernel(monkeypatch, backend, setter)
        cols = as_columns(rng.normal(size=(50, 4)))
        backend.compute("cpd", cols, cols)
        assert seen == [1] and setter.current() == 4

    def test_other_operations_keep_the_default(self, monkeypatch, rng):
        setter = self._fake_setter(monkeypatch)
        backend = MklBackend()
        seen = self._threads_in_kernel(monkeypatch, backend, setter)
        cols = as_columns(rng.normal(size=(50, 4)))
        backend.compute("cpd", cols, as_columns(rng.normal(size=(50, 4))))
        backend.compute("tra", cols)
        assert seen == [4, 4] and setter.current() == 4

    def test_restored_when_the_kernel_raises(self, monkeypatch, rng):
        setter = self._fake_setter(monkeypatch)
        backend = MklBackend()

        def failing(op, a, b):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(backend, "_kernel", failing)
        cols = as_columns(rng.normal(size=(50, 4)))
        with pytest.raises(RuntimeError):
            backend.compute("cpd", cols, cols)
        assert setter.current() == 4

    def test_every_block_one_thread_then_restored(self, monkeypatch, rng):
        setter = self._fake_setter(monkeypatch)
        backend = MklBackend()
        seen = self._threads_in_kernel(monkeypatch, backend, setter)
        cols = as_columns(rng.normal(size=self.BLOCKED))
        backend.compute("cpd", cols, cols)
        _, blocks, tasks = gram_partition(*self.BLOCKED)
        assert seen == [1] * blocks
        assert len(setter.counts) == tasks  # each task's thread set it
        assert set(setter.counts.values()) == {4}

    def test_every_thread_restored_when_a_block_raises(self, monkeypatch,
                                                       rng):
        setter = self._fake_setter(monkeypatch)
        backend = MklBackend()
        kernel = backend._kernel
        calls = []

        def failing_second(op, a, b):
            calls.append(setter.current())
            if len(calls) == 2:
                raise RuntimeError("kernel failed")
            return kernel(op, a, b)

        monkeypatch.setattr(backend, "_kernel", failing_second)
        cols = as_columns(rng.normal(size=self.BLOCKED))
        with pytest.raises(RuntimeError):
            backend.compute("cpd", cols, cols)
        assert set(calls) == {1}
        assert set(setter.counts.values()) == {4}

    def test_without_openblas_the_kernel_still_runs(self, monkeypatch, rng):
        from repro.linalg import mkl_backend
        monkeypatch.setattr(mkl_backend, "_openblas_thread_setter",
                            lambda: None)
        a = rng.normal(size=(50, 4))
        cols = as_columns(a)
        out = columns_to_dense(MklBackend().compute("cpd", cols, cols))
        assert np.allclose(out, a.T @ a)
        assert np.array_equal(out, out.T)

    def test_real_setter_round_trips(self):
        from repro.linalg import mkl_backend
        setter = mkl_backend._openblas_thread_setter()
        if setter is None:
            pytest.skip("numpy does not link an OpenBLAS with a "
                        "per-thread setting")
        previous = setter(1)
        assert setter(previous) == 1
