"""Tests for the backend policy (§7.3) and the instrumented transforms."""

import numpy as np
import pytest

from repro.errors import BackendError
from repro.linalg import BackendPolicy, TransformStats, from_dense, to_dense
from repro.linalg.kernels import KernelProgram, run_program
from repro.linalg.matrix import as_columns
from repro.opspec import LINEAR_OPS, OPS


class TestPolicy:
    def test_linear_ops_use_bat(self):
        policy = BackendPolicy()
        for op in LINEAR_OPS:
            assert policy.choose(op, (1000, 10)).name == "bat", op

    def test_complex_ops_use_mkl(self):
        policy = BackendPolicy()
        for op in ("qqr", "inv", "dsv", "mmu", "cpd", "evl"):
            assert policy.choose(op, (1000, 10)).name == "mkl", op

    def test_memory_guard_falls_back_to_bat(self):
        policy = BackendPolicy(memory_limit_bytes=1000)
        assert policy.choose("qqr", (100_000, 50)).name == "bat"

    def test_forced_backends(self):
        assert BackendPolicy(prefer="bat").choose(
            "qqr", (10, 2)).name == "bat"
        assert BackendPolicy(prefer="mkl").choose(
            "add", (10, 2)).name == "mkl"

    def test_unknown_preference_rejected(self):
        with pytest.raises(BackendError):
            BackendPolicy(prefer="gpu")

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            BackendPolicy().choose("nope", (10, 2))

    def test_self_operand_cpd_charged_one_copy(self, rng):
        n, k = 1000, 10
        one_copy = BackendPolicy().dense_bytes("cpd", (n, k))
        two_copies = BackendPolicy().dense_bytes("cpd", (n, k), (n, k))
        limit = (one_copy + two_copies) // 2
        a = as_columns(rng.normal(size=(n, k)))
        b = as_columns(rng.normal(size=(n, k)))
        cpd = KernelProgram.single("cpd", binary=True)
        policy = BackendPolicy(memory_limit_bytes=limit)
        run_program(cpd, [a, list(a)], policy)  # same arrays: b = a
        assert policy.mkl.stats.calls == 1
        run_program(cpd, [a, b], policy)  # distinct: Table 6 fallback
        assert policy.mkl.stats.calls == 1

    def test_usv_memory_estimate_quadratic(self):
        policy = BackendPolicy()
        small = policy.dense_bytes("qqr", (1000, 5))
        usv = policy.dense_bytes("usv", (1000, 5))
        assert usv > small  # usv's full U is nrows x nrows


class TestTransforms:
    def test_roundtrip(self, rng):
        columns = [rng.normal(size=100) for _ in range(5)]
        dense = to_dense(columns)
        assert dense.shape == (100, 5)
        back = from_dense(dense)
        for original, restored in zip(columns, back):
            assert np.allclose(original, restored)

    def test_dense_is_fortran_contiguous(self, rng):
        # MKL-style kernels want one contiguous buffer of doubles.
        dense = to_dense([rng.normal(size=10) for _ in range(3)])
        assert dense.flags.f_contiguous

    def test_from_dense_scalar_and_vector(self):
        assert from_dense(np.float64(3.0))[0][0] == 3.0
        out = from_dense(np.array([1.0, 2.0]))
        assert len(out) == 1 and list(out[0]) == [1.0, 2.0]

    def test_stats_accounting(self, rng):
        stats = TransformStats()
        columns = [rng.normal(size=1000) for _ in range(4)]
        dense = to_dense(columns, stats)
        from_dense(dense, stats)
        assert stats.bytes_in == 4 * 1000 * 8
        assert stats.bytes_out == 4 * 1000 * 8
        assert stats.copy_in_seconds > 0
        assert stats.copy_out_seconds > 0

    def test_share_bounds(self):
        stats = TransformStats()
        assert stats.transform_share() == 0.0
        stats.copy_in_seconds = 1.0
        stats.kernel_seconds = 1.0
        assert stats.transform_share() == 0.5
