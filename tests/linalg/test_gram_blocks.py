"""The MKL backend's row-blocked self-operand Gram.

Above a work floor (:func:`repro.linalg.mkl_backend.gram_partition`) a
self-operand ``cpd`` is the sum, in block order, of per-row-block Grams
that pool tasks compute.  Its bits depend on the shape and the values
only: not on which thread ran which block, on the pool, or on the morsel
engine.  Below the floor it is the single dsyrk over one dense copy.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.engine import pool
from repro.linalg import mkl_backend
from repro.linalg.matrix import as_columns
from repro.linalg.mkl_backend import (GRAM_BLOCK_ROWS, GRAM_MIN_WORK,
                                      MklBackend, gram_partition)
from repro.linalg.policy import BackendPolicy
from repro.relational.relation import Relation

SCALE = 10 if settings.get_current_profile_name() == "ci" else 1

ROWS = GRAM_BLOCK_ROWS
N, K = 2 * ROWS + 123, 48  # three blocks, the last one short


def _data(n: int, k: int, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, k))


def _gram(d: np.ndarray, backend: MklBackend | None = None) -> np.ndarray:
    columns = as_columns(d)
    backend = backend or MklBackend()
    return np.column_stack(backend.compute("cpd", columns, columns))


def _blockwise(d: np.ndarray) -> np.ndarray:
    """numpy reference: ``blk.T @ blk`` per block, summed in block order."""
    rows, blocks, _ = gram_partition(*d.shape)
    with mkl_backend._one_blas_thread(), np.errstate(invalid="ignore"):
        partials = [blk.T @ blk for blk in (
            np.asfortranarray(d[i * rows:(i + 1) * rows])
            for i in range(blocks))]
    total = partials[0]
    for partial in partials[1:]:
        total = total + partial
    return total


def _one_dsyrk(d: np.ndarray) -> np.ndarray:
    dense = np.asfortranarray(d)
    with mkl_backend._one_blas_thread():
        return dense.T @ dense


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


def _session_gram(d: np.ndarray, parallel: ParallelConfig) -> np.ndarray:
    """``cm.cpd(cm)`` through a session whose keys keep the rows' order."""
    names = [f"x{j}" for j in range(d.shape[1])]
    relation = Relation.from_columns(
        {"id": np.arange(len(d), dtype=np.int64),
         **{name: d[:, j].copy() for j, name in enumerate(names)}})
    db = repro.connect(config=RmaConfig(
        policy=BackendPolicy(prefer="mkl"), parallel=parallel))
    cm = db.matrix(relation, by="id")
    result = cm.cpd(cm).collect()
    return np.column_stack([result.column(name).tail for name in names])


class TestPartition:
    def test_blocks_depend_on_the_shape(self):
        rows, blocks, tasks = gram_partition(N, K)
        assert (rows, blocks) == (ROWS, 3)
        assert tasks == min(pool.pool_size(), blocks)

    def test_floor(self):
        assert gram_partition(ROWS, 4096) is None  # one block
        k = 32
        n = GRAM_MIN_WORK // (k * k)  # exactly at the floor
        assert n > ROWS
        assert gram_partition(n, k) is not None
        assert gram_partition(n - 1, k) is None

    @pytest.mark.parametrize("n", [45_000, 120_000])
    def test_olr_trips_shapes_start_no_pool_task(self, monkeypatch, n):
        # Fig. 15's design matrix (n x 2) and its response (n x 1).
        started = []

        def spy(thunks):
            started.append(len(thunks))
            return [thunk() for thunk in thunks]

        monkeypatch.setattr(pool, "run_tasks", spy)
        design = as_columns(_data(n, 2))
        response = as_columns(_data(n, 1, seed=4))
        assert gram_partition(n, 2) is None
        backend = MklBackend()
        backend.compute("cpd", design, design)
        backend.compute("cpd", design, response)
        assert started == []


class TestBitIdentity:
    def test_serial_call_matches_blockwise_reference(self):
        d = _data(N, K)
        assert np.array_equal(_bits(_gram(d)), _bits(_blockwise(d)))

    def test_symmetric_and_close_to_one_dsyrk(self):
        d = _data(N, K)
        out = _gram(d)
        reference = d.T @ d
        assert np.array_equal(_bits(out), _bits(out.T))
        assert (np.abs(out - reference).max()
                <= 1e-12 * np.abs(reference).max())

    def test_inside_a_pool_task(self):
        d = _data(N, K)
        seen = []

        def inside():
            seen.append(pool.in_worker())
            return _gram(d)

        out = pool.run_tasks([lambda: None, inside])[1]
        assert seen == [True]
        assert np.array_equal(_bits(out), _bits(_gram(d)))

    def test_sessions_serial_parallel_and_concurrent(self):
        d = _data(N, K)
        expected = _bits(_gram(d))
        serial = _session_gram(d, ParallelConfig())
        morsels = _session_gram(d, ParallelConfig(
            enabled=True, workers=4, min_morsel_rows=1))
        assert np.array_equal(_bits(serial), expected)
        assert np.array_equal(_bits(morsels), expected)
        results: list = [None] * 4

        def run(i):
            results[i] = _session_gram(d, ParallelConfig())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            assert np.array_equal(_bits(result), expected)

    @pytest.mark.parametrize("shape", [(45_000, 2), (ROWS, 100),
                                       (3 * ROWS, 8)])
    def test_below_the_floor_one_dsyrk(self, shape):
        assert gram_partition(*shape) is None
        d = _data(*shape)
        assert np.array_equal(_bits(_gram(d)), _bits(_one_dsyrk(d)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=15 * SCALE, deadline=None)
    @given(blocks=st.integers(2, 3),
           tail=st.one_of(st.just(1), st.just(ROWS),
                          st.integers(1, ROWS)),
           extra_k=st.integers(0, 16),
           specials=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1),
                                       st.sampled_from(
                                           [np.nan, np.inf, -np.inf])),
                             max_size=3),
           seed=st.integers(0, 2 ** 16))
    def test_random_shapes_and_special_values(self, blocks, tail, extra_k,
                                              specials, seed):
        n = (blocks - 1) * ROWS + tail  # the last block has ``tail`` rows
        k = int(np.ceil(np.sqrt(GRAM_MIN_WORK / n))) + extra_k
        d = _data(n, k, seed)
        for row, col, value in specials:
            d[min(int(row * n), n - 1), min(int(col * k), k - 1)] = value
        assert gram_partition(n, k)[1] == blocks
        out = _gram(d)
        assert np.array_equal(_bits(out), _bits(_blockwise(d)))
        assert np.array_equal(_bits(out), _bits(out.T))
        if not specials:
            reference = d.T @ d
            assert (np.abs(out - reference).max()
                    <= 1e-12 * np.abs(reference).max())


class TestStats:
    def test_one_call_one_copy(self):
        backend = MklBackend()
        _gram(_data(N, K), backend)
        stats = backend.stats
        assert stats.calls == 1
        assert stats.bytes_in == N * K * 8
        assert stats.bytes_out == K * K * 8
        assert stats.copy_in_seconds > 0 and stats.kernel_seconds > 0
