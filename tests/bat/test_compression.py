"""Tests for sparse-aware arithmetic (Table 5 machinery)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat.compression import estimate_density, sparse_add
from repro.linalg import BatBackend

values = st.lists(
    st.one_of(st.just(0.0),
              st.floats(min_value=-100, max_value=100,
                        allow_nan=False, allow_infinity=False)),
    min_size=0, max_size=200)


class TestSparseAdd:
    @given(values, values)
    @settings(max_examples=80, deadline=None)
    def test_equals_dense_add(self, a, b):
        n = min(len(a), len(b))
        va = np.array(a[:n], dtype=np.float64)
        vb = np.array(b[:n], dtype=np.float64)
        assert np.allclose(sparse_add(va, vb), va + vb)

    def test_all_zero(self):
        out = sparse_add(np.zeros(10), np.zeros(10))
        assert not out.any()

    def test_bat_level_dispatch(self, monkeypatch):
        # The BAT backend's add takes the sparse path for near-empty
        # columns only.
        import repro.bat.compression as compression
        calls = []
        monkeypatch.setattr(compression, "sparse_add",
                            lambda x, y: calls.append(1) or x + y)
        sparse = np.zeros(1000)
        sparse[[3, 700]] = [1.0, 2.0]
        dense = np.arange(1000.0)
        out = BatBackend().compute("add", [sparse, dense], [sparse, sparse])
        assert len(calls) == 1
        assert np.array_equal(out[0], 2 * sparse)
        assert np.array_equal(out[1], dense + sparse)

    def test_int_preserved(self):
        out = sparse_add(np.array([0, 1]), np.array([2, 0]))
        assert out.dtype == np.int64
        assert list(out) == [2, 1]


class TestDensityEstimate:
    def test_dense(self):
        assert estimate_density(np.ones(100)) == 1.0

    def test_sparse(self):
        assert estimate_density(np.zeros(100)) == 0.0

    def test_empty(self):
        assert estimate_density(np.array([])) == 0.0

    def test_sampled_estimate_close(self):
        rng = np.random.default_rng(0)
        data = (rng.random(100_000) < 0.3).astype(float)
        estimate = estimate_density(data)
        assert 0.2 < estimate < 0.4
