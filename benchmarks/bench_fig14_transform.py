"""Fig. 14 — overhead of data transformation.

For the MKL delegation path, how much of the runtime is spent copying BATs
into contiguous arrays and back?  Claim: the transformation share dominates
simple operations (ADD/EMU up to ~92%) and is minor for complex ones
(QQR/DSV/VSV).
"""

import numpy as np
import pytest

from repro.baselines.rlike import RFrame, as_matrix, matrix_to_frame
from repro.data.synthetic import uniform_relation
from repro.linalg.mkl_backend import MklBackend
from repro.linalg.transform import from_dense, to_dense

N_ROWS = 50_000
N_COLS = 50


def _columns(seed: int) -> list:
    relation = uniform_relation(N_ROWS, N_COLS, seed=seed)
    return [relation.column(f"x{j}").tail for j in range(N_COLS)]


@pytest.fixture(scope="module")
def columns():
    return _columns(14)


@pytest.fixture(scope="module")
def other_columns():
    # ADD(A, B) needs a distinct B: the backend copies a self-operand
    # (``b is a``) in once, which is not the transformation Fig. 14 times.
    return _columns(15)


@pytest.mark.benchmark(group="fig14-transform")
def test_copy_roundtrip(benchmark, columns):
    benchmark(lambda: from_dense(to_dense(columns)))


@pytest.mark.benchmark(group="fig14-simple")
def test_add_via_mkl(benchmark, columns, other_columns):
    backend = MklBackend()
    benchmark(lambda: backend.compute("add", columns, other_columns))


@pytest.mark.benchmark(group="fig14-complex")
def test_qqr_via_mkl(benchmark, columns):
    backend = MklBackend()
    benchmark(lambda: backend.compute("qqr", columns))


@pytest.mark.benchmark(group="fig14-complex")
def test_dsv_via_mkl(benchmark, columns):
    backend = MklBackend()
    benchmark(lambda: backend.compute("dsv", columns))


def test_shares_match_paper_shape(columns, other_columns):
    """ADD's transform share must exceed QQR's (the Fig. 14 ordering)."""
    add_backend = MklBackend()
    for _ in range(3):
        add_backend.compute("add", columns, other_columns)
    qqr_backend = MklBackend()
    for _ in range(3):
        qqr_backend.compute("qqr", columns)
    add_share = add_backend.stats.transform_share()
    qqr_share = qqr_backend.stats.transform_share()
    assert add_share > qqr_share
    assert add_share > 0.5  # transformation dominates the simple op


def test_r_conversion_share(columns):
    """Same shape for R: data.table <-> matrix conversion dominates add."""
    frame = RFrame({f"x{j}": col for j, col in enumerate(columns)})
    names = list(frame.names)
    timings: dict = {}
    import time
    matrix = as_matrix(frame, names, timings)
    start = time.perf_counter()
    out = matrix + matrix
    kernel = time.perf_counter() - start
    matrix_to_frame(out, names, timings)
    transform = timings["to_matrix"] + timings["to_frame"]
    assert transform / (transform + kernel) > 0.5
