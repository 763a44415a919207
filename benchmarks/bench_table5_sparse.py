"""Table 5 — add over sparse relations.

Paper claim: MonetDB's compression makes add up to ~2x faster as the zero
share grows.  Documented deviation: on the numpy substrate the dense add
is already memory-bandwidth optimal, so the curve is flat; the engine's
sparse path is kept and benchmarked but engages only on essentially empty
columns (``repro.bat.compression.SPARSE_DENSITY_THRESHOLD``).
"""

import pytest

from conftest import make_config
from repro.core.ops import execute_rma
from repro.data.synthetic import sparse_pair

N_ROWS = 100_000


@pytest.mark.benchmark(group="table5")
@pytest.mark.parametrize("percent", [0, 50, 90, 100])
def test_add_sparse(benchmark, percent):
    r, s = sparse_pair(N_ROWS, 10, percent / 100.0, seed=5)
    config = make_config()
    benchmark(lambda: execute_rma("add", r, "id1", s, "id2",
                                  config=config))


@pytest.mark.benchmark(group="table5-kernel")
def test_sparse_kernel_dense_input(benchmark):
    import numpy as np
    from repro.bat.compression import sparse_add
    rng = np.random.default_rng(0)
    a, b = rng.uniform(1, 100, N_ROWS), rng.uniform(1, 100, N_ROWS)
    benchmark(lambda: sparse_add(a, b))


@pytest.mark.benchmark(group="table5-kernel")
def test_sparse_kernel_empty_input(benchmark):
    import numpy as np
    a = np.zeros(N_ROWS)
    from repro.bat.compression import sparse_add
    benchmark(lambda: sparse_add(a, a))
