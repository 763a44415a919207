"""Fig. 17 — Conference covariance, all systems.

Claims: the covariance computation dominates every system's runtime
(>= 90%); RMA+ with the symmetric (dsyrk-style) MKL cross product is the
fastest; RMA+BAT is 24-70x slower than RMA+MKL on this operation; MADlib
is off the chart (measured separately at a reduced size).
"""

import pytest

from repro.workloads.conferences_cov import (
    ConferencesDataset,
    run_aida,
    run_madlib,
    run_r,
    run_rma,
)


@pytest.fixture(scope="module")
def dataset(publications, ranking):
    return ConferencesDataset(publications, ranking)


@pytest.mark.benchmark(group="fig17")
def test_conferences_rma_mkl(benchmark, dataset):
    benchmark.pedantic(lambda: run_rma(dataset, "mkl"), rounds=3,
                       iterations=1, warmup_rounds=1)


@pytest.mark.benchmark(group="fig17")
def test_conferences_rma_bat(benchmark, dataset):
    benchmark.pedantic(lambda: run_rma(dataset, "bat"), rounds=2,
                       iterations=1, warmup_rounds=0)


@pytest.mark.benchmark(group="fig17")
def test_conferences_aida(benchmark, dataset):
    benchmark.pedantic(lambda: run_aida(dataset), rounds=3, iterations=1,
                       warmup_rounds=1)


@pytest.mark.benchmark(group="fig17")
def test_conferences_r(benchmark, dataset):
    benchmark.pedantic(lambda: run_r(dataset), rounds=3, iterations=1,
                       warmup_rounds=1)


@pytest.mark.benchmark(group="fig17")
def test_conferences_madlib_reduced(benchmark):
    from repro.data.dblp import generate_publications, generate_ranking
    small = ConferencesDataset(generate_publications(800, 25, seed=12),
                               generate_ranking(25, seed=11))
    benchmark.pedantic(lambda: run_madlib(small), rounds=2, iterations=1,
                       warmup_rounds=0)


@pytest.fixture(scope="module")
def shape_dataset():
    """10000 authors x 300 conferences: the BAT cross product's python
    work grows with the square of the conference count, so the gap to MKL
    widens with it.  At 4000 x 40 the two were within 1-1.6x of each other;
    here BAT measured 7.3-8.3x slower (2-CPU x86 container)."""
    from repro.data.dblp import generate_publications, generate_ranking
    return ConferencesDataset(generate_publications(10_000, 300, seed=12),
                              generate_ranking(300, seed=11))


def test_fig17_shape(shape_dataset):
    """Matrix phase dominates, and the BAT cross product is much slower
    than the MKL one (the paper's 24-70x gap at full scale)."""
    dataset = shape_dataset
    mkl = run_rma(dataset, "mkl")
    bat = run_rma(dataset, "bat")
    aida = run_aida(dataset)
    r = run_r(dataset)
    assert mkl.agrees_with(bat, rtol=1e-6)
    assert mkl.agrees_with(aida, rtol=1e-6)
    assert mkl.agrees_with(r, rtol=1e-6)
    assert mkl.times.matrix > 0.5 * mkl.times.total
    assert bat.times.matrix > 3.0 * mkl.times.matrix
