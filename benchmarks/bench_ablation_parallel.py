"""Ablation — morsel-driven parallel execution engine (ISSUE 4).

Two access patterns the worker-pool engine targets, measured with the
engine off (serial reference) and on (``ParallelConfig(enabled=True)``,
one worker per CPU):

* **Element-wise chain** (kernel + align parallelism): a fused 3-step
  ``emu(sub(add(y1,y2), y3), y4)`` chain over four ≥1M-row relations.
  Per repeat the engine performs three composed-permutation aligns (the
  fused prepare) and a 3-step kernel program over 4 columns — all
  row-decomposable, so morsels spread across the pool and a
  deterministic chunk-ordered merge reassembles bit-identical columns.

* **Gram/mmu preparation** (prepare-stage parallelism): the prepare
  stage of ``mmu`` and of the Gram-style ``cpd`` over *fresh* INT
  relations each repeat — INT→float view materialization, key
  validation and the relative-sorting gather, run per-morsel and with
  the two arguments prepared concurrently.  Fresh relations per repeat
  keep the per-relation caches cold, which is exactly the first-touch
  cost a workload pays per new derived relation.

Both scenarios assert bit-identical relations between modes; the
parallel engine must never change a result, only its wall-clock.

Runs in two modes:

* ``pytest benchmarks/bench_ablation_parallel.py`` — pytest-benchmark
  timings at CI scale, plus an identity check;
* ``python benchmarks/bench_ablation_parallel.py [--smoke] [--output f]``
  — self-contained speedup report (``benchmarks/BENCH_parallel.json`` is
  the committed baseline).  The report records the machine's CPU count:
  speedups are only meaningful on multi-core runners (a single-CPU
  container reports ~1x by construction).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

import repro
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.core.ops import execute_rma, prepare_stage
from repro.linalg.policy import BackendPolicy
from repro.opspec import spec_of
from repro.relational.relation import Relation

try:
    from benchmarks.bench_util import relations_identical
except ImportError:  # script mode: benchmarks/ itself is on sys.path
    from bench_util import relations_identical

N_CHAIN_ROWS = 1_000_000
N_CHAIN_COLS = 4
CHAIN_REPEATS = 3
N_PREP_ROWS = 1_000_000
N_PREP_COLS = 8
PREP_REPEATS = 3


MIN_MORSEL_ROWS = 0  # 0 = ParallelConfig default; --smoke shrinks it


def _parallel(parallel_on: bool, workers: int) -> ParallelConfig:
    parallel = ParallelConfig(enabled=parallel_on, workers=workers)
    if MIN_MORSEL_ROWS:
        parallel.min_morsel_rows = MIN_MORSEL_ROWS
    return parallel


def _config(parallel_on: bool, workers: int = 0) -> RmaConfig:
    # validate_keys off for the chain reproduces the paper's benchmark
    # mode; the fused pipeline still verifies leaf keys once (cached).
    return RmaConfig(policy=BackendPolicy(prefer="auto"),
                     validate_keys=False,
                     parallel=_parallel(parallel_on, workers))


def _chain_relation(n_rows: int, index: int, seed: int) -> Relation:
    """One chain leaf: a shuffled INT key plus uniform DBL columns."""
    rng = np.random.default_rng(seed)
    data: dict = {f"k{index}": rng.permutation(n_rows).astype(np.int64)}
    for j in range(N_CHAIN_COLS):
        data[f"d{j}"] = rng.uniform(0.0, 10_000.0, n_rows)
    return Relation.from_columns(data)


def _prep_relation(n_rows: int, n_cols: int, seed: int,
                   key: str = "id") -> Relation:
    """INT application columns force the float-view materialization the
    prepare stage parallelizes; the sorted INT key keeps validation on
    the O(n) adjacent-scan path so casts dominate."""
    rng = np.random.default_rng(seed)
    data: dict = {key: np.arange(n_rows, dtype=np.int64)}
    for j in range(n_cols):
        data[f"c{j}"] = rng.integers(0, 1_000, n_rows).astype(np.int64)
    return Relation.from_columns(data)


def build_chain_inputs(n_rows: int = N_CHAIN_ROWS) -> list[Relation]:
    return [_chain_relation(n_rows, i, seed=90 + i) for i in range(4)]


def chain_pipeline(leaves: list[Relation], config: RmaConfig):
    """emu(sub(add(y1,y2), y3), y4) on a session without caches, so every
    collect executes the whole chain."""
    db = repro.connect(config=config, plan_cache=False)
    m0, m1, m2, m3 = (db.matrix(leaf, by=f"k{i}")
                      for i, leaf in enumerate(leaves))
    return (m0 + m1 - m2) * m3


def run_chain(parallel_on: bool, leaves: list[Relation],
              repeats: int = CHAIN_REPEATS, workers: int = 0):
    config = _config(parallel_on, workers)
    result = None
    start = time.perf_counter()
    for _ in range(repeats):
        result = chain_pipeline(leaves, config).collect()
    return time.perf_counter() - start, result


def run_prepare(parallel_on: bool, n_rows: int = N_PREP_ROWS,
                repeats: int = PREP_REPEATS, workers: int = 0):
    """Time the mmu/cpd prepare stage over fresh (cold-cache) relations.

    Relation construction happens outside the timer; each repeat builds
    its inputs beforehand so every timed prepare pays the first-touch
    cost (casts + validation + gather) the way a derived relation would.
    """
    config = RmaConfig(policy=BackendPolicy(prefer="auto"),
                       validate_keys=True,
                       parallel=_parallel(parallel_on, workers))
    mmu_spec, cpd_spec = spec_of("mmu"), spec_of("cpd")
    rounds = []
    for i in range(repeats):
        r = _prep_relation(n_rows, N_PREP_COLS, seed=300 + i)
        w = _prep_relation(N_PREP_COLS, 4, seed=400 + i, key="w")
        s = _prep_relation(n_rows, N_PREP_COLS, seed=500 + i, key="id2")
        rounds.append((r, w, s))
    start = time.perf_counter()
    for r, w, s in rounds:
        prepare_stage(mmu_spec, r, "id", w, "w", config)
        prepare_stage(cpd_spec, r, "id", s, "id2", config)
    return time.perf_counter() - start


def prepare_identity(n_rows: int, workers: int = 0) -> bool:
    """Full mmu + cpd results agree bit-for-bit between modes."""
    r = _prep_relation(n_rows, N_PREP_COLS, seed=910)
    w = _prep_relation(N_PREP_COLS, 4, seed=911, key="w")
    s = _prep_relation(n_rows, N_PREP_COLS, seed=912, key="id2")
    identical = True
    for op, a, a_by, b, b_by in (("mmu", r, "id", w, "w"),
                                 ("cpd", r, "id", s, "id2")):
        off = execute_rma(op, a, a_by, b, b_by, config=_config(False))
        on = execute_rma(op, a, a_by, b, b_by,
                         config=_config(True, workers))
        identical = identical and relations_identical(off, on)
    return identical


def run_ablation(n_chain: int = N_CHAIN_ROWS, n_prep: int = N_PREP_ROWS,
                 chain_repeats: int = CHAIN_REPEATS,
                 prep_repeats: int = PREP_REPEATS,
                 workers: int = 0) -> dict:
    leaves = build_chain_inputs(n_chain)
    # Warm the per-relation caches once per mode so the chain scenario
    # isolates steady-state execution (aligns + kernels + merges), not
    # first-touch argsorts.  Measurements interleave the two modes and
    # take the best of ``repeats`` rounds: min-of-k per mode is robust
    # against allocator warmup and CPU-throttling spikes that would
    # otherwise bias whichever mode runs first.
    run_chain(False, leaves, 1)
    run_chain(True, leaves, 1, workers)
    chain_off_times, chain_on_times = [], []
    result_off = result_on = None
    for _ in range(chain_repeats):
        seconds, result_off = run_chain(False, leaves, 1)
        chain_off_times.append(seconds)
        seconds, result_on = run_chain(True, leaves, 1, workers)
        chain_on_times.append(seconds)
    chain_off, chain_on = min(chain_off_times), min(chain_on_times)
    chain_identical = relations_identical(result_on, result_off)

    # Warm process-level state (ufunc dispatch, allocator arenas for this
    # array size) once per mode; the measured rounds still use fresh
    # relations, so per-relation caches stay cold inside the timer.
    run_prepare(False, n_prep, 1)
    run_prepare(True, n_prep, 1, workers)
    prep_off_times, prep_on_times = [], []
    for _ in range(prep_repeats):
        prep_off_times.append(run_prepare(False, n_prep, 1))
        prep_on_times.append(run_prepare(True, n_prep, 1, workers))
    prep_off, prep_on = min(prep_off_times), min(prep_on_times)
    prep_identical = prepare_identity(min(n_prep, 200_000), workers)

    effective = ParallelConfig(enabled=True,
                               workers=workers).effective_workers()
    return {
        "cpus": os.cpu_count(),
        "workers": effective,
        "elementwise_chain": {
            "scenario": "fused 3-step add/sub/emu chain over 4 relations "
                        f"of {n_chain}x{N_CHAIN_COLS} (INT keys, "
                        f"validate_keys=off; best of {chain_repeats} "
                        "interleaved rounds)",
            "n_rows": n_chain,
            "repeats": chain_repeats,
            "seconds_off": chain_off,
            "seconds_on": chain_on,
            "speedup": chain_off / max(chain_on, 1e-12),
            "identical": chain_identical,
        },
        "gram_mmu_prepare": {
            "scenario": "cold mmu+cpd prepare stage over fresh "
                        f"{n_prep}x{N_PREP_COLS} INT relations "
                        f"(validate_keys=on; best of {prep_repeats} "
                        "interleaved rounds)",
            "n_rows": n_prep,
            "repeats": prep_repeats,
            "seconds_off": prep_off,
            "seconds_on": prep_on,
            "speedup": prep_off / max(prep_on, 1e-12),
            "identical": prep_identical,
        },
        "identical": chain_identical and prep_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Morsel-driven parallel engine ablation")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke scale")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker threads (0 = one per CPU)")
    parser.add_argument("--output", default=None,
                        help="write the result as JSON to this file")
    args = parser.parse_args(argv)
    if args.smoke:
        global MIN_MORSEL_ROWS
        MIN_MORSEL_ROWS = 8_192  # engage chunking below the default floor
        report = run_ablation(n_chain=50_000, n_prep=50_000,
                              chain_repeats=2, prep_repeats=2,
                              workers=args.workers)
    else:
        report = run_ablation(workers=args.workers)
    print(json.dumps(report, indent=2))
    if not report["identical"]:
        print("FAIL: results differ between parallel and serial modes",
              file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


# -- pytest-benchmark mode --------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:
    @pytest.fixture(scope="module")
    def leaves():
        return build_chain_inputs(20_000)

    @pytest.mark.benchmark(group="ablation-parallel-chain")
    @pytest.mark.parametrize("parallel_on", [False, True],
                             ids=["parallel-off", "parallel-on"])
    def test_chain(benchmark, parallel_on, leaves):
        run_chain(parallel_on, leaves, 1)  # warm caches
        benchmark(lambda: run_chain(parallel_on, leaves, 1))

    @pytest.mark.benchmark(group="ablation-parallel-prepare")
    @pytest.mark.parametrize("parallel_on", [False, True],
                             ids=["parallel-off", "parallel-on"])
    def test_prepare(benchmark, parallel_on):
        benchmark(lambda: run_prepare(parallel_on, 20_000, 1))

    def test_results_identical():
        report = run_ablation(n_chain=10_000, n_prep=10_000,
                              chain_repeats=1, prep_repeats=1, workers=2)
        assert report["identical"]


if __name__ == "__main__":
    sys.exit(main())
