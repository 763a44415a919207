"""Ablation — BAT property tracking + per-relation order caching (ISSUE 1).

Repeated relational matrix operations over one (immutable) relation are the
paper's OLR/MLR access pattern: the same order schema is established on
every call.  With the property layer on (its one gate is the switch
``repro.bat.properties.use_properties``), the relation's order cache makes
every call after the first skip the lexicographic argsort, the key
validation and the INT->float casts; with it off, each call recomputes all
three from scratch.  Results are bit-identical either way — the script
asserts it.

Runs in two modes:

* ``pytest benchmarks/bench_ablation_properties.py`` — pytest-benchmark
  timings at CI scale;
* ``python benchmarks/bench_ablation_properties.py [--quick] [--output f]``
  — self-contained speedup report (acceptance scale: 100k rows), optionally
  written as JSON (``benchmarks/BENCH_properties.json`` is the committed
  baseline);
* ``--chained`` — chained-operation mode: each ``add`` consumes the
  previous *derived* result, so the win comes from ``merge_result``
  seeding the result's order cache (ISSUE 2) rather than from the
  per-relation cache of the base inputs.
"""

import argparse
import json
import sys
import time

from repro.bat.properties import use_properties
from repro.core import RmaConfig
from repro.core.ops import execute_rma
from repro.data.synthetic import order_heavy_relation, order_names
from repro.linalg.policy import BackendPolicy
from repro.relational import rename

try:
    from benchmarks.bench_util import relations_identical
except ImportError:  # script mode: benchmarks/ itself is on sys.path
    from bench_util import relations_identical

N_ROWS = 100_000
N_ORDER = 4
REPEATS = 10


def _config() -> RmaConfig:
    # validate_keys on: key validation is part of what the cache amortizes.
    return RmaConfig(policy=BackendPolicy(prefer="bat"),
                     optimize_sorting=True, validate_keys=True)


def _build_inputs(n_rows: int, n_order: int):
    r = order_heavy_relation(n_rows, n_order, seed=21)
    by = order_names(r)
    s = rename(order_heavy_relation(n_rows, n_order, seed=22),
               {name: f"s_{name}" for name in by})
    s_by = [f"s_{name}" for name in by]
    return r, by, s, s_by


def run_scenario(use_props: bool, n_rows: int = N_ROWS,
                 n_order: int = N_ORDER, repeats: int = REPEATS):
    """Time ``repeats`` add calls over one relation pair; return
    (seconds, last result relation)."""
    with use_properties(use_props):
        r, by, s, s_by = _build_inputs(n_rows, n_order)
        config = _config()
        result = None
        start = time.perf_counter()
        for _ in range(repeats):
            result = execute_rma("add", r, by, s, s_by, config=config)
        elapsed = time.perf_counter() - start
    return elapsed, result


def run_chained_scenario(use_props: bool, n_rows: int = N_ROWS,
                         n_order: int = N_ORDER, repeats: int = REPEATS):
    """Chained-operation mode: ``add`` results feed the next ``add``.

    Each step's first argument is the previous step's *derived* relation,
    ordered by its full (grown) order schema.  With the property layer on,
    ``merge_result`` pre-seeds the derived relation's order cache, so the
    chained sorts and key validations are free; with it off every step
    re-sorts the derived rows from scratch."""
    with use_properties(use_props):
        r = order_heavy_relation(n_rows, n_order, seed=21)
        by = order_names(r)
        config = _config()
        extras = [rename(order_heavy_relation(n_rows, n_order,
                                              seed=30 + i),
                         {name: f"e{i}_{name}" for name in by})
                  for i in range(repeats)]
        result = None
        start = time.perf_counter()
        current, current_by = r, list(by)
        for i, extra in enumerate(extras):
            extra_by = [f"e{i}_{name}" for name in by]
            result = execute_rma("add", current, current_by, extra,
                                 extra_by, config=config)
            current, current_by = result, current_by + extra_by
        elapsed = time.perf_counter() - start
    return elapsed, result


def run_chained_ablation(n_rows: int = N_ROWS, n_order: int = N_ORDER,
                         repeats: int = 4) -> dict:
    run_chained_scenario(True, max(n_rows // 10, 1_000), n_order, 2)
    run_chained_scenario(False, max(n_rows // 10, 1_000), n_order, 2)
    seconds_off, result_off = run_chained_scenario(False, n_rows, n_order,
                                                   repeats)
    seconds_on, result_on = run_chained_scenario(True, n_rows, n_order,
                                                 repeats)
    return {
        "scenario": f"{repeats}-step chained add over derived relations, "
                    f"{n_rows} rows, {n_order} base order attrs, "
                    "validate_keys=on",
        "n_rows": n_rows,
        "n_order": n_order,
        "repeats": repeats,
        "seconds_off": seconds_off,
        "seconds_on": seconds_on,
        "speedup": seconds_off / max(seconds_on, 1e-12),
        "identical": relations_identical(result_on, result_off),
    }


def run_ablation(n_rows: int = N_ROWS, n_order: int = N_ORDER,
                 repeats: int = REPEATS) -> dict:
    # Warmup both paths once so allocator/dispatch effects cancel out.
    run_scenario(True, max(n_rows // 10, 1_000), n_order, 2)
    run_scenario(False, max(n_rows // 10, 1_000), n_order, 2)
    seconds_off, result_off = run_scenario(False, n_rows, n_order, repeats)
    seconds_on, result_on = run_scenario(True, n_rows, n_order, repeats)
    return {
        "scenario": f"{repeats}x add over one relation pair, "
                    f"{n_rows} rows, {n_order} order attrs, "
                    "validate_keys=on",
        "n_rows": n_rows,
        "n_order": n_order,
        "repeats": repeats,
        "seconds_off": seconds_off,
        "seconds_on": seconds_on,
        "speedup": seconds_off / max(seconds_on, 1e-12),
        "identical": relations_identical(result_on, result_off),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Properties/order-cache ablation")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale (20k rows)")
    parser.add_argument("--chained", action="store_true",
                        help="chained-operation mode (derived relations)")
    parser.add_argument("--output", default=None,
                        help="write the result as JSON to this file")
    args = parser.parse_args(argv)
    n_rows = 20_000 if args.quick else N_ROWS
    if args.chained:
        report = run_chained_ablation(n_rows=n_rows)
    else:
        report = run_ablation(n_rows=n_rows)
    print(json.dumps(report, indent=2))
    if not report["identical"]:
        print("FAIL: results differ between property layer on/off",
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
    @pytest.mark.benchmark(group="ablation-properties")
    @pytest.mark.parametrize("use_props", [False, True],
                             ids=["props-off", "props-on"])
    def test_repeated_add(benchmark, use_props):
        benchmark(lambda: run_scenario(use_props, n_rows=20_000, repeats=5))

    def test_results_identical():
        report = run_ablation(n_rows=20_000, repeats=3)
        assert report["identical"]


if __name__ == "__main__":
    sys.exit(main())
