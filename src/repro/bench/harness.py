"""The experiments of §8, one function per table/figure.

Sizes are the paper's divided by ``1/scale`` (default scale keeps every
experiment in laptop/CI range).  Absolute numbers differ from the paper's
Xeon/MonetDB setup by construction; the claims under reproduction are the
*shapes*: who wins, by what factor, and where behaviour changes.  Each
experiment checks those claims against its own table
(:meth:`ExperimentResult.check`) and prints the measured value, so a claim
that does not hold on the host reads FAIL rather than going unnoticed.

Fig. 13 and Tables 4-7 time RMA+ twice: ``execute_rma`` alone, the engine
the paper measures, and the same operation as a ``Matrix`` expression on a
``repro.connect()`` session, what a user calls (the columns suffixed
``connect()``).  The sessions run without the plan and result caches, so
repeated runs recompute rather than time cache hits.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Sequence

import numpy as np

import repro.relational.ops as rel_ops
from repro.api import connect
from repro.baselines.rlike import RFrame, as_matrix, matrix_to_frame
from repro.baselines.scidb import SciDbArray
from repro.bench.reporting import ExperimentResult
from repro.core import RmaConfig
from repro.core.ops import execute_rma
from repro.data.bixi import (
    generate_numeric_trips,
    generate_stations,
    generate_trips,
)
from repro.data.dblp import generate_publications, generate_ranking
from repro.data.synthetic import (
    order_heavy_relation,
    order_names,
    sparse_pair,
    uniform_pair,
    uniform_relation,
)
from repro.errors import ReproError
from repro.linalg.mkl_backend import MklBackend
from repro.linalg.policy import BackendPolicy
from repro.linalg.transform import TransformStats
from repro.plan.expr import col
from repro.relational import rename
from repro.workloads import (
    ConferencesDataset,
    JourneysDataset,
    TripsDataset,
    run_conferences,
    run_journeys,
    run_trip_count,
    run_trips,
)
from repro.workloads.trip_count import make_dataset as make_trip_counts


_WARMED_UP = False


def _global_warmup(seconds: float = 1.5) -> None:
    """Warm up before the first measurement.

    Two effects would otherwise inflate the first table row: CPU clocks
    ramping up from idle, and the allocator growing its arenas for the
    benchmark's ~100MB working sets.  A spin loop handles the former; a
    throwaway full-size RMA call handles the latter.
    """
    global _WARMED_UP
    if _WARMED_UP:
        return
    deadline = time.perf_counter() + seconds
    scratch = np.random.default_rng(0).normal(size=200_000)
    while time.perf_counter() < deadline:
        scratch = scratch * 1.0000001 + 0.1
    r, s = uniform_pair(500_000, 10, seed=99)
    for _ in range(3):
        execute_rma("add", r, "id1", s, "id2", config=_config())
    _WARMED_UP = True


def _timeit(func: Callable[[], object], repeat: int = 5,
            seconds: Callable[[object], float] | None = None
            ) -> tuple[float, object]:
    """The fastest of ``repeat`` runs after one warmup: (seconds, result).

    The paper averages 3 runs on a quiet testbed; on shared CI hardware
    the minimum is the robust estimator of the true cost (everything
    above it is scheduler/allocator noise).  ``seconds`` reads a run's
    cost from its result, for runs that time their own phases; by
    default the cost is the call's wall time.
    """
    return _timeit_rounds([func], repeat, seconds)[0]


def _timeit_rounds(funcs: Sequence[Callable[[], object]], repeat: int = 5,
                   seconds: Callable[[object], float] | None = None
                   ) -> list[tuple[float, object]]:
    """:func:`_timeit` of each of ``funcs``, run in alternating rounds.

    After one warmup call each, every round runs each function once, so
    the systems a claim compares share every load swing of a shared host
    instead of one of them meeting it alone.  The order alternates from
    round to round, so neither side always runs first.
    """
    gc.collect()  # stabilize allocator layout across sweep points
    for func in funcs:
        func()  # warmup: page-faults, allocator, numpy dispatch
    best: list[tuple[float, object]] = [(float("inf"), None)] * len(funcs)
    for round_ in range(repeat):
        order = range(len(funcs))
        for i in (order if round_ % 2 == 0 else reversed(order)):
            start = time.perf_counter()
            result = funcs[i]()
            elapsed = time.perf_counter() - start
            if seconds is not None:
                elapsed = seconds(result)
            if elapsed < best[i][0]:
                best[i] = (elapsed, result)
    return best


def _config(optimize: bool = True,
            memory_limit: int | None = None) -> RmaConfig:
    policy = BackendPolicy()
    if memory_limit is not None:
        policy.memory_limit_bytes = memory_limit
    return RmaConfig(policy=policy, optimize_sorting=optimize,
                     validate_keys=False)


CONNECT = " connect()"


def _time_rma(row: dict, names: Sequence[str],
              configs: Sequence[RmaConfig], op: str,
              *operands: tuple) -> None:
    """Time ``op`` over ``(relation, by)`` operands under each of
    ``configs``, in alternating rounds: ``execute_rma`` alone into the
    columns ``names``, and the ``Matrix`` method of the same name on a
    ``repro.connect()`` session into the columns ``name + CONNECT``."""
    args = [part for operand in operands for part in operand]

    def engine(config):
        return lambda: execute_rma(op, *args, config=config)

    def api(config):
        db = connect(config=config, plan_cache=False)

        def run():
            first, *rest = [db.matrix(rel, by=by) for rel, by in operands]
            return getattr(first, op)(*rest).collect()
        return run

    for suffix, make in (("", engine), (CONNECT, api)):
        timed = _timeit_rounds([make(config) for config in configs])
        for name, (elapsed, _) in zip(names, timed):
            row[name + suffix] = elapsed


def _exceeds(result: ExperimentResult, text: str,
             high: str | Sequence[str], low: str | Sequence[str],
             factor: float = 1.0) -> None:
    """Check the claim that in every row each ``high`` column exceeds
    ``factor`` times each ``low`` column; rows missing a value (a system
    that failed or did not run) are skipped.  The measured value is the
    smallest high/low ratio."""
    high = [high] if isinstance(high, str) else high
    low = [low] if isinstance(low, str) else low
    ratios = []
    for row in result.rows:
        highs = [row.get(name) for name in high]
        lows = [row.get(name) for name in low]
        if None not in highs and None not in lows:
            ratios.append(min(highs) / max(max(lows), 1e-12))
    worst = min(ratios)
    result.check(text, worst > factor, f"smallest ratio {worst:.2f}x")


# -- Fig. 13: maintaining contextual information --------------------------------

def fig13(scale: float = 1.0, wide: bool = True) -> ExperimentResult:
    """Runtime of add/qqr vs. number of order attributes, with and without
    the sorting optimizations (Fig. 13a: many attrs / fewer rows; 13b:
    few attrs / more rows)."""
    if wide:
        n_rows = max(int(20_000 * scale), 500)
        sweep = [50, 100, 200, 400]
        label = "fig13a"
    else:
        n_rows = max(int(200_000 * scale), 2_000)
        sweep = [5, 10, 20, 40]
        label = "fig13b"
    series = ("add", "add relative sorting", "qqr", "qqr w/o sorting")
    result = ExperimentResult(
        label, f"context maintenance, {n_rows} tuples "
        "(seconds vs #order attributes)",
        ["#order attrs"] + [name + api for name in series
                            for api in ("", CONNECT)])
    for n_order in sweep:
        r = order_heavy_relation(n_rows, n_order, seed=9)
        s = rename(order_heavy_relation(n_rows, n_order, seed=9),
                   {name: f"s_{name}" for name in
                    order_names(order_heavy_relation(2, n_order))})
        r_by = order_names(r)
        s_by = [f"s_{name}" for name in r_by]
        row = {"#order attrs": n_order}
        # Each op's two configs are timed in alternating rounds: the
        # claims compare them.
        configs = (_config(optimize=False), _config(optimize=True))
        _time_rma(row, ("add", "add relative sorting"), configs, "add",
                  (r, r_by), (s, s_by))
        _time_rma(row, ("qqr", "qqr w/o sorting"), configs, "qqr",
                  (r, r_by))
        result.add_row(**row)
        del r, s
        gc.collect()
    for api, where in (("", "engine"), (CONNECT, "connect()")):
        _exceeds(result, f"add: relative sorting beats full sorting at "
                 f"every point ({where})", "add" + api,
                 "add relative sorting" + api)
        _exceeds(result, f"qqr: skipping the sort beats sorting at every "
                 f"point ({where})", "qqr" + api, "qqr w/o sorting" + api)
    flat = result.column("qqr w/o sorting")
    growth = flat[-1] / flat[0]
    result.check(f"qqr w/o sorting is flat: < 2x from {sweep[0]} to "
                 f"{sweep[-1]} order attributes", growth < 2.0,
                 f"{growth:.2f}x")
    return result


# -- Table 4: add over wide relations --------------------------------------------

def table4(scale: float = 1.0) -> ExperimentResult:
    n_rows = max(int(1000 * scale), 100)
    sweep = [100, 200, 400, 600, 800, 1000]
    result = ExperimentResult(
        "table4", f"add over wide relations ({n_rows} tuples)",
        ["#attrs", "seconds", "seconds" + CONNECT])
    for n_attrs in sweep:
        r, s = uniform_pair(n_rows, n_attrs, seed=4)
        row = {"#attrs": n_attrs}
        _time_rma(row, ("seconds",), (_config(),), "add", (r, "id1"),
                  (s, "id2"))
        result.add_row(**row)
        del r, s
        gc.collect()
    seconds = result.column("seconds")
    growth, wider = seconds[-1] / seconds[0], sweep[-1] // sweep[0]
    result.check(f"runtime grows superlinearly in #attrs: > {wider}x from "
                 f"{sweep[0]} to {sweep[-1]} attributes", growth > wider,
                 f"{growth:.1f}x")
    return result


# -- Table 5: add over sparse relations -------------------------------------------

def table5(scale: float = 1.0) -> ExperimentResult:
    n_rows = max(int(5_000_000 * scale / 10), 10_000)
    result = ExperimentResult(
        "table5", f"add over sparse relations ({n_rows} tuples, 10 attrs)",
        ["% zeros", "seconds", "seconds" + CONNECT])
    for percent in range(0, 101, 10):
        r, s = sparse_pair(n_rows, 10, percent / 100.0, seed=5)
        row = {"% zeros": percent}
        _time_rma(row, ("seconds",), (_config(),), "add", (r, "id1"),
                  (s, "id2"))
        result.add_row(**row)
        # Free before the next build: reallocation on a clean heap keeps
        # array placement (and thus cache behaviour) comparable across
        # sweep points.
        del r, s
        gc.collect()
    seconds = result.column("seconds")
    speedup = seconds[0] / max(seconds[-1], 1e-9)
    result.check("add over 100% zeros is ~2x faster than over none "
                 "(paper: ~2.2x)", speedup >= 2.0, f"{speedup:.2f}x")
    result.note("substrate difference: MonetDB's storage compression "
                "makes add over sparse relations cheaper; this engine "
                "compresses nothing, and numpy's dense add is already "
                "bandwidth-optimal, so the time does not fall with the "
                "share of zeros")
    return result


# -- Table 6: qqr, R vs RMA+ -------------------------------------------------------

def table6(scale: float = 1.0) -> ExperimentResult:
    """qqr scalability.  R is given a memory budget (it fails beyond it,
    as in the paper); RMA+ switches to the BAT implementation when the
    dense copy would not fit."""
    base = max(int(50_000 * scale), 2_000)
    grid_rows = [base, base * 4]
    grid_cols = [10, 40, 70]
    r_memory_cap = base * 4 * 40 * 8 * 4  # fails at the largest configs
    # RMA+ gets a budget that forces the BAT fallback at the largest size
    # (the paper's 100Mx70 row: MKL would not fit, BATs complete).
    rma_memory_cap = r_memory_cap // 2
    result = ExperimentResult(
        "table6", "qqr runtimes (seconds), R vs RMA+",
        ["tuples", "attrs", "R", "RMA+", "RMA+" + CONNECT, "RMA+ backend"])
    for n_rows in grid_rows:
        for n_cols in grid_cols:
            relation = uniform_relation(n_rows, n_cols, seed=6)
            frame = RFrame.from_relation(relation)
            names = [f"x{j}" for j in range(n_cols)]
            dense_bytes = n_rows * n_cols * 8
            if dense_bytes * 3 > r_memory_cap:
                r_seconds = None  # R runs out of memory
            else:
                def r_run():
                    m = as_matrix(frame, names)
                    q, _ = np.linalg.qr(m)
                    return q
                r_seconds = _timeit(r_run)[0]
            config = _config(memory_limit=rma_memory_cap)
            row = {"tuples": n_rows, "attrs": n_cols, "R": r_seconds}
            _time_rma(row, ("RMA+",), (config,), "qqr", (relation, "id"))
            row["RMA+ backend"] = config.policy.choose(
                "qqr", (n_rows, n_cols)).name
            result.add_row(**row)
    _exceeds(result, "RMA+ is faster than R wherever R completes",
             "R", "RMA+")
    failed = [row["RMA+ backend"] for row in result.rows
              if row["R"] is None]
    result.check("R fails above its memory budget; RMA+ completes there "
                 "on BATs", failed and set(failed) == {"bat"},
                 f"R failed at {len(failed)} of {len(result.rows)} sizes; "
                 f"RMA+ backend there: {', '.join(failed) or '-'}")
    return result


# -- Table 7: add + selection, RMA+ vs SciDB ---------------------------------------

def table7(scale: float = 1.0) -> ExperimentResult:
    sweep = [int(x * scale) for x in (100_000, 500_000, 1_000_000)]
    sweep = [max(n, 10_000) for n in sweep]
    result = ExperimentResult(
        "table7", "add followed by a selection: RMA+ vs SciDB (seconds)",
        ["tuples", "RMA+", "RMA+" + CONNECT, "SciDB", "SciDB/RMA+"])
    config = _config()
    db = connect(config=config, plan_cache=False)
    largest_difference = 0.0
    for n_rows in sweep:
        r, s = uniform_pair(n_rows, 10, seed=7)

        def rma_run():
            out = execute_rma("add", r, "id1", s, "id2", config=config)
            mask = out.column("x0").tail > 10_000.0
            return rel_ops.select_mask(out, mask)

        def api_run():
            return (db.matrix(r, by="id1") + db.matrix(s, by="id2")) \
                .filter(col("x0") > 10_000.0).collect()

        array_r = SciDbArray.from_relation(r, "id1")
        array_s = SciDbArray.from_relation(s, "id2")

        def scidb_run():
            return array_r.add(array_s).filter("x0", ">", 10_000.0)

        rma_seconds, rma_out = _timeit(rma_run)
        api_seconds, api_out = _timeit(api_run)
        scidb_seconds, scidb_out = _timeit(scidb_run)
        sums = np.array([rma_out.column("x0").tail.sum(),
                         api_out.column("x0").tail.sum(),
                         scidb_out.sum("x0")])
        largest_difference = max(largest_difference, float(
            np.max(np.abs(sums - sums[0])) / abs(sums[0])))
        result.add_row(tuples=n_rows, **{
            "RMA+": rma_seconds, "RMA+" + CONNECT: api_seconds,
            "SciDB": scidb_seconds,
            "SciDB/RMA+": scidb_seconds / max(rma_seconds, 1e-9)})
        del r, s, array_r, array_s, rma_out, api_out, scidb_out
        gc.collect()
    result.check("RMA+, RMA+ via connect() and SciDB select the same rows "
                 "(x0 sums within 1e-9)", largest_difference <= 1e-9,
                 f"largest relative difference {largest_difference:.1e}")
    _exceeds(result, "RMA+ outperforms SciDB by more than an order of "
             "magnitude (array join vs direct add)", "SciDB", "RMA+",
             factor=10.0)
    return result


# -- Fig. 14: data transformation share ---------------------------------------------

FIG14_OPS = ("add", "emu", "mmu", "qqr", "dsv", "vsv")


def fig14(scale: float = 1.0) -> ExperimentResult:
    """Share of time spent converting between storage formats, for R
    (data.table <-> matrix) and RMA+ (BAT list <-> contiguous array).
    Each share is read off the fastest of ``_timeit``'s runs."""
    sweeps = [max(int(n * scale), 2_000)
              for n in (100_000, 300_000, 500_000)]
    headers = ["system", "rows"] + [op.upper() for op in FIG14_OPS]
    result = ExperimentResult(
        "fig14", "data transformation share (% of runtime), 50 columns",
        headers)
    n_cols = 50
    for n_rows in sweeps:
        relation = uniform_relation(n_rows, n_cols, seed=14)
        names = [f"x{j}" for j in range(n_cols)]
        frame = RFrame.from_relation(relation)

        app = [relation.column(n).tail for n in names]

        def r_run(op: str) -> TransformStats:
            timings: dict = {}
            m = as_matrix(frame, names, timings)
            start = time.perf_counter()
            out = _numpy_op(op, m)
            kernel = time.perf_counter() - start
            if out.ndim == 1:
                out = out.reshape(-1, 1)
            matrix_to_frame(out, [f"c{i}" for i in range(out.shape[1])],
                            timings)
            return TransformStats(copy_in_seconds=timings["to_matrix"],
                                  copy_out_seconds=timings["to_frame"],
                                  kernel_seconds=kernel)

        def rma_run(op: str) -> TransformStats:
            backend = MklBackend()
            if op in ("add", "emu"):
                other = [np.array(c) for c in app]
                backend.compute(op, app, other)
            elif op == "mmu":
                square = [np.ascontiguousarray(c[:n_cols]) for c in app]
                backend.compute(op, app, square)
            else:
                backend.compute(op, app)
            return backend.stats

        for system, run in (("R (data.table+matrix)", r_run),
                            ("RMA+ (BATs+MKL)", rma_run)):
            row = {"system": system, "rows": n_rows}
            for op in FIG14_OPS:
                _, stats = _timeit(lambda: run(op),
                                   seconds=lambda s: s.total_seconds)
                row[op.upper()] = 100.0 * stats.transform_share()
            result.add_row(**row)
    for system in ("R", "RMA+"):
        add = min(row["ADD"] for row in result.rows
                  if row["system"].startswith(system + " "))
        result.check(f"{system}: transformation dominates ADD, > 50% at "
                     "every size (paper: up to 92%)", add > 50.0,
                     f"lowest {add:.1f}%")
    _exceeds(result, "transformation is minor for complex ops: ADD and EMU "
             "shares exceed QQR, DSV and VSV shares in every row",
             ("ADD", "EMU"), ("QQR", "DSV", "VSV"))
    return result


def _numpy_op(op: str, m: np.ndarray) -> np.ndarray:
    if op == "add":
        return m + m
    if op == "emu":
        return m * m
    if op == "mmu":
        return m @ m[: m.shape[1], :]
    if op == "qqr":
        return np.linalg.qr(m)[0]
    if op == "dsv":
        return np.diag(np.linalg.svd(m, compute_uv=False))
    if op == "vsv":
        return np.linalg.svd(m, full_matrices=False)[2].T
    raise ReproError(f"unknown fig14 op {op}")


# -- Figs. 15-18: the mixed workloads ------------------------------------------------

def _workload_table(experiment: str, title: str, param_name: str, points,
                    run, rtol: float) -> ExperimentResult:
    """One row per ``(param, dataset, systems)`` point.  Each system's
    numbers come from its fastest run by total time, by ``_timeit``'s
    rule, with a point's systems timed in alternating rounds
    (:func:`_timeit_rounds`); every system must compute the first
    system's answer."""
    results_by_param = []
    for param, dataset, systems in points:
        timed = _timeit_rounds(
            [lambda system=system: run(dataset, (system,))[0]
             for system in systems],
            repeat=3, seconds=lambda r: r.times.total)
        results_by_param.append((param, [result for _, result in timed]))
    systems = list(dict.fromkeys(r.system for _, results in results_by_param
                                 for r in results))
    headers = [param_name]
    for system in systems:
        headers += [f"{system} prep", f"{system} matrix",
                    f"{system} total"]
    table = ExperimentResult(experiment, title, headers)
    disagree = []
    for param, results in results_by_param:
        row = {param_name: param}
        for r in results:
            row[f"{r.system} prep"] = r.times.prep + r.times.load
            row[f"{r.system} matrix"] = r.times.matrix
            row[f"{r.system} total"] = r.times.total
            if not r.agrees_with(results[0], rtol=rtol):
                disagree.append(f"{r.system} at {param}")
        table.add_row(**row)
    table.check(f"all systems compute the same answer (rtol {rtol:g})",
                not disagree, ", ".join(disagree) or "all agree")
    return table


def fig15(scale: float = 1.0) -> ExperimentResult:
    """Trips OLS: year slices of growing size (paper: 3.1M..14.5M trips)."""
    stations = generate_stations(60, seed=1)
    n_total = max(int(140_000 * scale), 8_000)
    trips = generate_trips(n_total, stations, seed=2)
    slices = [(2014, 2014), (2014, 2015), (2014, 2016), (2014, 2017)]
    systems = ("rma-mkl", "rma-bat", "aida", "r", "madlib")
    points = [(f"{low}-{high}",
               TripsDataset(trips, stations, low, high,
                            min_count=max(int(50 * scale), 5)), systems)
              for low, high in slices]
    table = _workload_table(
        "fig15", f"Trips OLS ({n_total} synthetic trips; seconds)",
        "years", points, run_trips, rtol=1e-5)
    _exceeds(table, "RMA+ and AIDA beat R and MADlib",
             ("R total", "MADlib total"), ("RMA+MKL total", "AIDA total"))
    _exceeds(table, "RMA+ beats AIDA (non-numeric transfer cost)",
             "AIDA total", "RMA+MKL total")
    _exceeds(table, "RMA+MKL beats RMA+BAT in the matrix phase",
             "RMA+BAT matrix", "RMA+MKL matrix")
    return table


def fig16(scale: float = 1.0) -> ExperimentResult:
    stations = generate_stations(50, seed=1)
    n_total = max(int(150_000 * scale), 10_000)
    trips = generate_numeric_trips(n_total, stations, seed=3)
    base_systems = ("rma-mkl", "rma-bat", "aida", "r")
    points = []
    for legs in (1, 2, 3, 4, 5):
        # MADlib's pure-python chaining is combinatorial in the number of
        # legs; like the paper (which reports MADlib's largest numbers in
        # the text rather than the chart), cap it at 3 legs.
        systems = base_systems + (("madlib",) if legs <= 3 else ())
        points.append((legs, JourneysDataset(
            trips, stations, n_legs=legs,
            min_count=max(int(60 * scale), 20)), systems))
    table = _workload_table(
        "fig16", f"Journeys MLR ({n_total} numeric trips; seconds)",
        "#trips/journey", points, run_journeys, rtol=1e-4)
    _exceeds(table, "numeric-only data: AIDA's prep is comparable to "
             "RMA+'s (within 2x)", "RMA+MKL prep", "AIDA prep", factor=0.5)
    _exceeds(table, "R's merge-based prep is slower than AIDA's",
             "R prep", "AIDA prep")
    _exceeds(table, "MADlib is slowest (row-wise distance computation)",
             "MADlib total", ("RMA+MKL total", "RMA+BAT total",
                              "AIDA total", "R total"))
    return table


def fig17(scale: float = 1.0) -> ExperimentResult:
    sizes = [(int(34_000 * scale), int(70 * max(scale, 0.25))),
             (int(55_000 * scale), int(130 * max(scale, 0.25))),
             (int(72_000 * scale), int(190 * max(scale, 0.25))),
             (int(88_000 * scale), int(220 * max(scale, 0.25)))]
    sizes = [(max(a, 2_000), max(c, 20)) for a, c in sizes]
    systems = ("rma-mkl", "rma-bat", "aida", "r")
    points = [(f"{n_authors}x{n_confs}", ConferencesDataset(
        generate_publications(n_authors, n_confs, seed=12),
        generate_ranking(n_confs, seed=11)), systems)
        for n_authors, n_confs in sizes]
    table = _workload_table(
        "fig17", "Conference covariance (seconds)", "size", points,
        run_conferences, rtol=1e-6)
    _exceeds(table, "covariance dominates: RMA+MKL's matrix phase is >= 90% "
             "of its total", "RMA+MKL matrix", "RMA+MKL total", factor=0.9)
    _exceeds(table, "RMA+MKL is fastest",
             ("RMA+BAT total", "AIDA total", "R total"), "RMA+MKL total")
    _exceeds(table, "RMA+BAT's matrix phase is 24-70x slower than "
             "RMA+MKL's", "RMA+BAT matrix", "RMA+MKL matrix", factor=24.0)
    table.note("MADlib omitted from the chart (77..1814s in the paper)")
    return table


def fig18(scale: float = 1.0) -> ExperimentResult:
    sweep = [int(n * scale) for n in (1_000_000, 5_000_000, 10_000_000,
                                      15_000_000)]
    sweep = [max(n // 10, 20_000) for n in sweep]
    systems = ("rma-bat", "rma-mkl", "aida", "r", "madlib")
    points = [(n_riders, make_trip_counts(n_riders), systems)
              for n_riders in sweep]
    table = _workload_table(
        "fig18", "Trip count via add (seconds)", "riders", points,
        run_trip_count, rtol=1e-9)
    _exceeds(table, "RMA+ (no-copy BAT add) beats AIDA and R",
             ("AIDA total", "R total"), "RMA+BAT total")
    _exceeds(table, "RMA+BAT beats RMA+MKL in all settings",
             "RMA+MKL total", "RMA+BAT total")
    _exceeds(table, "MADlib (row loops) is > 3x slower than RMA+BAT",
             "MADlib total", "RMA+BAT total", factor=3.0)
    return table


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig13a": lambda scale=1.0: fig13(scale, wide=True),
    "fig13b": lambda scale=1.0: fig13(scale, wide=False),
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
}


def run_experiment(name: str, scale: float = 1.0) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ReproError(
            f"unknown experiment {name!r}; known: "
            f"{', '.join(EXPERIMENTS)}")
    _global_warmup()
    return EXPERIMENTS[name](scale=scale)


def run_all(scale: float = 1.0) -> list[ExperimentResult]:
    return [run_experiment(name, scale=scale) for name in EXPERIMENTS]
