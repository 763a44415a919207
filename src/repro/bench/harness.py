"""The experiments of §8, one function per table/figure.

Sizes are the paper's divided by ``1/scale`` (default scale keeps every
experiment in laptop/CI range).  Absolute numbers differ from the paper's
Xeon/MonetDB setup by construction; the claims under reproduction are the
*shapes*: who wins, by what factor, and where behaviour changes.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Sequence

import numpy as np

import repro.relational.ops as rel_ops
from repro.baselines.rlike import RFrame, as_matrix, matrix_to_frame
from repro.baselines.scidb import SciDbArray
from repro.bat.compression import SPARSE_DENSITY_THRESHOLD
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


def _timeit(func: Callable[[], object], repeat: int = 5) -> float:
    """Minimum of ``repeat`` runs after one warmup.

    The paper averages 3 runs on a quiet testbed; on shared CI hardware
    the minimum is the robust estimator of the true cost (everything
    above it is scheduler/allocator noise).
    """
    gc.collect()  # stabilize allocator layout across sweep points
    func()  # warmup: page-faults, allocator, numpy dispatch
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _config(optimize: bool = True, prefer: str = "auto",
            memory_limit: int | None = None) -> RmaConfig:
    policy = BackendPolicy(prefer=prefer)
    if memory_limit is not None:
        policy.memory_limit_bytes = memory_limit
    return RmaConfig(policy=policy, optimize_sorting=optimize,
                     validate_keys=False)


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
    result = ExperimentResult(
        label, f"context maintenance, {n_rows} tuples "
        "(seconds vs #order attributes)",
        ["#order attrs", "add", "add relative sorting",
         "qqr", "qqr w/o sorting"])
    for n_order in sweep:
        r = order_heavy_relation(n_rows, n_order, seed=9)
        s = rename(order_heavy_relation(n_rows, n_order, seed=9),
                   {name: f"s_{name}" for name in
                    order_names(order_heavy_relation(2, n_order))})
        r_by = order_names(r)
        s_by = [f"s_{name}" for name in r_by]
        add_full = _timeit(lambda: execute_rma(
            "add", r, r_by, s, s_by, config=_config(optimize=False)))
        add_relative = _timeit(lambda: execute_rma(
            "add", r, r_by, s, s_by, config=_config(optimize=True)))
        qqr_full = _timeit(lambda: execute_rma(
            "qqr", r, r_by, config=_config(optimize=False)))
        qqr_none = _timeit(lambda: execute_rma(
            "qqr", r, r_by, config=_config(optimize=True)))
        result.add_row(**{"#order attrs": n_order, "add": add_full,
                          "add relative sorting": add_relative,
                          "qqr": qqr_full, "qqr w/o sorting": qqr_none})
        del r, s
        gc.collect()
    result.note("paper: optimized variants clearly outperform the "
                "non-optimized ones; qqr w/o sorting is flat")
    return result


# -- Table 4: add over wide relations --------------------------------------------

def table4(scale: float = 1.0) -> ExperimentResult:
    n_rows = max(int(1000 * scale), 100)
    sweep = [100, 200, 400, 600, 800, 1000]
    result = ExperimentResult(
        "table4", f"add over wide relations ({n_rows} tuples)",
        ["#attrs", "seconds"])
    for n_attrs in sweep:
        r, s = uniform_pair(n_rows, n_attrs, seed=4)
        seconds = _timeit(lambda: execute_rma(
            "add", r, "id1", s, "id2", config=_config()))
        result.add_row(**{"#attrs": n_attrs, "seconds": seconds})
        del r, s
        gc.collect()
    result.note("paper Table 4: runtime grows superlinearly in #attrs but "
                "the engine handles thousands of columns")
    return result


# -- Table 5: add over sparse relations -------------------------------------------

def table5(scale: float = 1.0) -> ExperimentResult:
    n_rows = max(int(5_000_000 * scale / 10), 10_000)
    result = ExperimentResult(
        "table5", f"add over sparse relations ({n_rows} tuples, 10 attrs)",
        ["% zeros", "seconds"])
    for percent in range(0, 101, 10):
        r, s = sparse_pair(n_rows, 10, percent / 100.0, seed=5)
        seconds = _timeit(lambda: execute_rma(
            "add", r, "id1", s, "id2", config=_config()))
        result.add_row(**{"% zeros": percent, "seconds": seconds})
        # Free before the next build: reallocation on a clean heap keeps
        # array placement (and thus cache behaviour) comparable across
        # sweep points.
        del r, s
        gc.collect()
    rows = result.column("seconds")
    result.note(f"dense/empty ratio: {rows[0] / max(rows[-1], 1e-9):.2f} "
                "(paper: ~2.2x faster at 100% zeros)")
    result.note("substrate difference: numpy's dense add is bandwidth-"
                "optimal, so the sparse path engages only above "
                f"{1.0 - SPARSE_DENSITY_THRESHOLD:.0%} zeros; MonetDB's "
                "storage compression helps earlier")
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
        ["tuples", "attrs", "R", "RMA+", "RMA+ backend"])
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
                r_seconds = _timeit(r_run)
            config = _config(memory_limit=rma_memory_cap)
            rma_seconds = _timeit(lambda: execute_rma(
                "qqr", relation, "id", config=config))
            backend = config.policy.choose(
                "qqr", (n_rows, n_cols)).name
            result.add_row(tuples=n_rows, attrs=n_cols,
                           **{"R": r_seconds, "RMA+": rma_seconds,
                              "RMA+ backend": backend})
    result.note("paper Table 6: RMA+ consistently faster; R fails above "
                "its memory budget ('-'); RMA+ switches to BATs and "
                "completes")
    return result


# -- Table 7: add + selection, RMA+ vs SciDB ---------------------------------------

def table7(scale: float = 1.0) -> ExperimentResult:
    sweep = [int(x * scale) for x in (100_000, 500_000, 1_000_000)]
    sweep = [max(n, 10_000) for n in sweep]
    result = ExperimentResult(
        "table7", "add followed by a selection: RMA+ vs SciDB (seconds)",
        ["tuples", "RMA+", "SciDB", "SciDB/RMA+"])
    for n_rows in sweep:
        r, s = uniform_pair(n_rows, 10, seed=7)

        def rma_run():
            out = execute_rma("add", r, "id1", s, "id2",
                              config=_config())
            mask = out.column("x0").tail > 10_000.0
            return rel_ops.select_mask(out, mask)

        array_r = SciDbArray.from_relation(r, "id1")
        array_s = SciDbArray.from_relation(s, "id2")

        def scidb_run():
            return array_r.add(array_s).filter("x0", ">", 10_000.0)

        rma_seconds = _timeit(rma_run)
        scidb_seconds = _timeit(scidb_run)
        result.add_row(tuples=n_rows, **{
            "RMA+": rma_seconds, "SciDB": scidb_seconds,
            "SciDB/RMA+": scidb_seconds / max(rma_seconds, 1e-9)})
        del r, s, array_r, array_s
        gc.collect()
    result.note("paper Table 7: RMA+ outperforms SciDB by more than an "
                "order of magnitude (array join vs direct add)")
    return result


# -- Fig. 14: data transformation share ---------------------------------------------

FIG14_OPS = ("add", "emu", "mmu", "qqr", "dsv", "vsv")


def fig14(scale: float = 1.0) -> ExperimentResult:
    """Share of time spent converting between storage formats, for R
    (data.table <-> matrix) and RMA+ (BAT list <-> contiguous array)."""
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

        def r_share(op: str) -> float:
            timings: dict = {}
            m = as_matrix(frame, names, timings)
            start = time.perf_counter()
            out = _numpy_op(op, m)
            kernel = time.perf_counter() - start
            if out.ndim == 1:
                out = out.reshape(-1, 1)
            matrix_to_frame(out, [f"c{i}" for i in range(out.shape[1])],
                            timings)
            transform = timings.get("to_matrix", 0.0) \
                + timings.get("to_frame", 0.0)
            return 100.0 * transform / (transform + kernel)

        row_r = {"system": "R (data.table+matrix)", "rows": n_rows}
        for op in FIG14_OPS:
            row_r[op.upper()] = r_share(op)
        result.add_row(**row_r)

        def rma_share(op: str) -> float:
            backend = MklBackend()
            app = [relation.column(n).tail for n in names]
            if op in ("add", "emu"):
                other = [np.array(c) for c in app]
                backend.compute(op, app, other)
            elif op == "mmu":
                square = [np.ascontiguousarray(c[:n_cols]) for c in app]
                backend.compute(op, app, square)
            else:
                backend.compute(op, app)
            return 100.0 * backend.stats.transform_share()

        row_m = {"system": "RMA+ (BATs+MKL)", "rows": n_rows}
        for op in FIG14_OPS:
            row_m[op.upper()] = rma_share(op)
        result.add_row(**row_m)
    result.note("paper Fig. 14: transformation dominates simple ops "
                "(ADD/EMU up to 92%) and is minor for complex ops "
                "(QQR/DSV/VSV)")
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

def _workload_table(experiment: str, title: str, results_by_param,
                    param_name: str) -> ExperimentResult:
    systems: list[str] = []
    for _, results in results_by_param:
        for r in results:
            if r.system not in systems:
                systems.append(r.system)
    headers = [param_name]
    for system in systems:
        headers += [f"{system} prep", f"{system} matrix",
                    f"{system} total"]
    table = ExperimentResult(experiment, title, headers)
    for param, results in results_by_param:
        row = {param_name: param}
        for r in results:
            row[f"{r.system} prep"] = r.times.prep + r.times.load
            row[f"{r.system} matrix"] = r.times.matrix
            row[f"{r.system} total"] = r.times.total
        table.add_row(**row)
    return table


def fig15(scale: float = 1.0,
          with_madlib: bool = True) -> ExperimentResult:
    """Trips OLS: year slices of growing size (paper: 3.1M..14.5M trips)."""
    stations = generate_stations(60, seed=1)
    n_total = max(int(140_000 * scale), 8_000)
    trips = generate_trips(n_total, stations, seed=2)
    slices = [(2014, 2014), (2014, 2015), (2014, 2016), (2014, 2017)]
    systems = ("rma-mkl", "rma-bat", "aida", "r")
    if with_madlib:
        systems += ("madlib",)
    rows = []
    for low, high in slices:
        dataset = TripsDataset(trips, stations, low, high,
                               min_count=max(int(50 * scale), 5))
        rows.append((f"{low}-{high}", run_trips(dataset, systems)))
    table = _workload_table(
        "fig15", f"Trips OLS ({n_total} synthetic trips; seconds)",
        rows, "years")
    table.note("paper Fig. 15: RMA+ & AIDA beat R and MADlib; RMA+ beats "
               "AIDA via non-numeric transfer cost; RMA+MKL beats RMA+BAT")
    return table


def fig16(scale: float = 1.0,
          with_madlib: bool = True) -> ExperimentResult:
    stations = generate_stations(50, seed=1)
    n_total = max(int(150_000 * scale), 10_000)
    trips = generate_numeric_trips(n_total, stations, seed=3)
    base_systems = ("rma-mkl", "rma-bat", "aida", "r")
    rows = []
    for legs in (1, 2, 3, 4, 5):
        # MADlib's pure-python chaining is combinatorial in the number of
        # legs; like the paper (which reports MADlib's largest numbers in
        # the text rather than the chart), cap it at 3 legs.
        systems = base_systems
        if with_madlib and legs <= 3:
            systems = base_systems + ("madlib",)
        dataset = JourneysDataset(trips, stations, n_legs=legs,
                                  min_count=max(int(60 * scale), 20))
        rows.append((legs, run_journeys(dataset, systems)))
    table = _workload_table(
        "fig16", f"Journeys MLR ({n_total} numeric trips; seconds)",
        rows, "#trips/journey")
    table.note("paper Fig. 16: numeric-only data, AIDA joins comparable "
               "to RMA+; MADlib slowest (row-wise distance computation)")
    return table


def fig17(scale: float = 1.0,
          with_madlib: bool = False) -> ExperimentResult:
    sizes = [(int(34_000 * scale), int(70 * max(scale, 0.25))),
             (int(55_000 * scale), int(130 * max(scale, 0.25))),
             (int(72_000 * scale), int(190 * max(scale, 0.25))),
             (int(88_000 * scale), int(220 * max(scale, 0.25)))]
    sizes = [(max(a, 2_000), max(c, 20)) for a, c in sizes]
    systems = ("rma-mkl", "rma-bat", "aida", "r")
    if with_madlib:
        systems += ("madlib",)
    rows = []
    for n_authors, n_confs in sizes:
        publications = generate_publications(n_authors, n_confs, seed=12)
        ranking = generate_ranking(n_confs, seed=11)
        dataset = ConferencesDataset(publications, ranking)
        rows.append((f"{n_authors}x{n_confs}",
                     run_conferences(dataset, systems)))
    table = _workload_table(
        "fig17", "Conference covariance (seconds)", rows, "size")
    table.note("paper Fig. 17: covariance dominates (>=90%); RMA+MKL "
               "fastest; RMA+BAT 24-70x slower than MKL; MADlib omitted "
               "from the chart (77..1814s in the paper)")
    return table


def fig18(scale: float = 1.0,
          with_madlib: bool = True) -> ExperimentResult:
    sweep = [int(n * scale) for n in (1_000_000, 5_000_000, 10_000_000,
                                      15_000_000)]
    sweep = [max(n // 10, 20_000) for n in sweep]
    systems = ("rma-bat", "rma-mkl", "aida", "r")
    if with_madlib:
        systems += ("madlib",)
    rows = []
    for n_riders in sweep:
        dataset = make_trip_counts(n_riders)
        rows.append((n_riders, run_trip_count(dataset, systems)))
    table = _workload_table(
        "fig18", "Trip count via add (seconds)", rows, "riders")
    table.note("paper Fig. 18: RMA+ (no-copy BAT add) beats AIDA and R; "
               "RMA+BAT beats RMA+MKL in all settings")
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
    return [EXPERIMENTS[name](scale=scale) for name in EXPERIMENTS]
