"""The repository's benchmark: one seeded closed loop per workload.

    python3 rmabench/run.py --workload ew_chain --seed 1 --seconds 10 --trace 0

One client thread in one process drives the public ``repro`` API (see
``workloads.py``).  The run sets the workload up several times (``setup_s``
is the median), computes reference answers, then issues queries back to
back for ``--seconds`` and checks every answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces a
seeded random half of the queries: traced ones run under the span recorder
(``spans.py``), which yields the per-layer metrics, and the two latency
medians give the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results (environment, every per-layer figure) and, for traced runs,
a Chrome trace are written under ``.rmabench/`` in the checkout.  The exit
code is non-zero when any answer is wrong or a query fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "queries/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "sql.parse_ms": "ms", "sql.parse_calls": "count",
    "plan.optimize_ms": "ms", "plan.physical_ms": "ms",
    "plan.execute_self_ms": "ms", "plan.plan_cache_hit_ratio": "fraction",
    "plan.result_cache_hit_ratio": "fraction",
    "plan.result_cache_mb": "MiB", "plan.result_cache_evictions": "count",
    "plan.fused_nodes": "count", "plan.fusion_fallbacks": "count",
    "plan.cse_hits": "count",
    "relational.join_ms": "ms", "relational.aggregate_ms": "ms",
    "relational.select_ms": "ms",
    "core.prepare_ms": "ms", "core.kernel_ms": "ms", "core.merge_ms": "ms",
    "core.rma_nodes": "count",
    "bat.sort_ms": "ms", "bat.sort_calls": "count",
    "linalg.mkl_ms": "ms", "linalg.copy_in_out_ms": "ms",
    "linalg.transform_share": "fraction", "linalg.bat_ms": "ms",
    "linalg.dense_mb": "MiB",
    "engine.tasks": "count", "engine.wait_ms": "ms",
    "engine.worker_busy_ms": "ms",
    "trace.overhead_pct": "%", "trace.unattributed_share": "fraction",
}
"""Every per-layer figure of the traced run (all are printed; the final
JSON line carries the ones ``BENCHMARK.json`` lists)."""

SETUP_REPEATS = 5
"""Minimum number of set-ups per run; ``setup_s`` is their median."""

SETUP_BUDGET_S = 3.0
"""Set-up repeats continue past the minimum until this much time is spent
(cheap set-ups get more samples for their median), up to 6x the minimum."""

ACCOUNTING_TOLERANCE = 0.05
"""Layer self times plus the unattributed remainder must sum to the
measured traced wall time within this share (the recorder's own cost per
query falls outside its root span; on sub-millisecond queries it is a few
percent)."""

OVERLAP_TOLERANCE_MS = 1e-3
"""A span's self time may fall below 0 by at most this much (clock
rounding); more means spans overlap and time is counted twice."""


def bootstrap() -> None:
    """Import the library from the checkout's ``src``; fail without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"rmabench: no repro package under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)


def declared_metrics() -> tuple[list[str], list[str]]:
    """(end_to_end names, per_layer names) from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int, sizes: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_sha": git_sha(),
            "seed": seed, "sizes": sizes}


def reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark to the current RSS,
    so the peak read afterwards is the closed loop's, not the set-up's or
    the reference computation's.  False where ``/proc`` does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib(since_reset: bool) -> float:
    """The high-water mark ``VmHWM`` (since the reset), else the whole
    process's ``ru_maxrss``."""
    if since_reset:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


SLICE_S = 1.0
"""Width of the time slices ``latency_p50_ms`` is computed over."""


def sliced_median(starts: list[float], latencies: list[float]) -> float:
    """The median latency of each ``SLICE_S`` slice of the loop (by query
    start), averaged over the slices.

    On a shared machine whose speed switches between levels every few
    seconds, the median of one pooled sample jumps to whichever level held
    the majority of the run; the slice average moves in proportion to the
    time spent at each level instead.  Without such switches it equals the
    pooled median."""
    slices: dict[int, list[float]] = {}
    for start, latency in zip(starts, latencies):
        slices.setdefault(int(start // SLICE_S), []).append(latency)
    return statistics.fmean(statistics.median(v) for v in slices.values())


def layer_metrics(recorder, traced: list[int], latencies: list[float],
                  main_thread: int) -> dict[str, float]:
    """Per-query means of the traced queries (self times in ms, summed
    over threads: with the engine on, a layer's time is work done, and
    can exceed its share of the wall time)."""
    n = max(len(traced), 1)
    own = recorder.self_times()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_id = {span.id: span for span in recorder.spans}
    worker_busy = 0.0
    top_sorts = 0
    layer_self = 0.0  # main-thread self time inside a layer's span
    unattributed = 0.0  # main-thread time outside every layer's span
    for span in recorder.spans:
        # A pool task's own work belongs to the layer that fanned it out
        # (e.g. prepare-stage gathers); engine.wait keeps the waiting.
        owner = span
        while owner.name.startswith("engine.") and owner.parent in by_id:
            owner = by_id[owner.parent]
        name = owner.name if span.name == "engine.task" else span.name
        self_s[name] = self_s.get(name, 0.0) + own[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "engine.task" and span.thread != main_thread:
            worker_busy += span.duration
        if span.name == "bat.sort":
            parent = by_id.get(span.parent)
            top_sorts += parent is None or parent.name != "bat.sort"
        if span.thread == main_thread:
            if span.name == "query":
                unattributed += own[span.id]
            else:
                layer_self += own[span.id]
    counters = recorder.counters

    def ms(name: str) -> float:
        return self_s.get(name, 0.0) * 1000.0 / n

    def per_query(value: float) -> float:
        return value / n

    requests = calls.get("api.collect", 0) + counters["plan.plan_requests"]
    physical = calls.get("plan.physical", 0)
    lookups = counters["plan.result_cache_lookups"]
    copy = self_s.get("linalg.copy", 0.0)
    mkl_total = self_s.get("linalg.mkl", 0.0) + copy
    wall = sum(latencies)
    return {
        "sql.parse_ms": ms("sql.parse"),
        "sql.parse_calls": per_query(calls.get("sql.parse", 0)),
        "plan.optimize_ms": ms("plan.optimize"),
        "plan.physical_ms": ms("plan.physical"),
        "plan.execute_self_ms": ms("plan.execute"),
        "plan.plan_cache_hit_ratio":
            max(0.0, 1.0 - physical / requests) if requests else 0.0,
        "plan.result_cache_hit_ratio":
            counters["plan.result_cache_hits"] / lookups if lookups else 0.0,
        "plan.fused_nodes": per_query(counters["plan.fused_nodes"]),
        "plan.fusion_fallbacks": per_query(counters["plan.fusion_fallbacks"]),
        "plan.cse_hits": per_query(counters["plan.cse_hits"]),
        "relational.join_ms": ms("relational.join"),
        "relational.aggregate_ms": ms("relational.aggregate"),
        "relational.select_ms": ms("relational.select"),
        "core.prepare_ms": ms("core.prepare"),
        "core.kernel_ms": ms("core.kernel"),
        "core.merge_ms": ms("core.merge"),
        "core.rma_nodes": per_query(calls.get("core.rma", 0)
                                    + calls.get("core.fused", 0)),
        "bat.sort_ms": ms("bat.sort"),
        "bat.sort_calls": per_query(top_sorts),
        "linalg.mkl_ms": ms("linalg.mkl"),
        "linalg.copy_in_out_ms": ms("linalg.copy"),
        "linalg.transform_share": copy / mkl_total if mkl_total else 0.0,
        "linalg.bat_ms": ms("linalg.bat"),
        "linalg.dense_mb": per_query(counters["linalg.dense_bytes"])
        / 2 ** 20,
        "engine.tasks": per_query(calls.get("engine.task", 0)),
        "engine.wait_ms": ms("engine.wait"),
        "engine.worker_busy_ms": worker_busy * 1000.0 / n,
        "trace.unattributed_share": unattributed / wall if wall else 0.0,
        "_layer_share": layer_self / wall if wall else 0.0,
        "_accounted_share": (layer_self + unattributed) / wall
        if wall else 0.0,
        "_min_self_ms": min(own.values(), default=0.0) * 1000.0,
        "_self_ms": {name: value * 1000.0 / n
                     for name, value in sorted(self_s.items())},
        "_calls": {name: count / n for name, count in sorted(calls.items())},
    }


def accounting_failures(layers: dict) -> list[str]:
    """What is wrong with a traced run's time accounting (empty if sound):
    a span whose children overlap it or each other (negative self time),
    layer self times that exceed the wall time, or layers plus remainder
    that miss the measured traced wall time by more than the tolerance."""
    failures = []
    if layers["_min_self_ms"] < -OVERLAP_TOLERANCE_MS:
        failures.append(f"a span has self time {layers['_min_self_ms']:.4f}"
                        " ms (overlapping spans)")
    if layers["_layer_share"] > 1.0 + ACCOUNTING_TOLERANCE:
        failures.append(f"layer self times are {layers['_layer_share']:.4f}"
                        " of the traced wall time")
    if abs(layers["_accounted_share"] - 1.0) > ACCOUNTING_TOLERANCE:
        failures.append("layers + unattributed remainder = "
                        f"{layers['_accounted_share']:.4f} of the traced "
                        "wall time")
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setup_repeats: int = SETUP_REPEATS,
        max_queries: int | None = None, fingerprints: bool = False,
        trace_path: str | None = None) -> dict:
    """Set up, run the closed loop, verify; returns the whole result."""
    from workloads import WORKLOADS, fingerprint
    from spans import Recorder

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    setup_times: list[float] = []
    instance = None
    while len(setup_times) < setup_repeats or (
            sum(setup_times) < SETUP_BUDGET_S
            and len(setup_times) < 6 * setup_repeats):
        instance = None  # free the previous inputs before generating anew
        gc.collect()
        start = time.perf_counter()
        instance = WORKLOADS[workload](seed, scale)
        instance.setup()
        setup_times.append(time.perf_counter() - start)
    start = time.perf_counter()
    instance.prepare_reference()
    reference_s = time.perf_counter() - start

    recorder = Recorder() if trace else None
    coin = random.Random(seed)  # which queries of a traced run are traced
    main_thread = threading.get_ident()
    cache = instance.db.result_cache
    evictions_before = cache.evictions if cache is not None else 0
    latencies: list[float] = []
    starts: list[float] = []
    traced_ids: list[int] = []
    traced_latencies: list[float] = []
    cache_peak = 0
    errors = 0
    prints: dict[int, object] = {}
    gc.collect()
    gc.freeze()
    rss_reset = reset_peak_rss()
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    i = 0
    while (i < max_queries) if max_queries is not None \
            else (time.perf_counter() < deadline):
        call = instance.prepare_query(i)
        traced = trace and coin.random() < 0.5
        if traced:
            recorder.install()
        result = None
        ok = False
        start = time.perf_counter()
        try:
            result = recorder.query(i, call) if traced else call()
            ok = True
        except Exception:  # a failed query is counted, not fatal
            errors += 1
            if errors <= 3:
                traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                recorder.uninstall()
        if traced:
            traced_ids.append(i)
            traced_latencies.append(elapsed)
        else:
            latencies.append(elapsed)
            starts.append(start - loop_start)
        if ok:
            instance.record(i, result)
        if fingerprints:
            prints[i] = fingerprint(result)
        if cache is not None and traced:
            cache_peak = max(cache_peak, cache.total_bytes)
        i += 1
    gc.unfreeze()
    attempted = i
    start = time.perf_counter()
    wrong = instance.verify()
    verify_s = time.perf_counter() - start
    failed = errors + wrong

    timed = latencies  # the untraced queries
    metrics = {
        "latency_p50_ms": sliced_median(starts, timed) * 1000.0,
        "latency_p90_ms": percentile(timed, 90) * 1000.0,
        "throughput_qps": len(timed) / sum(timed),
        "peak_rss_mb": peak_rss_mib(rss_reset),
        "setup_s": statistics.median(setup_times),
    }
    beyond_p90 = sum(t * 1000.0 > metrics["latency_p90_ms"] for t in timed)
    layers = None
    if trace:
        layers = layer_metrics(recorder, traced_ids, traced_latencies,
                               main_thread)
        layers["trace.overhead_pct"] = (
            statistics.median(traced_latencies)
            / statistics.median(latencies) - 1.0) * 100.0
        layers["plan.result_cache_mb"] = cache_peak / 2 ** 20
        evictions = (cache.evictions - evictions_before
                     if cache is not None else 0)
        layers["plan.result_cache_evictions"] = evictions / attempted
        if trace_path is not None:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            layers["_trace_events"] = recorder.write_chrome_trace(trace_path)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "env": environment(seed, instance.sizes),
        "why": instance.why,
        "setup_runs_s": setup_times, "reference_s": reference_s,
        "verify_s": verify_s, "attempted": attempted, "failed": failed,
        "errors": errors, "wrong": wrong,
        "error_rate": failed / attempted if attempted else 1.0,
        "samples": len(timed), "beyond_p90": beyond_p90,
        "peak_rss_source": "VmHWM since loop start" if rss_reset
        else "ru_maxrss of the whole process",
        "metrics": metrics, "layers": layers, "fingerprints": prints,
    }


def report(result: dict, declared: tuple[list[str], list[str]],
           log=print) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    log(f"rmabench workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={int(result['trace'])}")
    log(f"why: {result['why']}")
    log("env " + json.dumps(result["env"], sort_keys=True))
    log("setup runs (s): " + ", ".join(f"{t:.4f}"
                                         for t in result["setup_runs_s"])
        + f"; reference {result['reference_s']:.3f} s; "
        f"verify {result['verify_s']:.3f} s")
    mode = "untraced queries of the traced run" if result["trace"] \
        else "queries"
    log(f"closed loop, 1 client: {result['samples']} {mode}, "
        f"{result['beyond_p90']} beyond p90")
    log(f"peak_rss_mb: {result['peak_rss_source']}")
    for name, unit in END_TO_END.items():
        log(f"metric {name} {result['metrics'][name]:.6g} {unit}")
    log(f"metric error_rate {result['error_rate']:.6g} fraction "
        f"(({result['errors']} failed + {result['wrong']} wrong) / "
        f"{result['attempted']} attempted)")
    end_to_end, per_layer = declared
    if not result["trace"]:
        chosen = {name: (result["metrics"][name], END_TO_END[name])
                  for name in end_to_end}
    else:
        layers = result["layers"]
        log("layer self time per traced query (ms) and calls per query:")
        for name, value in layers["_self_ms"].items():
            log(f"  span {name:<22} {value:10.4f} ms "
                f"{layers['_calls'][name]:9.2f} calls")
        failures = accounting_failures(layers)
        log(f"accounting: layer self times {layers['_layer_share']:.4f} + "
            f"unattributed {layers['trace.unattributed_share']:.4f} = "
            f"{layers['_accounted_share']:.4f} of measured traced wall time "
            f"(tolerance {ACCOUNTING_TOLERANCE}); smallest self time "
            f"{layers['_min_self_ms']:.6f} ms; "
            + ("ok" if not failures else "MISMATCH: " + "; ".join(failures)))
        for name, unit in PER_LAYER.items():
            log(f"layer {name} {layers[name]:.6g} {unit}")
        chosen = {name: (layers[name], PER_LAYER[name]) for name in per_layer}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    declared = declared_metrics()
    out_dir = os.path.join(ROOT, ".rmabench")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 trace_path=os.path.join(out_dir, f"{stem}.trace.json")
                 if args.trace else None)
    final = report(result, declared)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as handle:
        saved = {k: v for k, v in result.items() if k != "fingerprints"}
        json.dump({**saved, "result": final}, handle, indent=1,
                  sort_keys=True)
    sys.stdout.write(json.dumps(final) + "\n")
    sys.stdout.flush()
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
