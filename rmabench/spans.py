"""Span recorder for the traced run, installed from outside the library.

The recorder wraps the public functions of each ``repro`` layer at the
sites where the calling layer imported them (``repro.api.database``'s
``parse_sql``, ``repro.core.ops``'s ``prepare_stage``, ...).  Wrappers are
installed only while a traced query runs and are removed afterwards, so an
untraced query executes unmodified library code.

Each span records its name, start, end, parent span, thread and query id.
Spans stay in memory; :meth:`Recorder.write_chrome_trace` writes them once
at the end as Chrome trace-event JSON.  A span's self time is its duration
minus the durations of its children on the same thread.  Work that the
morsel engine hands to pool threads is linked to the submitting
``engine.wait`` span through an ``engine.task`` span, so worker time is
attributed to its query without being subtracted from the caller's wait.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

MAX_TRACE_EVENTS = 200_000
"""Spans written to the Chrome trace (the earliest ones; all are analysed)."""

LAYER_OF_PREFIX = {
    "api": "api", "sql": "sql", "plan": "plan", "relational": "relational",
    "core": "core", "bat": "bat", "linalg": "linalg", "engine": "engine",
    "query": "benchmark",
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    query: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets():
    """(owner, attribute, span name, kind) for every wrapped call site.

    ``kind`` selects extra bookkeeping: ``plain`` records a span only,
    ``execute_sql`` counts SELECT statements (plan-cache requests),
    ``execute`` also collects the executor's counters, ``result_cache``
    counts lookups and hits, ``copy`` adds the bytes copied, ``fan_out``
    links pool tasks to their caller.
    """
    import repro.api.database as database
    import repro.api.eager as eager
    import repro.api.matrix as matrix
    import repro.bat.sorting as sorting
    import repro.core.algebra as algebra
    import repro.core.constructors as constructors
    import repro.core.context as context
    import repro.core.ops as ops
    import repro.engine.parallel as parallel
    import repro.engine.pool as pool
    import repro.linalg.bat_backend as bat_backend
    import repro.linalg.mkl_backend as mkl_backend
    import repro.plan.cache as cache
    import repro.plan.physical as physical
    import repro.relational.aggregate as aggregate
    import repro.relational.joins as joins
    import repro.relational.ops as rel_ops
    import repro.relational.relation as relation

    return [
        # api: the entry points the workloads call
        (database.Database, "execute", "api.execute", "execute_sql"),
        (matrix.Matrix, "collect", "api.collect", "plain"),
        (algebra, "_eager", "api.eager", "plain"),
        # sql
        (database, "parse_sql", "sql.parse", "plain"),
        # plan
        (database, "build_select", "plan.build", "plain"),
        (database, "optimize", "plan.optimize", "plain"),
        (database, "plan_physical", "plan.physical", "plain"),
        (physical.Executor, "run", "plan.execute", "execute"),
        (cache.PlanCache, "get", "plan.result_cache", "result_cache"),
        # relational
        (joins, "join_positions", "relational.join", "plain"),
        (joins, "merge_join_positions", "relational.join", "plain"),
        (aggregate, "group_by", "relational.aggregate", "plain"),
        (physical.Frame, "select_positions", "relational.select", "plain"),
        (physical.ExpressionEvaluator, "mask", "relational.select", "plain"),
        (rel_ops, "cross", "relational.ops", "plain"),
        (rel_ops, "distinct", "relational.ops", "plain"),
        (rel_ops, "extend", "relational.ops", "plain"),
        (rel_ops, "limit", "relational.ops", "plain"),
        # core
        (algebra, "execute_rma", "core.rma", "plain"),
        (eager, "execute_rma", "core.rma", "plain"),
        (physical, "execute_fused", "core.fused", "plain"),
        (ops, "prepare_stage", "core.prepare", "plain"),
        (ops, "prepare_fused", "core.prepare", "plain"),
        (ops, "kernel_stage", "core.kernel", "plain"),
        (ops, "merge_result", "core.merge", "plain"),
        (ops, "merge_fused", "core.merge", "plain"),
        # bat
        (context, "order_by", "bat.sort", "plain"),
        (context, "rank_of", "bat.sort", "plain"),
        (relation, "order_by", "bat.sort", "plain"),
        (relation, "rank_of", "bat.sort", "plain"),
        (rel_ops, "order_by", "bat.sort", "plain"),
        (constructors, "order_by", "bat.sort", "plain"),
        (sorting, "order_by", "bat.sort", "plain"),
        (parallel, "parallel_order_by", "bat.sort", "plain"),
        (parallel, "parallel_rank_of", "bat.sort", "plain"),
        # linalg
        (mkl_backend.MklBackend, "compute", "linalg.mkl", "plain"),
        (mkl_backend, "to_dense", "linalg.copy", "copy"),
        (mkl_backend, "from_dense", "linalg.copy", "copy"),
        (bat_backend.BatBackend, "compute", "linalg.bat", "plain"),
        # engine
        (context, "run_tasks", "engine.wait", "fan_out"),
        (physical, "run_tasks", "engine.wait", "fan_out"),
        (parallel, "map_chunks", "engine.wait", "fan_out"),
        (pool, "map_chunks", "engine.wait", "fan_out"),
    ]


class Recorder:
    """Thread-safe in-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._targets = _targets()
        self._originals: list[tuple[object, str, object]] = []
        self._executor_depth: dict[int, int] = {}

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        """This thread's open spans as (span id, query id)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, int]:
        """Push a new span; returns (span id, parent id, query id)."""
        stack = self._stack()
        parent, query = stack[-1] if stack else (None, -1)
        span_id = next(self._ids)
        stack.append((span_id, query))
        return span_id, parent, query

    def _close(self, name: str, span_id: int, parent: int | None,
               query: int, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span = Span(span_id, parent, name, threading.get_ident(), query,
                    start, end)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def query(self, query_id: int, fn):
        """Run ``fn()`` as the root span of query ``query_id``."""
        span_id = next(self._ids)
        self._stack().append((span_id, query_id))
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close("query", span_id, None, query_id, start)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, original, name: str, kind: str):
        recorder = self

        if kind == "fan_out":
            def wrapper(*args, **kwargs):
                span_id, parent, query = recorder._open()
                start = time.perf_counter()
                try:
                    return original(*recorder._link_tasks(args, span_id,
                                                          query),
                                    **kwargs)
                finally:
                    recorder._close(name, span_id, parent, query, start)
            return wrapper

        def wrapper(*args, **kwargs):
            span_id, parent, query = recorder._open()
            start = time.perf_counter()
            if kind == "execute":
                executor = args[0]
                key = id(executor)
                with recorder._lock:
                    depth = recorder._executor_depth.get(key, 0)
                    recorder._executor_depth[key] = depth + 1
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(name, span_id, parent, query, start)
                if kind == "execute":
                    recorder._leave_executor(executor, key)
            if kind == "execute_sql":
                if args[1].lstrip()[:6].upper() == "SELECT":
                    recorder.count("plan.plan_requests")
            elif kind == "result_cache":
                recorder.count("plan.result_cache_lookups")
                if result is not None:
                    recorder.count("plan.result_cache_hits")
            elif kind == "copy":
                copied = (result.nbytes if hasattr(result, "nbytes")
                          else sum(c.nbytes for c in result))
                recorder.count("linalg.dense_bytes", copied)
            return result
        return wrapper

    def _leave_executor(self, executor, key: int) -> None:
        """Collect an executor's counters when its outermost run ends."""
        with self._lock:
            depth = self._executor_depth[key] - 1
            if depth:
                self._executor_depth[key] = depth
                return
            del self._executor_depth[key]
        stats = executor.stats
        for field in ("cse_hits", "fused_nodes", "fusion_fallbacks"):
            self.count(f"plan.{field}", getattr(stats, field))

    def _link_tasks(self, args: tuple, wait_id: int, query: int) -> tuple:
        """Wrap the thunks (``run_tasks``) or the chunk function
        (``map_chunks``) so each pool task records an ``engine.task`` span
        whose parent is the caller's ``engine.wait`` span."""
        recorder = self

        def task(fn, *fn_args):
            stack = recorder._stack()
            saved = list(stack)
            stack[:] = [(wait_id, query)]
            span_id, parent, _ = recorder._open()
            start = time.perf_counter()
            try:
                return fn(*fn_args)
            finally:
                recorder._close("engine.task", span_id, parent, query, start)
                stack[:] = saved

        if len(args) == 1:  # run_tasks(thunks)
            return ([lambda t=t: task(t) for t in args[0]],)
        fn, chunks = args[0], args[1]  # map_chunks(fn, chunks)
        return (lambda chunk: task(fn, chunk), chunks) + tuple(args[2:])

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("recorder wrappers are already installed")
        for owner, attribute, name, kind in self._targets:
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> self time (duration minus same-thread children)."""
        child_time: dict[int, float] = defaultdict(float)
        thread_of = {span.id: span.thread for span in self.spans}
        for span in self.spans:
            if (span.parent is not None
                    and thread_of.get(span.parent) == span.thread):
                child_time[span.parent] += span.duration
        return {span.id: span.duration - child_time[span.id]
                for span in self.spans}

    def write_chrome_trace(self, path: str) -> int:
        """Write the spans as Chrome trace-event JSON; returns events kept."""
        spans = sorted(self.spans, key=lambda s: s.start)
        spans = spans[:MAX_TRACE_EVENTS]
        origin = spans[0].start if spans else 0.0
        events = [{
            "name": span.name, "cat": LAYER_OF_PREFIX.get(
                span.name.split(".")[0], "other"),
            "ph": "X", "pid": 1, "tid": span.thread,
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"id": span.id, "parent": span.parent,
                     "query": span.query},
        } for span in spans]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(events)
