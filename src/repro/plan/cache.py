"""Session-scoped plan/result cache with catalog-version invalidation.

PR 2's common-subexpression elimination memoizes repeated RMA/subquery
subplans *within one statement*; this module extends the memo across
statements.  A :class:`PlanCache` maps canonical plan nodes (alias-stripped,
structurally hashable — see :mod:`repro.plan.nodes`) to their result
relations.  Relations are immutable, so sharing a cached result across
statements is sound; the only thing that can go stale is the *catalog
binding* of a ``Scan`` leaf.

Every entry is therefore stamped with the **catalog version** of each table
its subplan scans (:meth:`repro.bat.catalog.Catalog.table_version`, a
monotone counter bumped on every ``CREATE``/``INSERT``/``register``/
``DROP``).  A lookup revalidates the stamps: any mutation of a scanned
table invalidates exactly the entries that read it, while entries over
untouched tables keep hitting.  ``RelScan`` leaves reference immutable
relation objects by identity and need no stamp.

Entries also record the :meth:`~repro.core.config.RmaConfig.cache_token`
they were computed under: results can depend on configuration (e.g. the
backend policy), so a session that swaps — or mutates — its config never
sees a result computed under different settings.

A :class:`repro.api.database.Database` owns one per session (or shares one
passed to ``connect(plan_cache=...)``), so SQL statements and ``Matrix``
expressions reuse each other's subplan results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.bat.bat import DataType
from repro.bat.catalog import Catalog
from repro.plan import nodes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.relation import Relation

Stamps = tuple[tuple[str, Optional[int]], ...]


def catalog_stamps(plan: nodes.Plan, catalog: Catalog) -> Stamps:
    """(table, version) pairs for every catalog table a plan scans.

    The walk is id-deduplicated so diamond-shaped lazy plans stay linear.
    Unknown tables stamp as ``None`` — creating them later changes the
    stamp, which is exactly the invalidation that case needs.
    """
    tables: set[str] = set()
    seen: set[int] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, nodes.Scan):
            tables.add(node.table.lower())
        stack.extend(node.children())
    return tuple((name, catalog.table_version(name))
                 for name in sorted(tables))


class LruDict(OrderedDict):
    """OrderedDict with LRU discipline: touch on hit, trim on store.

    The session's parse and statement-plan caches.  Threads sharing one
    session read and write it concurrently, so every method takes the
    lock: a hit is found and touched in one step, never after another
    thread's ``store`` evicted it.
    """

    def __init__(self, max_entries: int):
        super().__init__()
        self.max_entries = max_entries
        self._lock = threading.Lock()

    def lookup(self, key):
        """The value stored under ``key`` (now most recently used), or
        None."""
        with self._lock:
            value = self.get(key)
            if value is not None:
                self.move_to_end(key)
            return value

    def store(self, key, value) -> None:
        with self._lock:
            self[key] = value
            self.move_to_end(key)
            while len(self) > self.max_entries:
                self.popitem(last=False)

    def discard(self, key) -> None:
        with self._lock:
            self.pop(key, None)


def _config_token(config):
    """The config's cache token (see :meth:`RmaConfig.cache_token`).

    Duck-typed configs without ``cache_token`` fall back to the object
    itself: storing it in the entry pins it alive, so the comparison is a
    true identity check — never a recycled ``id()`` of a collected
    object."""
    token = getattr(config, "cache_token", None)
    return token() if callable(token) else config


_STR_PAYLOAD_SAMPLE = 64
"""Strings sampled per column when estimating STR storage bytes."""

_STR_OBJECT_OVERHEAD = 49
"""CPython's empty-``str`` footprint (the per-object heap cost)."""


def relation_bytes(relation: "Relation") -> int:
    """Estimated resident bytes of a relation's BATs (for cache budgets).

    Numeric/date tails are exact (``ndarray.nbytes``).  STR tails hold
    object pointers, so the python string payload is estimated from a
    deterministic strided sample of up to ``_STR_PAYLOAD_SAMPLE`` values —
    an O(1)-per-column estimate, cheap enough to run on every cache store.
    """
    total = 0
    for column in relation.columns:
        total += column.tail.nbytes
        if column.dtype is DataType.STR and len(column.tail):
            tail = column.tail
            step = max(1, len(tail) // _STR_PAYLOAD_SAMPLE)
            probe = tail[::step]
            payload = sum(_STR_OBJECT_OVERHEAD + len(v)
                          for v in probe if v is not None)
            total += int(payload * (len(tail) / max(len(probe), 1)))
    return total


DEFAULT_MAX_RESULT_BYTES = 256 << 20
"""Default byte budget of a session's result cache (256 MiB).

Sized to the workloads the paper benchmarks: a 1M-row, 10-column double
relation is ~80 MB, so the default keeps a few large intermediates while
the entry-count backstop still caps pathological many-small-entry
sessions."""


@dataclass
class _Entry:
    relation: "Relation"
    stamps: Stamps
    config_token: object
    catalog: Catalog | None  # pinned only when stamps reference tables
    bytes: int = 0


class PlanCache:
    """Cache of subplan results, keyed by canonical plan node.

    Eviction is LRU by **estimated result bytes** (``max_bytes``,
    computed from the cached relations' BAT sizes) with ``max_entries``
    kept as a backstop — a session caching a handful of million-row
    intermediates hits the byte budget long before the entry count, while
    many tiny results are still bounded.  All operations take the cache
    lock: with the morsel engine on, executors call ``get``/``put`` from
    pool worker threads.
    """

    def __init__(self, max_entries: int = 128,
                 max_bytes: int = DEFAULT_MAX_RESULT_BYTES):
        self._entries: "OrderedDict[nodes.Plan, _Entry]" = OrderedDict()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Estimated bytes of all cached results."""
        return self._bytes

    def get(self, plan: nodes.Plan, catalog: Catalog,
            config: object) -> "Relation | None":
        """The cached result for a subplan, or None.

        Truly stale entries (catalog version mismatch on any scanned
        table) are evicted on sight; entries that are merely *not ours* —
        another catalog instance behind the stamps, or different config
        values — miss without eviction, so a cache shared across
        sessions/configs is last-writer-wins for colliding plan keys
        instead of thrashing on alternating lookups.
        """
        with self._lock:
            entry = self._entries.get(plan)
            if entry is None:
                self.misses += 1
                return None
            if ((entry.stamps and entry.catalog is not catalog)
                    or entry.config_token != _config_token(config)):
                # Version stamps only identify tables *within* one
                # catalog, and results depend on config values — but such
                # an entry is not stale for its own catalog/config, so it
                # is left in place.
                self.misses += 1
                return None
            if not self._valid(entry, catalog):
                self._drop(plan)
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(plan)
            self.hits += 1
            return entry.relation

    def put(self, plan: nodes.Plan, catalog: Catalog, config: object,
            relation: "Relation") -> None:
        """Store a subplan result stamped with current table versions."""
        stamps = catalog_stamps(plan, catalog)
        entry = _Entry(relation, stamps, _config_token(config),
                       catalog if stamps else None,
                       bytes=relation_bytes(relation))
        with self._lock:
            if entry.bytes > self.max_bytes:
                # Too big to ever fit: admitting it would flush every
                # resident entry before evicting itself.  Drop only a
                # stale previous version of the same plan, keep the rest.
                self._drop(plan)
                return
            old = self._entries.pop(plan, None)
            if old is not None:
                self._bytes -= old.bytes
            self._entries[plan] = entry
            self._bytes += entry.bytes
            while self._entries and (
                    len(self._entries) > self.max_entries
                    or self._bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.bytes
                self.evictions += 1

    def _drop(self, plan: nodes.Plan) -> None:
        entry = self._entries.pop(plan, None)
        if entry is not None:
            self._bytes -= entry.bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    @staticmethod
    def _valid(entry: _Entry, catalog: Catalog) -> bool:
        """Whether the stamped table versions still hold.  Entries without
        stamps (pure ``RelScan`` plans — relations compared by identity)
        are catalog-independent, which is what lets sessions over different
        catalogs share one cache for them."""
        return all(catalog.table_version(name) == version
                   for name, version in entry.stamps)
