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
untouched tables keep hitting.

A subplan of a template reads its run-time inputs from slots, so its key
also holds what its slots are bound to (``Executor._bound``).  A SQL
template's literals are parameter slots, bound to values held as
:class:`~repro.sql.ast.Literal` nodes (``1`` and ``1.0`` differ): one
template run with two date windows stores two entries.  A ``Matrix``
template's in-memory relations are relation slots
(:class:`~repro.plan.nodes.RelScan`), bound to immutable relation objects
held as weak references: a reference hashes like its relation and equals
another reference to the same live relation, so lookups hit without the
key pinning the relation.  When a bound relation is collected its entries
are dropped — an entry over a dead input can never hit again, and would
otherwise keep its result resident until evicted.  Bound relations need no
stamp.

Entries also record the :meth:`~repro.core.config.RmaConfig.cache_token`
they were computed under: results can depend on configuration (e.g. the
backend policy), so a session that swaps — or mutates — its config never
sees a result computed under different settings.

A result is admitted on its key's second sighting.  A bounded doorkeeper
(:meth:`PlanCache.sighted`) holds the hashes of the ``(subplan, bound
slots)`` keys seen so far; the executor looks a key up and stores its
result only when the doorkeeper already held it.  A result computed once
and never again (a fresh date window, a ``Matrix`` over a relation built
for one query) then costs one hash probe, and no stamps, byte estimate or
finalizers.  A repeated key is cached from its second run and served from
its third.  When full, the doorkeeper starts over, as TinyLFU's
does (Einziger, Friedman & Manes, "TinyLFU: A Highly Efficient Cache
Admission Policy", ACM TOS 2017).  Admission decides only what is stored;
stamps, config tokens and bound-relation invalidation apply to every entry
as before.

A :class:`repro.api.database.Database` owns one per session (or shares one
passed to ``connect(plan_cache=...)``), so SQL statements and ``Matrix``
expressions reuse each other's subplan results.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.bat.bat import DataType
from repro.bat.catalog import Catalog
from repro.plan import nodes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import RmaConfig
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

    The session's template and first-level key caches.
    Threads sharing one session read and write it concurrently, so every
    method takes the lock: a hit is found and touched in one step, never
    after another thread's ``store`` evicted it.  :meth:`sighted` is the
    admission doorkeeper the session stores templates by: it keeps up to
    ``PlanCache.DOORKEEPER_PER_ENTRY * max_entries`` key hashes.
    """

    def __init__(self, max_entries: int):
        super().__init__()
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._doorkeeper: set[int] = set()

    def sighted(self, key) -> bool:
        """Whether ``key`` was seen before; a first sighting is recorded.

        As :meth:`PlanCache.sighted`, only the key's hash is kept, and a
        hash collision only admits a key one sighting early."""
        digest = hash(key)
        with self._lock:
            if digest in self._doorkeeper:
                return True
            if len(self._doorkeeper) >= \
                    PlanCache.DOORKEEPER_PER_ENTRY * self.max_entries:
                self._doorkeeper.clear()
            self._doorkeeper.add(digest)
            return False

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
    config_token: tuple
    catalog: Catalog | None  # pinned only when stamps reference tables
    bytes: int = 0
    # One per bound relation: reports the key dead when it is collected.
    finalizers: tuple = ()

    def detach(self) -> None:
        for finalizer in self.finalizers:
            finalizer.detach()


def _report_dead(dead: deque, key: tuple) -> None:
    # Runs inside garbage collection, possibly while the cache lock is
    # held, so it only queues the key; the next cache call drops it.
    dead.append(key)


class PlanCache:
    """Cache of subplan results, keyed by canonical plan node.

    Eviction is LRU by **estimated result bytes** (``max_bytes``,
    computed from the cached relations' BAT sizes) with ``max_entries``
    kept as a backstop — a session caching a handful of million-row
    intermediates hits the byte budget long before the entry count, while
    many tiny results are still bounded.  All operations take the cache
    lock: with the morsel engine on, executors call ``get``/``put`` from
    pool worker threads.  Entries whose bound relations were collected
    are dropped at the next call.
    The doorkeeper of :meth:`sighted` holds up to
    ``DOORKEEPER_PER_ENTRY * max_entries`` key hashes.
    """

    DOORKEEPER_PER_ENTRY = 8

    def __init__(self, max_entries: int = 128,
                 max_bytes: int = DEFAULT_MAX_RESULT_BYTES):
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._bytes = 0
        self._lock = threading.Lock()
        self._dead: deque = deque()
        self._doorkeeper: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            self._drop_dead()
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Estimated bytes of all cached results."""
        with self._lock:
            self._drop_dead()
            return self._bytes

    def sighted(self, plan: nodes.Plan, bound: tuple = ()) -> bool:
        """Whether the key ``(plan, bound)`` was seen before; a first
        sighting is recorded and counts as a miss.

        Only the key's hash is kept: plan nodes cache theirs, and a bound
        relation's weak reference hashes like the relation, so the check
        costs one probe and pins nothing.  A hash collision only admits a
        result one sighting early.
        """
        key = hash((plan, bound))
        with self._lock:
            if key in self._doorkeeper:
                return True
            if len(self._doorkeeper) >= \
                    self.DOORKEEPER_PER_ENTRY * self.max_entries:
                self._doorkeeper.clear()
            self._doorkeeper.add(key)
            self.misses += 1
            return False

    def get(self, plan: nodes.Plan, catalog: Catalog,
            config: "RmaConfig", bound: tuple = ()) -> "Relation | None":
        """The cached result for a subplan whose slots are bound to
        ``bound``, or None.

        Truly stale entries (catalog version mismatch on any scanned
        table) are evicted on sight; entries that are merely *not ours* —
        another catalog instance behind the stamps, or different config
        values — miss without eviction, so a cache shared across
        sessions/configs is last-writer-wins for colliding plan keys
        instead of thrashing on alternating lookups.
        """
        key = plan, bound
        with self._lock:
            self._drop_dead()
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if ((entry.stamps and entry.catalog is not catalog)
                    or entry.config_token != config.cache_token()):
                # Version stamps only identify tables *within* one
                # catalog, and results depend on config values — but such
                # an entry is not stale for its own catalog/config, so it
                # is left in place.
                self.misses += 1
                return None
            if not self._valid(entry, catalog):
                self._drop(key)
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.relation

    def put(self, plan: nodes.Plan, catalog: Catalog, config: "RmaConfig",
            relation: "Relation", bound: tuple = ()) -> None:
        """Store a subplan result stamped with current table versions."""
        stamps = catalog_stamps(plan, catalog)
        key = plan, bound
        entry = _Entry(relation, stamps, config.cache_token(),
                       catalog if stamps else None,
                       bytes=relation_bytes(relation))
        with self._lock:
            self._drop_dead()
            self._drop(key)
            if entry.bytes > self.max_bytes:
                # Too big to ever fit: admitting it would flush every
                # resident entry before evicting itself.  Only the stale
                # previous version of the same plan is dropped.
                return
            entry.finalizers = tuple(
                weakref.finalize(ref(), _report_dead, self._dead, key)
                for ref in bound if isinstance(ref, weakref.ref))
            self._entries[key] = entry
            self._bytes += entry.bytes
            while self._entries and (
                    len(self._entries) > self.max_entries
                    or self._bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.bytes
                evicted.detach()
                self.evictions += 1

    def _drop(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.bytes
            entry.detach()

    def _drop_dead(self) -> None:
        """Drop the entries whose bound relations were collected (caller
        holds the lock)."""
        while self._dead:
            self._drop(self._dead.popleft())

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                entry.detach()
            self._entries.clear()
            self._dead.clear()
            self._doorkeeper.clear()
            self._bytes = 0

    @staticmethod
    def _valid(entry: _Entry, catalog: Catalog) -> bool:
        """Whether the stamped table versions still hold.  Entries without
        stamps (plans over bound relations only — compared by identity)
        are catalog-independent, which is what lets sessions over different
        catalogs share one cache for them."""
        return all(catalog.table_version(name) == version
                   for name, version in entry.stamps)
