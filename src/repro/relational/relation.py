"""Relations: a schema plus one aligned BAT per attribute."""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterable, Sequence

import numpy as np

from repro.bat.bat import BAT, DataType, infer_type
from repro.bat.sorting import (
    _key_shortcut,
    _require_orderable,
    check_key,
    order_by,
    rank_of,
)
from repro.errors import AlignmentError, SchemaError
from repro.relational.schema import Attribute, Schema


class OrderInfo:
    """Cached order for one order-schema name tuple of a relation.

    Everything is derived lazily from the (immutable) key BATs: the sort
    ``positions``, the inverse permutation ``ranks`` (relative sorting,
    paper §8.1) and whether the columns form a key (``is_key``).
    Once a relation has computed an order it never computes it again — the
    paper's repeated-operation workloads hit the same order schema on
    every call.

    Lazy fields use double-checked locking (one re-entrant lock per
    info): under the morsel engine several workers can touch a cold cache
    at once, and the lock ensures the O(n log n) argsort and O(n·k) scans
    run exactly once instead of per worker, with no interleaved writes.
    The lock is re-entrant because ``is_key`` computes ``positions``.
    """

    __slots__ = ("_bats", "_positions", "_ranks", "_is_key", "_lock")

    def __init__(self, bats: Sequence[BAT]):
        self._bats = list(bats)
        self._positions: np.ndarray | None = None
        self._ranks: np.ndarray | None = None
        self._is_key: bool | None = None
        self._lock = threading.RLock()

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            with self._lock:
                if self._positions is None:
                    self._positions = order_by(self._bats)
        return self._positions

    @property
    def ranks(self) -> np.ndarray:
        if self._ranks is None:
            with self._lock:
                if self._ranks is None:
                    self._ranks = rank_of(self.positions)
        return self._ranks

    def positions_with(self, parallel) -> np.ndarray:
        """``positions``, with the argsort itself morsel-parallel.

        ``parallel`` is a :class:`repro.core.config.ParallelConfig` (or
        None for serial); the chunk-sorted, stable-merged permutation is
        bit-identical to :func:`repro.bat.sorting.order_by`, so the
        cached array is shared with the plain property.

        The sort runs OUTSIDE ``_lock`` — it waits on the worker pool,
        and waiting on the pool while holding a lock other threads need
        deadlocks the pool; a racing duplicate sort is the cheaper
        failure mode.  The lock is taken only for the final
        first-writer-wins publication (an assignment, never a pool wait).
        """
        if self._positions is None:
            from repro.engine.parallel import parallel_order_by
            positions = parallel_order_by(self._bats, parallel)
            with self._lock:
                if self._positions is None:
                    self._positions = positions
        return self._positions

    def ranks_with(self, parallel) -> np.ndarray:
        """``ranks``, computing the inverse permutation per-morsel.

        Same discipline as :meth:`positions_with`: the pool-waiting work
        (the parallel argsort it delegates to, then the scatter) runs
        outside ``_lock``, and only the first-writer-wins publication
        takes it.
        """
        if self._ranks is None:
            from repro.engine.parallel import parallel_rank_of
            positions = self.positions_with(parallel)
            ranks = parallel_rank_of(positions, parallel)
            with self._lock:
                if self._ranks is None:
                    self._ranks = ranks
        return self._ranks

    @property
    def known_positions(self) -> np.ndarray | None:
        """The sort positions if already computed, else None (no compute)."""
        return self._positions

    @property
    def known_is_key(self) -> bool | None:
        """The key verdict if already known, else None (no compute)."""
        return self._is_key

    @property
    def is_key(self) -> bool:
        if self._is_key is None:
            with self._lock:
                if self._is_key is None:
                    self._is_key = self._compute_is_key()
        return self._is_key

    def _compute_is_key(self) -> bool:
        verdict = None
        if self._positions is None:
            # Sort-free verdict from cached bits when possible; the
            # nil-string check keeps parity with the sorting path.
            verdict = _key_shortcut(self._bats)
            if verdict is not None:
                _require_orderable(self._bats)
        if verdict is None:
            # Undecided: compute (and keep) the order once, then the
            # check is a linear adjacent scan — never a second sort.
            verdict = check_key(self._bats, self.positions)
        return verdict


class Relation:
    """An immutable relation stored column-wise.

    The logical model treats a relation as a set of tuples (paper §3.1); the
    physical representation is a list of aligned BATs, exactly as MonetDB
    stores tables.  Tuple order in storage carries no meaning — relational
    matrix operations derive their row order from order schemas.

    Relations compare by identity and hash by a serial number that no
    other relation of the process gets, so a relation built at a freed
    one's address never repeats its hash (the result cache's doorkeeper
    keeps only the hashes of the plans over them).
    """

    __slots__ = ("schema", "columns", "_order_cache", "_order_lock",
                 "_serial", "__weakref__")

    _serials = itertools.count()  # atomic under the GIL

    def __hash__(self) -> int:
        return self._serial

    def __init__(self, schema: Schema, columns: Sequence[BAT]):
        columns = tuple(columns)
        if len(schema) != len(columns):
            raise SchemaError(
                f"schema has {len(schema)} attributes but {len(columns)} "
                "columns were supplied")
        n = len(columns[0].tail) if columns else 0
        for attr, col in zip(schema.attributes, columns):
            if col.dtype is not attr.dtype:
                raise SchemaError(
                    f"column for attribute {attr.name!r} has type "
                    f"{col.dtype.value}, schema says {attr.dtype.value}")
            if len(col.tail) != n:
                raise AlignmentError(
                    f"column {attr.name!r} has {len(col)} rows, "
                    f"expected {n}")
        self.schema = schema
        self.columns = columns
        self._order_cache: dict[tuple[str, ...], OrderInfo] = {}
        self._order_lock = threading.Lock()
        self._serial = next(Relation._serials)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_columns(cls, data: dict[str, Sequence[Any]] |
                     Iterable[tuple[str, Sequence[Any]]],
                     types: dict[str, DataType] | None = None) -> "Relation":
        """Build a relation from named value sequences (types inferred)."""
        if isinstance(data, dict):
            items = list(data.items())
        else:
            items = list(data)
        types = types or {}
        attrs: list[Attribute] = []
        bats: list[BAT] = []
        for name, values in items:
            if isinstance(values, BAT):
                bat = values
            elif isinstance(values, np.ndarray) and values.dtype != object:
                bat = BAT.from_array(values, types.get(name))
            else:
                bat = BAT.from_values(list(values), types.get(name))
            attrs.append(Attribute(name, bat.dtype))
            bats.append(bat)
        return cls(Schema(attrs), bats)

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[Sequence[Any]],
                  types: dict[str, DataType] | None = None) -> "Relation":
        """Build a relation from tuples (the paper's examples are given
        row-wise)."""
        columns = {name: [row[i] for row in rows]
                   for i, name in enumerate(names)}
        return cls.from_columns(columns, types)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, [BAT(a.dtype,
                                np.empty(0, dtype=a.dtype.numpy_dtype))
                            for a in schema])

    # -- accessors ---------------------------------------------------------

    @property
    def nrows(self) -> int:
        if not self.columns:
            return 0
        return len(self.columns[0])

    def __len__(self) -> int:
        return self.nrows

    @property
    def names(self) -> list[str]:
        return self.schema.names

    def column(self, name: str) -> BAT:
        return self.columns[self.schema.index(name)]

    def bats(self, names: Iterable[str] | None = None) -> list[BAT]:
        """The BATs for the given attributes, in the given order."""
        if names is None:
            return list(self.columns)
        return [self.column(n) for n in names]

    def row(self, i: int) -> tuple:
        return tuple(col.python_value(i) for col in self.columns)

    def to_rows(self) -> list[tuple]:
        """Decode the relation into python row tuples."""
        decoded = [col.python_values() for col in self.columns]
        return [tuple(col[i] for col in decoded) for i in range(self.nrows)]

    def to_dict(self) -> dict[str, list]:
        return {name: col.python_values()
                for name, col in zip(self.names, self.columns)}

    # -- structure helpers -------------------------------------------------

    def replace_columns(self, **replacements: BAT) -> "Relation":
        """New relation with some columns swapped (types must agree)."""
        columns = list(self.columns)
        for name, bat in replacements.items():
            columns[self.schema.index(name)] = bat
        return Relation(self.schema, columns)

    def numeric_attribute_names(self) -> list[str]:
        return [a.name for a in self.schema if a.dtype.is_numeric]

    def order_info(self, names: Sequence[str]) -> OrderInfo:
        """The (cached) order of this relation under the given order schema.

        Relations are immutable, so the sort positions, ranks and key check
        for a name tuple are computed at most once per relation.
        """
        key = tuple(names)
        info = self._order_cache.get(key)
        if info is None:
            # Double-checked: concurrent cold lookups must converge on ONE
            # OrderInfo object, or its internal memoization (and lock)
            # could not prevent duplicated argsort work across workers.
            with self._order_lock:
                info = self._order_cache.get(key)
                if info is None:
                    info = OrderInfo(self.bats(key))
                    self._order_cache[key] = info
        return info

    def cached_order_info(self, names: Sequence[str]) -> OrderInfo | None:
        """The cached order for a name tuple, or None — never computes."""
        return self._order_cache.get(tuple(names))

    def seed_order(self, names: Sequence[str], *,
                   info: OrderInfo | None = None,
                   positions: np.ndarray | None = None,
                   is_key: bool | None = None) -> None:
        """Pre-populate the order cache with externally derived knowledge.

        Used by ``merge_result`` so derived relations start warm: a result
        built in order-schema order gets identity positions, a result in
        the input's storage order shares the input's :class:`OrderInfo`.
        Callers must be right (like ``BAT._seed_props``); existing entries
        are never overwritten.
        """
        key = tuple(names)
        if key in self._order_cache:
            return
        if info is None:
            info = OrderInfo(self.bats(key))
            if positions is not None:
                positions = np.asarray(positions, dtype=np.int64)
                info._positions = positions
                if is_identity(positions):
                    info._ranks = positions
            if is_key is not None:
                info._is_key = bool(is_key)
        with self._order_lock:
            self._order_cache.setdefault(key, info)

    def is_key(self, names: Sequence[str]) -> bool:
        """Whether the named attributes uniquely identify every tuple."""
        key = tuple(names)
        if key in self._order_cache:
            return self._order_cache[key].is_key
        return check_key(self.bats(names))

    def sorted_by(self, names: Sequence[str]) -> "Relation":
        """The relation with its storage order set to the sort by ``names``."""
        positions = self.order_info(names).positions
        columns = [col.fetch(positions, positions_key=True)
                   for col in self.columns]
        out = Relation(self.schema, columns)
        if names:
            first = out.column(names[0])
            # NaN sorts last under argsort but breaks the raw tsorted
            # contract, so DBL columns are only seeded when known nil-free.
            if first.dtype is not DataType.DBL \
                    or first.cached_prop("tnonil"):
                first._seed_props(tsorted=True)
        return out

    def sort_positions(self, names: Sequence[str]) -> np.ndarray:
        return self.order_info(names).positions

    # -- comparison helpers (tests) ----------------------------------------

    def same_rows(self, other: "Relation", tolerance: float = 1e-9) -> bool:
        """Set-equality of rows, with tolerance on float attributes."""
        if self.schema.names != other.schema.names:
            return False
        if self.nrows != other.nrows:
            return False
        def canonical(rel: Relation) -> list[tuple]:
            rows = []
            for row in rel.to_rows():
                rows.append(tuple(
                    round(v, 9) if isinstance(v, float) else v
                    for v in row))
            return sorted(rows, key=lambda r: tuple(str(x) for x in r))
        left, right = canonical(self), canonical(other)
        for lrow, rrow in zip(left, right):
            for lv, rv in zip(lrow, rrow):
                if isinstance(lv, float) and isinstance(rv, float):
                    if abs(lv - rv) > tolerance:
                        return False
                elif lv != rv:
                    return False
        return True

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return (f"Relation({', '.join(self.names)}; "
                f"{self.nrows} rows)")

    def __str__(self) -> str:
        return self.pretty()

    def pretty(self, max_rows: int = 20) -> str:
        """Render an aligned ASCII table (used by examples and the REPL)."""
        header = self.names
        rows = self.to_rows()[:max_rows]
        def fmt(v: Any) -> str:
            if v is None:
                return "null"
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)
        body = [[fmt(v) for v in row] for row in rows]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
                  for i, h in enumerate(header)]
        lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for row in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.nrows > max_rows:
            lines.append(f"... ({self.nrows} rows total)")
        return "\n".join(lines)


def is_identity(positions: np.ndarray) -> bool:
    """Whether ``positions`` is ``0, 1, ..., len(positions) - 1``."""
    n = len(positions)
    return bool(n == 0 or (positions[0] == 0 and positions[-1] == n - 1
                           and np.array_equal(positions,
                                              np.arange(n, dtype=np.int64))))
