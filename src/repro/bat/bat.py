r"""The BAT (binary association table) column type.

MonetDB stores every relation column as a BAT: a two-column table whose head
holds object identifiers (OIDs) and whose tail holds the attribute values.
All tuples of a relation share OID values across its BATs, so a tuple is the
concatenation of the tail values with the same OID.

Our BATs use a *dense* head (``hseqbase .. hseqbase + n - 1``), which is what
MonetDB uses for base columns; the head is therefore implicit and only the
tail is materialized as a numpy array.  BATs are immutable: every operation
returns a new BAT, which keeps alignment reasoning trivial.

Logical types map onto physical numpy storage:

========  ==================  ====================================
logical   numpy tail           notes
========  ==================  ====================================
INT       int64                nil is ``NIL_INT`` (int64 min)
DBL       float64              nil is NaN
BOOL      bool\_
STR       object (str)         nil is ``None``; plays the role of
                               MonetDB's string heap
DATE      int64                proleptic-Gregorian ordinal (days)
TIME      int64                seconds since midnight
OID       int64                positions / object identifiers
========  ==================  ====================================
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import AlignmentError, BatError, TypeMismatchError

NIL_INT = np.iinfo(np.int64).min
"""Sentinel used as the nil (SQL NULL) value in INT/DATE/TIME tails."""


_NUMPY_DTYPES = {
    "int": np.dtype(np.int64),
    "double": np.dtype(np.float64),
    "boolean": np.dtype(np.bool_),
    "string": np.dtype(object),
    "date": np.dtype(np.int64),
    "time": np.dtype(np.int64),
    "oid": np.dtype(np.int64),
}


class DataType(enum.Enum):
    """Logical column types supported by the engine.

    ``numpy_dtype`` is the tail's numpy dtype; ``is_numeric`` says whether
    values of the type may appear in an application schema.  Both are
    plain member attributes: every BAT construction and schema split reads
    them.
    """

    INT = "int"
    DBL = "double"
    BOOL = "boolean"
    STR = "string"
    DATE = "date"
    TIME = "time"
    OID = "oid"

    def __init__(self, value: str):
        self.numpy_dtype: np.dtype = _NUMPY_DTYPES[value]
        self.is_numeric: bool = value in ("int", "double")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataType.{self.name}"


_EPOCH = _dt.date(1970, 1, 1).toordinal()


def date_to_int(value: _dt.date) -> int:
    """Encode a date as days since 1970-01-01 (the DATE tail encoding)."""
    return value.toordinal() - _EPOCH


def int_to_date(value: int) -> _dt.date:
    """Decode a DATE tail value back into a :class:`datetime.date`."""
    return _dt.date.fromordinal(int(value) + _EPOCH)


def time_to_int(value: _dt.time) -> int:
    """Encode a time of day as seconds since midnight (the TIME encoding)."""
    return value.hour * 3600 + value.minute * 60 + value.second


def int_to_time(value: int) -> _dt.time:
    """Decode a TIME tail value back into a :class:`datetime.time`."""
    value = int(value)
    return _dt.time(value // 3600, (value % 3600) // 60, value % 60)


def infer_type(values: Iterable[Any]) -> DataType:
    """Infer the logical type of a sequence of python values.

    Used by relation literals and the CSV reader.  The first non-nil value
    decides; an all-nil column defaults to STR.
    """
    for v in values:
        if v is None:
            continue
        if isinstance(v, bool) or isinstance(v, np.bool_):
            return DataType.BOOL
        if isinstance(v, (int, np.integer)):
            return DataType.INT
        if isinstance(v, (float, np.floating)):
            return DataType.DBL
        if isinstance(v, _dt.datetime):
            raise BatError("datetime values are not supported; "
                           "use separate DATE and TIME columns")
        if isinstance(v, _dt.date):
            return DataType.DATE
        if isinstance(v, _dt.time):
            return DataType.TIME
        if isinstance(v, str):
            return DataType.STR
        raise BatError(f"cannot infer a column type for value {v!r} "
                       f"of type {type(v).__name__}")
    return DataType.STR


def _encode_value(value: Any, dtype: DataType) -> Any:
    """Encode one python value into its tail representation."""
    if value is None:
        if dtype is DataType.DBL:
            return np.nan
        if dtype in (DataType.INT, DataType.DATE, DataType.TIME):
            return NIL_INT
        if dtype is DataType.STR:
            return None
        raise BatError(f"type {dtype.value} has no nil representation")
    if dtype is DataType.DATE:
        if isinstance(value, _dt.date):
            return date_to_int(value)
        return int(value)
    if dtype is DataType.TIME:
        if isinstance(value, _dt.time):
            return time_to_int(value)
        return int(value)
    if dtype is DataType.STR:
        return str(value)
    if dtype is DataType.BOOL:
        return bool(value)
    if dtype is DataType.INT or dtype is DataType.OID:
        return int(value)
    if dtype is DataType.DBL:
        return float(value)
    raise BatError(f"unhandled type {dtype}")  # pragma: no cover


class BAT:
    """One immutable column: dense OID head plus a typed value tail.

    Physical properties (MonetDB's ``tsorted``/``trevsorted``/``tkey``/
    ``tnonil`` bits) are computed on first demand and cached in ``_props``;
    immutability makes the cache trivially sound.  Constructors and
    structural operations (:meth:`dense`, :meth:`constant`, :meth:`fetch`,
    :meth:`slice`, :meth:`append`, :meth:`cast`) derive properties for free
    where the algebra allows it instead of recomputing them.
    """

    __slots__ = ("dtype", "tail", "hseqbase", "_props", "_float_view",
                 "_derived")

    def __init__(self, dtype: DataType, tail: np.ndarray, hseqbase: int = 0):
        if not isinstance(dtype, DataType):
            raise TypeMismatchError(f"expected a DataType, got {dtype!r}")
        tail = np.asarray(tail)
        expected = dtype.numpy_dtype
        if tail.dtype != expected:
            raise TypeMismatchError(
                f"tail dtype {tail.dtype} does not match logical type "
                f"{dtype.value} (expected {expected})")
        if tail.ndim != 1:
            raise BatError(f"tail must be one-dimensional, got {tail.ndim}")
        self.dtype = dtype
        self.tail = tail
        self.hseqbase = int(hseqbase)
        self._props: dict[str, bool] = {}
        self._float_view: np.ndarray | None = None
        self._derived: dict | None = None
        # Immutability guard: shared numpy buffers must not be written to.
        # This is what makes the property cache sound: a cached tsorted/tkey
        # bit can never be invalidated because the tail can never change.
        self.tail.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence[Any],
                    dtype: DataType | None = None,
                    hseqbase: int = 0) -> "BAT":
        """Build a BAT from python values, inferring the type if needed."""
        values = list(values)
        if dtype is None:
            dtype = infer_type(values)
        encoded = [_encode_value(v, dtype) for v in values]
        tail = np.array(encoded, dtype=dtype.numpy_dtype)
        if len(values) == 0:
            tail = np.empty(0, dtype=dtype.numpy_dtype)
        return cls(dtype, tail, hseqbase)

    @classmethod
    def from_array(cls, array: np.ndarray, dtype: DataType | None = None,
                   hseqbase: int = 0) -> "BAT":
        """Wrap a numpy array as a BAT, casting to the canonical tail dtype."""
        array = np.asarray(array)
        if dtype is None:
            if np.issubdtype(array.dtype, np.bool_):
                dtype = DataType.BOOL
            elif np.issubdtype(array.dtype, np.integer):
                dtype = DataType.INT
            elif np.issubdtype(array.dtype, np.floating):
                dtype = DataType.DBL
            elif array.dtype == object:
                dtype = DataType.STR
            else:
                raise TypeMismatchError(
                    f"cannot wrap numpy dtype {array.dtype} as a BAT")
        target = dtype.numpy_dtype
        if array.dtype != target:
            array = array.astype(target)
        return cls(dtype, array, hseqbase)

    @classmethod
    def dense(cls, n: int, hseqbase: int = 0, start: int = 0) -> "BAT":
        """A dense OID BAT ``start .. start + n - 1`` (MonetDB void column)."""
        bat = cls(DataType.OID, np.arange(start, start + n, dtype=np.int64),
                  hseqbase)
        return bat._seed_props(tsorted=True, trevsorted=n <= 1,
                               tkey=True, tnonil=True)

    @classmethod
    def constant(cls, value: Any, n: int, dtype: DataType | None = None,
                 hseqbase: int = 0) -> "BAT":
        """A BAT with ``n`` copies of ``value``."""
        if dtype is None:
            dtype = infer_type([value])
        encoded = _encode_value(value, dtype)
        tail = np.empty(n, dtype=dtype.numpy_dtype)
        tail[:] = encoded
        bat = cls(dtype, tail, hseqbase)
        if value is None:
            return bat._seed_props(tnonil=n == 0, tkey=n <= 1)
        return bat._seed_props(tsorted=True, trevsorted=True,
                               tkey=n <= 1, tnonil=True)

    # -- physical properties -----------------------------------------------

    def _lazy_prop(self, name: str, compute) -> bool:
        """Lazily computed property bit, thread-safe by compute-then-CAS.

        Concurrent first touches may duplicate the (idempotent) scan, but
        ``setdefault`` publishes exactly one verdict atomically — no
        torn or interleaved cache writes.  Per-BAT locks were rejected:
        BATs are created on every fetch/slice, and a lock per instance
        would cost more than the rare duplicated scan.
        """
        cached = self._props.get(name)
        if cached is None:
            cached = self._props.setdefault(name, compute())
        return cached

    def _seed_props(self, **props: bool | None) -> "BAT":
        """Record known property values (internal; callers must be right).

        ``None`` values are skipped, so call sites can pass conditional
        derivations without branching.
        """
        for name, value in props.items():
            if value is not None:
                self._props[name] = bool(value)
        return self

    def cached_prop(self, name: str) -> bool | None:
        """Peek at a property without triggering its computation."""
        return self._props.get(name)

    @property
    def tsorted(self) -> bool:
        """Tail is non-decreasing in raw encoding order.

        For DBL and STR the bit is only set on nil-free columns (NaN/None
        break the total order); for INT-family types the nil sentinel is the
        smallest value and participates in the order like any other.
        """
        return self._lazy_prop("tsorted",
                               lambda: self._compute_sorted(reverse=False))

    @property
    def trevsorted(self) -> bool:
        """Tail is non-increasing in raw encoding order."""
        return self._lazy_prop("trevsorted",
                               lambda: self._compute_sorted(reverse=True))

    @property
    def tkey(self) -> bool:
        """All tail values are distinct (nil duplicates also violate it)."""
        return self._lazy_prop("tkey", self._compute_key)

    @property
    def tnonil(self) -> bool:
        """No nil entries in the tail."""
        return self._lazy_prop("tnonil",
                               lambda: not bool(self.is_nil().any()))

    def _compute_sorted(self, reverse: bool) -> bool:
        if len(self.tail) <= 1:
            return True
        if self.dtype in (DataType.DBL, DataType.STR) and not self.tnonil:
            return False
        a, b = self.tail[:-1], self.tail[1:]
        cmp = (a >= b) if reverse else (a <= b)
        return bool(np.all(np.asarray(cmp, dtype=bool)))

    def _compute_key(self) -> bool:
        n = len(self.tail)
        if n <= 1:
            return True
        if self.tsorted or self.trevsorted:
            neq = self.tail[:-1] != self.tail[1:]
            return bool(np.all(np.asarray(neq, dtype=bool)))
        if self.dtype is DataType.STR:
            return len(set(self.tail)) == n
        return len(np.unique(self.tail)) == n

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.tail)

    @property
    def count(self) -> int:
        """Number of entries (MonetDB BATcount)."""
        return len(self.tail)

    def sel(self, i: int) -> Any:
        """Return the raw tail value at position ``i`` (paper's ``sel``).

        This is the single-element access the paper's kernel algorithms try
        to minimize; everything else should use whole-column operations.
        """
        if not 0 <= i < len(self.tail):
            raise BatError(f"sel position {i} out of range 0..{len(self) - 1}")
        value = self.tail[i]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def python_value(self, i: int) -> Any:
        """Return the decoded python value at position ``i`` (nil -> None)."""
        raw = self.sel(i)
        return self.decode_value(raw)

    def decode_value(self, raw: Any) -> Any:
        """Decode one raw tail value into a python value."""
        if isinstance(raw, np.generic):
            raw = raw.item()
        if self.dtype is DataType.DBL:
            return None if raw != raw else raw  # NaN check
        if self.dtype in (DataType.INT, DataType.OID):
            return None if raw == NIL_INT else raw
        if self.dtype is DataType.DATE:
            return None if raw == NIL_INT else int_to_date(raw)
        if self.dtype is DataType.TIME:
            return None if raw == NIL_INT else int_to_time(raw)
        return raw

    def python_values(self) -> list[Any]:
        """Decode the whole tail into python values (for display / CSV).

        Numeric dtypes go through ``ndarray.tolist`` (one C call) and only
        pay a python pass when nils are actually present.
        """
        if self.dtype is DataType.DBL:
            values = self.tail.tolist()
            if np.isnan(self.tail).any():
                values = [None if v != v else v for v in values]
            return values
        if self.dtype in (DataType.INT, DataType.OID):
            values = self.tail.tolist()
            if len(values) and (self.tail == NIL_INT).any():
                values = [None if v == NIL_INT else v for v in values]
            return values
        if self.dtype is DataType.BOOL:
            return self.tail.tolist()
        if self.dtype is DataType.STR:
            return list(self.tail)
        return [self.decode_value(v) for v in self.tail.tolist()]

    def is_nil(self) -> np.ndarray:
        """Boolean mask of nil entries."""
        if self.dtype is DataType.DBL:
            return np.isnan(self.tail)
        if self.dtype in (DataType.INT, DataType.DATE, DataType.TIME,
                          DataType.OID):
            return self.tail == NIL_INT
        if self.dtype is DataType.STR:
            return np.array([v is None for v in self.tail], dtype=bool)
        return np.zeros(len(self), dtype=bool)

    # -- column operations (delegated to kernels) --------------------------

    def fetch(self, positions: np.ndarray,
              positions_sorted: bool | None = None,
              positions_key: bool | None = None) -> "BAT":
        """Leftfetchjoin: gather tail values at the given positions.

        ``positions_sorted``/``positions_key`` are caller-supplied hints
        (positions non-decreasing / free of duplicates); combined with this
        BAT's cached properties they let the result inherit ``tsorted`` /
        ``trevsorted`` / ``tkey`` without a rescan.  ``tnonil`` always
        survives a gather (the values are a subset).
        """
        positions = np.asarray(positions, dtype=np.int64)
        out = BAT(self.dtype, self.tail[positions], self.hseqbase)
        props = self._props
        if props:
            out._seed_props(
                tnonil=True if props.get("tnonil") else None,
                tsorted=(True if positions_sorted and props.get("tsorted")
                         else None),
                trevsorted=(True if positions_sorted
                            and props.get("trevsorted") else None),
                tkey=True if positions_key and props.get("tkey") else None)
        return out

    def slice(self, start: int, stop: int) -> "BAT":
        out = BAT(self.dtype, self.tail[start:stop], self.hseqbase)
        props = self._props
        if props:
            # Every property survives contiguous subsetting.
            out._seed_props(**{name: True for name in
                               ("tsorted", "trevsorted", "tkey", "tnonil")
                               if props.get(name)})
        return out

    def append(self, other: "BAT") -> "BAT":
        if other.dtype is not self.dtype:
            raise TypeMismatchError(
                f"cannot append {other.dtype.value} to {self.dtype.value}")
        out = BAT(self.dtype, np.concatenate([self.tail, other.tail]),
                  self.hseqbase)
        if len(self) == 0 or len(other) == 0:
            source = other if len(self) == 0 else self
            return out._seed_props(**{name: True for name in
                                      ("tsorted", "trevsorted", "tkey",
                                       "tnonil")
                                      if source._props.get(name)})
        sp, op = self._props, other._props
        seeds: dict[str, bool] = {}
        if sp.get("tnonil") and op.get("tnonil"):
            seeds["tnonil"] = True
        # Disjoint sorted runs: the concatenation stays sorted when the
        # boundary values agree with the direction, and stays a key when
        # both runs are strictly monotonic and the boundary is strict.
        try:
            if sp.get("tsorted") and op.get("tsorted") \
                    and bool(self.tail[-1] <= other.tail[0]):
                seeds["tsorted"] = True
                if sp.get("tkey") and op.get("tkey") \
                        and bool(self.tail[-1] < other.tail[0]):
                    seeds["tkey"] = True
            if sp.get("trevsorted") and op.get("trevsorted") \
                    and bool(self.tail[-1] >= other.tail[0]):
                seeds["trevsorted"] = True
                if sp.get("tkey") and op.get("tkey") \
                        and bool(self.tail[-1] > other.tail[0]):
                    seeds["tkey"] = True
        except TypeError:
            pass  # non-comparable boundary (nil strings): derive nothing
        return out._seed_props(**seeds)

    def cast(self, dtype: DataType) -> "BAT":
        """Cast to another logical type (INT <-> DBL, anything -> STR)."""
        if dtype is self.dtype:
            return self
        if dtype is DataType.STR:
            values = [None if v is None else str(v)
                      for v in self.python_values()]
            return BAT(DataType.STR, np.array(values, dtype=object),
                       self.hseqbase)
        if self.dtype is DataType.INT and dtype is DataType.DBL:
            tail = self.tail.astype(np.float64)
            tail[self.tail == NIL_INT] = np.nan
            return BAT(DataType.DBL, tail,
                       self.hseqbase)._seed_props(**self._numeric_cast_props())
        if self.dtype is DataType.DBL and dtype is DataType.INT:
            tail = np.where(np.isnan(self.tail), NIL_INT,
                            self.tail).astype(np.int64)
            return BAT(DataType.INT, tail,
                       self.hseqbase)._seed_props(**self._numeric_cast_props())
        if self.dtype is DataType.OID and dtype is DataType.INT:
            return BAT(DataType.INT, self.tail.copy(),
                       self.hseqbase)._seed_props(**self._props)
        if self.dtype is DataType.INT and dtype is DataType.OID:
            return BAT(DataType.OID, self.tail.copy(),
                       self.hseqbase)._seed_props(**self._props)
        raise TypeMismatchError(
            f"unsupported cast {self.dtype.value} -> {dtype.value}")

    def _numeric_cast_props(self) -> dict[str, bool | None]:
        """Properties an INT <-> DBL cast preserves.

        int64 -> float64 and truncation back are monotone non-decreasing but
        not injective (floats above 2**53, fractional values), so order bits
        carry over on nil-free columns while ``tkey`` never does.
        """
        props = self._props
        nonil = props.get("tnonil")
        return {
            "tnonil": nonil,
            "tsorted": True if props.get("tsorted") and nonil else None,
            "trevsorted": (True if props.get("trevsorted") and nonil
                           else None),
        }

    def as_float(self, astype=None) -> np.ndarray:
        """Return the tail as a float64 array (application-part view).

        For INT columns the cast result is cached (read-only) on the
        instance: repeated operations over the same relation pay the copy
        once.  The raw ``NIL_INT`` sentinel is cast verbatim, not mapped
        to NaN.

        ``astype`` optionally substitutes the int64→float64 cast with an
        equivalent implementation (the morsel engine passes a per-chunk
        cast); it must return a bit-identical float64 array.  The cache
        update is compute-then-publish: under concurrent first use two
        threads may both cast, but each publishes a correct immutable
        view, so any winner is sound.
        """
        if self.dtype is DataType.DBL:
            return self.tail
        if self.dtype is DataType.INT:
            view = self._float_view
            if view is None:
                view = (astype(self.tail) if astype is not None
                        else self.tail.astype(np.float64))
                view.setflags(write=False)
                if self._float_view is None:
                    self._float_view = view
                view = self._float_view
            return view
        raise TypeMismatchError(
            f"column of type {self.dtype.value} is not numeric")

    def derived(self, key, compute):
        """A value computed from this column (and, by ``key``, others)
        and cached on it, as :meth:`as_float`'s view is: it lives as
        long as the column.  Compute-then-publish: concurrent first
        callers may both compute, and one result is kept.  ``compute``
        must return the same value every time and hold no reference to
        this BAT (that would be a reference cycle)."""
        cache = self._derived
        if cache is None:
            cache = self._derived = {}
        value = cache.get(key)
        if value is None:
            value = cache.setdefault(key, compute())
        return value

    # -- aggregates --------------------------------------------------------

    def sum(self) -> float | int:
        self._require_numeric("sum")
        return self.tail.sum().item()

    def min(self) -> Any:
        if len(self) == 0:
            raise BatError("min of an empty BAT")
        if self.dtype is DataType.STR:
            return min(v for v in self.tail)
        return self.decode_value(self.tail.min())

    def max(self) -> Any:
        if len(self) == 0:
            raise BatError("max of an empty BAT")
        if self.dtype is DataType.STR:
            return max(v for v in self.tail)
        return self.decode_value(self.tail.max())

    def avg(self) -> float:
        self._require_numeric("avg")
        if len(self) == 0:
            raise BatError("avg of an empty BAT")
        return float(self.tail.mean())

    def _require_numeric(self, op: str) -> None:
        if not self.dtype.is_numeric:
            raise TypeMismatchError(
                f"{op} requires a numeric BAT, got {self.dtype.value}")

    # -- key / uniqueness --------------------------------------------------

    def is_key(self) -> bool:
        """Whether all tail values are distinct (no nil duplicates either).

        Alias of :attr:`tkey`; kept for the kernel-facing vocabulary.
        """
        return self.tkey

    # -- dunder ------------------------------------------------------------

    def __iter__(self):
        return iter(self.python_values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BAT):
            return NotImplemented
        if self.dtype is not other.dtype or len(self) != len(other):
            return False
        if self.dtype is DataType.DBL:
            return bool(np.array_equal(self.tail, other.tail,
                                       equal_nan=True))
        return bool(np.array_equal(self.tail, other.tail))

    def __hash__(self):  # immutable, but hashing whole columns is a bug
        raise TypeError("BATs are not hashable")

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.python_values()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return (f"BAT({self.dtype.value}, n={len(self)}, "
                f"[{preview}{suffix}])")


def align_check(*bats: BAT) -> int:
    """Assert that all BATs have the same length; return that length."""
    if not bats:
        return 0
    n = len(bats[0])
    for b in bats[1:]:
        if len(b) != n:
            raise AlignmentError(
                f"misaligned BATs: lengths {[len(x) for x in bats]}")
    return n
