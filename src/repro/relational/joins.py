"""Vectorized equi-joins and the key encoders behind joins and grouping.

Keys are factorized into dense integer codes: code ``c`` is the rank of
the row's key among the distinct keys, exactly what
``np.unique(..., return_inverse=True)`` yields.  Integer tails (INT, DATE,
TIME, OID) whose value span is small relative to the row count — station
codes, dates, small ids — are ranked by direct addressing in O(n + span):
a presence mask over the span and its running sum.  Composite keys fold
column by column through the same rank step on ``codes * k + col``.  Only
other dtypes and wide spans fall back to the O(n log n) sort inside
``np.unique``.

Because codes are dense in ``[0, k)``, the join probe needs no binary
search: ``bincount`` of the right codes and its exclusive prefix sum give,
for every code, where its run starts in the code-sorted right side and how
long it is, so each left row finds its matches with two gathers.  The
right side's stable code order is a radix sort for up to 2**16 codes.
Grouping takes group ids straight from the codes.  Everything is
whole-column numpy work, no per-row python.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.bat.properties import properties_enabled
from repro.errors import RelationError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Schema

DENSE_SPAN_FACTOR = 4
"""An int64 array of n values is ranked by direct addressing when its
value span (max - min + 1) is at most ``DENSE_SPAN_FACTOR * n``; wider
spans (and every non-integer dtype) go through ``np.unique``.  The span
bounds the presence mask and its int64 running sum, so the dense path
takes O(n) time and at most the ~36 bytes per row of scratch memory that
the sort, permutation and inverse inside ``np.unique`` take."""


def dense_ranks(values: np.ndarray) -> np.ndarray:
    """Dense ranks ``0..k-1`` of ``values``, order-isomorphic to them.

    Equal to ``np.unique(values, return_inverse=True)[1]`` as int64.
    Integer arrays within the dense span are ranked in O(n + span) by a
    presence mask and its running sum; everything else falls back to the
    sort inside ``np.unique``.
    """
    n = len(values)
    if n and values.dtype == np.int64:
        low, high = int(values.min()), int(values.max())
        if high - low < DENSE_SPAN_FACTOR * n:
            offsets = values - low
            present = np.zeros(high - low + 1, dtype=bool)
            present[offsets] = True
            ranks = np.cumsum(present, dtype=np.int64)
            ranks -= 1
            return ranks[offsets]
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False)


def factorize(bats: Sequence[BAT]) -> np.ndarray:
    """Combine one or more key columns into dense int64 codes.

    Equal rows get equal codes, and codes order rows lexicographically by
    the columns' raw tails.  Columns are folded pairwise through
    :func:`dense_ranks`, so codes stay dense and cannot overflow.
    """
    if not bats:
        raise RelationError("factorize requires at least one column")
    codes: np.ndarray | None = None
    for bat in bats:
        col_codes = dense_ranks(bat.tail)
        if codes is None:
            codes = col_codes
        else:
            k = int(col_codes.max()) + 1 if len(col_codes) else 1
            codes = dense_ranks(codes * k + col_codes)
    assert codes is not None
    return codes


def group_codes(bats: Sequence[BAT]) -> tuple[np.ndarray, np.ndarray, int]:
    """(group id per row, first-row position per group, #groups).

    Group ids are the :func:`factorize` codes themselves: dense ranks need
    no second ``np.unique``.  The first row of each group comes from one
    ``np.minimum.at`` scatter, O(n).
    """
    codes = factorize(bats)
    n = len(codes)
    ngroups = int(codes.max()) + 1 if n else 0
    first = np.full(ngroups, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    return codes, first, ngroups


def factorize_pair(left: Sequence[BAT],
                   right: Sequence[BAT]) -> tuple[np.ndarray, np.ndarray]:
    """Factorize two key lists into a *shared* code space.

    Joining requires codes that are comparable across the two inputs, so the
    key columns are concatenated before factorization and the codes split
    back afterwards.
    """
    if len(left) != len(right):
        raise RelationError("join key lists have different lengths")
    combined_bats = []
    for lcol, rcol in zip(left, right):
        lc, rc = lcol, rcol
        if lc.dtype is not rc.dtype:
            if lc.dtype.is_numeric and rc.dtype.is_numeric:
                lc, rc = lc.cast(DataType.DBL), rc.cast(DataType.DBL)
            else:
                raise RelationError(
                    f"cannot join keys of types {lc.dtype.value} and "
                    f"{rc.dtype.value}")
        combined_bats.append(lc.append(rc))
    codes = factorize(combined_bats)
    n_left = len(left[0])
    return codes[:n_left], codes[n_left:]


def join_positions(left_keys: Sequence[BAT], right_keys: Sequence[BAT],
                   how: str = "inner") -> tuple[np.ndarray, np.ndarray]:
    """Matching position pairs (lpos, rpos) for an equi-join.

    For ``how="left"`` unmatched left rows appear with rpos ``-1``.
    Duplicate keys on either side produce the full cross of matches.
    """
    if how not in ("inner", "left"):
        raise RelationError(f"unsupported join type {how!r}")
    lcodes, rcodes = factorize_pair(left_keys, right_keys)
    k = 1 + max(int(lcodes.max(initial=-1)), int(rcodes.max(initial=-1)))
    # Counting probe: codes are dense in [0, k), so the code-sorted right
    # side holds code c at [starts[c], starts[c] + counts[c]).
    counts = np.bincount(rcodes, minlength=k)
    starts = np.cumsum(counts) - counts
    if properties_enabled() and _codes_sorted(rcodes):
        # Already-sorted right side (dimension tables with dense keys):
        # the identity permutation is the stable argsort.
        order_r = None
    else:
        order_r = _stable_order(rcodes, k)
    return _expand_matches(starts[lcodes], counts[lcodes], order_r, how)


def _stable_order(codes: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")``; codes below 2**16 are narrowed
    first, which makes numpy's stable sort an O(n) radix sort."""
    if k <= 1 << 8:
        codes = codes.astype(np.uint8)
    elif k <= 1 << 16:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


MERGE_TYPES = (DataType.INT, DataType.DBL, DataType.DATE, DataType.TIME,
               DataType.OID)
"""Key dtypes eligible for the sorted-merge join path (raw tails totally
ordered; STR is excluded because nil ``None`` breaks object comparisons).
The physical planner consults this to avoid predicting merge joins the
runtime would reject."""


def merge_join_positions(left_keys: Sequence[BAT],
                         right_keys: Sequence[BAT],
                         how: str = "inner") \
        -> tuple[np.ndarray, np.ndarray]:
    """Sorted merge path of the equi-join, selected by the physical planner.

    When both sides' key columns have the same raw-comparable types and are
    already sorted — one column whose cached ``tsorted`` bit is set (O(1)
    for base columns, O(n) once otherwise), or a composite key whose
    columns are lexicographically sorted (one O(n·k) scan,
    :func:`lex_sorted`) — matches come from two binary searches directly on
    the raw tails, skipping the hash path's factorization (concatenating
    and ranking both sides' key columns) and its right-side code sort
    entirely.  Composite keys search over a structured-dtype view of
    the tails, whose comparison order is exactly the lexicographic order of
    the columns.

    The output position pairs are identical to :func:`join_positions`:
    codes are order-isomorphic to raw values column by column, so the group
    boundaries agree, and the sorted right side makes the stable argsort
    the identity.  Preconditions are re-verified here at run time; when
    they do not hold the call falls back to the hash path, so a planner
    mis-prediction costs nothing but the check.

    STR keys stay on the hash path (nil ordering of object tails is not
    total); DBL qualifies because its ``tsorted`` contract is nil-free and
    :func:`lex_sorted` rejects NaN-carrying composites.
    """
    if (properties_enabled() and left_keys
            and len(left_keys) == len(right_keys)
            and all(lc.dtype is rc.dtype and lc.dtype in MERGE_TYPES
                    for lc, rc in zip(left_keys, right_keys))
            and lex_sorted(left_keys) and lex_sorted(right_keys)):
        if how not in ("inner", "left"):
            raise RelationError(f"unsupported join type {how!r}")
        if len(left_keys) == 1:
            left_tail = left_keys[0].tail
            right_tail = right_keys[0].tail
        else:
            left_tail = _composite_tail(left_keys)
            right_tail = _composite_tail(right_keys)
        lo = np.searchsorted(right_tail, left_tail, side="left")
        hi = np.searchsorted(right_tail, left_tail, side="right")
        return _expand_matches(lo, hi - lo, None, how)
    return join_positions(left_keys, right_keys, how)


def relation_lex_sorted(relation: Relation, names: Sequence[str]) -> bool:
    """:func:`lex_sorted` memoized per ``(relation, attribute tuple)``.

    The single-column case is already O(1) after the first probe (the
    cached ``tsorted`` bit), and the strict-major / all-sorted / unsorted
    composite shortcuts are too — but the ambiguous composite case
    (sorted major *with* duplicates) used to re-pay the O(n·k) scan on
    every multi-key merge-join probe.  The verdict now lives in the
    relation's order cache (:meth:`repro.relational.relation.OrderInfo.
    lex_sorted_memo`), keyed by the attribute tuple, so repeated probes —
    the planner re-plans every statement — cost one dict lookup.  While
    the property layer is disabled the memo is bypassed, keeping the
    ablations honest.
    """
    if not properties_enabled():
        return lex_sorted(relation.bats(names))
    return relation.order_info(names).lex_sorted_memo(lex_sorted)


def lex_sorted(bats: Sequence[BAT]) -> bool:
    """Whether the columns are lexicographically sorted in raw-tail order.

    For one column this is the cached ``tsorted`` bit (its contract already
    excludes NaN for DBL).  Composite keys try two property-only
    sufficient conditions first — a strictly increasing major column
    (``tsorted`` + ``tkey``: ties never reach the minor columns) or all
    columns sorted — so repeated probes over the same base columns are
    O(1) after the bits are cached (the same shortcuts
    :func:`repro.bat.sorting._already_ordered` uses).  Only the ambiguous
    case (sorted major with duplicates) pays the vectorized O(n·k) scan:
    a row pair is ordered iff the first differing column is increasing, so
    the scan tracks which adjacent pairs are still tied and rejects on any
    decrease among them.  DBL columns carrying NaN are rejected outright —
    NaN compares false both ways, which would corrupt the tie tracking
    (and binary search needs a total order).
    """
    if not bats:
        return False
    if len(bats) == 1:
        return bats[0].tsorted
    for bat in bats:
        # Checked before the shortcuts: even with a strictly increasing
        # major column, a NaN minor would break the composite binary
        # search's total order.  tnonil is a cached bit, so this stays
        # O(1) on repeated probes.
        if bat.dtype is DataType.DBL and not bat.tnonil:
            return False
    first = bats[0]
    if not first.tsorted:
        # A lex-sorted composite needs a sorted major column; the cached
        # bit makes repeated probes of unsorted data O(1).
        return False
    if first.tkey or all(b.tsorted for b in bats[1:]):
        return True
    n = len(bats[0])
    if n < 2:
        return True
    undecided = np.ones(n - 1, dtype=bool)
    for bat in bats:
        a, b = bat.tail[:-1], bat.tail[1:]
        if bool(np.any(undecided & (a > b))):
            return False
        undecided &= ~(a < b)
        if not undecided.any():
            return True
    return True


def _composite_tail(bats: Sequence[BAT]) -> np.ndarray:
    """Pack key columns into a structured array ordered lexicographically.

    numpy compares structured (void) scalars field by field in declaration
    order, which makes ``searchsorted`` over the packed array equivalent to
    a lexicographic multi-column binary search without materializing row
    tuples as python objects.
    """
    dtype = np.dtype([(f"k{i}", bat.tail.dtype)
                      for i, bat in enumerate(bats)])
    out = np.empty(len(bats[0]), dtype=dtype)
    for i, bat in enumerate(bats):
        out[f"k{i}"] = bat.tail
    return out


def _expand_matches(lo: np.ndarray, counts: np.ndarray,
                    order_r: np.ndarray | None,
                    how: str) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-left-row match ranges [lo, lo + counts) into position
    pairs.

    ``order_r`` maps sorted-right indexes back to storage positions; None
    means the right side is already in sorted order (identity).  When no
    left row has more than one match — a foreign key probing a key, the
    common case — the pairs need no run expansion.
    """
    if counts.max(initial=0) <= 1:
        lpos = (np.arange(len(lo), dtype=np.int64) if how == "left"
                else np.flatnonzero(counts))
        sorted_idx = lo[lpos]
        matched = counts > 0
        total = len(lpos)
    else:
        out_counts = np.maximum(counts, 1) if how == "left" else counts
        total = int(out_counts.sum())
        lpos = np.repeat(np.arange(len(lo), dtype=np.int64), out_counts)
        starts = np.repeat(lo, out_counts)
        group_offsets = (np.arange(total, dtype=np.int64)
                         - np.repeat(np.cumsum(out_counts) - out_counts,
                                     out_counts))
        sorted_idx = starts + group_offsets
        matched = np.repeat(counts > 0, out_counts)
    if how == "left":
        rpos = np.full(total, -1, dtype=np.int64)
        hits = sorted_idx[matched]
        rpos[matched] = hits if order_r is None else order_r[hits]
    else:
        rpos = sorted_idx if order_r is None else order_r[sorted_idx]
    return lpos, rpos


def _codes_sorted(codes: np.ndarray) -> bool:
    """Whether the factorized codes are already non-decreasing.

    Decided by one O(n) scan of the codes themselves, which saves the
    stable code sort and the position gather it implies.  The key BATs' cached ``tsorted`` bits
    are deliberately NOT consulted: :func:`factorize_pair` may cast mixed
    INT/DBL keys to DBL, which moves the INT nil sentinel from the smallest
    raw value to NaN, so pre-cast sortedness does not imply sorted codes.
    """
    return len(codes) < 2 or bool(np.all(codes[:-1] <= codes[1:]))


def hash_join(left: Relation, right: Relation,
              left_on: Sequence[str], right_on: Sequence[str],
              how: str = "inner") -> tuple[np.ndarray, np.ndarray]:
    """Equi-join returning matching storage positions for both inputs."""
    return join_positions(left.bats(left_on), right.bats(right_on), how)


def join(left: Relation, right: Relation, left_on: Sequence[str],
         right_on: Sequence[str], how: str = "inner",
         drop_right_keys: bool = False) -> Relation:
    """Equi-join producing a relation with all columns of both inputs.

    Column names must not clash (after optionally dropping the right key
    columns); rename beforehand if they do.
    """
    lpos, rpos = hash_join(left, right, left_on, right_on, how)
    right_names = [n for n in right.names
                   if not (drop_right_keys and n in right_on)]
    overlap = set(left.names) & set(right_names)
    if overlap:
        raise SchemaError(
            f"join would produce duplicate attributes {sorted(overlap)}; "
            "rename first")
    # lpos is non-decreasing by construction (repeat of an arange), so the
    # left columns keep their sortedness through the gather.
    columns = [col.fetch(lpos, positions_sorted=True)
               for col in left.columns]
    if how == "left":
        safe_rpos = np.where(rpos < 0, 0, rpos)
        for name in right_names:
            col = right.column(name).fetch(safe_rpos)
            # Null out unmatched rows.
            nil = BAT.constant(None, len(rpos), col.dtype) \
                if col.dtype is not DataType.BOOL else None
            if nil is not None:
                tail = np.where(rpos < 0, nil.tail, col.tail)
                if col.dtype is DataType.STR:
                    tail = tail.astype(object)
                col = BAT(col.dtype, tail.astype(col.dtype.numpy_dtype))
            columns.append(col)
    else:
        columns += [right.column(name).fetch(rpos) for name in right_names]
    schema = left.schema.concat(right.schema.project(right_names))
    return Relation(schema, columns)
