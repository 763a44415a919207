"""Vectorized equi-joins and the key encoder behind joins and grouping.

:func:`encode_keys` turns one or two lists of key columns into int64 codes
in ``[0, k)``: equal keys get equal codes, and codes order rows exactly as
the keys' raw tails do (lexicographically over the columns), so they are
order-isomorphic to what ``np.unique(..., return_inverse=True)`` ranks.
Both sides of a join are encoded in one pass into one shared code space,
without concatenating them:

* an integer column (INT, DATE, TIME, OID; the same dtype on both sides)
  whose value span over both sides is at most ``DENSE_SPAN_FACTOR`` times
  the row count is coded ``value - low`` — no sort, no ranking;
* further columns fold in as ``code * span + column code``; only when
  that product would exceed the bound is the code domain compacted first,
  by a presence mask and its running sum;
* other dtypes, mixed INT/DBL keys (cast to DBL) and wide spans are ranked
  by the sort inside ``np.unique`` over both sides' values.

Codes need not be dense, only bounded by ``DENSE_SPAN_FACTOR`` times the
rows, so the join probe stays direct-addressed.  When the right side's
codes are unique (a key), the probe is a slot table: ``slot[rcodes] =
arange`` and ``rpos = slot[lcodes]``, and when every left row matches,
``lpos`` is the identity.  Duplicate right keys take the counting probe:
``bincount`` of the right codes and its exclusive prefix sum give, for
every code, where its run starts in the code-sorted right side and how
long it is, so each left row finds its matches with two gathers.  The
right side's stable code order is a radix sort for up to 2**16 codes.

Grouping (:func:`group_codes`) compacts the codes once, since group ids
must be dense; they stay in key order.  Everything is whole-column numpy
work, no per-row python.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.bat.properties import properties_enabled
from repro.errors import RelationError, SchemaError
from repro.relational.relation import Relation

DENSE_SPAN_FACTOR = 4
"""Key codes are direct-addressed while their domain is at most
``DENSE_SPAN_FACTOR`` times the encoded rows: an integer column within
that span is coded by offset, and a composite code is compacted before a
fold would exceed it.  Wider spans (and every non-integer dtype) are
ranked by ``np.unique``.  The bound caps the presence masks, slot tables
and ``bincount`` arrays at O(rows), no more scratch memory than the sort,
permutation and inverse inside ``np.unique`` take."""

_INT_TAILS = (DataType.INT, DataType.DATE, DataType.TIME, DataType.OID)


def _column_codes(lcol: BAT, rcol: BAT | None,
                  bound: int) -> tuple[np.ndarray, np.ndarray | None, int]:
    """(left codes, right codes, span) of one key column: codes in
    ``[0, span)``, shared by both sides and ordered as the raw values."""
    if rcol is not None and lcol.dtype is not rcol.dtype:
        if not (lcol.dtype.is_numeric and rcol.dtype.is_numeric):
            raise RelationError(
                f"cannot join keys of types {lcol.dtype.value} and "
                f"{rcol.dtype.value}")
        lcol, rcol = lcol.cast(DataType.DBL), rcol.cast(DataType.DBL)
    tails = [lcol.tail] if rcol is None else [lcol.tail, rcol.tail]
    if lcol.dtype in _INT_TAILS:
        filled = [t for t in tails if len(t)]
        if filled:
            low = min(int(t.min()) for t in filled)
            high = max(int(t.max()) for t in filled)
            if high - low < bound:
                codes = [t - low for t in tails]
                return (codes[0], codes[1] if rcol is not None else None,
                        high - low + 1)
    values = tails[0] if rcol is None else np.concatenate(tails)
    uniques, inverse = np.unique(values, return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64, copy=False)
    if rcol is None:
        return inverse, None, len(uniques)
    n_left = len(tails[0])
    return inverse[:n_left], inverse[n_left:], len(uniques)


def _compact(codes: list[np.ndarray], k: int) -> tuple[list[np.ndarray], int]:
    """Renumber codes in ``[0, k)`` densely, keeping their order: a
    presence mask over the domain and its running sum, O(rows + k)."""
    present = np.zeros(k, dtype=bool)
    for part in codes:
        present[part] = True
    ranks = np.cumsum(present, dtype=np.int64)
    ranks -= 1
    return [ranks[part] for part in codes], int(ranks[-1]) + 1 if k else 0


def encode_keys(left: Sequence[BAT], right: Sequence[BAT] | None = None) \
        -> tuple[np.ndarray, np.ndarray | None, int]:
    """(left codes, right codes, k): order-preserving int64 key codes in
    ``[0, k)``, shared by both sides (see the module docstring).

    With ``right=None`` only ``left`` is encoded.  ``k`` is at most
    ``DENSE_SPAN_FACTOR`` times the rows of both sides (or 1 without rows).
    """
    if not left:
        raise RelationError("encoding keys requires at least one column")
    if right is not None and len(left) != len(right):
        raise RelationError("join key lists have different lengths")
    nrows = len(left[0]) + (len(right[0]) if right is not None else 0)
    bound = DENSE_SPAN_FACTOR * max(nrows, 1)
    parts: list[np.ndarray] = []
    k = 1
    for j, lcol in enumerate(left):
        lc, rc, span = _column_codes(lcol, right[j] if right is not None
                                     else None, bound)
        col = [lc] if rc is None else [lc, rc]
        if not parts:
            parts, k = col, span
            continue
        if k * span > bound:
            parts, k = _compact(parts, k)
        parts = [p * span + c for p, c in zip(parts, col)]
        k *= span
        if k > bound:
            # Even compacted, the fold outgrew the direct-addressed
            # domain: rank the folded codes of both sides together.
            uniques, inverse = np.unique(np.concatenate(parts),
                                         return_inverse=True)
            inverse = inverse.reshape(-1).astype(np.int64, copy=False)
            parts = np.split(inverse, [len(parts[0])])[:len(parts)]
            k = len(uniques)
    return parts[0], parts[1] if right is not None else None, max(k, 1)


def group_codes(bats: Sequence[BAT]) -> tuple[np.ndarray, np.ndarray, int]:
    """(group id per row, first-row position per group, #groups).

    Group ids are the compacted :func:`encode_keys` codes, so groups come
    in key order.  One scatter of the row numbers in reverse over the code
    domain finds each code's first row (of the repeated writes to a slot,
    the last one lands) and, as ``_compact``'s presence mask does, which
    codes occur; O(rows + k).
    """
    codes, _, k = encode_keys(bats)
    n = len(codes)
    first = np.full(k, n, dtype=np.int64)
    first[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    present = first < n
    ranks = np.cumsum(present, dtype=np.int64)
    ranks -= 1
    return ranks[codes], first[present], int(ranks[-1]) + 1


def join_positions(left_keys: Sequence[BAT], right_keys: Sequence[BAT],
                   how: str = "inner") -> tuple[np.ndarray, np.ndarray]:
    """Matching position pairs (lpos, rpos) for an equi-join.

    For ``how="left"`` unmatched left rows appear with rpos ``-1``.
    Duplicate keys on either side produce the full cross of matches.
    Pairs come in left-row order, each left row's matches in right-row
    order.
    """
    if how not in ("inner", "left"):
        raise RelationError(f"unsupported join type {how!r}")
    lcodes, rcodes, k = encode_keys(left_keys, right_keys)
    counts = np.bincount(rcodes, minlength=k)
    if counts.max(initial=0) <= 1:
        # Unique right keys: a direct-address slot table.
        slot = np.full(k, -1, dtype=np.int64)
        slot[rcodes] = np.arange(len(rcodes), dtype=np.int64)
        rpos = slot[lcodes]
        lpos = np.arange(len(lcodes), dtype=np.int64)
        if how == "inner":
            hit = rpos >= 0
            if not hit.all():
                lpos = np.flatnonzero(hit)
                rpos = rpos[lpos]
        return lpos, rpos
    # Counting probe: the code-sorted right side holds code c at
    # [starts[c], starts[c] + counts[c]).
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
"""Key dtypes eligible for :func:`merge_join_positions` (raw tails totally
ordered; STR is excluded because nil ``None`` breaks object comparisons)."""


def merge_join_positions(left_keys: Sequence[BAT],
                         right_keys: Sequence[BAT],
                         how: str = "inner") \
        -> tuple[np.ndarray, np.ndarray]:
    """Sorted merge path of the equi-join.

    The executor does not call it: every plan join takes
    :func:`join_positions`, whose counting probe was faster in most shapes
    measured.  It stays defined, with its tests, because the repository
    benchmark's trace spans (``rmabench/spans.py``) wrap it by name.

    When both sides join on one key column of the same raw-comparable type
    and both columns are already sorted (the cached ``tsorted`` bit: O(1)
    for base columns, O(n) once otherwise), matches come from two binary
    searches directly on the raw tails, skipping the hash path's key
    encoding and its probe entirely.

    The output position pairs are identical to :func:`join_positions`:
    codes are order-isomorphic to raw values, so both paths pair each left
    row with its matches in right-row order.  Preconditions are checked
    here at run time; when they do not hold (composite keys included) the
    call falls back to the hash path.

    STR keys stay on the hash path (nil ordering of object tails is not
    total); DBL qualifies because its ``tsorted`` contract is nil-free.
    """
    if (properties_enabled() and len(left_keys) == len(right_keys) == 1
            and left_keys[0].dtype is right_keys[0].dtype
            and left_keys[0].dtype in MERGE_TYPES
            and left_keys[0].tsorted and right_keys[0].tsorted):
        if how not in ("inner", "left"):
            raise RelationError(f"unsupported join type {how!r}")
        left_tail, right_tail = left_keys[0].tail, right_keys[0].tail
        lo = np.searchsorted(right_tail, left_tail, side="left")
        hi = np.searchsorted(right_tail, left_tail, side="right")
        return _expand_matches(lo, hi - lo, None, how)
    return join_positions(left_keys, right_keys, how)


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
    """Whether the key codes are already non-decreasing.

    Decided by one O(n) scan of the codes themselves, which saves the
    stable code sort and the position gather it implies.  The key BATs'
    cached ``tsorted`` bits are deliberately NOT consulted: mixed INT/DBL
    keys are cast to DBL, which moves the INT nil sentinel from the
    smallest raw value to NaN, so pre-cast sortedness does not imply
    sorted codes.
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
