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

When every column of one side is coded by offset and no fold needed
compaction, the codes have a *layout* (:class:`KeyCodes`): per column its
``(low, span)``, so a code is the mixed-radix number of the columns'
``value - low`` digits and decodes back to the key values without a
gather.  :func:`key_codes` encodes one side with its layout.

A statement over a few base columns need not code its rows at all:
:func:`base_codes` codes the whole columns once, keeps the codes on the
first column (:meth:`~repro.bat.bat.BAT.derived`, in the narrowest
unsigned type that holds ``k``) for as long as it lives, and a statement
gathers its rows' codes from them.  These are the one precomputed left
coding a join takes (``left_codes``): they cover every value of the
columns, so :func:`join_positions` codes only the right rows into the
layout, and a right value outside it matches nothing.  Fig. 15's GROUP BY
and pair join gather one ``uint16`` code per trip instead of two station
columns, so the join probes the codes its GROUP BY grouped by (a
groupjoin, Moerkotte & Neumann, VLDB 2011).  A join over any other keys
codes both sides with :func:`encode_keys`.

Grouping (:func:`group_codes`) compacts the codes once, since group ids
must be dense; they stay in key order.  ``group_by`` skips even that for
codes with a layout (see :mod:`repro.relational.aggregate`).  Everything is
whole-column numpy work, no per-row python.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.bat.bat import BAT, DataType, _encode_value
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

INT_TAILS = (DataType.INT, DataType.DATE, DataType.TIME, DataType.OID)
"""The dtypes a key column is coded by offset in."""


class KeyCodes(NamedTuple):
    """One side's key codes in ``[0, k)`` and their layout: per column
    ``(low, span)`` when every column was coded by offset and no fold
    needed compaction (a code is then ``((v0 - low0) * span1 + v1 - low1)
    * span2 + ...``), else ``None``.  ``dtypes`` are the key columns'."""

    codes: np.ndarray
    k: int
    layout: tuple[tuple[int, int], ...] | None
    dtypes: tuple[DataType, ...]


def _column_codes(lcol: BAT, rcol: BAT | None, bound: int) \
        -> tuple[np.ndarray, np.ndarray | None, int, int | None]:
    """(left codes, right codes, span, low) of one key column: codes in
    ``[0, span)``, shared by both sides and ordered as the raw values.
    With a ``low`` the codes are ``value - low`` and the raw tails are
    returned instead, for the caller to subtract ``low`` where it folds
    them."""
    if rcol is not None and lcol.dtype is not rcol.dtype:
        if not (lcol.dtype.is_numeric and rcol.dtype.is_numeric):
            raise RelationError(
                f"cannot join keys of types {lcol.dtype.value} and "
                f"{rcol.dtype.value}")
        lcol, rcol = lcol.cast(DataType.DBL), rcol.cast(DataType.DBL)
    tails = [lcol.tail] if rcol is None else [lcol.tail, rcol.tail]
    if lcol.dtype in INT_TAILS:
        filled = [t for t in tails if len(t)]
        if filled:
            low = min(int(t.min()) for t in filled)
            high = max(int(t.max()) for t in filled)
            if high - low < bound:
                return (tails[0], tails[1] if rcol is not None else None,
                        high - low + 1, low)
    values = tails[0] if rcol is None else np.concatenate(tails)
    uniques, inverse = np.unique(values, return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64, copy=False)
    if rcol is None:
        return inverse, None, len(uniques), None
    n_left = len(tails[0])
    return inverse[:n_left], inverse[n_left:], len(uniques), None


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
    lcodes, rcodes, k, _ = _encode(left, right)
    return lcodes, rcodes, k


def key_codes(bats: Sequence[BAT]) -> KeyCodes:
    """:func:`encode_keys` of one side, with the codes' layout."""
    codes, _, k, layout = _encode(bats, None)
    return KeyCodes(codes, k, layout, tuple(b.dtype for b in bats))


def base_codes(bats: Sequence[BAT]) -> KeyCodes:
    """:func:`key_codes` of whole columns, cached on the first one
    (:meth:`BAT.derived`, so they live as long as it does) and stored in
    the narrowest unsigned integer type that holds ``k`` when they have a
    layout.  A statement gathers its rows' codes from them instead of
    gathering its rows' key columns and coding those (the executor's
    GROUP BY and joins over a base relation's columns).

    The first column keeps the codes of one tuple of further columns per
    arity, which the entry holds: codes of the same first column with
    other further columns are computed afresh and not kept, so a
    long-lived column never pins a stream of short-lived ones."""
    others = tuple(bats[1:])

    def compute() -> tuple:
        coded = key_codes(bats)
        if coded.layout is not None:
            for dtype in (np.uint8, np.uint16, np.uint32):
                if coded.k <= np.iinfo(dtype).max + 1:
                    coded = coded._replace(
                        codes=coded.codes.astype(dtype))
                    break
            coded.codes.setflags(write=False)
        return others, coded

    entry = bats[0].derived(("key_codes", len(others)), compute)
    if any(a is not b for a, b in zip(entry[0], others)):
        entry = compute()
    return entry[1]


def _encode(left: Sequence[BAT], right: Sequence[BAT] | None) \
        -> tuple[np.ndarray, np.ndarray | None, int,
                 tuple[tuple[int, int], ...] | None]:
    """:func:`encode_keys` plus the layout of :class:`KeyCodes`."""
    if not left:
        raise RelationError("encoding keys requires at least one column")
    if right is not None and len(left) != len(right):
        raise RelationError("join key lists have different lengths")
    nrows = len(left[0]) + (len(right[0]) if right is not None else 0)
    bound = DENSE_SPAN_FACTOR * max(nrows, 1)
    parts: list[np.ndarray] = []
    k = 1
    layout: list[tuple[int, int]] | None = []
    for j, lcol in enumerate(left):
        lc, rc, span, low = _column_codes(lcol, right[j] if right is not None
                                          else None, bound)
        col = [lc] if rc is None else [lc, rc]
        if low is None:
            layout = None
        elif layout is not None:
            layout.append((low, span))
        if not parts:
            parts = col if low is None else [c - low for c in col]
            k = span
            continue
        if k * span > bound:
            parts, k = _compact(parts, k)
            layout = None
        for part, c in zip(parts, col):
            # In place: every code array in parts is this call's own.  A
            # raw tail folds in before its low is taken off (int64 wraps
            # around and back).
            part *= span
            part += c
            if low:
                part -= low
        k *= span
        if k > bound:
            # Even compacted, the fold outgrew the direct-addressed
            # domain: rank the folded codes of both sides together.
            uniques, inverse = np.unique(np.concatenate(parts),
                                         return_inverse=True)
            inverse = inverse.reshape(-1).astype(np.int64, copy=False)
            parts = np.split(inverse, [len(parts[0])])[:len(parts)]
            k = len(uniques)
            layout = None
    return (parts[0], parts[1] if right is not None else None, max(k, 1),
            None if layout is None else tuple(layout))


def group_codes(bats: Sequence[BAT]) -> tuple[np.ndarray, np.ndarray, int]:
    """(group id per row, first-row position per group, #groups).

    Group ids are the compacted :func:`encode_keys` codes, so groups come
    in key order.  One scatter of the row numbers in reverse over the code
    domain finds each code's first row (of the repeated writes to a slot,
    the last one lands) and, as ``_compact``'s presence mask does, which
    codes occur; O(rows + k).
    """
    codes, _, k = encode_keys(bats)
    return group_ids(codes, k)


def group_ids(codes: np.ndarray, k: int) \
        -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`group_codes` of codes in ``[0, k)``."""
    n = len(codes)
    first = np.full(k, n, dtype=np.int64)
    first[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    present = first < n
    ranks = np.cumsum(present, dtype=np.int64)
    ranks -= 1
    return ranks[codes], first[present], int(ranks[-1]) + 1


def join_positions(left_keys: Sequence[BAT], right_keys: Sequence[BAT],
                   how: str = "inner",
                   left_codes: KeyCodes | None = None) \
        -> tuple[np.ndarray, np.ndarray]:
    """Matching position pairs (lpos, rpos) for an equi-join.

    A nil in any key column matches nothing, as in SQL: an inner join
    drops that row, and ``how="left"`` keeps a left one with rpos ``-1``,
    like every other unmatched left row.  Keys whose cached ``tnonil`` bit
    is set skip the nil scan.  Duplicate keys on either side produce the
    full cross of matches.  Pairs come in left-row order, each left row's
    matches in right-row order.

    ``left_codes`` are the left rows' codes when the caller holds them
    (:func:`base_codes` gathered at the rows), with a layout that covers
    every value of ``left_keys``, the columns the rows were taken from;
    the right keys must have their dtypes.  Only the right keys are then
    coded, into the layout, and a right value outside it matches nothing
    (see the module docstring).
    """
    if how not in ("inner", "left"):
        raise RelationError(f"unsupported join type {how!r}")
    if left_codes is not None:
        return _probe_layout(left_codes, right_keys, how)
    nleft = len(left_keys[0]) if left_keys else 0
    lrows, left_keys = _non_nil_keys(left_keys)
    rrows, right_keys = _non_nil_keys(right_keys)
    # With nil left keys a LEFT join probes the other rows as an inner
    # join and gets its unmatched rows added afterwards.
    pad = how == "left" and lrows is not None
    shared = encode_keys(left_keys, right_keys)
    lpos, rpos = _probe(*shared, "inner" if pad else how)
    lpos, rpos = compose(lrows, lpos), compose(rrows, rpos)
    if pad:
        lpos, rpos = pad_unmatched(lpos, rpos, nleft)
    return lpos, rpos


# The name the repository benchmark's trace spans (rmabench/spans.py) wrap.
merge_join_positions = join_positions


def _probe_layout(left: KeyCodes, right_keys: Sequence[BAT],
                  how: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`join_positions` of left rows coded in a layout that covers
    every left value: the right rows are coded into it; a nil or any
    other value outside it is no left value, so its row matches
    nothing."""
    inside = None
    codes = None
    for key, (low, span) in zip(right_keys, left.layout):
        tail = key.tail
        within = (tail >= low) & (tail <= low + (span - 1))
        inside = within if inside is None else inside & within
        digit = tail - low
        codes = digit if codes is None else codes * span + digit
    rows = None
    if not inside.all():
        rows = np.flatnonzero(inside)
        codes = codes[rows]
    lpos, rpos = _probe(left.codes, codes, left.k, how)
    return lpos, compose(rows, rpos)


def _probe(lcodes: np.ndarray, rcodes: np.ndarray, k: int,
           how: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`join_positions` over the codes of nil-free keys."""
    counts = np.bincount(rcodes, minlength=k)
    if counts.max(initial=0) <= 1:
        # Unique right keys: a direct-address slot table.
        slot = np.full(k, -1, dtype=np.int64)
        slot[rcodes] = np.arange(len(rcodes), dtype=np.int64)
        rpos = slot[lcodes]
        if how == "inner":
            hit = rpos >= 0
            if not hit.all():
                lpos = np.flatnonzero(hit)
                return lpos, rpos[lpos]
        return np.arange(len(lcodes), dtype=np.int64), rpos
    # Counting probe: the code-sorted right side holds code c at
    # [starts[c], starts[c] + counts[c]).
    starts = np.cumsum(counts) - counts
    if _codes_sorted(rcodes):
        # Already-sorted right side (dimension tables with dense keys):
        # the identity permutation is the stable argsort.
        order_r = None
    else:
        order_r = _stable_order(rcodes, k)
    return _expand_matches(starts[lcodes], counts[lcodes], order_r, how)


def _non_nil_keys(keys: Sequence[BAT]) \
        -> tuple[np.ndarray | None, Sequence[BAT]]:
    """(rows whose keys are all non-nil, those rows' keys); the rows are
    ``None`` when no key holds a nil."""
    nil = None
    for key in keys:
        if not key.tnonil:
            nil = key.is_nil() if nil is None else nil | key.is_nil()
    if nil is None:
        return None, keys
    rows = np.flatnonzero(~nil)
    return rows, [key.fetch(rows, positions_sorted=True, positions_key=True)
                  for key in keys]


def compose(positions: np.ndarray | None, slot: np.ndarray) -> np.ndarray:
    """``positions[slot]`` with ``-1`` slots kept ``-1`` (``positions=None``
    is the identity): positions into a row subset mapped back to the full
    side, or a nullable vector seen through another one."""
    if positions is None:
        return slot
    out = np.full(len(slot), -1, dtype=np.int64)
    hit = slot >= 0
    out[hit] = positions[slot[hit]]
    return out


def gather_nullable(base: BAT, positions: np.ndarray) -> BAT:
    """``base`` gathered at ``positions``, a ``-1`` position reading nil.

    BOOL has no nil encoding: its unmatched rows keep whatever value the
    gather produced (False when ``base`` is empty).
    """
    missing = positions < 0
    if not missing.any():
        return base.fetch(positions)
    if len(base):
        tail = base.tail[np.where(missing, 0, positions)]
    else:
        tail = np.zeros(len(positions), dtype=base.dtype.numpy_dtype)
    if base.dtype is not DataType.BOOL:
        tail[missing] = _encode_value(None, base.dtype)
    return BAT(base.dtype, tail)


def pad_unmatched(lpos: np.ndarray, rpos: np.ndarray,
                  nleft: int) -> tuple[np.ndarray, np.ndarray]:
    """Add a ``(row, -1)`` pair for every left row absent from ``lpos``,
    in left-row order (``lpos`` is non-decreasing), as a LEFT JOIN emits
    them."""
    matched = np.zeros(nleft, dtype=bool)
    matched[lpos] = True
    missing = np.flatnonzero(~matched)
    lpos = np.concatenate([lpos, missing])
    rpos = np.concatenate([rpos, np.full(len(missing), -1, dtype=np.int64)])
    order = np.argsort(lpos, kind="stable")
    return lpos[order], rpos[order]


def _stable_order(codes: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")``; codes below 2**16 are narrowed
    first, which makes numpy's stable sort an O(n) radix sort."""
    if k <= 1 << 8:
        codes = codes.astype(np.uint8)
    elif k <= 1 << 16:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


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


def join(left: Relation, right: Relation, left_on: Sequence[str],
         right_on: Sequence[str], how: str = "inner",
         drop_right_keys: bool = False) -> Relation:
    """Equi-join producing a relation with all columns of both inputs.

    Column names must not clash (after optionally dropping the right key
    columns); rename beforehand if they do.
    """
    lpos, rpos = join_positions(left.bats(left_on), right.bats(right_on),
                                how)
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
    gather = gather_nullable if how == "left" else BAT.fetch
    columns += [gather(right.column(name), rpos) for name in right_names]
    schema = left.schema.concat(right.schema.project(right_names))
    return Relation(schema, columns)
