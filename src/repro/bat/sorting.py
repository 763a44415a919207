"""Order computation over BATs.

The order schema of a relational matrix operation imposes a tuple order that
is *computed* from the data (the paper stores no ordered structures).  This
module derives that order: a stable lexicographic argsort over a list of
BATs, plus the key check the order schema must satisfy.
"""

from __future__ import annotations

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.errors import BatError, KeyViolationError


def _sort_key_array(bat: BAT) -> np.ndarray:
    """Return an array usable as an argsort key for one BAT."""
    if bat.dtype is DataType.STR:
        # Object arrays argsort correctly (python str comparison), but nils
        # (None) are not orderable; surface that as an explicit error.
        if any(v is None for v in bat.tail):
            raise BatError("cannot order by a column containing nil strings")
        return bat.tail
    return bat.tail


def order_by(bats: list[BAT]) -> np.ndarray:
    """Stable lexicographic order positions for a list of key BATs.

    The first BAT is the major key.  Implemented as repeated stable argsort
    from the minor key to the major key (radix-style), which is how column
    stores compute multi-column orders without materializing row tuples.
    """
    if not bats:
        raise BatError("order_by requires at least one column")
    n = len(bats[0])
    for b in bats[1:]:
        if len(b) != n:
            raise BatError("order_by columns are misaligned")
    if _already_ordered(bats):
        return np.arange(n, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    for bat in reversed(bats):
        key = _sort_key_array(bat)[positions]
        order = np.argsort(key, kind="stable")
        positions = positions[order]
    return positions


def _require_orderable(bats: list[BAT]) -> None:
    """Raise the nil-string error the sort path would raise.

    Property short-circuits that skip :func:`_sort_key_array` must still
    surface its error, or a warm column would behave unlike a cold one.
    The check is the column's (cached) ``tnonil`` bit, so it is paid once.
    """
    for bat in bats:
        if bat.dtype is DataType.STR and not bat.tnonil:
            raise BatError("cannot order by a column containing nil strings")


def _already_ordered(bats: list[BAT]) -> bool:
    """Whether storage order already is the stable lexicographic order.

    A single column gets a full (O(n), cached) sortedness check — cheaper
    than the O(n log n) argsort it avoids.  For multi-column orders only
    cached bits are consulted, so cold data pays nothing extra: the order is
    the identity when the major key is sorted and strictly increasing (the
    stable sort never reaches the minor keys), or when every column is
    sorted (rows are then lexicographically non-decreasing).  Either way
    a nil string raises, as the sort would (a one-row column is sorted).
    """
    first = bats[0]
    if len(bats) == 1:
        ordered = first.tsorted
    else:
        ordered = (first._props.get("tsorted") and first._props.get("tkey")) \
            or all(b._props.get("tsorted") for b in bats)
    if ordered:
        _require_orderable(bats)
    return bool(ordered)


def rank_of(positions: np.ndarray) -> np.ndarray:
    """Inverse permutation: rank_of(order)[i] is the sorted rank of row i.

    Used by the *relative sorting* optimization for element-wise operations
    (paper §8.1): the first relation stays in storage order and the second
    relation is aligned to it via the composed permutation.
    """
    ranks = np.empty(len(positions), dtype=np.int64)
    ranks[positions] = np.arange(len(positions), dtype=np.int64)
    return ranks


def check_key(bats: list[BAT], order: np.ndarray | None = None) -> bool:
    """Check that the combined columns form a key (unique rows).

    If a precomputed order is supplied the check is a linear adjacent-equality
    scan; otherwise an order is computed first.
    """
    if not bats:
        return False
    n = len(bats[0])
    if n <= 1:
        return True
    verdict = _key_shortcut(bats)
    if verdict is not None:
        if order is None:
            # The sort below would have rejected nil strings; the
            # shortcut must too.
            _require_orderable(bats)
        return verdict
    if order is None:
        order = order_by(bats)
    duplicate = np.ones(n - 1, dtype=bool)
    for bat in bats:
        key = bat.tail[order]
        # Object (STR) tails compare element-wise just like numeric ones;
        # None == None holds, so nil duplicates are still caught.  DBL
        # nils are NaN, which == never matches: compare their nil masks,
        # so two nils are duplicates here as they are for ``tkey``.
        eq = np.asarray(key[:-1] == key[1:], dtype=bool)
        if bat.dtype is DataType.DBL and not bat.tnonil:
            nil = np.isnan(key)
            eq |= nil[:-1] & nil[1:]
        duplicate &= eq
        if not duplicate.any():
            return True
    return not bool(duplicate.any())


def _key_shortcut(bats: list[BAT]) -> bool | None:
    """Key verdict from properties alone, without sorting; None undecided.

    A superset of a key is a key, so any column whose ``tkey`` bit is set
    settles the question.  A single column's ``tkey`` is the verdict: it
    and the adjacent-equality scan both count two nils as duplicates.
    """
    for bat in bats:
        if bat._props.get("tkey"):
            return True
    if len(bats) == 1:
        return bats[0].tkey
    return None


def key_violation(names: list[str]) -> KeyViolationError:
    """The error raised when an order schema has duplicate tuples."""
    return KeyViolationError(
        f"order schema ({', '.join(names)}) does not form a key: "
        "duplicate tuples found")


def require_key(bats: list[BAT], names: list[str],
                order: np.ndarray | None = None) -> None:
    """Raise :class:`KeyViolationError` unless the columns form a key."""
    if not check_key(bats, order):
        raise key_violation(names)
