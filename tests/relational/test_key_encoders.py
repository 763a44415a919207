"""The key encoder behind joins, GROUP BY, COUNT(DISTINCT) and PIVOT
against a sort-based reference.

``group_by`` aggregates at the code domain when every key column is coded
by offset (the codes' layout), and a join given the left side's codes
(``left_codes``) codes only its right rows into their layout; both must
give exactly what the reference gives too: every aggregate bit for bit
against a per-row oracle over ``np.unique``-ranked groups, and the
join's pairs against a nested loop, right values outside the layout
included.

``encode_keys`` codes small integer domains by offset and folds composite
keys by multiplication, compacting only when a fold would outgrow the
direct-addressed domain; the join probe uses a slot table for unique right
keys and bincount prefix sums otherwise.  All of it must reproduce
*exactly* what the plain ``np.unique`` encoding below yields: codes that
rank the same, the same join position pairs in the same order, the same
group order and first-row representatives.  Inputs straddle the
dense-span threshold, fold composite keys across it, place the two join
sides in disjoint or one-sided ranges, come in key order (the probe's
already-sorted right side), carry negative lows, ``NIL_INT``/NaN, mix
INT and DBL join keys (the cast path), and include empty and one-row
relations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bat.bat import BAT, NIL_INT, DataType
from repro.relational import AggregateSpec, Relation, group_by, pivot
import repro.relational.joins as joins
from repro.relational.joins import (DENSE_SPAN_FACTOR, encode_keys,
                                    group_codes, join_positions, key_codes)
from repro.relational.schema import Attribute, Schema

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1

INT_KINDS = {"int": DataType.INT, "date": DataType.DATE,
             "time": DataType.TIME, "oid": DataType.OID}
KINDS = tuple(INT_KINDS) + ("dbl", "str")
STRINGS = ("", "a", "b", "aa", "ab", "zz")


# -- the reference: one np.unique per column and per fold ---------------------

def ref_factorize(tails):
    codes = None
    for tail in tails:
        _, col = np.unique(tail, return_inverse=True)
        col = col.reshape(-1).astype(np.int64)
        if codes is None:
            codes = col
        else:
            k = int(col.max()) + 1 if len(col) else 1
            _, codes = np.unique(codes * k + col, return_inverse=True)
            codes = codes.reshape(-1).astype(np.int64)
    return codes


def ref_groups(tails):
    """(group id per row, first row per group, #groups)."""
    codes = ref_factorize(tails)
    uniques, first, inverse = np.unique(codes, return_index=True,
                                        return_inverse=True)
    return (inverse.reshape(-1).astype(np.int64), first.astype(np.int64),
            len(uniques))


def ref_join(left, right, how):
    """Brute force over reference codes: left rows ascending, each with
    its matching right rows ascending (-1 when a left join misses).  A row
    with a nil key matches nothing, as in SQL."""
    ltails, rtails = [], []
    lnil = np.zeros(len(left[0]), dtype=bool)
    rnil = np.zeros(len(right[0]), dtype=bool)
    for lc, rc in zip(left, right):
        lnil |= lc.is_nil()
        rnil |= rc.is_nil()
        if lc.dtype is not rc.dtype:
            lc, rc = lc.cast(DataType.DBL), rc.cast(DataType.DBL)
        ltails.append(lc.tail)
        rtails.append(rc.tail)
    codes = ref_factorize([np.concatenate([lt, rt])
                           for lt, rt in zip(ltails, rtails)])
    lcodes, rcodes = codes[:len(left[0])], codes[len(left[0]):]
    lpos, rpos = [], []
    for i, code in enumerate(lcodes):
        matches = [] if lnil[i] else \
            np.nonzero((rcodes == code) & ~rnil)[0].tolist()
        if not matches and how == "left":
            matches = [-1]
        lpos += [i] * len(matches)
        rpos += matches
    return np.array(lpos, dtype=np.int64), np.array(rpos, dtype=np.int64)


# -- inputs ----------------------------------------------------------------------

@st.composite
def int_tails(draw, n):
    """int64 values whose span sits below, at or just above the dense
    threshold (``span <= DENSE_SPAN_FACTOR * n`` is dense), or far above
    it; negative offsets and NIL_INT appear too."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    limit = DENSE_SPAN_FACTOR * n
    mode = draw(st.sampled_from(("small", "below", "at", "above", "wide")))
    span = {"small": draw(st.integers(1, n)),
            "below": max(1, limit - 1), "at": limit, "above": limit + 1,
            "wide": draw(st.integers(limit + 2, 1 << 40))}[mode]
    low = draw(st.integers(-(1 << 40), 1 << 40))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=n,
                            max_size=n))
    if n >= 2:
        offsets[0], offsets[-1] = 0, span - 1  # pin the span exactly
    tail = np.array(offsets, dtype=np.int64) + low
    nils = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.booleans()):
        tail[np.array(nils)] = NIL_INT
    return tail


@st.composite
def key_bat(draw, kind, n):
    if kind in INT_KINDS:
        return BAT(INT_KINDS[kind], draw(int_tails(n)))
    if kind == "dbl":
        values = draw(st.lists(
            st.one_of(st.integers(-4, 4).map(float), st.just(np.nan)),
            min_size=n, max_size=n))
        return BAT(DataType.DBL, np.array(values, dtype=np.float64))
    values = draw(st.lists(st.sampled_from(STRINGS), min_size=n,
                           max_size=n))
    return BAT(DataType.STR, np.array(values, dtype=object))


sizes = st.integers(0, 24)
key_kinds = st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)


def relation_of(bats, values):
    names = [f"k{i}" for i in range(len(bats))] + ["v"]
    columns = list(bats) + [BAT(DataType.DBL, values)]
    return Relation(Schema([Attribute(name, col.dtype)
                            for name, col in zip(names, columns)]),
                    columns), names[:-1]


def assert_same_relation(out, expected):
    assert out.names == expected.names
    for name in out.names:
        got, want = out.column(name), expected.column(name)
        assert got.dtype is want.dtype
        np.testing.assert_array_equal(got.tail, want.tail)


# "properties": the key BATs' property bits are computed before the call;
# "no-properties": the BATs reach it cold.
properties = pytest.mark.parametrize("warm", [True, False],
                                     ids=["properties", "no-properties"])


def warm_bats(warm, bats):
    if warm:
        for bat in bats:
            bat.tsorted, bat.trevsorted, bat.tkey, bat.tnonil


# -- the encoders ------------------------------------------------------------

def ranks(codes):
    """Dense ranks of codes: equal to the reference codes exactly when
    the codes are order-isomorphic to them."""
    _, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64)


def assert_encoding(codes, k, nrows, expected):
    assert codes.dtype == np.int64
    assert 1 <= k <= DENSE_SPAN_FACTOR * max(nrows, 1)
    assert codes.min(initial=0) >= 0 and codes.max(initial=-1) < k
    np.testing.assert_array_equal(ranks(codes), expected)


@properties
@settings(max_examples=80 * SCALE, deadline=None)
@given(data=st.data(), n=sizes, kinds=key_kinds)
def test_factorize_matches_unique(warm, data, n, kinds):
    bats = [data.draw(key_bat(kind, n)) for kind in kinds]
    warm_bats(warm, bats)
    codes, none, k = encode_keys(bats)
    gids, first, ngroups = group_codes(bats)
    assert none is None
    tails = [b.tail for b in bats]
    assert_encoding(codes, k, n, ref_factorize(tails))
    want_gids, want_first, want_ngroups = ref_groups(tails)
    np.testing.assert_array_equal(gids, want_gids)
    np.testing.assert_array_equal(first, want_first)
    assert ngroups == want_ngroups


@pytest.mark.parametrize("n, span", [(0, 1), (1, 1), (9, 1), (1000, 3),
                                     (100_000, 7), (100_000, 60_000),
                                     (100_000, 10**12)])
def test_first_rows_match_unique_return_index(n, span):
    """Each group's first row is the one ``np.unique(...,
    return_index=True)`` reports, for long inputs with many repeats per
    group too (dense and sorted spans alike)."""
    rng = np.random.default_rng(n + span)
    tail = rng.integers(0, span, n).astype(np.int64)
    gids, first, ngroups = group_codes([BAT(DataType.INT, tail)])
    uniques, want_first = np.unique(tail, return_index=True)
    assert ngroups == len(uniques)
    np.testing.assert_array_equal(first, want_first)
    np.testing.assert_array_equal(gids[first], np.arange(ngroups))


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_dense_threshold(n, monkeypatch):
    """A span of ``DENSE_SPAN_FACTOR * n`` is coded by offset without
    sorting; one more falls back to np.unique — with codes that rank
    identically either way."""
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    rng = np.random.default_rng(n)
    for extra, sorts in ((0, False), (1, True)):
        span = DENSE_SPAN_FACTOR * n + extra
        tail = rng.integers(0, span, n).astype(np.int64) - 3
        if n >= 2:
            tail[0], tail[-1] = -3, span - 4
        elif extra:
            continue  # one row always spans 1
        expected = ref_factorize([tail])
        calls.clear()
        monkeypatch.setattr(np, "unique", counting_unique)
        codes, _, k = encode_keys([BAT(DataType.INT, tail)])
        monkeypatch.setattr(np, "unique", unique)
        assert bool(calls) is sorts
        assert_encoding(codes, k, n, expected)


@st.composite
def int_composite_sides(draw):
    """Two sides of 2-3 integer key columns, each column dense on its
    own, whose span product crosses the direct-addressed bound (the
    compaction path).  The sides overlap, are disjoint, or one is empty;
    lows may be negative and NIL_INT may appear."""
    ncols = draw(st.integers(2, 3))
    nl, nr = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    if nl + nr == 0:
        nl = 1
    placement = draw(st.sampled_from(("overlap", "disjoint", "one-sided")))
    if placement == "one-sided":
        nl, nr = draw(st.sampled_from(((nl + nr, 0), (0, nl + nr))))
    left, right = [], []
    for _ in range(ncols):
        dtype = INT_KINDS[draw(st.sampled_from(sorted(INT_KINDS)))]
        span = draw(st.integers(1, max(1, nl + nr)))
        low = draw(st.integers(-(1 << 20), 1 << 20))
        shift = span if placement == "disjoint" else 0
        sides = []
        for rows, offset in ((nl, 0), (nr, shift)):
            tail = np.array(draw(st.lists(st.integers(0, span - 1),
                                          min_size=rows, max_size=rows)),
                            dtype=np.int64) + low + offset
            if rows and draw(st.integers(0, 9)) == 0:
                tail[draw(st.integers(0, rows - 1))] = NIL_INT
            sides.append(BAT(dtype, tail))
        left.append(sides[0])
        right.append(BAT(sides[0].dtype, sides[1].tail))
    return left, right


@properties
@settings(max_examples=120 * SCALE, deadline=None)
@given(sides=int_composite_sides())
def test_encode_pair_matches_unique(warm, sides):
    """Both sides share one code space, ranked as the reference ranks
    their concatenation."""
    left, right = sides
    warm_bats(warm, left + right)
    lcodes, rcodes, k = encode_keys(left, right)
    nl = len(left[0])
    expected = ref_factorize([np.concatenate([lc.tail, rc.tail])
                              for lc, rc in zip(left, right)])
    assert_encoding(np.concatenate([lcodes, rcodes]), k,
                    nl + len(right[0]), expected)


def test_composite_fold_compacts_without_sorting(monkeypatch):
    """Dense columns whose span product is above the bound fold through
    presence-mask compaction, never through np.unique: the first column
    has few distinct values spread over a wide span."""
    rng = np.random.default_rng(7)
    n = 40  # bound 160
    tails = [rng.choice(np.array([-7, 3, 13, 22]), n),  # span 30
             rng.integers(0, 30, n), rng.integers(5, 7, n)]
    tails = [t.astype(np.int64) for t in tails]
    tails[0][:4] = [-7, 3, 13, 22]
    tails[1][:2] = [0, 29]
    tails[2][:2] = [5, 6]
    expected = ref_factorize(tails)

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called on dense integer keys")

    monkeypatch.setattr(np, "unique", no_unique)
    codes, _, k = encode_keys([BAT(DataType.INT, t) for t in tails])
    monkeypatch.undo()
    assert_encoding(codes, k, n, expected)


@st.composite
def join_sides(draw):
    kinds = draw(key_kinds)
    nl, nr = draw(sizes), draw(sizes)
    left, right = [], []
    for kind in kinds:
        lkind = rkind = kind
        if kind == "int" and draw(st.booleans()):
            # Mixed INT/DBL keys join through a DBL cast.
            lkind, rkind = draw(st.sampled_from((("int", "dbl"),
                                                 ("dbl", "int"))))
        left.append(draw(key_bat(lkind, nl)))
        if draw(st.booleans()) and lkind == rkind and nl:
            # Overlapping keys: resample right rows from the left side.
            picks = draw(st.lists(st.integers(0, nl - 1), min_size=nr,
                                  max_size=nr))
            tail = left[-1].tail[np.array(picks, dtype=np.int64)]
            right.append(BAT(left[-1].dtype, tail))
        else:
            right.append(draw(key_bat(rkind, nr)))
    return left, right


@st.composite
def keyed_join_sides(draw):
    """Integer keys with unique right rows (the slot probe) or duplicate
    ones (the counting probe); the left side misses some keys, matches
    all of them, or is empty."""
    nl, nr = draw(sizes), draw(sizes)
    low = draw(st.integers(-(1 << 30), 1 << 30))
    universe = max(nr, 1) * draw(st.integers(1, 3))
    unique_right = draw(st.booleans())
    if unique_right:
        picks = draw(st.lists(st.integers(0, universe - 1), min_size=nr,
                              max_size=nr, unique=True))
    else:
        picks = draw(st.lists(st.integers(0, max(nr // 2, 1)),
                              min_size=nr, max_size=nr))
    right = np.array(picks, dtype=np.int64) + low
    if draw(st.booleans()) and nr:
        # Every left key has a match (lpos is the identity).
        left = right[np.array(draw(st.lists(
            st.integers(0, nr - 1), min_size=nl, max_size=nl)),
            dtype=np.int64)]
    else:
        left = np.array(draw(st.lists(st.integers(-2, universe + 2),
                                      min_size=nl, max_size=nl)),
                        dtype=np.int64) + low
    return [BAT(DataType.INT, left)], [BAT(DataType.INT, right)]


def key_ordered(bats):
    """The rows of ``bats`` in key order (first column major)."""
    order = np.lexsort([b.tail for b in reversed(bats)])
    return [BAT(b.dtype, b.tail[order]) for b in bats]


@st.composite
def sorted_join_sides(draw):
    """Integer sides with each side's rows in key order: the counting
    probe's right side is then already sorted, and single keys with
    duplicates or composite keys straddle the slot probe."""
    left, right = draw(st.one_of(keyed_join_sides(), int_composite_sides()))
    return key_ordered(left), key_ordered(right)


@properties
@pytest.mark.parametrize("how", ["inner", "left"])
@settings(max_examples=80 * SCALE, deadline=None)
@given(sides=st.one_of(join_sides(), keyed_join_sides(),
                       int_composite_sides(), sorted_join_sides()))
def test_join_positions_match_reference(warm, how, sides):
    left, right = sides
    warm_bats(warm, left + right)
    lpos, rpos = join_positions(left, right, how)
    want_l, want_r = ref_join(left, right, how)
    assert lpos.dtype == rpos.dtype == np.int64
    np.testing.assert_array_equal(lpos, want_l)
    np.testing.assert_array_equal(rpos, want_r)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_all_equal_keys_join_as_the_full_cross_product(how):
    left = [BAT(DataType.INT, np.zeros(4, dtype=np.int64))] * 2
    right = [BAT(DataType.INT, np.zeros(3, dtype=np.int64))] * 2
    lpos, rpos = join_positions(left, right, how)
    np.testing.assert_array_equal(lpos, np.repeat(np.arange(4), 3))
    np.testing.assert_array_equal(rpos, np.tile(np.arange(3), 4))


def test_merge_join_name_is_the_one_join_path():
    assert joins.merge_join_positions is joins.join_positions


@properties
@settings(max_examples=80 * SCALE, deadline=None)
@given(data=st.data(), n=sizes, kinds=key_kinds)
def test_group_by_matches_reference(warm, data, n, kinds):
    bats = [data.draw(key_bat(kind, n)) for kind in kinds]
    values = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n,
                                         max_size=n)), dtype=np.float64)
    relation, keys = relation_of(bats, values)
    warm_bats(warm, bats)
    out = group_by(relation, keys,
                   [AggregateSpec("count", "*", "n"),
                    AggregateSpec("sum", "v", "s"),
                    AggregateSpec("min", "v", "lo")])
    gids, first, ngroups = ref_groups([b.tail for b in bats])
    lo = np.full(ngroups, np.inf)
    np.minimum.at(lo, gids, values)
    columns = {key: bat.fetch(first) for key, bat in zip(keys, bats)}
    columns["n"] = BAT(DataType.INT,
                       np.bincount(gids, minlength=ngroups).astype(np.int64))
    columns["s"] = BAT(DataType.DBL, np.bincount(
        gids, weights=values, minlength=ngroups).astype(np.float64))
    columns["lo"] = BAT(DataType.DBL, lo)
    expected = Relation(Schema([Attribute(name, col.dtype)
                                for name, col in columns.items()]),
                        list(columns.values()))
    assert_same_relation(out, expected)


# -- aggregation at the code domain -------------------------------------------

VALUE_COLUMNS = {"v": DataType.DBL, "i": DataType.INT, "s": DataType.STR}
ALL_AGGREGATES = (
    [AggregateSpec("count", "*", "n")]
    + [AggregateSpec(func, "v", f"{func}_v") for func in
       ("count", "sum", "avg", "min", "max", "var", "std")]
    + [AggregateSpec(func, "i", f"{func}_i") for func in
       ("count", "sum", "min", "max")]
    + [AggregateSpec(func, "s", f"{func}_s") for func in
       ("count", "min", "max")]
    + [AggregateSpec("count", name, f"distinct_{name}", distinct=True)
       for name in VALUE_COLUMNS])


@st.composite
def value_columns(draw, n):
    """A DBL, an INT and a STR value column of ``n`` rows, nils included;
    doubles are multiples of 0.25 and may be large, so sums round."""
    v = draw(st.lists(st.one_of(st.just(np.nan), st.integers(-8, 8).map(
        lambda x: x / 4), st.just(1e16)), min_size=n, max_size=n))
    i = draw(st.lists(st.one_of(st.just(NIL_INT), st.integers(-9, 9)),
                      min_size=n, max_size=n))
    s = draw(st.lists(st.one_of(st.none(), st.sampled_from(STRINGS)),
                      min_size=n, max_size=n))
    return [BAT(DataType.DBL, np.array(v, dtype=np.float64)),
            BAT(DataType.INT, np.array(i, dtype=np.int64)),
            BAT(DataType.STR, np.array(s, dtype=object))]


def ref_aggregate(keys, values):
    """``group_by(..., ALL_AGGREGATES)`` computed row by row in python
    over the reference groups: sums add in row order (as ``bincount``
    does), a group without values reads nil."""
    gids, first, ngroups = ref_groups([b.tail for b in keys])
    members = [[] for _ in range(ngroups)]
    for row, gid in enumerate(gids):
        members[gid].append(row)
    columns = {f"k{j}": bat.fetch(first) for j, bat in enumerate(keys)}
    v, i, s = (bat.tail for bat in values)
    present = {"v": lambda r: not np.isnan(v[r]),
               "i": lambda r: i[r] != NIL_INT, "s": lambda r: s[r] is not None}
    raw = {"v": v, "i": i, "s": s}

    def per_group(func):
        return [func(rows) for rows in members]

    def values_of(name, rows):
        return [raw[name][r] for r in rows if present[name](r)]

    def total(xs):
        out = 0.0
        for x in xs:
            out += float(x)
        return out

    def variance(xs, root):
        if not xs:
            return np.nan
        c, sums = len(xs), total(xs)
        sq = total(float(x) * float(x) for x in xs)
        mean = sums / c
        var = max((sq - c * mean * mean) / max(c - 1, 1), 0.0)
        return float(np.sqrt(var)) if root else var

    columns["n"] = BAT(DataType.INT, np.array(per_group(len), np.int64))
    for name in VALUE_COLUMNS:
        columns[f"count_{name}"] = BAT(DataType.INT, np.array(per_group(
            lambda rows: len(values_of(name, rows))), np.int64))
    dbl = {
        "sum": lambda xs: total(xs) if xs else np.nan,
        "avg": lambda xs: total(xs) / len(xs) if xs else np.nan,
        "min": lambda xs: min(xs) if xs else np.nan,
        "max": lambda xs: max(xs) if xs else np.nan,
        "var": lambda xs: variance(xs, False),
        "std": lambda xs: variance(xs, True)}
    for func, reduce in dbl.items():
        columns[f"{func}_v"] = BAT(DataType.DBL, np.array(per_group(
            lambda rows: reduce(values_of("v", rows))), np.float64))
    ints = {"sum": lambda xs: int(total(xs)), "min": min, "max": max}
    for func, reduce in ints.items():
        columns[f"{func}_i"] = BAT(DataType.INT, np.array(per_group(
            lambda rows: reduce(values_of("i", rows))
            if values_of("i", rows) else NIL_INT), np.int64))
    for func, reduce in (("min", min), ("max", max)):
        columns[f"{func}_s"] = BAT(DataType.STR, np.array(per_group(
            lambda rows: reduce(values_of("s", rows))
            if values_of("s", rows) else None), dtype=object))
    for name in VALUE_COLUMNS:
        columns[f"distinct_{name}"] = BAT(DataType.INT, np.array(per_group(
            lambda rows: len(set(values_of(name, rows)))), np.int64))
    order = [f"k{j}" for j in range(len(keys))] + [
        spec.alias for spec in ALL_AGGREGATES]
    return Relation(Schema([Attribute(name, columns[name].dtype)
                            for name in order]),
                    [columns[name] for name in order])


def assert_same_bits(out, expected):
    """Names, dtypes and every value bit (NaN payloads, -0.0) equal."""
    assert out.names == expected.names
    for name in out.names:
        got, want = out.column(name), expected.column(name)
        assert got.dtype is want.dtype, name
        if got.dtype is DataType.STR:
            assert list(got.tail) == list(want.tail), name
        else:
            assert got.tail.tobytes() == want.tail.tobytes(), name


@st.composite
def dense_key_bat(draw, n):
    """An integer-family key column whose span sits at or below the
    dense bound, or just past it."""
    kind = draw(st.sampled_from(sorted(INT_KINDS)))
    limit = DENSE_SPAN_FACTOR * max(n, 1)
    span = draw(st.sampled_from((1, 2, 3, limit, limit + 1)))
    low = draw(st.integers(-(1 << 30), 1 << 30))
    tail = np.array(draw(st.lists(st.integers(0, span - 1), min_size=n,
                                  max_size=n)), dtype=np.int64) + low
    if n >= 2:
        tail[0], tail[-1] = low, low + span - 1
    if n and draw(st.integers(0, 5)) == 0:
        tail[draw(st.integers(0, n - 1))] = NIL_INT
    return BAT(INT_KINDS[kind], tail)


@properties
@settings(max_examples=80 * SCALE, deadline=None)
@given(data=st.data(), n=st.integers(0, 30),
       kinds=st.lists(st.sampled_from(("dense", "dense", "dense") + KINDS),
                      min_size=1, max_size=3))
def test_code_domain_group_by_matches_reference(warm, data, n, kinds):
    """Every aggregate and COUNT(DISTINCT), with nil keys, composite keys,
    spans at and past the bound and STR/DBL keys (the compacted path),
    bit for bit."""
    keys = [data.draw(dense_key_bat(n)) if kind == "dense"
            else data.draw(key_bat(kind, n)) for kind in kinds]
    values = data.draw(value_columns(n))
    names = [f"k{j}" for j in range(len(keys))]
    columns = keys + values
    relation = Relation(Schema(
        [Attribute(name, col.dtype) for name, col in
         zip(names + list(VALUE_COLUMNS), columns)]), columns)
    warm_bats(warm, keys)
    out = group_by(relation, names, ALL_AGGREGATES)
    assert_same_bits(out, ref_aggregate(keys, values))


def test_code_domain_group_by_reads_no_key_row():
    """Dense keys are decoded from the codes: no key column is gathered,
    and the first one comes out sorted."""
    rng = np.random.default_rng(3)
    keys = [BAT(DataType.INT, rng.integers(5, 65, 1000)),
            BAT(DataType.DATE, rng.integers(100, 110, 1000))]
    relation = Relation(Schema([Attribute("a", DataType.INT),
                                Attribute("b", DataType.DATE)]), keys)
    assert key_codes(keys).layout == ((5, 60), (100, 10))
    gathered = []
    fetch = BAT.fetch

    def spy(bat, positions, *args, **kwargs):
        gathered.append(bat)
        return fetch(bat, positions, *args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(BAT, "fetch", spy)
        out = group_by(relation, ["a", "b"],
                       [AggregateSpec("count", "*", "n")])
    assert not any(bat is key for bat in gathered for key in keys)
    assert out.column("a").cached_prop("tsorted") is True
    pairs = sorted(set(zip(keys[0].tail.tolist(), keys[1].tail.tolist())))
    assert list(zip(out.column("a").tail.tolist(),
                    out.column("b").tail.tolist())) == pairs


# -- joins probing with precomputed left codes -----------------------------------

@st.composite
def reused_join_sides(draw):
    """Dense integer left keys (1-2 columns, nil-free) and right keys
    drawn from the left's values, from values outside its layout, of
    another dtype, or holding nils."""
    nl, nr = draw(st.integers(1, 24)), draw(st.integers(0, 12))
    left, right = [], []
    for column in range(draw(st.integers(1, 2))):
        kind = INT_KINDS[draw(st.sampled_from(sorted(INT_KINDS)))]
        low = draw(st.integers(-(1 << 20), 1 << 20))
        # Spans multiply to at most the dense bound: no compaction.
        span = draw(st.integers(1, nl if column == 0 else DENSE_SPAN_FACTOR))
        ltail = np.array(draw(st.lists(st.integers(0, span - 1),
                                       min_size=nl, max_size=nl)),
                         dtype=np.int64) + low
        rtail = np.array(draw(st.lists(st.integers(-2, span + 1),
                                       min_size=nr, max_size=nr)),
                         dtype=np.int64) + low
        if nr and draw(st.integers(0, 5)) == 0:
            rtail[draw(st.integers(0, nr - 1))] = NIL_INT
        rkind = kind
        if draw(st.integers(0, 7)) == 0:
            rkind = INT_KINDS[draw(st.sampled_from(sorted(INT_KINDS)))]
        left.append(BAT(kind, ltail))
        right.append(BAT(rkind, rtail))
    return left, right


@pytest.mark.parametrize("how", ["inner", "left"])
@settings(max_examples=100 * SCALE, deadline=None)
@given(sides=reused_join_sides())
def test_join_reusing_codes_matches_nested_loop(how, sides):
    """Right keys of the left keys' dtypes are coded into the layout of
    ``left_codes``, values outside it (nil too) matching nothing; other
    dtypes take the shared encoding, as the executor hands them over."""
    left, right = sides
    same_dtypes = all(l.dtype is r.dtype for l, r in zip(left, right))
    if not same_dtypes and not all(l.dtype.is_numeric and r.dtype.is_numeric
                                   for l, r in zip(left, right)):
        with pytest.raises(repro.errors.RelationError):
            join_positions(left, right, how)
        return
    coded = key_codes(left)
    assert coded.layout is not None
    encoded = []
    encode = joins.encode_keys

    def spy(*args):
        encoded.append(args)
        return encode(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(joins, "encode_keys", spy)
        lpos, rpos = join_positions(
            left, right, how, left_codes=coded if same_dtypes else None)
    want_l, want_r = ref_join(left, right, how)
    np.testing.assert_array_equal(lpos, want_l)
    np.testing.assert_array_equal(rpos, want_r)
    assert bool(encoded) is not same_dtypes


def ref_pivot(relation, index, on, value):
    """Sum-pivot as the sort-based encoder computes it."""
    row_inverse, row_first, nrows = ref_groups(
        [relation.column(name).tail for name in index])
    on_bat = relation.column(on)
    col_values, col_inverse = np.unique(on_bat.tail, return_inverse=True)
    ncols = len(col_values)
    cell = row_inverse * ncols + col_inverse.reshape(-1).astype(np.int64)
    values = relation.column(value).as_float()
    grid = np.zeros(nrows * ncols)
    sums = np.bincount(cell, weights=values, minlength=nrows * ncols)
    touched = np.bincount(cell, minlength=nrows * ncols) > 0
    grid[touched] = sums[touched]
    grid = grid.reshape(nrows, ncols)
    columns = {name: relation.column(name).fetch(row_first)
               for name in index}
    for j in range(ncols):
        columns[str(on_bat.decode_value(col_values[j]))] = \
            BAT(DataType.DBL, grid[:, j].copy())
    return Relation(Schema([Attribute(name, col.dtype)
                            for name, col in columns.items()]),
                    list(columns.values()))


@properties
@settings(max_examples=80 * SCALE, deadline=None)
@given(data=st.data(), n=st.integers(1, 24),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=2),
       on_kind=st.sampled_from(("int", "dbl", "str")))
def test_pivot_matches_reference(warm, data, n, kinds, on_kind):
    bats = [data.draw(key_bat(kind, n)) for kind in kinds]
    if on_kind == "int":
        # Small distinct values keep the pivoted column names unique.
        on = BAT(DataType.INT, np.array(data.draw(st.lists(
            st.integers(-3, 20), min_size=n, max_size=n)), dtype=np.int64))
    elif on_kind == "dbl":
        on = BAT(DataType.DBL, np.array(data.draw(st.lists(
            st.integers(-3, 3).map(float), min_size=n, max_size=n))))
    else:
        on = BAT(DataType.STR, np.array(data.draw(st.lists(
            st.sampled_from(STRINGS[1:]), min_size=n, max_size=n)),
            dtype=object))
    values = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=n,
                                         max_size=n)), dtype=np.float64)
    keys = [f"k{i}" for i in range(len(bats))]
    columns = bats + [on, BAT(DataType.DBL, values)]
    relation = Relation(Schema([Attribute(name, col.dtype) for name, col
                                in zip(keys + ["on", "v"], columns)]),
                        columns)
    warm_bats(warm, columns)
    out = pivot(relation, keys, "on", "v")
    assert_same_relation(out, ref_pivot(relation, keys, "on", "v"))


# -- COUNT(DISTINCT) through SQL -----------------------------------------------

@settings(max_examples=60 * SCALE, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)),
                     min_size=1, max_size=30))
def test_count_distinct_matches_sets(rows):
    db = repro.connect(plan_cache=False)
    db.register("t", Relation.from_rows(["k", "x"], rows))
    out = db.execute("SELECT k, COUNT(DISTINCT x) AS d FROM t GROUP BY k")
    expected = {}
    for k, x in rows:
        expected.setdefault(k, set()).add(x)
    assert out.to_rows() == [(k, len(expected[k]))
                             for k in sorted(expected)]


def test_count_distinct_over_no_rows():
    db = repro.connect(plan_cache=False)
    db.register("t", Relation.from_rows(["k", "x"], [(1, 2), (1, 3)]))
    keyed = db.execute("SELECT k, COUNT(DISTINCT x) AS d FROM t "
                       "WHERE k > 5 GROUP BY k")
    assert keyed.to_rows() == []
    total = db.execute("SELECT COUNT(DISTINCT x) AS d FROM t WHERE k > 5")
    assert total.to_rows() == [(0,)]
