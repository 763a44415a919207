"""Tests for the BAT physical-property layer (tsorted/trevsorted/tkey/
tnonil), its free derivations, and on/off result equivalence."""

import datetime as dt

import numpy as np
import pytest

from repro.bat.bat import BAT, DataType, NIL_INT
from repro.bat.kernels import thetaselect
from repro.bat.properties import properties_enabled, use_properties
from repro.bat.sorting import check_key, order_by
from repro.errors import BatError
from repro.relational.joins import join_positions
from repro.relational.relation import Relation


@pytest.fixture(autouse=True)
def _properties_on():
    """Each test starts from the default (enabled) state."""
    with use_properties(True):
        yield


# Per-dtype value sets: (sorted-unique, unsorted-with-duplicates, with-nils)
DTYPE_VALUES = {
    DataType.INT: ([1, 2, 5, 9], [5, 1, 5, 2], [3, None, 1, None]),
    DataType.DBL: ([0.5, 1.25, 2.0, 7.5], [2.0, 0.5, 2.0, 1.0],
                   [1.0, None, 2.0, None]),
    DataType.STR: (["a", "b", "c", "d"], ["c", "a", "c", "b"],
                   ["b", None, "a", None]),
    DataType.BOOL: ([False, False, True, True], [True, False, True, False],
                    None),
    DataType.DATE: ([dt.date(2020, 1, 1), dt.date(2020, 2, 1),
                     dt.date(2021, 1, 1), dt.date(2022, 6, 1)],
                    [dt.date(2021, 1, 1), dt.date(2020, 1, 1),
                     dt.date(2021, 1, 1), dt.date(2020, 2, 1)],
                    [dt.date(2020, 1, 1), None, dt.date(2021, 1, 1), None]),
    DataType.TIME: ([dt.time(1, 0), dt.time(2, 30), dt.time(8, 0),
                     dt.time(23, 59)],
                    [dt.time(8, 0), dt.time(1, 0), dt.time(8, 0),
                     dt.time(2, 30)],
                    [dt.time(1, 0), None, dt.time(8, 0), None]),
}

ORDERABLE = [DataType.INT, DataType.DBL, DataType.STR, DataType.DATE,
             DataType.TIME]


class TestComputedProperties:
    @pytest.mark.parametrize("dtype", list(DTYPE_VALUES))
    def test_sorted_unique_values(self, dtype):
        values, _, _ = DTYPE_VALUES[dtype]
        bat = BAT.from_values(values, dtype)
        assert bat.tsorted
        assert not bat.trevsorted
        assert bat.tnonil
        if dtype is DataType.BOOL:
            assert not bat.tkey  # duplicates by construction
        else:
            assert bat.tkey

    @pytest.mark.parametrize("dtype", list(DTYPE_VALUES))
    def test_unsorted_duplicates(self, dtype):
        _, values, _ = DTYPE_VALUES[dtype]
        bat = BAT.from_values(values, dtype)
        assert not bat.tsorted
        assert not bat.tkey
        assert bat.tnonil

    @pytest.mark.parametrize("dtype", ORDERABLE)
    def test_nils_detected(self, dtype):
        _, _, values = DTYPE_VALUES[dtype]
        bat = BAT.from_values(values, dtype)
        assert not bat.tnonil
        assert not bat.tkey  # two nils duplicate each other

    def test_nil_breaks_order_bits_for_dbl_and_str(self):
        assert not BAT.from_values([1.0, None, 2.0]).tsorted
        assert not BAT.from_values(["a", None, "b"]).tsorted

    def test_int_nil_sorts_first(self):
        # NIL_INT is int64 min: raw order with leading nil is still sorted.
        bat = BAT.from_values([None, 1, 2], DataType.INT)
        assert bat.tsorted
        assert not bat.tnonil

    def test_revsorted(self):
        bat = BAT.from_values([9, 5, 2, 1])
        assert bat.trevsorted
        assert not bat.tsorted
        assert bat.tkey

    def test_short_bats_trivially_sorted(self):
        for values in ([], [42]):
            bat = BAT.from_values(values, DataType.INT)
            assert bat.tsorted and bat.trevsorted and bat.tkey

    def test_properties_cached_on_instance(self):
        bat = BAT.from_values([3, 1, 2])
        assert bat.cached_prop("tsorted") is None
        assert not bat.tsorted
        assert bat.cached_prop("tsorted") is False

    def test_disabled_layer_never_caches(self):
        bat = BAT.from_values([1, 2, 3])
        with use_properties(False):
            assert bat.tsorted  # computed fresh
            assert bat._props == {}
        assert bat.cached_prop("tsorted") is None


class TestImmutabilityGuard:
    def test_tail_is_read_only(self):
        """Cache invalidation is impossible: the tail cannot be written."""
        bat = BAT.from_values([1, 2, 3])
        assert bat.tsorted
        with pytest.raises(ValueError):
            bat.tail[0] = 99

    def test_cached_float_view_is_read_only(self):
        bat = BAT.from_values([1, 2, 3])
        view = bat.as_float()
        assert view is bat.as_float()  # cached
        with pytest.raises(ValueError):
            view[0] = 99.0

    def test_float_view_not_cached_when_disabled(self):
        bat = BAT.from_values([1, 2, 3])
        with use_properties(False):
            a, b = bat.as_float(), bat.as_float()
            assert a is not b
            np.testing.assert_array_equal(a, b)


class TestDerivations:
    def test_dense_and_constant(self):
        dense = BAT.dense(5)
        assert dense.cached_prop("tsorted") and dense.cached_prop("tkey") \
            and dense.cached_prop("tnonil")
        const = BAT.constant(7, 4, DataType.INT)
        assert const.cached_prop("tsorted") \
            and const.cached_prop("trevsorted")
        assert const.cached_prop("tkey") is False
        nil_const = BAT.constant(None, 3, DataType.STR)
        assert nil_const.cached_prop("tnonil") is False

    def test_fetch_with_hints(self):
        bat = BAT.from_values([1, 3, 5, 7])
        assert bat.tsorted and bat.tkey and bat.tnonil
        out = bat.fetch(np.array([0, 2, 3]), positions_sorted=True,
                        positions_key=True)
        assert out.cached_prop("tsorted") is True
        assert out.cached_prop("tkey") is True
        assert out.cached_prop("tnonil") is True
        # Without hints only tnonil (subset-safe) survives.
        plain = bat.fetch(np.array([2, 0]))
        assert plain.cached_prop("tsorted") is None
        assert plain.cached_prop("tnonil") is True
        assert not plain.tsorted  # and the derived value is correct

    def test_slice_inherits(self):
        bat = BAT.from_values([1, 2, 3, 4])
        assert bat.tsorted and bat.tkey
        part = bat.slice(1, 3)
        assert part.cached_prop("tsorted") is True
        assert part.cached_prop("tkey") is True
        assert list(part.tail) == [2, 3]

    def test_append_disjoint_sorted_runs(self):
        a = BAT.from_values([1, 2, 3])
        b = BAT.from_values([4, 5, 6])
        assert a.tsorted and a.tkey and b.tsorted and b.tkey
        assert a.tnonil and b.tnonil  # populate the cache for derivation
        out = a.append(b)
        assert out.cached_prop("tsorted") is True
        assert out.cached_prop("tkey") is True
        assert out.cached_prop("tnonil") is True

    def test_append_overlapping_runs_not_key(self):
        a = BAT.from_values([1, 2, 3])
        b = BAT.from_values([3, 4])
        assert a.tkey and b.tkey
        out = a.append(b)
        assert out.cached_prop("tsorted") is True
        assert out.cached_prop("tkey") is None  # boundary not strict
        assert not out.tkey

    def test_append_unsorted_derives_nothing_wrong(self):
        a = BAT.from_values([5, 1])
        b = BAT.from_values([2, 9])
        assert not a.tsorted
        out = a.append(b)
        assert out.cached_prop("tsorted") is None
        assert not out.tsorted

    def test_cast_preserves_order_bits(self):
        bat = BAT.from_values([1, 2, 3])
        assert bat.tsorted and bat.tnonil and bat.tkey
        dbl = bat.cast(DataType.DBL)
        assert dbl.cached_prop("tsorted") is True
        assert dbl.cached_prop("tnonil") is True
        # int64 -> float64 is not injective above 2**53: tkey not derived.
        assert dbl.cached_prop("tkey") is None
        back = dbl.cast(DataType.INT)
        assert back.cached_prop("tsorted") is True

    def test_cast_with_nils_keeps_only_tnonil(self):
        bat = BAT.from_values([None, 1, 2], DataType.INT)
        assert bat.tsorted and not bat.tnonil
        dbl = bat.cast(DataType.DBL)
        # NIL_INT (smallest) becomes NaN (unordered): tsorted must not carry.
        assert dbl.cached_prop("tsorted") is None
        assert not dbl.tsorted
        assert dbl.cached_prop("tnonil") is False

    def test_truncating_cast_drops_key(self):
        bat = BAT.from_values([1.2, 1.5, 2.0])
        assert bat.tkey
        ints = bat.cast(DataType.INT)
        assert ints.cached_prop("tkey") is None
        assert not ints.tkey  # 1.2 and 1.5 both truncate to 1


def _bat_cases():
    cases = []
    for dtype in ORDERABLE:
        sorted_vals, unsorted_vals, nil_vals = DTYPE_VALUES[dtype]
        cases.append(pytest.param(dtype, sorted_vals,
                                  id=f"{dtype.name}-sorted"))
        cases.append(pytest.param(dtype, unsorted_vals,
                                  id=f"{dtype.name}-unsorted"))
        if dtype is not DataType.STR:
            cases.append(pytest.param(dtype, nil_vals,
                                      id=f"{dtype.name}-nils"))
    return cases


class TestOnOffEquivalence:
    """Engine primitives must be byte-identical with the layer on or off."""

    @pytest.mark.parametrize("dtype,values", _bat_cases())
    def test_order_by(self, dtype, values):
        with use_properties(True):
            on = order_by([BAT.from_values(values, dtype)])
        with use_properties(False):
            off = order_by([BAT.from_values(values, dtype)])
        np.testing.assert_array_equal(on, off)

    def test_order_by_nil_strings_raise_both_ways(self):
        for enabled in (True, False):
            with use_properties(enabled):
                with pytest.raises(BatError):
                    order_by([BAT.from_values(["a", None], DataType.STR)])

    def test_order_by_multi_column(self):
        a = [1, 1, 0, 2, 2]
        b = ["x", "a", "z", "m", "a"]
        with use_properties(True):
            on = order_by([BAT.from_values(a), BAT.from_values(b)])
        with use_properties(False):
            off = order_by([BAT.from_values(a), BAT.from_values(b)])
        np.testing.assert_array_equal(on, off)

    def test_order_by_sorted_major_key_short_circuits(self):
        major = BAT.from_values([1, 2, 3, 4])
        minor = BAT.from_values([9, 1, 7, 3])
        assert major.tkey and major.tsorted  # populate the cache
        with use_properties(False):
            expected = order_by([major, minor])
        np.testing.assert_array_equal(order_by([major, minor]), expected)

    @pytest.mark.parametrize("dtype,values", _bat_cases())
    def test_check_key(self, dtype, values):
        with use_properties(True):
            on = check_key([BAT.from_values(values, dtype)])
        with use_properties(False):
            off = check_key([BAT.from_values(values, dtype)])
        assert on == off

    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">=", "<>"])
    @pytest.mark.parametrize("dtype,values", _bat_cases())
    def test_thetaselect(self, dtype, values, op):
        probe = next(v for v in values if v is not None)
        with use_properties(True):
            bat = BAT.from_values(values, dtype)
            assert bat.tsorted in (True, False)  # force property compute
            on = thetaselect(bat, op, probe)
        with use_properties(False):
            off = thetaselect(BAT.from_values(values, dtype), op, probe)
        np.testing.assert_array_equal(on, off)

    def test_thetaselect_nil_probe(self):
        values = [None, 1, 5, 9]
        with use_properties(True):
            on = thetaselect(BAT.from_values(values, DataType.INT), "=", None)
        with use_properties(False):
            off = thetaselect(BAT.from_values(values, DataType.INT), "=",
                              None)
        np.testing.assert_array_equal(on, off)

    def test_thetaselect_with_candidates(self):
        bat = BAT.from_values([1, 2, 3, 4, 5])
        cands = np.array([0, 2, 4], dtype=np.int64)
        with use_properties(True):
            on = thetaselect(bat, ">", 1, cands)
        with use_properties(False):
            off = thetaselect(bat, ">", 1, cands)
        np.testing.assert_array_equal(on, off)

    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("right_sorted", [True, False],
                             ids=["right-sorted", "right-unsorted"])
    def test_join_positions(self, how, right_sorted):
        left = [BAT.from_values([4, 2, 2, 9, 0])]
        right_values = [0, 2, 4, 6] if right_sorted else [6, 2, 0, 2, 4]
        with use_properties(True):
            right = [BAT.from_values(right_values)]
            assert right[0].tsorted == right_sorted or not right_sorted
            on = join_positions(left, right, how)
        with use_properties(False):
            off = join_positions([BAT.from_values([4, 2, 2, 9, 0])],
                                 [BAT.from_values(right_values)], how)
        np.testing.assert_array_equal(on[0], off[0])
        np.testing.assert_array_equal(on[1], off[1])


class TestReviewRegressions:
    """Regressions for the soundness corners found in review."""

    def test_join_mixed_type_keys_with_nils(self):
        # factorize_pair casts INT keys to DBL when the other side is DBL:
        # the INT nil (smallest raw) becomes NaN (sorts last), so a cached
        # tsorted bit on the INT BAT must not certify the codes as sorted.
        right_bat = BAT.from_values([None, 1, 2], DataType.INT)
        assert right_bat.tsorted  # NIL_INT leads: raw-sorted
        left = [BAT.from_values([1.0, 2.0, None], DataType.DBL)]
        with use_properties(True):
            on = join_positions(left, [right_bat], "inner")
        with use_properties(False):
            off = join_positions(
                [BAT.from_values([1.0, 2.0, None], DataType.DBL)],
                [BAT.from_values([None, 1, 2], DataType.INT)], "inner")
        np.testing.assert_array_equal(on[0], off[0])
        np.testing.assert_array_equal(on[1], off[1])

    def test_sorted_by_does_not_misseed_nan_columns(self):
        rel = Relation.from_columns({"x": [2.0, None, 1.0]})
        out = rel.sorted_by(["x"])
        col = out.column("x")
        assert col.cached_prop("tsorted") is not True
        assert not col.tsorted  # trailing NaN breaks raw order
        with use_properties(True):
            on = thetaselect(col, ">", 0.5)
        with use_properties(False):
            off = thetaselect(BAT.from_values([1.0, 2.0, None]), ">", 0.5)
        np.testing.assert_array_equal(on, off)

    def test_order_by_shortcut_still_rejects_nil_strings(self):
        major = BAT.from_values([1, 2, 3])
        assert major.tsorted and major.tkey  # arm the shortcut
        minor = BAT.from_values(["a", None, "b"], DataType.STR)
        with pytest.raises(BatError):
            order_by([major, minor])

    def test_check_key_shortcut_still_rejects_nil_strings(self):
        for bats in ([BAT.from_values(["a", None, "b"], DataType.STR)],
                     [BAT.from_values([1, 2, 3]),
                      BAT.from_values(["a", None, "b"], DataType.STR)]):
            if bats[0].dtype is DataType.INT:
                assert bats[0].tkey  # arm the superset shortcut
            with pytest.raises(BatError):
                check_key(bats)

    def test_check_key_with_explicit_order_never_raises(self):
        # With a precomputed order the scan path handles nil strings in
        # both modes; parity means the shortcut must not raise here.
        bats = [BAT.from_values(["a", None, "a"], DataType.STR)]
        order = np.array([0, 2, 1], dtype=np.int64)
        with use_properties(True):
            on = check_key(bats, order)
        with use_properties(False):
            off = check_key(bats, order)
        assert on == off is False

    def test_cold_composite_key_sorts_once(self, monkeypatch):
        rel = Relation.from_columns({"a": [1, 1, 2, 2], "b": [1, 2, 1, 2],
                                     "v": [0.0, 1.0, 2.0, 3.0]})
        calls = {"n": 0}
        real_argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls["n"] += 1
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        info = rel.order_info(["a", "b"])
        assert info.is_key
        info.positions
        # One stable argsort per key column, not two.
        assert calls["n"] == 2


class TestRelationOrderCache:
    def test_order_info_cached(self):
        rel = Relation.from_columns({"k": [3, 1, 2], "v": [1.0, 2.0, 3.0]})
        info = rel.order_info(["k"])
        assert rel.order_info(["k"]) is info
        np.testing.assert_array_equal(info.positions, [1, 2, 0])
        assert info.is_key
        np.testing.assert_array_equal(info.ranks[info.positions],
                                      np.arange(3))

    def test_order_info_bypassed_when_disabled(self):
        rel = Relation.from_columns({"k": [3, 1, 2], "v": [1.0, 2.0, 3.0]})
        with use_properties(False):
            a = rel.order_info(["k"])
            b = rel.order_info(["k"])
            assert a is not b
        assert rel._order_cache == {}

    def test_sorted_by_uses_cache_and_seeds(self):
        rel = Relation.from_columns({"k": [3, 1, 2], "v": [9.0, 8.0, 7.0]})
        out = rel.sorted_by(["k"])
        assert out.column("k").cached_prop("tsorted") is True
        assert out.to_rows() == [(1, 8.0), (2, 7.0), (3, 9.0)]

    def test_is_key_consults_cache(self):
        rel = Relation.from_columns({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        rel.order_info(["k"]).is_key  # populate
        assert rel.is_key(["k"]) is False
        assert rel.is_key(["k", "v"]) is True
