"""Join tests, including property-based equivalence with a brute-force join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat.bat import BAT, DataType
from repro.errors import RelationError, SchemaError
from repro.relational import Relation, join
import repro.relational.joins as joins
from repro.relational.joins import encode_keys, join_positions


class TestFactorize:
    def test_equal_rows_equal_codes(self):
        a = BAT.from_values([1, 2, 1])
        b = BAT.from_values(["x", "y", "x"])
        codes = encode_keys([a, b])[0]
        assert codes[0] == codes[2]
        assert codes[0] != codes[1]

    def test_pair_shares_code_space(self):
        left = [BAT.from_values([1, 2])]
        right = [BAT.from_values([2, 3])]
        lcodes, rcodes, _ = encode_keys(left, right)
        assert lcodes[1] == rcodes[0]
        assert lcodes[0] != rcodes[1]

    def test_numeric_cross_type(self):
        left = [BAT.from_values([1, 2])]
        right = [BAT.from_values([2.0, 9.0])]
        lcodes, rcodes, _ = encode_keys(left, right)
        assert lcodes[1] == rcodes[0]

    def test_incompatible_types_rejected(self):
        with pytest.raises(RelationError):
            encode_keys([BAT.from_values(["a"])],
                           [BAT.from_values([1])])

    def test_empty_list_rejected(self):
        with pytest.raises(RelationError):
            encode_keys([])


def brute_force_inner(left_keys, right_keys):
    pairs = []
    for i, lk in enumerate(left_keys):
        for j, rk in enumerate(right_keys):
            if lk == rk:
                pairs.append((i, j))
    return sorted(pairs)


class TestJoinPositions:
    def test_inner_with_duplicates(self):
        left = [BAT.from_values([1, 2, 2])]
        right = [BAT.from_values([2, 2, 3])]
        lpos, rpos = join_positions(left, right)
        assert brute_force_inner([1, 2, 2], [2, 2, 3]) == \
            sorted(zip(lpos.tolist(), rpos.tolist()))

    def test_left_join_unmatched(self):
        left = [BAT.from_values([1, 5])]
        right = [BAT.from_values([1])]
        lpos, rpos = join_positions(left, right, how="left")
        assert list(lpos) == [0, 1]
        assert list(rpos) == [0, -1]

    def test_unsupported_kind(self):
        with pytest.raises(RelationError):
            join_positions([BAT.from_values([1])],
                           [BAT.from_values([1])], how="full")

    @given(st.lists(st.integers(0, 8), min_size=0, max_size=30),
           st.lists(st.integers(0, 8), min_size=0, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, lvals, rvals):
        if not lvals or not rvals:
            return
        left = [BAT.from_values(lvals)]
        right = [BAT.from_values(rvals)]
        lpos, rpos = join_positions(left, right)
        assert sorted(zip(lpos.tolist(), rpos.tolist())) == \
            brute_force_inner(lvals, rvals)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20),
           st.lists(st.integers(0, 5), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_left_join_covers_all_left_rows(self, lvals, rvals):
        left = [BAT.from_values(lvals)]
        right = [BAT.from_values(rvals)]
        lpos, rpos = join_positions(left, right, how="left")
        rset = set(rvals)
        for i, v in enumerate(lvals):
            if v not in rset:
                assert (i in lpos.tolist())
        # every left row appears at least once
        assert set(lpos.tolist()) == set(range(len(lvals)))


class TestJoinRelation:
    def test_basic(self, users, ratings):
        renamed = Relation.from_columns(
            {"U2": ratings.column("User"), "Heat": ratings.column("Heat")})
        out = join(users, renamed, ["User"], ["U2"], drop_right_keys=True)
        rows = {r[0]: r[3] for r in out.to_rows()}
        assert rows == {"Ann": 1.5, "Tom": 0.0, "Jan": 4.0}

    def test_multi_key(self):
        a = Relation.from_columns({"k1": [1, 1, 2], "k2": ["x", "y", "x"],
                                   "v": [10, 20, 30]})
        b = Relation.from_columns({"j1": [1, 2], "j2": ["y", "x"],
                                   "w": [100, 200]})
        out = join(a, b, ["k1", "k2"], ["j1", "j2"], drop_right_keys=True)
        assert sorted(out.to_rows()) == [(1, "y", 20, 100),
                                         (2, "x", 30, 200)]

    def test_left_join_nulls(self):
        a = Relation.from_columns({"k": [1, 9], "v": [1.0, 2.0]})
        b = Relation.from_columns({"j": [1], "w": ["hit"]})
        out = join(a, b, ["k"], ["j"], how="left", drop_right_keys=True)
        rows = dict((r[0], r[2]) for r in out.to_rows())
        assert rows == {1: "hit", 9: None}

    def test_left_join_fills_every_dtype_through_the_frame_gather(
            self, monkeypatch):
        """Unmatched rows read nil per dtype (a BOOL keeps the gathered
        value: it has no nil), through the one nil-aware gather the
        executor's frames use too."""
        a = Relation.from_columns({"k": [1, 9, 1]})
        b = Relation.from_columns({"j": [1], "i": [7], "x": [0.5],
                                   "s": ["hit"], "b": [True]})
        gathered = []
        original = joins.gather_nullable

        def spy(base, positions):
            gathered.append(base.dtype)
            return original(base, positions)

        monkeypatch.setattr(joins, "gather_nullable", spy)
        out = join(a, b, ["k"], ["j"], how="left", drop_right_keys=True)
        assert out.to_rows() == [(1, 7, 0.5, "hit", True),
                                 (9, None, None, None, True),
                                 (1, 7, 0.5, "hit", True)]
        assert [c.dtype for c in out.columns] == [
            DataType.INT, DataType.INT, DataType.DBL, DataType.STR,
            DataType.BOOL]
        assert gathered == [DataType.INT, DataType.DBL, DataType.STR,
                            DataType.BOOL]

    def test_left_join_with_an_empty_right_side(self):
        a = Relation.from_columns({"k": [1, 2]})
        b = Relation.from_columns({"j": np.empty(0, dtype=np.int64),
                                   "y": np.empty(0)})
        out = join(a, b, ["k"], ["j"], how="left")
        assert out.to_rows() == [(1, None, None), (2, None, None)]

    def test_name_clash_rejected(self, users, ratings):
        with pytest.raises(SchemaError):
            join(users, ratings, ["User"], ["User"])

    def test_name_clash_avoided_by_dropping_keys(self, users, ratings):
        out = join(users, ratings, ["User"], ["User"],
                   drop_right_keys=True)
        assert out.nrows == 3
