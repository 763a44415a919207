"""Tests for core relational operators."""

import numpy as np
import pytest

from repro.bat.bat import BAT
from repro.errors import RelationError, SchemaError
from repro.relational import (
    Relation,
    cross,
    distinct,
    extend,
    limit,
    project,
    rename,
    select_mask,
    sort,
    union_all,
)
from repro.relational.ops import select_candidates


class TestSelect:
    def test_mask(self, weather):
        out = select_mask(weather, np.array([False, True, True, False]))
        assert out.column("T").python_values() == ["8am", "7am"]

    def test_candidates(self, weather):
        out = select_candidates(weather, np.array([3, 0], dtype=np.int64))
        assert out.column("T").python_values() == ["6am", "5am"]

    def test_wrong_mask_length(self, weather):
        with pytest.raises(RelationError):
            select_mask(weather, np.array([True]))

    def test_empty_selection(self, weather):
        out = select_mask(weather, np.zeros(4, dtype=bool))
        assert out.nrows == 0
        assert out.names == weather.names


class TestProject:
    def test_reorders(self, weather):
        out = project(weather, ["W", "T"])
        assert out.names == ["W", "T"]
        assert out.row(0) == (3.0, "5am")

    def test_keeps_duplicates(self):
        rel = Relation.from_columns({"a": [1, 1], "b": [2, 3]})
        assert project(rel, ["a"]).nrows == 2


class TestExtend:
    def test_adds_column(self, weather):
        out = extend(weather, "double_h",
                     BAT.from_values([2.0, 16.0, 12.0, 2.0]))
        assert out.names[-1] == "double_h"

    def test_duplicate_name_rejected(self, weather):
        with pytest.raises(SchemaError):
            extend(weather, "H", BAT.from_values([0.0] * 4))

    def test_misaligned_rejected(self, weather):
        with pytest.raises(RelationError):
            extend(weather, "x", BAT.from_values([1.0]))


class TestRename:
    def test_rename(self, weather):
        out = rename(weather, {"T": "Time"})
        assert out.names == ["Time", "H", "W"]
        assert out.column("Time").python_values()[0] == "5am"


class TestCross:
    def test_cardinality(self, users, films):
        renamed = rename(films, {"RelY": "Year"})
        out = cross(users, renamed)
        assert out.nrows == users.nrows * films.nrows
        assert set(out.names) == {"User", "State", "YoB", "Title",
                                  "Year", "Director"}

    def test_overlap_rejected(self, users):
        with pytest.raises(SchemaError):
            cross(users, users)

    def test_pairs(self):
        a = Relation.from_columns({"x": [1, 2]})
        b = Relation.from_columns({"y": ["p", "q"]})
        rows = cross(a, b).to_rows()
        assert rows == [(1, "p"), (1, "q"), (2, "p"), (2, "q")]


class TestUnionDistinct:
    def test_union_all_keeps_duplicates(self):
        a = Relation.from_columns({"x": [1, 2]})
        b = Relation.from_columns({"x": [2]})
        assert union_all(a, b).nrows == 3

    def test_union_incompatible_rejected(self):
        a = Relation.from_columns({"x": [1]})
        b = Relation.from_columns({"x": ["s"]})
        with pytest.raises(SchemaError):
            union_all(a, b)

    def test_union_promotes_types(self):
        a = Relation.from_columns({"x": [1.5]})
        b = Relation.from_columns({"x": [2]})
        out = union_all(a, b)
        assert out.column("x").python_values() == [1.5, 2.0]

    def test_distinct(self):
        rel = Relation.from_columns({"a": [1, 1, 2, 1],
                                     "b": ["x", "x", "y", "z"]})
        out = distinct(rel)
        assert sorted(out.to_rows()) == [(1, "x"), (1, "z"), (2, "y")]

    def test_distinct_empty(self):
        rel = Relation.from_columns({"a": []})
        assert distinct(rel).nrows == 0

    def test_distinct_all_unique(self, users):
        assert distinct(users).nrows == 3


class TestLimitSort:
    def test_limit(self, weather):
        assert limit(weather, 2).nrows == 2

    def test_limit_offset(self, weather):
        out = limit(weather, 2, offset=1)
        assert out.column("T").python_values() == ["8am", "7am"]

    def test_sort_ascending(self, weather):
        out = sort(weather, ["H", "W"])
        assert out.column("H").python_values() == [1.0, 1.0, 6.0, 8.0]
        assert out.column("W").python_values() == [3.0, 4.0, 7.0, 5.0]

    def test_sort_descending(self, weather):
        out = sort(weather, ["H"], descending=[True])
        assert out.column("H").python_values()[0] == 8.0

    def test_sort_mixed_direction(self):
        rel = Relation.from_columns({"a": [1, 1, 2], "b": [5, 9, 1]})
        out = sort(rel, ["a", "b"], descending=[False, True])
        assert out.to_rows() == [(1, 9), (1, 5), (2, 1)]

    def test_sort_descending_key_keeps_ties_for_later_keys(self):
        rel = Relation.from_columns({"a": [1, 1, 2, 1], "b": [5, 9, 1, 7]})
        out = sort(rel, ["a", "b"], descending=[True, False])
        assert out.to_rows() == [(2, 1), (1, 5), (1, 7), (1, 9)]
