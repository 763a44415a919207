"""Tests for the split/sort/morph machinery (paper Alg. 1, §8.1)."""

import numpy as np
import pytest

from repro.core import RmaConfig
from repro.core.context import (
    PreparedInput,
    prepare_binary,
    prepare_unary,
    sorted_order_values,
    split_schema,
)
from repro.errors import ApplicationSchemaError, OrderSchemaError
from repro.opspec import SortClass, spec_of
from repro.relational import Relation, rename


@pytest.fixture
def shuffled():
    return Relation.from_rows(
        ["k", "x", "y"],
        [("c", 3.0, 30.0), ("a", 1.0, 10.0), ("b", 2.0, 20.0)])


class TestSplitSchema:
    def test_splits_into_order_and_application(self, weather):
        split = split_schema(weather, "T", spec_of("inv"), 1)
        assert split.order_names == ["T"]
        assert split.app_names == ["H", "W"]
        assert (split.order_positions, split.app_positions) == ([0], [1, 2])

    def test_multi_attribute_order(self, weather):
        split = split_schema(weather, ["W", "T"], spec_of("qqr"), 1)
        assert split.order_names == ["W", "T"]
        assert split.app_names == ["H"]
        assert (split.order_positions, split.app_positions) == ([2, 0], [1])

    def test_string_shorthand(self, weather):
        split = split_schema(weather, "T", spec_of("qqr"), 1)
        assert split.order_names == ["T"]

    def test_rejects_unknown(self, weather):
        with pytest.raises(OrderSchemaError):
            split_schema(weather, "nope", spec_of("inv"), 1)

    def test_rejects_non_numeric_application(self, users):
        with pytest.raises(ApplicationSchemaError):
            split_schema(users, "User", spec_of("inv"), 1)


class TestSortClasses:
    def test_full_sort_physically_reorders(self, shuffled):
        config = RmaConfig()
        prepared = prepare_unary(shuffled, "k", spec_of("inv"), config)
        assert prepared.sorted_storage
        assert prepared.order_bats[0].python_values() == ["a", "b", "c"]
        assert list(prepared.app_columns[0]) == [1.0, 2.0, 3.0]

    def test_equivariant_keeps_storage_order(self, shuffled):
        config = RmaConfig()
        prepared = prepare_unary(shuffled, "k", spec_of("qqr"), config)
        assert not prepared.sorted_storage
        assert prepared.order_bats[0].python_values() == ["c", "a", "b"]
        assert list(prepared.app_columns[0]) == [3.0, 1.0, 2.0]

    def test_invariant_skips_sort_and_key_check(self):
        rel = Relation.from_columns({"k": ["a", "a"],
                                     "x": [1.0, 2.0], "y": [3.0, 4.0]})
        config = RmaConfig()  # validate_keys defaults to True
        prepared = prepare_unary(rel, "k", spec_of("rnk"), config)
        assert not prepared.sorted_storage

    def test_optimizations_disabled_forces_sort(self, shuffled):
        config = RmaConfig(optimize_sorting=False)
        prepared = prepare_unary(shuffled, "k", spec_of("qqr"), config)
        assert prepared.sorted_storage

    def test_relative_alignment(self, shuffled):
        other = Relation.from_rows(
            ["j", "x", "y"],
            [("q", 200.0, 2000.0), ("p", 100.0, 1000.0),
             ("r", 300.0, 3000.0)])
        config = RmaConfig()
        left, right = prepare_binary(shuffled, "k", other, "j",
                                     spec_of("add"), config)
        # r keeps storage order (c, a, b); s is aligned so that the i-th
        # row of s matches the i-th row of r by sorted rank:
        # c<->r (rank 3), a<->p (rank 1), b<->q (rank 2).
        assert not left.sorted_storage
        assert left.order_bats[0].python_values() == ["c", "a", "b"]
        assert right.order_bats[0].python_values() == ["r", "p", "q"]
        assert list(right.app_columns[0]) == [300.0, 100.0, 200.0]

    def test_equivariant_binary_sorts_second_only(self, shuffled):
        square = Relation.from_rows(
            ["j", "x", "y"],
            [("n2", 0.0, 1.0), ("n1", 1.0, 0.0)])
        config = RmaConfig()
        left, right = prepare_binary(shuffled, "k", square, "j",
                                     spec_of("mmu"), config)
        assert not left.sorted_storage
        assert right.sorted_storage
        assert right.order_bats[0].python_values() == ["n1", "n2"]

    def test_shape_property(self, shuffled):
        config = RmaConfig()
        prepared = prepare_unary(shuffled, "k", spec_of("inv"), config)
        assert prepared.shape == (3, 2)


class TestSortedOrderValues:
    def test_sorted_values_from_unsorted_storage(self, shuffled):
        config = RmaConfig()
        prepared = prepare_unary(shuffled, "k", spec_of("usv"), config)
        assert not prepared.sorted_storage
        assert sorted_order_values(prepared) == ["a", "b", "c"]

    def test_sorted_values_from_sorted_storage(self, shuffled):
        config = RmaConfig(optimize_sorting=False)
        prepared = prepare_unary(shuffled, "k", spec_of("usv"), config)
        assert sorted_order_values(prepared) == ["a", "b", "c"]

    def test_requires_single_attribute(self, weather):
        config = RmaConfig()
        prepared = prepare_unary(weather, ["T", "H"], spec_of("qqr"),
                                 config)
        with pytest.raises(OrderSchemaError):
            sorted_order_values(prepared)


class TestSortClassAssignments:
    """The §8.1 optimization classes, as assigned in the op table."""

    def test_invariant_ops(self):
        for op in ("rnk", "rqr", "dsv", "vsv"):
            assert spec_of(op).sort_class is SortClass.INVARIANT, op

    def test_equivariant_ops(self):
        for op in ("qqr", "usv", "mmu", "opd"):
            assert spec_of(op).sort_class is SortClass.EQUIVARIANT, op

    def test_relative_ops(self):
        # "In element-wise operations like add, emu, or sol, only the
        # relative order of the rows in the two input relations matters."
        for op in ("add", "sub", "emu", "cpd", "sol"):
            assert spec_of(op).sort_class is SortClass.RELATIVE, op

    def test_full_ops(self):
        for op in ("inv", "evc", "evl", "chf", "det", "tra"):
            assert spec_of(op).sort_class is SortClass.FULL, op
