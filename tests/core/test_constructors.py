"""Tests for µ, γ, ∆, ▽ — the paper's constructors (§3, §4.1)."""

import numpy as np
import pytest

from repro.bat.bat import BAT, DataType
from repro.core import column_cast, gamma, matrix_constructor, mu, schema_cast
from repro.core.constructors import mu_bats
from repro.errors import (
    KeyViolationError,
    OrderSchemaError,
    RmaError,
    SchemaError,
)
from repro.relational import Relation


class TestMatrixConstructor:
    def test_example_4_3(self, weather):
        """µ_T(σ_{T>6am}(r)) returns matrix n = [[6,7],[8,5]] (Fig. 3)."""
        import repro.relational.ops as rel_ops
        mask = np.array([t > "6am"
                         for t in weather.column("T").python_values()])
        filtered = rel_ops.select_mask(weather, mask)
        n = matrix_constructor(filtered, ["T"], ["H", "W"])
        assert np.array_equal(n, np.array([[6.0, 7.0], [8.0, 5.0]]))

    def test_sorts_by_order_schema(self, weather):
        m = matrix_constructor(weather, ["T"], ["H", "W"])
        assert np.array_equal(m, np.array([[1, 3], [1, 4], [6, 7],
                                           [8, 5]], dtype=float))

    def test_mu_returns_columns(self, weather):
        columns = mu(weather, ["T"], ["H"])
        assert len(columns) == 1
        assert list(columns[0]) == [1.0, 1.0, 6.0, 8.0]

    def test_mu_bats_keeps_types(self, weather):
        bats = mu_bats(weather, ["T"], ["T"])
        assert bats[0].dtype is DataType.STR
        assert bats[0].python_values() == ["5am", "6am", "7am", "8am"]

    def test_empty_order_schema_rejected(self, weather):
        with pytest.raises(OrderSchemaError):
            mu_bats(weather, [], ["H"])


class TestGamma:
    def test_builds_relation(self):
        rel = gamma([BAT.from_values(["a", "b"]),
                     BAT.from_values([1.0, 2.0])], ["k", "v"])
        assert rel.names == ["k", "v"]
        assert rel.to_rows() == [("a", 1.0), ("b", 2.0)]

    def test_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            gamma([BAT.from_values([1])], ["a", "b"])

    def test_numeric_names_stringified(self):
        rel = gamma([BAT.from_values([1.0])], [5])
        assert rel.names == ["5"]


class TestSchemaCast:
    def test_delta(self):
        """Example 3.2: ∆(D,B) is a single-column matrix of names."""
        bat = schema_cast(["D", "B"])
        assert bat.dtype is DataType.STR
        assert bat.python_values() == ["D", "B"]

    def test_empty_rejected(self):
        with pytest.raises(RmaError):
            schema_cast([])


class TestColumnCast:
    def test_example_3_1(self, users):
        """▽O over r in Fig. 1: sorted key values become names."""
        r = Relation.from_rows(["O", "V", "W"],
                               [("A", 30, 1), ("C", 22, 5), ("B", 10, 1)])
        assert column_cast(r, "O") == ["A", "B", "C"]

    def test_sorted_times(self, weather):
        assert column_cast(weather, "T") == ["5am", "6am", "7am", "8am"]

    def test_numeric_values_stringified(self):
        r = Relation.from_columns({"k": [3, 1, 2], "v": [0.0, 0.0, 0.0]})
        assert column_cast(r, "k") == ["1", "2", "3"]

    def test_non_key_rejected(self):
        r = Relation.from_columns({"k": [1, 1], "v": [0.0, 0.0]})
        with pytest.raises(KeyViolationError):
            column_cast(r, "k")

    def test_nil_rejected(self):
        r = Relation.from_columns({"k": ["a", None], "v": [0.0, 0.0]})
        with pytest.raises(RmaError):
            column_cast(r, "k")
