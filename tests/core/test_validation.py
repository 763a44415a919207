"""Validation and error behaviour of relational matrix operations."""

import numpy as np
import pytest

import repro
from repro.core import RmaConfig, add, inv, mmu, opd, tra, usv
from repro.core.ops import execute_rma
from repro.errors import (
    ApplicationSchemaError,
    KeyViolationError,
    OrderSchemaError,
    RmaError,
    ShapeError,
)
from repro.relational import Relation, rename


class TestOrderSchemaValidation:
    def test_unknown_attribute(self, weather):
        with pytest.raises(OrderSchemaError):
            inv(weather, by="Nope")

    def test_duplicate_attribute(self, weather):
        with pytest.raises(OrderSchemaError):
            inv(weather, by=["T", "T"])

    def test_empty_order_schema(self, weather):
        with pytest.raises(OrderSchemaError):
            inv(weather, by=[])

    def test_non_key_rejected(self):
        rel = Relation.from_columns({"k": ["a", "a"],
                                     "x": [1.0, 2.0], "y": [3.0, 4.0]})
        with pytest.raises(KeyViolationError):
            inv(rel, by="k")

    @pytest.mark.parametrize("by", ["k", ["k", "g"]])
    def test_two_dbl_nils_are_not_a_key(self, by):
        # Two NULLs in a DBL order attribute are duplicate tuples, as
        # BAT.tkey counts them, alone or within a composite order schema.
        rel = Relation.from_columns({"k": [1.0, None, 2.0, None],
                                     "g": [0, 0, 0, 0],
                                     "x": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(KeyViolationError):
            execute_rma("qqr", rel, by)
        with pytest.raises(KeyViolationError):
            repro.connect().matrix(rel, by=by).qqr().collect()

    def test_non_key_allowed_when_validation_off(self):
        rel = Relation.from_columns({"k": ["a", "a"],
                                     "x": [1.0, 0.0], "y": [0.0, 1.0]})
        config = RmaConfig(validate_keys=False)
        out = inv(rel, by="k", config=config)
        assert out.nrows == 2

    def test_column_cast_requires_single_attribute(self, weather):
        with pytest.raises(OrderSchemaError):
            tra(weather, by=["T", "H"])

    def test_usv_requires_single_attribute(self, weather):
        with pytest.raises(OrderSchemaError):
            usv(weather, by=["T", "H"])


class TestApplicationSchemaValidation:
    def test_empty_application_schema(self, weather):
        with pytest.raises(ApplicationSchemaError):
            inv(weather, by=["T", "H", "W"])

    def test_non_numeric_application_attribute(self, users):
        # State is a string and not in the order schema.
        with pytest.raises(ApplicationSchemaError):
            inv(users, by="User")

    def test_square_required(self, weather):
        with pytest.raises(ShapeError):
            inv(weather, by="T")  # 4x2 application part


class TestBinaryValidation:
    def test_cardinality_mismatch(self, weather):
        other = Relation.from_columns({"D": ["a"], "H": [1.0], "W": [2.0]})
        with pytest.raises(RmaError):
            add(weather, "T", other, "D")

    def test_width_mismatch(self, weather):
        other = Relation.from_columns(
            {"D": ["a", "b", "c", "d"], "H": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(ApplicationSchemaError):
            add(weather, "T", other, "D")

    def test_overlapping_order_schemas(self, weather):
        with pytest.raises(OrderSchemaError):
            add(weather, "T", weather, "T")

    def test_mmu_inner_dimension(self, weather):
        other = Relation.from_columns(
            {"D": ["a", "b", "c"], "X": [1.0, 2.0, 3.0]})
        with pytest.raises(RmaError):
            mmu(weather, "T", other, "D")  # 2 cols vs 3 rows

    def test_unary_rejects_second_argument(self, weather):
        with pytest.raises(RmaError):
            execute_rma("inv", weather, "T", weather, "T")

    def test_binary_requires_second_argument(self, weather):
        with pytest.raises(RmaError):
            execute_rma("add", weather, "T")

    def test_opd_requires_single_order_attr_on_second(self, weather):
        other = rename(weather, {"T": "D", "H": "A", "W": "B"})
        extended = Relation.from_columns({
            "D": other.column("D"), "E": other.column("D"),
            "A": other.column("A"), "B": other.column("B")})
        # (D, E) as order schema of the second argument: cast impossible.
        with pytest.raises(OrderSchemaError):
            opd(weather, "T", extended, ["D", "E"])


class TestUnknownOperation:
    def test_unknown_name(self, weather):
        with pytest.raises(KeyError):
            execute_rma("foo", weather, "T")


class TestContextAttributeCollision:
    def test_order_attribute_named_c_is_consumed(self):
        # An order attribute named C is fine: it is replaced by the
        # synthesized context attribute in the result.
        rel = Relation.from_columns({"C": ["a", "b"],
                                     "x": [1.0, 2.0], "y": [3.0, 4.0]})
        out = tra(rel, by="C")
        assert out.names == ["C", "a", "b"]

    def test_order_value_c_collides(self):
        # But an order *value* spelled "C" becomes a column name that
        # collides with the context attribute.
        rel = Relation.from_columns({"k": ["C", "b"],
                                     "x": [1.0, 2.0], "y": [3.0, 4.0]})
        from repro.errors import SchemaError
        with pytest.raises(SchemaError):
            tra(rel, by="k")
