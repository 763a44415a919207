"""Unit and property tests for vectorized BAT kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat.bat import BAT, DataType, NIL_INT
from repro.bat import kernels
from repro.errors import BatError, TypeMismatchError

floats = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestBinop:
    def test_add_int(self):
        out = kernels.binop("+", BAT.from_values([1, 2]),
                            BAT.from_values([10, 20]))
        assert out.dtype is DataType.INT
        assert list(out.tail) == [11, 22]

    def test_add_mixed_promotes(self):
        out = kernels.binop("+", BAT.from_values([1, 2]),
                            BAT.from_values([0.5, 0.5]))
        assert out.dtype is DataType.DBL

    def test_div_always_double(self):
        out = kernels.binop("/", BAT.from_values([3, 4]),
                            BAT.from_values([2, 2]))
        assert out.dtype is DataType.DBL
        assert list(out.tail) == [1.5, 2.0]

    def test_scalar_operand(self):
        out = kernels.binop("*", BAT.from_values([1, 2]), 3)
        assert list(out.tail) == [3, 6]

    def test_rbinop(self):
        out = kernels.rbinop("-", 10, BAT.from_values([1, 2]))
        assert list(out.tail) == [9, 8]

    def test_neg(self):
        assert list(kernels.neg(BAT.from_values([1, -2])).tail) == [-1, 2]

    def test_unknown_operator(self):
        with pytest.raises(BatError):
            kernels.binop("**", BAT.from_values([1]), 2)

    def test_string_arithmetic_rejected(self):
        with pytest.raises(TypeMismatchError):
            kernels.binop("+", BAT.from_values(["a"]), 1)

    @given(st.lists(floats, min_size=1, max_size=50), floats)
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy(self, values, scalar):
        bat = BAT.from_values(values, DataType.DBL)
        out = kernels.binop("+", bat, scalar)
        assert np.allclose(out.tail, np.array(values) + scalar)


class TestNullArithmetic:
    """Arithmetic on a NULL INT operand gives NULL: ``NIL_INT`` for an INT
    result, NaN for a DBL one; the other rows compute as before."""

    K = [None, 3]

    def k(self):
        return BAT.from_values(self.K, DataType.INT)

    @pytest.mark.parametrize("op, operand, want", [
        ("+", 1, 4), ("*", 2, 6), ("%", 2, 1), ("-", 1, 2)])
    def test_int_scalar(self, op, operand, want):
        out = kernels.binop(op, self.k(), operand)
        assert out.dtype is DataType.INT
        assert out.tail.tolist() == [NIL_INT, want]
        assert out.python_values() == [None, want]

    @pytest.mark.parametrize("op, want", [("+", 6), ("*", 9), ("-", 0),
                                          ("%", 0)])
    def test_int_column_with_itself(self, op, want):
        k = self.k()
        out = kernels.binop(op, k, k)
        assert out.dtype is DataType.INT
        assert out.python_values() == [None, want]

    def test_null_on_the_right(self):
        out = kernels.binop("+", BAT.from_values([1, 2], DataType.INT),
                            self.k())
        assert out.python_values() == [None, 5]

    def test_scalar_left_operand(self):
        out = kernels.rbinop("-", 2, self.k())
        assert out.dtype is DataType.INT
        assert out.python_values() == [None, -1]

    def test_division_gives_nan(self):
        out = kernels.binop("/", self.k(), 2)
        assert out.dtype is DataType.DBL
        assert np.isnan(out.tail[0]) and out.tail[1] == 1.5
        out = kernels.rbinop("/", 6, self.k())
        assert np.isnan(out.tail[0]) and out.tail[1] == 2.0

    def test_double_operand_gives_nan(self):
        out = kernels.binop("+", self.k(), BAT.from_values([0.5, 0.5]))
        assert out.dtype is DataType.DBL
        assert np.isnan(out.tail[0]) and out.tail[1] == 3.5
        out = kernels.binop("*", self.k(), 2.5)
        assert np.isnan(out.tail[0]) and out.tail[1] == 7.5

    def test_nil_free_operand_is_not_scanned(self, monkeypatch):
        bat = BAT.from_values([1, 2], DataType.INT)
        assert bat.tnonil
        monkeypatch.setattr(BAT, "is_nil", lambda self: pytest.fail(
            "a nil-free operand was scanned for nils"))
        assert kernels.binop("+", bat, bat).tail.tolist() == [2, 4]
        assert kernels.rbinop("-", 1, bat).tail.tolist() == [0, -1]

    def test_float_view_keeps_the_raw_sentinel(self):
        assert self.k().as_float()[0] == float(NIL_INT)


class TestCompare:
    def test_numeric_compare(self):
        mask = kernels.compare("<", BAT.from_values([1, 5, 3]), 3)
        assert list(mask) == [True, False, False]

    def test_string_compare(self):
        mask = kernels.compare("=", BAT.from_values(["a", "b"]), "b")
        assert list(mask) == [False, True]

    def test_cross_type_numeric(self):
        mask = kernels.compare(">=", BAT.from_values([1, 2]),
                               BAT.from_values([1.5, 1.5]))
        assert list(mask) == [False, True]

    def test_string_vs_int_rejected(self):
        with pytest.raises(TypeMismatchError):
            kernels.compare("=", BAT.from_values(["a"]),
                            BAT.from_values([1]))


class TestSelection:
    def test_mask_to_candidates(self):
        out = kernels.mask_to_candidates(np.array([True, False, True]))
        assert list(out) == [0, 2]

    def test_mask_over_candidates(self):
        cands = np.array([1, 3], dtype=np.int64)
        out = kernels.mask_to_candidates(np.array([False, True]), cands)
        assert list(out) == [3]

class TestIfThenElse:
    def test_numeric(self):
        out = kernels.ifthenelse(np.array([True, False]),
                                 BAT.from_values([1.0, 1.0]),
                                 BAT.from_values([2.0, 2.0]))
        assert list(out.tail) == [1.0, 2.0]

    def test_string(self):
        out = kernels.ifthenelse(np.array([True, False]),
                                 BAT.from_values(["y", "y"]),
                                 BAT.from_values(["n", "n"]))
        assert out.python_values() == ["y", "n"]

    def test_mixed_numeric_promotes(self):
        out = kernels.ifthenelse(np.array([True, False]),
                                 BAT.from_values([1, 1]),
                                 BAT.from_values([0.5, 0.5]))
        assert out.dtype is DataType.DBL

    def test_incompatible_types_rejected(self):
        with pytest.raises(TypeMismatchError):
            kernels.ifthenelse(np.array([True]),
                               BAT.from_values(["a"]),
                               BAT.from_values([1]))


class TestMath:
    def test_sqrt(self):
        out = kernels.math_unary("sqrt", BAT.from_values([4.0, 9.0]))
        assert list(out.tail) == [2.0, 3.0]

    def test_abs_int_stays_int(self):
        out = kernels.math_unary("abs", BAT.from_values([-1, 2]))
        assert out.dtype is DataType.INT

    def test_power(self):
        out = kernels.power(BAT.from_values([2.0, 3.0]), 2)
        assert list(out.tail) == [4.0, 9.0]

    def test_unknown_function(self):
        with pytest.raises(BatError):
            kernels.math_unary("nope", BAT.from_values([1.0]))
