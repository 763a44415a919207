"""Vectorized whole-column BAT operations.

These are the primitives relational and matrix operators are reduced to,
mirroring MonetDB's BAT calculus: element-wise arithmetic and comparisons
that produce candidate lists (positional gathers are :meth:`BAT.fetch`).

A *candidate list* is a sorted ``int64`` numpy array of tail positions; it is
how MonetDB represents intermediate selections without materializing them.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.bat.bat import BAT, DataType, NIL_INT, align_check, _encode_value
from repro.errors import BatError, TypeMismatchError

Candidates = np.ndarray
"""Sorted int64 array of selected tail positions."""


_ARITH_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}

_COMPARE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _numeric_operands(a: BAT, b: BAT | int | float,
                      op: str) -> tuple[np.ndarray, np.ndarray, DataType]:
    """Coerce operands of an arithmetic op to aligned numpy arrays."""
    if not a.dtype.is_numeric:
        raise TypeMismatchError(
            f"arithmetic '{op}' requires numeric columns, got "
            f"{a.dtype.value}")
    if isinstance(b, BAT):
        if not b.dtype.is_numeric:
            raise TypeMismatchError(
                f"arithmetic '{op}' requires numeric columns, got "
                f"{b.dtype.value}")
        align_check(a, b)
        rb = b.tail
        result_int = (a.dtype is DataType.INT and b.dtype is DataType.INT)
    elif isinstance(b, (int, np.integer)) and not isinstance(b, bool):
        rb = np.int64(b)
        result_int = a.dtype is DataType.INT
    elif isinstance(b, (float, np.floating)):
        rb = np.float64(b)
        result_int = False
    else:
        raise TypeMismatchError(
            f"cannot apply '{op}' to a BAT and {type(b).__name__}")
    dtype = DataType.INT if (result_int and op not in ("/",)) else DataType.DBL
    ra = a.tail if dtype is DataType.INT else a.as_float()
    if isinstance(rb, np.ndarray) and dtype is DataType.DBL:
        rb = rb.astype(np.float64) if rb.dtype != np.float64 else rb
    return ra, rb, dtype


def _null_result(out: np.ndarray, dtype: DataType, *operands) -> np.ndarray:
    """``out`` with the rows where an INT operand is NULL set to NULL
    (``NIL_INT`` or NaN, as ``dtype`` says): arithmetic on NULL is NULL.
    An operand whose ``tnonil`` bit is set is not scanned; DBL operands
    carry their NaN through the arithmetic themselves."""
    nil = None
    for operand in operands:
        if (isinstance(operand, BAT) and operand.dtype is DataType.INT
                and not operand.tnonil):
            mask = operand.is_nil()
            nil = mask if nil is None else nil | mask
    if nil is not None:
        out[nil] = NIL_INT if dtype is DataType.INT else np.nan
    return out


def binop(op: str, a: BAT, b: BAT | int | float) -> BAT:
    """Element-wise arithmetic between a BAT and a BAT or scalar; a NULL
    operand gives NULL."""
    func = _ARITH_OPS.get(op)
    if func is None:
        raise BatError(f"unknown arithmetic operator {op!r}")
    ra, rb, dtype = _numeric_operands(a, b, op)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = func(ra, rb)
    if out.dtype != dtype.numpy_dtype:
        out = out.astype(dtype.numpy_dtype)
    return BAT(dtype, _null_result(out, dtype, a, b), a.hseqbase)


def rbinop(op: str, a: int | float, b: BAT) -> BAT:
    """Arithmetic with a scalar left operand (e.g. ``2 - column``); a NULL
    operand gives NULL."""
    func = _ARITH_OPS.get(op)
    if func is None:
        raise BatError(f"unknown arithmetic operator {op!r}")
    if not b.dtype.is_numeric:
        raise TypeMismatchError(
            f"arithmetic '{op}' requires numeric columns, got "
            f"{b.dtype.value}")
    int_result = (isinstance(a, (int, np.integer))
                  and not isinstance(a, bool)
                  and b.dtype is DataType.INT and op != "/")
    dtype = DataType.INT if int_result else DataType.DBL
    rb = b.tail if dtype is DataType.INT else b.as_float()
    with np.errstate(divide="ignore", invalid="ignore"):
        out = func(a, rb)
    if out.dtype != dtype.numpy_dtype:
        out = out.astype(dtype.numpy_dtype)
    return BAT(dtype, _null_result(out, dtype, b), b.hseqbase)


def neg(a: BAT) -> BAT:
    """Element-wise numeric negation."""
    if not a.dtype.is_numeric:
        raise TypeMismatchError(
            f"negation requires a numeric column, got {a.dtype.value}")
    return BAT(a.dtype, -a.tail, a.hseqbase)


def _comparable_operands(a: BAT, b: BAT | Any) -> tuple[Any, Any]:
    if isinstance(b, BAT):
        align_check(a, b)
        if a.dtype.is_numeric and b.dtype.is_numeric:
            return a.as_float(), b.as_float()
        if a.dtype is not b.dtype:
            raise TypeMismatchError(
                f"cannot compare {a.dtype.value} with {b.dtype.value}")
        return a.tail, b.tail
    # Scalar right operand: encode it with the BAT's own encoding.
    encoded = _encode_value(b, a.dtype)
    return a.tail, encoded


def compare(op: str, a: BAT, b: BAT | Any) -> np.ndarray:
    """Element-wise comparison producing a boolean mask."""
    func = _COMPARE_OPS.get(op)
    if func is None:
        raise BatError(f"unknown comparison operator {op!r}")
    ra, rb = _comparable_operands(a, b)
    out = func(ra, rb)
    return np.asarray(out, dtype=bool)


def mask_to_candidates(mask: np.ndarray,
                       candidates: Candidates | None = None) -> Candidates:
    """Convert a boolean mask (over rows or over candidates) to candidates."""
    positions = np.nonzero(np.asarray(mask, dtype=bool))[0].astype(np.int64)
    if candidates is None:
        return positions
    return candidates[positions]


def ifthenelse(mask: np.ndarray, then_bat: BAT, else_bat: BAT) -> BAT:
    """Element-wise conditional (used by CASE evaluation)."""
    align_check(then_bat, else_bat)
    if then_bat.dtype is not else_bat.dtype:
        if then_bat.dtype.is_numeric and else_bat.dtype.is_numeric:
            then_bat = then_bat.cast(DataType.DBL)
            else_bat = else_bat.cast(DataType.DBL)
        else:
            raise TypeMismatchError(
                "CASE branches have incompatible types "
                f"{then_bat.dtype.value} / {else_bat.dtype.value}")
    out = np.where(np.asarray(mask, dtype=bool), then_bat.tail,
                   else_bat.tail)
    if then_bat.dtype is DataType.STR:
        out = out.astype(object)
    return BAT(then_bat.dtype, out.astype(then_bat.dtype.numpy_dtype),
               then_bat.hseqbase)


def logical_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.logical_and(a, b)


def logical_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.logical_or(a, b)


def logical_not(a: np.ndarray) -> np.ndarray:
    return np.logical_not(a)


def math_unary(name: str, a: BAT) -> BAT:
    """Vectorized math function (sqrt, abs, exp, log, floor, ceil, ...)."""
    funcs = {
        "sqrt": np.sqrt, "abs": np.abs, "exp": np.exp, "log": np.log,
        "ln": np.log, "floor": np.floor, "ceil": np.ceil, "sin": np.sin,
        "cos": np.cos, "round": np.round,
    }
    func = funcs.get(name)
    if func is None:
        raise BatError(f"unknown math function {name!r}")
    values = a.as_float()
    with np.errstate(divide="ignore", invalid="ignore"):
        out = func(values)
    if name == "abs" and a.dtype is DataType.INT:
        return BAT(DataType.INT, out.astype(np.int64), a.hseqbase)
    return BAT(DataType.DBL, np.asarray(out, dtype=np.float64), a.hseqbase)


def power(a: BAT, exponent: float) -> BAT:
    values = a.as_float()
    return BAT(DataType.DBL, np.power(values, exponent), a.hseqbase)
