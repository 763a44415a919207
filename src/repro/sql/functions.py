"""Scalar SQL function registry.

Each function receives the evaluator (for row count / broadcasting) and the
already-evaluated arguments (BATs or python scalars) and returns a BAT or
scalar.

Every function here is deterministic and element-wise: the executor may
evaluate an expression once per distinct combination of its inputs and
gather the result (``repro.plan.evaluate.expr_info``'s domain rule).  A
volatile function (a random draw, the clock) would have to opt out there.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.bat.bat import BAT
from repro.bat import kernels
from repro.errors import PlanError


def _unary_math(name: str):
    def apply(evaluator, args: list[Any]):
        if len(args) != 1:
            raise PlanError(f"{name} takes one argument")
        value = args[0]
        if isinstance(value, BAT):
            return kernels.math_unary(name, value)
        scalar_funcs = {
            "sqrt": math.sqrt, "abs": abs, "exp": math.exp,
            "log": math.log, "ln": math.log, "floor": math.floor,
            "ceil": math.ceil, "sin": math.sin, "cos": math.cos,
            "round": round,
        }
        return scalar_funcs[name](value)
    return apply


def _power(evaluator, args: list[Any]):
    if len(args) != 2:
        raise PlanError("POWER takes two arguments")
    base, exponent = args
    if isinstance(exponent, BAT):
        raise PlanError("POWER exponent must be a constant")
    if isinstance(base, BAT):
        return kernels.power(base, float(exponent))
    return float(base) ** float(exponent)


def _coalesce(evaluator, args: list[Any]):
    if not args:
        raise PlanError("COALESCE requires arguments")
    from repro.plan.evaluate import _broadcast
    n = evaluator.n
    result = _broadcast(args[-1], n)
    for value in reversed(args[:-1]):
        bat = _broadcast(value, n)
        mask = ~bat.is_nil()
        result = kernels.ifthenelse(mask, bat, result)
    return result


def _upper(evaluator, args: list[Any]):
    return _string_map(args, str.upper, "UPPER")


def _lower(evaluator, args: list[Any]):
    return _string_map(args, str.lower, "LOWER")


def _length(evaluator, args: list[Any]):
    import numpy as np
    from repro.bat.bat import DataType
    if len(args) != 1:
        raise PlanError("LENGTH takes one argument")
    value = args[0]
    if isinstance(value, BAT):
        bat = value.cast(DataType.STR)
        out = np.array([-1 if v is None else len(v) for v in bat.tail],
                       dtype=np.int64)
        from repro.bat.bat import NIL_INT
        out[[v is None for v in bat.tail]] = NIL_INT
        return BAT(DataType.INT, out)
    return len(str(value))


def _string_map(args: list[Any], func: Callable[[str], str], name: str):
    import numpy as np
    from repro.bat.bat import DataType
    if len(args) != 1:
        raise PlanError(f"{name} takes one argument")
    value = args[0]
    if isinstance(value, BAT):
        bat = value.cast(DataType.STR)
        out = np.array([None if v is None else func(v) for v in bat.tail],
                       dtype=object)
        return BAT(DataType.STR, out)
    return func(str(value))


SCALAR_FUNCTIONS: dict[str, Callable] = {
    "ABS": _unary_math("abs"),
    "SQRT": _unary_math("sqrt"),
    "EXP": _unary_math("exp"),
    "LOG": _unary_math("log"),
    "LN": _unary_math("ln"),
    "FLOOR": _unary_math("floor"),
    "CEIL": _unary_math("ceil"),
    "ROUND": _unary_math("round"),
    "SIN": _unary_math("sin"),
    "COS": _unary_math("cos"),
    "POWER": _power,
    "POW": _power,
    "COALESCE": _coalesce,
    "UPPER": _upper,
    "LOWER": _lower,
    "LENGTH": _length,
}
