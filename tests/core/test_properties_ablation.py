"""Engine-level ablation equivalence: RMA results must be byte-identical
with the property/order-cache layer on and off (ISSUE 1 acceptance)."""

import numpy as np
import pytest

from repro.bat.bat import DataType
from repro.bat.properties import use_properties
from repro.core import RmaConfig
from repro.core.ops import execute_rma
from repro.data.synthetic import order_heavy_relation, order_names
from repro.errors import KeyViolationError
from repro.linalg.policy import BackendPolicy
from repro.relational import rename
from repro.relational.relation import Relation


@pytest.fixture(autouse=True)
def _properties_on():
    with use_properties(True):
        yield


def _config() -> RmaConfig:
    return RmaConfig(policy=BackendPolicy(prefer="bat"),
                     optimize_sorting=True)


def _assert_identical(a: Relation, b: Relation) -> None:
    assert a.names == b.names
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype is cb.dtype
        if ca.dtype is DataType.DBL:
            np.testing.assert_array_equal(ca.tail, cb.tail)
        else:
            assert list(ca.tail) == list(cb.tail)


def _renamed(n_rows: int, n_order: int, seed: int, prefix: str):
    rel = order_heavy_relation(n_rows, n_order, seed=seed)
    by = order_names(rel)
    return (rename(rel, {name: f"{prefix}{name}" for name in by}),
            [f"{prefix}{name}" for name in by])


def _inputs(n_rows: int = 300, n_order: int = 3):
    r = order_heavy_relation(n_rows, n_order, seed=31)
    s, s_by = _renamed(n_rows, n_order, 32, "s_")
    return r, order_names(r), s, s_by


def _relative_runs(op: str):
    """(result, repeated result, chained result): the chained step orders
    the first result by its whole grown order schema, which the merge step
    seeded when the layer is on."""
    r, by, s, s_by = _inputs()
    t, t_by = _renamed(300, 3, 33, "t_")
    first = execute_rma(op, r, by, s, s_by, config=_config())
    repeat = execute_rma(op, r, by, s, s_by, config=_config())
    chained = execute_rma(op, first, by + s_by, t, t_by, config=_config())
    return first, repeat, chained


@pytest.mark.parametrize("op", ["add", "sub", "emu"])
def test_relative_ops_identical(op):
    with use_properties(True):
        on, on_repeat, on_chained = _relative_runs(op)
    with use_properties(False):
        off, _, off_chained = _relative_runs(op)
    _assert_identical(on, off)
    _assert_identical(on_repeat, off)  # cache hits change nothing
    _assert_identical(on_chained, off_chained)


@pytest.mark.parametrize("op", ["qqr", "rnk", "dsv"])
def test_unary_ops_identical(op):
    with use_properties(True):
        r, by, _, _ = _inputs(n_rows=120)
        on = execute_rma(op, r, by, config=_config())
        on_repeat = execute_rma(op, r, by, config=_config())
    with use_properties(False):
        r, by, _, _ = _inputs(n_rows=120)
        off = execute_rma(op, r, by, config=_config())
    _assert_identical(on, off)
    _assert_identical(on_repeat, off)


def test_full_sort_op_identical():
    with use_properties(True):
        r, _, _, _ = _inputs(n_rows=40, n_order=1)
        on = execute_rma("tra", r, "k0", config=_config())
    with use_properties(False):
        r, _, _, _ = _inputs(n_rows=40, n_order=1)
        off = execute_rma("tra", r, "k0", config=_config())
    _assert_identical(on, off)


def test_key_violation_raised_in_both_modes():
    data = {"k": [1, 1, 2], "x": [1.0, 2.0, 3.0]}
    for enabled in (True, False):
        with use_properties(enabled):
            rel = Relation.from_columns(data)
            with pytest.raises(KeyViolationError):
                execute_rma("qqr", rel, "k", config=_config())
            # And repeated validation (cached verdict) still raises.
            with pytest.raises(KeyViolationError):
                execute_rma("qqr", rel, "k", config=_config())
