"""Engine-level cold-versus-warm equivalence of the property/order-cache
layer, against explicit oracles.

Every operation runs on a fresh relation (cold: no cached property bit or
order), again on the same relation (warm: its caches are populated),
chained on its own result (whose caches the merge step seeded) and at
``optimize_sorting=False``.  The fresh and the repeated run must be
bit-identical, and every run must give what numpy computes from
``np.lexsort`` orders over copies of the inputs.
"""

import numpy as np
import pytest

from repro.bat.bat import BAT
from repro.core import RmaConfig
from repro.core.ops import execute_rma
from repro.data.synthetic import order_heavy_relation, order_names
from repro.errors import KeyViolationError
from repro.linalg.policy import BackendPolicy
from repro.relational import rename
from repro.relational.relation import Relation

UFUNCS = {"add": np.add, "sub": np.subtract, "emu": np.multiply}


def _config(optimize_sorting: bool = True) -> RmaConfig:
    return RmaConfig(policy=BackendPolicy(prefer="bat"),
                     optimize_sorting=optimize_sorting)


def cold_copy(rel: Relation) -> Relation:
    """The relation with fresh BATs: no cached bit, order or float view."""
    return Relation(rel.schema, [BAT(c.dtype, c.tail.copy())
                                 for c in rel.columns])


def lex_positions(rel: Relation, names: list[str]) -> np.ndarray:
    """The stable sort of the rows by ``names``, first name major."""
    return np.lexsort([rel.column(n).tail.copy() for n in reversed(names)])


def ranks(positions: np.ndarray) -> np.ndarray:
    out = np.empty_like(positions)
    out[positions] = np.arange(len(positions))
    return out


def _assert_identical(a: Relation, b: Relation) -> None:
    assert a.names == b.names
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype is cb.dtype
        np.testing.assert_array_equal(ca.tail, cb.tail)


def _renamed(n_rows: int, n_order: int, seed: int, prefix: str):
    rel = order_heavy_relation(n_rows, n_order, seed=seed)
    by = order_names(rel)
    return (rename(rel, {name: f"{prefix}{name}" for name in by}),
            [f"{prefix}{name}" for name in by])


def _inputs(n_rows: int = 300, n_order: int = 3):
    r = order_heavy_relation(n_rows, n_order, seed=31)
    s, s_by = _renamed(n_rows, n_order, 32, "s_")
    return r, order_names(r), s, s_by


def _runs(op: str, *args) -> dict[str, Relation]:
    """The operation on fresh inputs, repeated on the now warm inputs,
    and at ``optimize_sorting=False`` on fresh copies."""
    cold = [cold_copy(a) if isinstance(a, Relation) else a for a in args]
    return {"fresh": execute_rma(op, *args, config=_config()),
            "warm": execute_rma(op, *args, config=_config()),
            "no-sort": execute_rma(op, *cold, config=_config(False))}


def oracle_elementwise(op: str, r: Relation, by: list[str], s: Relation,
                       s_by: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(result values, s's rows aligned to r) in r's storage order: s's
    row of the same order rank is matched to each row of r."""
    aligned = lex_positions(s, s_by)[ranks(lex_positions(r, by))]
    values = UFUNCS[op](r.column("value").tail,
                        s.column("value").tail[aligned])
    return values, aligned


def _assert_elementwise(op, result, r, by, s, s_by) -> None:
    """``result`` is the oracle's, up to the row order of the run: rows
    are matched on r's order schema, a key."""
    values, aligned = oracle_elementwise(op, r, by, s, s_by)
    rows = lex_positions(result, by)
    want = lex_positions(r, by)
    np.testing.assert_array_equal(result.column("value").tail[rows],
                                  values[want])
    for name in s_by:
        np.testing.assert_array_equal(result.column(name).tail[rows],
                                      s.column(name).tail[aligned][want])


@pytest.mark.parametrize("op", ["add", "sub", "emu"])
def test_relative_ops_identical(op):
    r, by, s, s_by = _inputs()
    t, t_by = _renamed(300, 3, 33, "t_")
    runs = _runs(op, r, by, s, s_by)
    _assert_identical(runs["fresh"], runs["warm"])
    for result in runs.values():
        _assert_elementwise(op, result, r, by, s, s_by)
    # The chained step orders the first result by its whole grown order
    # schema, which the merge step seeded: same as on a cold copy.
    first = runs["fresh"]
    chained = execute_rma(op, first, by + s_by, t, t_by, config=_config())
    _assert_identical(chained, execute_rma(op, cold_copy(first), by + s_by,
                                           t, t_by, config=_config()))
    _assert_elementwise(op, chained, cold_copy(first), by + s_by, t, t_by)


def _sorted_values(r: Relation, by: list[str]) -> np.ndarray:
    return r.column("value").tail[lex_positions(r, by)]


@pytest.mark.parametrize("op", ["qqr", "rnk", "dsv"])
def test_unary_ops_identical(op):
    r, by, _, _ = _inputs(n_rows=120)
    runs = _runs(op, r, by)
    _assert_identical(runs["fresh"], runs["warm"])
    a = _sorted_values(r, by)
    norm = np.linalg.norm(a)
    for result in runs.values():
        if op == "qqr":
            # One application column: Q is a / ||a||, up to its sign.
            q = _sorted_values(result, by)
            np.testing.assert_allclose(q * np.sign(q[0] * a[0]), a / norm)
        elif op == "rnk":
            assert result.column("rnk").tail.tolist() == [1.0]
        else:
            np.testing.assert_allclose(result.column("value").tail, [norm])
    if op == "qqr":
        first = runs["fresh"]
        chained = execute_rma(op, first, by, config=_config())
        _assert_identical(chained, execute_rma(op, cold_copy(first), by,
                                               config=_config()))


def test_full_sort_op_identical():
    r, _, _, _ = _inputs(n_rows=40, n_order=1)
    runs = _runs("tra", r, "k0")
    _assert_identical(runs["fresh"], runs["warm"])
    order = lex_positions(r, ["k0"])
    names = ["C"] + [str(v) for v in r.column("k0").tail[order]]
    for result in runs.values():
        assert result.names == names
        np.testing.assert_array_equal(
            [result.column(n).tail[0] for n in names[1:]],
            r.column("value").tail[order])


def test_key_violation_raised_in_both_modes():
    rel = Relation.from_columns({"k": [1, 1, 2], "x": [1.0, 2.0, 3.0]})
    # Cold, then warm (the cached verdict), then unsorted on a cold copy.
    for relation, config in ((rel, _config()), (rel, _config()),
                             (cold_copy(rel), _config(False))):
        with pytest.raises(KeyViolationError):
            execute_rma("qqr", relation, "k", config=config)
