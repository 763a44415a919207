"""Wide relations at constant Python cost per plan node.

A relation that only passes from one RMA node to the next reaches the
prepare stage as the very same object: the executor wraps it in a frame
view that mints no internal names, and the view hands the relation back.
The results must be the bits that the unoptimized reference run and the
eager ``execute_rma`` give, for random wide relations under INT, STR,
DATE and composite order keys, and every surface must raise the same
errors from the one-pass schema validation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.core.ops as core_ops
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.core.ops import execute_rma
from repro.errors import (
    ApplicationSchemaError,
    OrderSchemaError,
    SchemaError,
)
from repro.plan.expr import col
from repro.plan.physical import Frame
from repro.relational import Relation, rename
from repro.relational.schema import Attribute, Schema

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1

SERIAL = RmaConfig()
PARALLEL = RmaConfig(parallel=ParallelConfig(enabled=True, workers=4,
                                             min_morsel_rows=1))
CONFIGS = pytest.mark.parametrize("config", [SERIAL, PARALLEL],
                                  ids=["serial", "parallel"])

KEY_KINDS = ("INT", "STR", "DATE", "composite")


def wide_relation(nrows: int, width: int, key_kind: str, seed: int,
                  prefix: str = "a", key: str = "k") -> Relation:
    """Order key columns first (in shuffled storage order), then
    ``width`` application columns ``<prefix>0, <prefix>1, ...`` of random
    INT or DBL type."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(nrows)
    columns: dict[str, object] = {}
    if key_kind == "INT":
        columns[key] = BAT(DataType.INT, (perm * 3 - 7).astype(np.int64))
    elif key_kind == "STR":
        columns[key] = BAT(DataType.STR,
                           np.array([f"s{v}" for v in perm], dtype=object))
    elif key_kind == "DATE":
        columns[key] = BAT(DataType.DATE, (perm + 18_000).astype(np.int64))
    else:
        columns[f"{key}1"] = BAT(DataType.INT, (perm // 3).astype(np.int64))
        columns[f"{key}2"] = BAT(DataType.STR, np.array(
            [f"t{v % 3}" for v in perm], dtype=object))
    for i in range(width):
        if rng.random() < 0.3:
            columns[f"{prefix}{i}"] = BAT(
                DataType.INT, rng.integers(-5, 6, nrows).astype(np.int64))
        else:
            columns[f"{prefix}{i}"] = BAT(DataType.DBL,
                                          rng.normal(size=nrows))
    return Relation.from_columns(columns)


def key_of(key_kind: str, key: str = "k") -> tuple[str, ...]:
    return (f"{key}1", f"{key}2") if key_kind == "composite" else (key,)


def bits(relation: Relation) -> tuple:
    """Names, types and exact column bits."""
    return (tuple(relation.names),
            tuple(c.dtype for c in relation.columns),
            tuple(c.tail.tolist() if c.dtype is DataType.STR
                  else c.tail.tobytes() for c in relation.columns))


def outcome(run) -> tuple:
    """The bits of ``run()``'s relation, or the type and message of the
    error it raised."""
    try:
        return ("ok", bits(run()))
    except Exception as error:  # every surface must raise the same error
        return ("error", type(error), str(error))


# -- structure: no names minted, the input relation passed through ------------

@pytest.fixture
def minted(monkeypatch):
    """The internal names frames mint, in order."""
    names: list[str] = []
    fresh = Frame._fresh

    def counting(cls, hint):
        names.append(hint)
        return fresh(hint)

    monkeypatch.setattr(Frame, "_fresh", classmethod(counting))
    return names


@pytest.fixture
def prepared(monkeypatch):
    """The relations that reach the prepare stage, in order."""
    seen: list[Relation] = []
    stage, fused = core_ops.prepare_stage, core_ops.prepare_fused

    def prepare_stage(spec, r, by, s, s_by, config):
        seen.extend(x for x in (r, s) if x is not None)
        return stage(spec, r, by, s, s_by, config)

    def prepare_fused(relations, bys, config):
        seen.extend(relations)
        return fused(relations, bys, config)

    monkeypatch.setattr(core_ops, "prepare_stage", prepare_stage)
    monkeypatch.setattr(core_ops, "prepare_fused", prepare_fused)
    return seen


@CONFIGS
def test_covariance_mints_no_names(config, minted, prepared, monkeypatch):
    merged: list[Relation] = []
    merge = core_ops.merge_result

    def merge_result(*args):
        merged.append(merge(*args))
        return merged[-1]

    monkeypatch.setattr(core_ops, "merge_result", merge_result)
    rel = wide_relation(40, 1_000, "INT", seed=1)
    db = repro.connect(config=config)
    m = db.matrix(rel, by="k")
    out = (m.cpd(m) * 0.5).collect()
    assert minted == []
    assert prepared[0] is rel and prepared[1] is rel
    # The cpd's result reaches the scalar product, and the product the
    # user, as the very objects the merge stage built.
    assert len(prepared) == 3 and prepared[2] is merged[0]
    assert out is merged[1]
    # The user's relation keeps the order it was validated under.
    assert rel.cached_order_info(("k",)) is not None
    expected = execute_rma("smul", execute_rma("cpd", rel, "k", rel, "k"),
                           "C", scalar=0.5)
    assert bits(out) == bits(expected)


@CONFIGS
def test_addition_mints_no_names(config, minted, prepared):
    r = wide_relation(40, 1_000, "INT", seed=2)
    s = wide_relation(40, 1_000, "STR", seed=3, prefix="b", key="j")
    db = repro.connect(config=config)
    out = (db.matrix(r, by="k") + db.matrix(s, by="j")).collect()
    assert minted == []
    assert len(prepared) == 2
    assert prepared[0] is r and prepared[1] is s
    assert r.cached_order_info(("k",)) is not None
    assert bits(out) == bits(execute_rma("add", r, "k", s, "j"))


@CONFIGS
def test_relational_operator_binds_the_view(config, minted):
    """The counter above is not vacuous: a filter over an RMA result
    resolves names, so the view mints its bindings then."""
    rel = wide_relation(12, 30, "INT", seed=4)
    db = repro.connect(config=config)
    m = db.matrix(rel, by="k")
    out = m.cpd(m).filter(col("a1") > 0.0).collect()
    assert minted
    full = execute_rma("cpd", rel, "k", rel, "k")
    keep = np.flatnonzero(full.column("a1").as_float() > 0.0)
    assert bits(out) == bits(Relation(full.schema, [
        c.fetch(keep) for c in full.columns]))


# -- bit identity over random wide relations ----------------------------------

def programs(key_kind: str) -> list[str]:
    names = ["cpd_self", "cpd", "add", "qqr", "scalars", "cpd_scaled",
             "filter", "sql"]
    if key_kind != "composite":
        names.append("tra")  # the column cast needs a single attribute
    return names


def surfaces(program: str, r: Relation, s: Relation, by: tuple,
             s_by: tuple, config: RmaConfig, run_unoptimized):
    """(eager, Matrix.collect(), unoptimized reference) thunks."""
    db = repro.connect(config=config)
    m, n = db.matrix(r, by=by), db.matrix(s, by=s_by)
    first = r.names[len(by)]

    def eager(name, rel, rel_by, other=None, other_by=None, scalar=None):
        return execute_rma(name, rel, list(rel_by), other,
                           None if other_by is None else list(other_by),
                           config, scalar=scalar)

    if program == "cpd_self":
        expr, ref = m.cpd(m), lambda: eager("cpd", r, by, r, by)
    elif program == "cpd":
        expr, ref = m.cpd(n), lambda: eager("cpd", r, by, s, s_by)
    elif program == "add":
        expr, ref = m + n, lambda: eager("add", r, by, s, s_by)
    elif program == "qqr":
        expr, ref = m.qqr(), lambda: eager("qqr", r, by)
    elif program == "tra":
        expr, ref = m.T, lambda: eager("tra", r, by)
    elif program == "scalars":
        expr = ((m * 2.5) + 1.0) - 0.25

        def ref():
            out = eager("smul", r, by, scalar=2.5)
            out = eager("sadd", out, by, scalar=1.0)
            return eager("ssub", out, by, scalar=0.25)
    elif program == "cpd_scaled":
        expr = m.cpd(m) * 0.5

        def ref():
            return eager("smul", eager("cpd", r, by, r, by), ("C",),
                         scalar=0.5)
    elif program in ("filter", "sql"):
        # A relational operator over an RMA result binds the view's
        # names; SQL reaches the same plan through a subquery.
        expr = m.cpd(m).filter(col(first) > 0.0).select("C", first)

        def ref():
            full = eager("cpd", r, by, r, by)
            keep = np.flatnonzero(full.column(first).as_float() > 0.0)
            return Relation.from_columns(
                {name: full.column(name).fetch(keep)
                 for name in ("C", first)})

        if program == "sql":
            db.register("t", r)
            keys = ", ".join(by)
            sql = (f"SELECT C, {first} FROM CPD(t BY ({keys}), "
                   f"t BY ({keys})) WHERE {first} > 0.0")
            return (ref, lambda: db.execute(sql),
                    lambda: run_unoptimized(db, sql))
    else:  # pragma: no cover
        raise AssertionError(program)
    return ref, expr.collect, lambda: run_unoptimized(db, expr)


@st.composite
def wide_case(draw):
    key_kind = draw(st.sampled_from(KEY_KINDS))
    nrows = draw(st.integers(1, 16))
    width = draw(st.one_of(st.integers(1, 8), st.integers(1, 400)))
    program = draw(st.sampled_from(programs(key_kind)))
    seed = draw(st.integers(0, 2**32 - 1))
    return key_kind, nrows, width, program, seed


@CONFIGS
# run_unoptimized is a plain function: nothing to reset between examples.
@settings(max_examples=30 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=wide_case())
def test_surfaces_bit_identical(config, case, run_unoptimized):
    key_kind, nrows, width, program, seed = case
    r = wide_relation(nrows, width, key_kind, seed)
    s = wide_relation(nrows, width, key_kind, seed + 1, prefix="b",
                      key="j")
    ref, collect, unoptimized = surfaces(
        program, r, s, key_of(key_kind), key_of(key_kind, "j"), config,
        run_unoptimized)
    expected = outcome(ref)
    assert outcome(collect) == expected
    assert outcome(unoptimized) == expected
    # Only a QR of fewer rows than columns is an error here.
    assert (expected[0] == "ok") == (program != "qqr" or width <= nrows)


# -- error parity of the one-pass validation ----------------------------------

R = Relation.from_columns({"k": [1, 2, 3], "x": [1.0, 2.0, 3.0],
                           "y": [4.0, 5.0, 6.0]})
S = Relation.from_columns({"x": [3, 1, 2], "p": [1.0, 0.0, 2.0],
                           "q": [0.5, 1.5, 2.5]})
TEXT = Relation.from_columns({"k": [1, 2, 3], "x": [1.0, 2.0, 3.0],
                              "s": ["a", "b", "c"], "t": ["d", "e", "f"]})

ERRORS = {
    # The merge's concatenation C ∘ U-bar clashes on C.
    "concat": ("cpd", rename(R, {"y": "C"}), "k", None, None, SchemaError,
               "duplicate attribute name 'C' in schema"),
    # U ∘ V ∘ U-bar: the second order schema repeats an application name.
    "elementwise": ("add", R, "k", S, "x", SchemaError,
                    "duplicate attribute name 'x' in schema"),
    "non_numeric": ("cpd", TEXT, "k", None, None, ApplicationSchemaError,
                    "cpd: application attribute 's' has non-numeric type "
                    "string; drop it with a projection or add it to the "
                    "order schema"),
    "unknown_order": ("cpd", R, ("k", "nope"), None, None,
                      OrderSchemaError,
                      "order attribute 'nope' not in schema (k, x, y)"),
    "duplicate_order": ("cpd", R, ("k", "k", "nope"), None, None,
                        OrderSchemaError,
                        "duplicate attribute 'k' in order schema"),
}


def _sql_by(by) -> str:
    return by if isinstance(by, str) else f"({', '.join(by)})"


@CONFIGS
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_parity(config, case):
    op, r, by, s, s_by, error, message = ERRORS[case]
    s, s_by = (r, by) if s is None else (s, s_by)
    db = repro.connect(config=config)
    db.register("r", r)
    db.register("s", s)

    def matrix():
        return db.matrix(r, by=by).cpd(db.matrix(s, by=s_by)).collect() \
            if op == "cpd" else \
            (db.matrix(r, by=by) + db.matrix(s, by=s_by)).collect()

    sql = (f"SELECT * FROM {op.upper()}(r BY {_sql_by(by)}, "
           f"s BY {_sql_by(s_by)})")
    for run in (lambda: execute_rma(op, r, by, s, s_by, config), matrix,
                lambda: db.execute(sql)):
        with pytest.raises(error) as raised:
            run()
        assert str(raised.value) == message


class TestSchemaDerivations:
    """Derivations of a valid schema check only the names' uniqueness,
    with the messages the full validation gives."""

    schema = Schema.of(("k", DataType.INT), ("x", DataType.DBL),
                       ("y", DataType.DBL))

    def test_rename_onto_existing_name(self):
        with pytest.raises(SchemaError,
                           match="^duplicate attribute name 'y' in schema$"):
            self.schema.rename({"x": "y"})
        assert self.schema.rename({"x": "z"}).names == ["k", "z", "y"]

    def test_rename_unknown(self):
        with pytest.raises(SchemaError, match="cannot rename unknown "
                                              r"attributes \['w'\]"):
            self.schema.rename({"w": "v"})

    def test_concat_clash(self):
        other = Schema.of(("p", DataType.DBL), ("x", DataType.INT))
        with pytest.raises(SchemaError,
                           match="^duplicate attribute name 'x' in schema$"):
            self.schema.concat(other)

    def test_project_repeats_and_unknown(self):
        with pytest.raises(SchemaError,
                           match="^duplicate attribute name 'x' in schema$"):
            self.schema.project(["x", "k", "x"])
        with pytest.raises(SchemaError, match="unknown attribute 'w'"):
            self.schema.project(["x", "w"])

    def test_constructor_reports_first_error_in_order(self):
        x = Attribute("x", DataType.DBL)
        with pytest.raises(SchemaError,
                           match="^duplicate attribute name 'x' in schema$"):
            Schema([x, x, "y"])
        with pytest.raises(SchemaError, match="^expected Attribute, got 'y'$"):
            Schema([x, "y", x])
