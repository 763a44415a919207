"""Matrix templates: an expression's in-memory relations bind to slots.

A ``Matrix`` expression runs as its *shape* (:func:`repro.plan.nodes.
bind_relations`): its plan with each in-memory relation a relation slot
that records the relation's column names.  The shape is planned once per
session, like a SQL statement template, and every run binds its own
relations.  These tests check that a warm shape plans nothing, that what
the plan depends on (schema, alias, configuration) gets its own plan,
that a cached template pins no input, and that a warm run gives the bits
of the uncached session and of the unoptimized plan, across threads too.
"""

import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.api.database as database
from repro.bat.bat import DataType
from repro.core.config import RmaConfig
from repro.plan import col
from repro.relational.relation import Relation

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1


@pytest.fixture
def calls(monkeypatch):
    """Counter of optimize / plan_physical calls made by the session."""
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(database, "optimize",
                        counting("optimize", database.optimize))
    monkeypatch.setattr(database, "plan_physical",
                        counting("plan_physical", database.plan_physical))
    return counts


def design(seed: int, n: int = 8, key: str = "id",
           names: tuple = ("x", "y")) -> Relation:
    """A fresh relation keyed by ``key`` with DBL columns ``names``."""
    rng = np.random.default_rng(seed)
    data = {key: rng.permutation(n).astype(np.int64)}
    for name in names:
        data[name] = rng.uniform(-2.0, 2.0, n)
    return Relation.from_columns(data)


def ols(db, a: Relation, v: Relation):
    """(A'A)^-1 A'v, as the olr_trips workload collects it."""
    x = db.matrix(a, by="id")
    return x.cpd(x).inv() @ x.cpd(db.matrix(v, by="id"))


def bits(relation: Relation) -> tuple:
    """Names, types and exact column bits."""
    return (tuple(relation.names),
            tuple(c.dtype for c in relation.columns),
            tuple(c.tail.tolist() if c.dtype is DataType.STR
                  else c.tail.tobytes() for c in relation.columns))


def seeds(relation: Relation) -> dict:
    """The order and key verdicts seeded in a result's order cache."""
    return {names: (None if info.known_positions is None
                    else info.known_positions.tobytes(),
                    info.known_is_key)
            for names, info in relation._order_cache.items()}


def outcome(run) -> tuple:
    """The bits and seeds of ``run()``'s relation, or the type and
    message of the error it raised."""
    try:
        result = run()
    except Exception as error:  # every surface must raise the same error
        return ("error", type(error), str(error))
    return ("ok", bits(result), seeds(result))


class TestOnePlanPerShape:
    def test_fresh_relations_of_one_schema_plan_once(self, calls):
        db = repro.connect()
        for seed in range(4):
            ols(db, design(seed), design(seed + 10, names=("v",))).collect()
        # Planned on its first two sightings; stored on the second.
        assert calls["optimize"] == 2
        assert calls["plan_physical"] == 2
        assert len(db._templates) == 1

    def test_two_handles_over_one_relation_share_a_slot(self):
        db = repro.connect()
        a = design(1)
        x, y = db.matrix(a, by="id"), db.matrix(a, by="id")
        assert "shared x2" in (x.cpd(x).inv() @ y.cpd(y)).explain()

    def test_schema_alias_and_config_each_plan_anew(self, calls):
        db = repro.connect()
        # Each shape is collected twice: it is stored on its second
        # sighting.
        m = db.matrix(design(1), by="id")
        m.cpd(m).collect()
        m.cpd(m).collect()
        m = db.matrix(design(2, names=("x", "z")), by="id")
        m.cpd(m).collect()  # another schema: another template
        m.cpd(m).collect()
        assert calls["optimize"] == 4 and len(db._templates) == 2
        m = db.matrix(design(3), by="id", name="d")
        m.cpd(m).collect()  # a user alias: another template
        m.cpd(m).collect()
        assert calls["optimize"] == 6 and len(db._templates) == 3
        m = db.matrix(design(4), by="id")
        m.cpd(m).collect(config=RmaConfig(validate_keys=False))
        # Another config token replans the shape's template, as it does a
        # SQL statement's: a plan is never served to another config.
        assert calls["optimize"] == 7 and len(db._templates) == 3
        m.cpd(m).collect(config=RmaConfig(validate_keys=False))
        assert calls["optimize"] == 7


class TestSecondSightingAdmission:
    """A shape is stored in the template cache on its second sighting, so
    a session that plans a fresh shape per query stores none of them."""

    def test_distinct_shapes_store_no_template(self):
        db = repro.connect()
        for i in range(300):
            names = ("x", f"c{i}")  # a fresh schema: a fresh shape
            m = db.matrix(design(i, names=names), by="id")
            m.cpd(m).collect()
        assert len(db._templates) == 0

    def test_repeated_shape_is_stored_then_plans_nothing(self, calls):
        inputs = [(design(seed), design(seed + 10, names=("v",)))
                  for seed in range(5)]
        reference = repro.connect(plan_cache=False)
        expected = [bits(ols(reference, a, v).collect()) for a, v in inputs]
        calls.clear()
        db = repro.connect()
        for run, (a, v) in enumerate(inputs):
            assert bits(ols(db, a, v).collect()) == expected[run]
            assert len(db._templates) == int(run >= 1)
            assert calls["optimize"] == min(run + 1, 2)

    def test_sql_shape_is_stored_on_second_sighting(self):
        db, reference = repro.connect(), repro.connect(plan_cache=False)
        for session in (db, reference):
            session.register("t", design(1))
        for i in range(4):
            sql = f"SELECT id, x * {i + 1}.5 AS w FROM t WHERE y > -{i}.0"
            assert bits(db.execute(sql)) == bits(reference.execute(sql))
            assert len(db._templates) == int(i >= 1)


class TestNothingPinned:
    def test_collected_input_dies_while_its_template_stays(self, calls):
        db = repro.connect()
        a, v = design(1), design(2, names=("v",))
        ols(db, a, v).collect()
        ols(db, a, v).collect()  # admitted to the result cache
        refs = [weakref.ref(a), weakref.ref(v)]
        del a, v
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert len(db._templates) == 1
        assert len(db.result_cache) == 0
        ols(db, design(3), design(4, names=("v",))).collect()
        assert calls["optimize"] == 2  # the first two sightings


class TestWarmRunsAreExact:
    """Random expressions over fresh relations: the warm template's
    answer has the bits and seeded orders of the uncached session's, and
    the bits of the unoptimized plan's (or the same error)."""

    @settings(max_examples=40 * SCALE, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(1, 9), width=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_warm_template_matches_references(self, data, n, width, seed,
                                              run_unoptimized):
        recipe = data.draw(expressions())
        names = tuple(f"c{j}" for j in range(width))

        def leaves(run: int) -> list[Relation]:
            return [design(seed + 2 * run + i, n, key, names)
                    for i, key in enumerate(("ka", "kb"))]

        warm = repro.connect()
        for run in range(2):  # the first run plans the template
            expr = outcome(lambda: build(recipe, warm, leaves(run))
                           .collect())
        assert len(warm._templates) <= 1
        fresh = leaves(1)
        uncached = repro.connect(plan_cache=False)
        assert expr == outcome(
            lambda: build(recipe, uncached, fresh).collect())
        reference = outcome(
            lambda: run_unoptimized(uncached, build(recipe, uncached, fresh)))
        if expr[0] == "ok":
            assert expr[1] == reference[1]
        else:
            assert expr[1] is reference[1]


ELEMENTWISE = ["add", "sub", "emu"]
SCALARS = ["sadd", "ssub", "smul", "sdiv"]


def expressions():
    """Recipes over leaves 0 (keyed ``ka``) and 1 (keyed ``kb``):
    element-wise and scalar steps, ``filter``, ``ordered_by``, and
    ``cpd``/``inv`` on top."""
    rows = st.recursive(
        st.tuples(st.just("leaf"), st.sampled_from([0, 1])),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(ELEMENTWISE), inner, inner),
            st.tuples(st.sampled_from(SCALARS),
                      st.sampled_from([2.5, -1.5, 0.5]), inner),
            st.tuples(st.just("filter"), st.sampled_from([-1.0, 0.0, 1.0]),
                      inner),
            st.tuples(st.just("ordered_by"), inner)),
        max_leaves=4)
    return st.one_of(rows,
                     st.tuples(st.just("cpd"), rows, rows),
                     st.tuples(st.just("inv"), rows))


def build(recipe, db, relations: list[Relation]):
    """The ``Matrix`` expression of ``recipe`` over ``relations``."""
    op = recipe[0]
    if op == "leaf":
        index = recipe[1]
        return db.matrix(relations[index], by=("ka", "kb")[index])
    if op in ELEMENTWISE:
        return getattr(build(recipe[1], db, relations), op)(
            build(recipe[2], db, relations))
    if op in SCALARS:
        return getattr(build(recipe[2], db, relations), op)(recipe[1])
    if op == "filter":
        return build(recipe[2], db, relations).filter(col("c0") > recipe[1])
    if op == "ordered_by":
        return build(recipe[1], db, relations).ordered_by("c0")
    if op == "cpd":
        return build(recipe[1], db, relations).cpd(
            build(recipe[2], db, relations))
    m = build(recipe[1], db, relations)
    return m.cpd(m).inv()


class TestThreads:
    def test_threads_collect_one_shape_over_their_own_relations(self):
        """Eight threads share one session and template; each binds its
        own relations, so each gets its own answer.  A 1 µs switch
        interval makes interleaved runs near-certain."""
        db = repro.connect()
        inputs = [(design(i), design(100 + i, names=("v",)))
                  for i in range(8)]
        expected = [bits(ols(repro.connect(plan_cache=False), a, v)
                         .collect()) for a, v in inputs]
        results: list = [[] for _ in inputs]
        barrier = threading.Barrier(len(inputs), timeout=60)

        def run(i):
            barrier.wait()
            for _ in range(5):
                results[i].append(bits(ols(db, *inputs[i]).collect()))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[answer] * 5 for answer in expected]
        assert len(db._templates) == 1
