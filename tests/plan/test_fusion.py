"""Element-wise fusion: plan rewrite, fused execution, bit-identity.

The contract under test: for every chain shape, executing the optimized
plan (with ``FusedRma``) is *bit-identical* to running the same pipeline's
built plan unoptimized (the ``run_unoptimized`` reference, which fuses
nothing) — fusion elides intermediate materialization, never changes
values — and chains that must not fuse (shared subtrees, order-schema
boundaries) keep their unfused shape.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.bat.bat import BAT, DataType
from repro.core.algebra import add, sadd, smul, ssub, sub
from repro.core.config import RmaConfig
from repro.core.ops import execute_fused
from repro.core.context import FusionFallback
from repro.errors import ReproError, RmaError
from repro.linalg.kernels import KernelProgram, KernelStep, run_program
from repro.plan import nodes
from repro.plan.expr import col
from repro.plan.optimizer import optimize
from repro.bat.catalog import Catalog
from repro.relational.relation import Relation


def relations_equal(a: Relation, b: Relation) -> bool:
    """Bit-identity: same names, dtypes and raw tails."""
    if a.names != b.names:
        return False
    return all(a.column(n) == b.column(n) for n in a.names)


def chain_relation(index: int, n: int = 300, seed: int = 0,
                   cols: int = 2, str_keys: bool = True) -> Relation:
    rng = np.random.default_rng(seed + index)
    perm = rng.permutation(n)
    if str_keys:
        key = [f"r{v:05d}" for v in perm]
    else:
        key = perm.astype(np.int64)
    data = {f"k{index}": key}
    for j in range(cols):
        data[f"c{j}"] = rng.uniform(-10.0, 10.0, n)
    return Relation.from_columns(data)


def matrices(*relations, db=None):
    """One handle per relation, keyed by its first attribute, on a
    database without caches (every collect really executes)."""
    db = db or repro.connect(plan_cache=False)
    return [db.matrix(r, by=r.names[0]) for r in relations]


@pytest.fixture
def collect_both(run_unoptimized):
    """(fused result, unfused result) for one lazy expression; the
    unfused one is the unoptimized reference run."""
    def collect(pipe, **kwargs):
        config = RmaConfig(**kwargs)
        return (pipe.collect(config=config),
                run_unoptimized(pipe.database, pipe, config))
    return collect


def find_fused(plan):
    return [n for n in nodes.walk_plan(plan)
            if isinstance(n, nodes.FusedRma)]


# -- the kernel-program layer ---------------------------------------------------


class TestKernelPrograms:
    def test_single_step_program(self):
        config = RmaConfig()
        a = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        b = [np.array([10.0, 20.0]), np.array([30.0, 40.0])]
        program = KernelProgram.single("add", binary=True)
        out = run_program(program, [a, b], config.policy)
        assert np.array_equal(out[0], [11.0, 22.0])
        assert np.array_equal(out[1], [33.0, 44.0])

    def test_multi_step_program_with_scalar(self):
        config = RmaConfig()
        a = [np.array([1.0, 2.0])]
        b = [np.array([5.0, 6.0])]
        program = KernelProgram(2, (
            KernelStep("add", 0, 1),        # slot 2 = a + b
            KernelStep("smul", 2, scalar=2.0),  # slot 3 = 2 (a + b)
            KernelStep("sub", 3, 0),        # slot 4 = 2 (a + b) - a
        ))
        out = run_program(program, [a, b], config.policy)
        assert np.array_equal(out[0], [11.0, 14.0])

    def test_bad_slot_rejected(self):
        config = RmaConfig()
        program = KernelProgram(1, (KernelStep("sadd", 5, scalar=1.0),))
        with pytest.raises(RmaError):
            run_program(program, [[np.zeros(2)]], config.policy)

    def test_scalar_kernel_requires_value(self):
        config = RmaConfig()
        program = KernelProgram(1, (KernelStep("smul", 0),))
        with pytest.raises(RmaError):
            run_program(program, [[np.zeros(2)]], config.policy)


# -- eager scalar variants ------------------------------------------------------


class TestScalarOps:
    def test_values_and_schema(self):
        r = chain_relation(0)
        out = sadd(r, "k0", 2.5)
        assert out.names == ["k0", "c0", "c1"]
        assert out.column("k0") == r.column("k0")
        assert np.array_equal(out.column("c0").tail,
                              r.column("c0").tail + 2.5)
        out = ssub(r, "k0", 1.0)
        assert np.array_equal(out.column("c1").tail,
                              r.column("c1").tail - 1.0)
        out = smul(r, "k0", -3.0)
        assert np.array_equal(out.column("c0").tail,
                              r.column("c0").tail * -3.0)

    def test_scalar_required_and_rejected(self):
        r = chain_relation(0)
        with pytest.raises(RmaError):
            sadd(r, "k0", None)
        with pytest.raises(RmaError):
            add(r, "k0", r, "k0", RmaConfig())  # sanity: unrelated error ok

    def test_rows_keep_storage_order(self):
        r = chain_relation(0)
        out = smul(r, "k0", 2.0)
        assert list(out.column("k0").tail) == list(r.column("k0").tail)


# -- fusion rewrite (plan shapes) ----------------------------------------------


class TestFusionRewrite:
    def test_left_deep_chain_fuses(self):
        r0, r1, r2 = (chain_relation(i) for i in range(3))
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = m0 + m1 - m2
        plan = optimize(pipe.plan, Catalog(), keep_all=True)
        fused = find_fused(plan)
        assert len(fused) == 1
        assert tuple(s.op for s in fused[0].steps) == ("add", "sub")
        assert fused[0].bys == (("k0",), ("k1",), ("k2",))

    def test_right_deep_chain_fuses(self):
        r0, r1, r2 = (chain_relation(i) for i in range(3))
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = m0 + m1 * m2
        plan = optimize(pipe.plan, Catalog(), keep_all=True)
        fused = find_fused(plan)
        assert len(fused) == 1
        assert tuple(s.op for s in fused[0].steps) == ("emu", "add")

    def test_scalar_steps_fuse(self):
        r0, r1 = chain_relation(0), chain_relation(1)
        m0, m1 = matrices(r0, r1)
        pipe = (m0 + m1) * 2.0 + (-1.0)
        plan = optimize(pipe.plan, Catalog(), keep_all=True)
        fused = find_fused(plan)
        assert len(fused) == 1
        assert tuple(s.op for s in fused[0].steps) == \
            ("add", "smul", "sadd")
        assert fused[0].steps[1].scalar == 2.0

    def test_single_op_not_fused(self):
        r0, r1 = chain_relation(0), chain_relation(1)
        m0, m1 = matrices(r0, r1)
        plan = optimize((m0 + m1).plan, Catalog(), keep_all=True)
        assert not find_fused(plan)

    def test_order_schema_boundary_blocks_fusion(self, collect_both):
        # The parent orders the derived relation by a *permuted* schema:
        # alignment semantics differ, so the edge must not fuse.
        r0 = chain_relation(0, str_keys=False)
        r1 = chain_relation(1, str_keys=False)
        r2 = chain_relation(2, str_keys=False)
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = (m0 + m1).ordered_by(("k1", "k0")) - m2
        plan = optimize(pipe.plan, Catalog(), keep_all=True)
        assert not find_fused(plan)
        fused, unfused = collect_both(pipe)
        assert relations_equal(fused, unfused)

    def test_shared_subtree_not_absorbed(self):
        # The inner chain is referenced twice: it must stay a separate
        # (CSE-shared) node, not be re-computed inside two fused chains.
        r0, r1 = chain_relation(0), chain_relation(1)
        m0, m1 = matrices(r0, r1)
        inner = m0 + m1
        doubled, tripled = 2.0 * inner, 3.0 * inner
        pipe = nodes.Rma("sub", (doubled.plan, tripled.plan),
                         (("k0", "k1"), ("k0", "k1")), None)
        plan = optimize(pipe, Catalog(), keep_all=True)
        # The shared `inner` add survives as a plain Rma node.
        inner_nodes = [n for n in nodes.walk_plan(plan)
                       if isinstance(n, nodes.Rma) and n.op == "add"]
        assert inner_nodes
        # NB the plan above is illegal RMA (overlapping order schemas of
        # sub's arguments, which Matrix rejects) — only the plan *shape*
        # is under test here.

    def test_duplicated_chain_still_fuses(self):
        # The SAME chain referenced twice: every interior node's count
        # equals the root's, so fusion proceeds — both references become
        # one structurally equal FusedRma that CSE executes once.
        r0 = chain_relation(0, str_keys=False)
        r1 = chain_relation(1, str_keys=False)
        db = repro.connect(plan_cache=False)
        (m1,) = matrices(r1, db=db)
        chain = 2.0 * (db.matrix(r0, by="k0", name="a") + m1)
        pipe = chain.join(chain, on=(col("k0", "a") == col("k0", "a")))
        plan = optimize(pipe.plan, Catalog(), keep_all=True)
        fused = find_fused(plan)
        assert len(fused) == 2
        assert fused[0] == fused[1]  # CSE memoizes one execution

    def test_reference_plan_is_unfused(self):
        # Only the optimizer fuses: the built plan, which the unoptimized
        # reference run executes, keeps one Rma node per step.
        r0, r1, r2 = (chain_relation(i) for i in range(3))
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = m0 + m1 - m2
        assert not find_fused(pipe.plan)
        assert find_fused(optimize(pipe.plan, Catalog(), keep_all=True))


# -- fused-vs-unfused bit-identity ---------------------------------------------


CHAIN_KW = [dict(validate_keys=True), dict(validate_keys=False)]


class TestFusedBitIdentity:
    @pytest.mark.parametrize("kwargs", CHAIN_KW,
                             ids=["validate", "novalidate"])
    def test_left_deep_mixed_ops(self, kwargs, collect_both):
        r0, r1, r2, r3 = (chain_relation(i) for i in range(4))
        m0, m1, m2, m3 = matrices(r0, r1, r2, r3)
        pipe = (m0 + m1 - m2) * m3
        fused, unfused = collect_both(pipe, **kwargs)
        assert relations_equal(fused, unfused)

    @pytest.mark.parametrize("kwargs", CHAIN_KW,
                             ids=["validate", "novalidate"])
    def test_right_deep_chain(self, kwargs, collect_both):
        r0, r1, r2 = (chain_relation(i) for i in range(3))
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = m0 + m1 * m2
        fused, unfused = collect_both(pipe, **kwargs)
        assert relations_equal(fused, unfused)

    def test_scalar_mix(self, collect_both):
        r0, r1 = chain_relation(0), chain_relation(1)
        m0, m1 = matrices(r0, r1)
        pipe = 0.5 * m0 + m1 - 4.0
        fused, unfused = collect_both(pipe)
        assert relations_equal(fused, unfused)

    def test_int_keys_and_int_values(self, collect_both):
        rng = np.random.default_rng(5)
        n = 200
        r0 = Relation.from_columns({
            "k0": rng.permutation(n).astype(np.int64),
            "v": rng.integers(-100, 100, n)})
        r1 = Relation.from_columns({
            "k1": rng.permutation(n).astype(np.int64),
            "w": rng.integers(-100, 100, n)})
        r2 = Relation.from_columns({
            "k2": rng.permutation(n).astype(np.int64),
            "x": rng.integers(-100, 100, n)})
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = (m0 + m1) * m2
        fused, unfused = collect_both(pipe)
        assert relations_equal(fused, unfused)

    def test_presorted_keys(self, collect_both):
        # Identity alignments (everything already sorted) stay identical.
        n = 100
        vals = np.arange(n, dtype=np.int64)
        rng = np.random.default_rng(8)
        rels = [Relation.from_columns({f"k{i}": vals,
                                       "v": rng.uniform(0, 1, n)})
                for i in range(3)]
        m0, m1, m2 = matrices(*rels)
        pipe = m0 + m1 - m2
        fused, unfused = collect_both(pipe)
        assert relations_equal(fused, unfused)

    def test_wide_application_schema(self, collect_both):
        rels = [chain_relation(i, cols=5) for i in range(3)]
        m0, m1, m2 = matrices(*rels)
        pipe = (m0 + m1) * m2
        fused, unfused = collect_both(pipe)
        assert relations_equal(fused, unfused)

    def test_fused_result_order_cache_is_warm(self):
        rels = [chain_relation(i) for i in range(3)]
        m0, m1, m2 = matrices(*rels)
        pipe = m0 + m1 - m2
        fused = pipe.collect()
        # All aligned schemas and combined prefixes are seeded.
        for key in (("k0",), ("k1",), ("k2",), ("k0", "k1"),
                    ("k0", "k1", "k2")):
            info = fused.cached_order_info(key)
            assert info is not None, key
        seeded = fused.cached_order_info(("k0", "k1", "k2")).positions
        cold = Relation(fused.schema, fused.columns)
        fresh = cold.order_info(("k0", "k1", "k2")).positions
        assert np.array_equal(seeded, fresh)


# -- runtime fallback -----------------------------------------------------------


class TestFusionFallback:
    def test_duplicate_keys_fall_back(self, run_unoptimized):
        # k0 has duplicates: the fused alignment identity does not hold,
        # the executor must replay the chain unfused (and match it).
        rng = np.random.default_rng(9)
        n = 60
        r0 = Relation.from_columns({
            "k0": (rng.permutation(n) // 2).astype(np.int64),
            "v": rng.uniform(0, 1, n)})
        r1 = Relation.from_columns({
            "k1": rng.permutation(n).astype(np.int64),
            "w": rng.uniform(0, 1, n)})
        r2 = Relation.from_columns({
            "k2": rng.permutation(n).astype(np.int64),
            "x": rng.uniform(0, 1, n)})
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = m0 + m1 - m2
        config = RmaConfig(validate_keys=False)
        fused = pipe.collect(config=config)
        unfused = run_unoptimized(pipe.database, pipe, config)
        assert relations_equal(fused, unfused)

    def test_fallback_counted_in_stats(self):
        rng = np.random.default_rng(10)
        n = 40
        r0 = Relation.from_columns({
            "k0": (rng.permutation(n) // 2).astype(np.int64),
            "v": rng.uniform(0, 1, n)})
        r1 = Relation.from_columns({
            "k1": rng.permutation(n).astype(np.int64),
            "w": rng.uniform(0, 1, n)})
        r2 = Relation.from_columns({
            "k2": rng.permutation(n).astype(np.int64),
            "x": rng.uniform(0, 1, n)})
        config = RmaConfig(validate_keys=False)
        session = repro.connect(config=config)
        session.register("r0", r0)
        session.register("r1", r1)
        session.register("r2", r2)
        session.execute(
            "SELECT * FROM SUB(ADD(r0 BY k0, r1 BY k1) BY (k0, k1), "
            "r2 BY k2)")
        assert session.last_stats.fusion_fallbacks == 1
        assert session.last_stats.fused_nodes == 0

    def test_cardinality_mismatch_raises_like_unfused(self,
                                                      run_unoptimized):
        r0 = chain_relation(0, n=50)
        r1 = chain_relation(1, n=50)
        r2 = chain_relation(2, n=40)  # wrong cardinality
        m0, m1, m2 = matrices(r0, r1, r2)
        pipe = m0 + m1 - m2
        with pytest.raises(RmaError) as fused_err:
            pipe.collect()
        with pytest.raises(RmaError) as unfused_err:
            run_unoptimized(pipe.database, pipe)
        assert str(fused_err.value) == str(unfused_err.value)

    def test_execute_fused_precondition_error(self):
        rels = [chain_relation(i) for i in range(2)]
        steps = (KernelStep("add", 0, 1),)
        with pytest.raises(FusionFallback):
            # Overlapping order schemas.
            execute_fused(steps, [rels[0], rels[0]], [("k0",), ("k0",)])


# -- SQL front end and EXPLAIN --------------------------------------------------


class TestSqlFusion:
    def make_session(self, **kwargs):
        session = repro.connect(**kwargs)
        for i in range(3):
            session.register(f"r{i}", chain_relation(i))
        return session

    SQL = ("SELECT * FROM SUB(ADD(r0 BY k0, r1 BY k1) BY (k0, k1), "
           "r2 BY k2)")

    def test_sql_chain_fuses_and_matches(self, run_unoptimized):
        session = self.make_session()
        fused = session.execute(self.SQL)
        assert session.last_stats.fused_nodes == 1
        assert relations_equal(fused, run_unoptimized(session, self.SQL))

    def test_explain_prints_fused_node_with_member_ops(self):
        text = self.make_session().explain(self.SQL)
        assert "FusedRma [ADD -> SUB]" in text
        assert "arg1 BY (k0), arg2 BY (k1), arg3 BY (k2)" in text

    def test_explain_unfused_at_order_boundary(self):
        # SUB orders the ADD result by a permuted schema: no fusion, and
        # EXPLAIN shows both steps.
        text = self.make_session().explain(
            "SELECT * FROM SUB(ADD(r0 BY k0, r1 BY k1) BY (k1, k0), "
            "r2 BY k2)")
        assert "FusedRma" not in text
        assert "Rma ADD" in text and "Rma SUB" in text

    def test_eager_chain_matches_lazy_fused(self):
        r0, r1, r2 = (chain_relation(i) for i in range(3))
        for config in (RmaConfig(), RmaConfig(validate_keys=False)):
            t1 = add(r0, "k0", r1, "k1", config=config)
            t2 = sub(t1, ("k0", "k1"), r2, "k2", config=config)
            eager = smul(t2, ("k0", "k1", "k2"), 2.0, config=config)
            # Cold on a session without caches, then repeated on a caching
            # session, whose third collect is served from the cache (the
            # second sighting admits the result).
            m0, m1, m2 = matrices(r0, r1, r2)
            assert relations_equal(
                eager, (2.0 * (m0 + m1 - m2)).collect(config=config))
            db = repro.connect(config=config)
            m0, m1, m2 = matrices(r0, r1, r2, db=db)
            expr = 2.0 * (m0 + m1 - m2)
            expr.collect()
            expr.collect()
            assert relations_equal(eager, expr.collect())
            assert db.last_stats.cache_hits >= 1


# -- random element-wise trees --------------------------------------------------

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1

ELEMENTWISE = ["add", "sub", "emu"]
SCALARS = ["sadd", "ssub", "smul", "sdiv"]


def _key_columns(kind: str, index: int, perm: np.ndarray) -> dict:
    """Key columns of leaf ``index`` over the row permutation ``perm``."""
    if kind == "int":
        return {f"k{index}": (perm * 3 - 5).astype(np.int64)}
    if kind == "str":
        return {f"k{index}": [f"s{v:03d}" for v in perm]}
    return {f"k{index}a": (perm // 2).astype(np.int64),
            f"k{index}b": [f"m{v % 2}" for v in perm]}


@st.composite
def leaf_relations(draw):
    """2-5 leaves of one cardinality and width, stored in shuffled order.
    A leaf may hold a duplicate key, and a later leaf may be a renamed
    view of leaf 0's order BATs."""
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    leaves = []
    for i in range(draw(st.integers(2, 5))):
        if i and draw(st.integers(0, 3)) == 3:
            first, first_by = leaves[0]
            keys = {f"{name}_{i}": first.column(name) for name in first_by}
        else:
            keys = _key_columns(
                draw(st.sampled_from(["int", "str", "composite"])), i,
                rng.permutation(n))
            if n > 1 and draw(st.integers(0, 2)) == 2:
                for name, values in keys.items():
                    values[1] = values[0]
        data = dict(keys)
        for j in range(width):
            data[f"c{j}"] = rng.uniform(-5.0, 5.0, n)
        leaves.append((Relation.from_columns(data), tuple(keys)))
    return leaves


@st.composite
def chain_tree(draw, lo: int, hi: int):
    """An element-wise tree over leaves ``lo .. hi - 1``: left-deep when
    every split peels the last leaf, bushy (``(a + b) - (c + d)``)
    otherwise, with scalar steps wrapped around any node."""
    if hi - lo == 1:
        node = ("leaf", lo)
    else:
        split = draw(st.integers(lo + 1, hi - 1))
        node = (draw(st.sampled_from(ELEMENTWISE)),
                draw(chain_tree(lo, split)), draw(chain_tree(split, hi)))
    while draw(st.integers(0, 3)) == 3:
        node = (draw(st.sampled_from(SCALARS)),
                draw(st.sampled_from([2.5, -1.5, 0.5])), node)
    return node


def subtrees(tree, handles: list) -> list:
    """The expression of every operation node of ``tree``, children before
    their parents (the whole tree last)."""
    built = []

    def build(node):
        op = node[0]
        if op == "leaf":
            return handles[node[1]]
        if op in ELEMENTWISE:
            expr = getattr(build(node[1]), op)(build(node[2]))
        else:
            expr = getattr(build(node[2]), op)(node[1])
        built.append(expr)
        return expr

    build(tree)
    return built


def outcome(run):
    try:
        return run()
    except ReproError as exc:
        return exc


def assert_bits_equal(a: Relation, b: Relation) -> None:
    assert a.names == b.names
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype is cb.dtype, name
        if ca.dtype is DataType.DBL:
            assert ca.tail.tobytes() == cb.tail.tobytes(), name
        else:
            assert ca.tail.tolist() == cb.tail.tolist(), name


def assert_seeds_fresh(result: Relation) -> None:
    """Every order and key verdict the merge step planted equals a fresh
    computation over copies of the columns."""
    for names, info in result._order_cache.items():
        tails = [result.column(n).tail.copy() for n in names]
        if info.known_positions is not None:
            fresh = Relation.from_columns(
                {n: BAT(result.column(n).dtype, t)
                 for n, t in zip(names, tails)}).order_info(names)
            assert np.array_equal(info.known_positions,
                                  fresh.positions), names
        if info.known_is_key is not None:
            rows = set(zip(*[t.tolist() for t in tails]))
            assert info.known_is_key == (len(rows) == result.nrows), names


class TestRandomChains:
    """Random element-wise trees: for the whole tree and each subtree, the
    optimized, fused plan gives what the unoptimized plan gives, step by
    step — the same schema and bits, or the same error type and text — and
    its seeded orders are fresh sorts."""

    @settings(max_examples=100 * SCALE, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(leaves=leaf_relations(), data=st.data(),
           validate_keys=st.booleans(), optimize_sorting=st.booleans())
    def test_fused_matches_unoptimized(self, leaves, data, validate_keys,
                                       optimize_sorting, run_unoptimized):
        tree = data.draw(chain_tree(0, len(leaves)))
        config = RmaConfig(validate_keys=validate_keys,
                           optimize_sorting=optimize_sorting)
        db = repro.connect(plan_cache=False)
        handles = [db.matrix(rel, by=by) for rel, by in leaves]
        for expr in subtrees(tree, handles):
            fused = outcome(lambda: expr.collect(config=config))
            reference = outcome(lambda: run_unoptimized(db, expr, config))
            if isinstance(reference, Exception):
                assert type(fused) is type(reference)
                assert str(fused) == str(reference)
                continue
            assert isinstance(fused, Relation), fused
            assert_bits_equal(fused, reference)
            assert_seeds_fresh(fused)
