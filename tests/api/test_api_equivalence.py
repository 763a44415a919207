"""API equivalence: Matrix expressions vs eager ``rma.*`` vs SQL.

The redesign's contract: every surface compiles into the same plan IR and
produces the *bit-identical* relation — same names, same dtypes, same raw
tails — for every Table 2 operation, the scalar variants, and the paper's
four workloads; serial and under the morsel-parallel engine.
"""

import numpy as np
import pytest

import repro
from repro.bat.bat import DataType
from repro.core import rma_operation
from repro.core.config import ParallelConfig, RmaConfig
from repro.core.ops import execute_rma
from repro.opspec import OPS, SCALAR_OPS
from repro.relational.relation import Relation


def identical(a: Relation, b: Relation) -> bool:
    if a.names != b.names:
        return False
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype is not cb.dtype:
            return False
        if ca.dtype is DataType.DBL:
            if not np.array_equal(ca.tail, cb.tail, equal_nan=True):
                return False
        elif list(ca.tail) != list(cb.tail):
            return False
    return True


def keyed(matrix: np.ndarray, key: str = "key", prefix: str = "x",
          shuffle_seed: int | None = 3) -> Relation:
    n, k = matrix.shape
    data = {key: [f"k{i:03d}" for i in range(n)]}
    for j in range(k):
        data[f"{prefix}{j}"] = matrix[:, j]
    rel = Relation.from_columns(data)
    if shuffle_seed is not None and n > 1:
        rng = np.random.default_rng(shuffle_seed)
        perm = rng.permutation(n).astype(np.int64)
        rel = Relation(rel.schema, [c.fetch(perm) for c in rel.columns])
    return rel


RNG = np.random.default_rng(23)
SQUARE = RNG.uniform(1.0, 9.0, (4, 4)) + 4.0 * np.eye(4)
TALL = RNG.uniform(-5.0, 5.0, (6, 3))
SPD = TALL.T @ TALL + 3.0 * np.eye(3)

UNARY_INPUTS = {
    "tra": SQUARE, "inv": SQUARE, "evc": SQUARE, "evl": SQUARE,
    "det": SQUARE, "chf": SPD,
    "qqr": TALL, "rqr": TALL, "dsv": TALL, "vsv": TALL, "usv": TALL,
    "rnk": TALL,
}

CONFIGS = {
    "serial": None,
    "parallel": RmaConfig(parallel=ParallelConfig(
        enabled=True, workers=2, min_morsel_rows=1)),
}


@pytest.fixture(params=sorted(CONFIGS), ids=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]


class TestUnaryOps:
    @pytest.mark.parametrize("op", sorted(UNARY_INPUTS))
    def test_three_surfaces_bit_identical(self, op, config):
        rel = keyed(UNARY_INPUTS[op])
        eager = repro.rma.__dict__[op](rel, by="key", config=config)

        db = repro.connect(config=config)
        db.register("t", rel)
        via_matrix = getattr(db.matrix("t", by="key"), op)().collect()
        via_sql = db.execute(f"SELECT * FROM {op.upper()}(t BY key)")

        assert identical(eager, via_matrix), op
        assert identical(eager, via_sql), op

    def test_all_unary_ops_covered(self):
        unary = {name for name, spec in OPS.items() if spec.arity == 1}
        assert unary == set(UNARY_INPUTS)


class TestScalarVariants:
    @pytest.mark.parametrize("op", sorted(SCALAR_OPS))
    def test_matrix_matches_eager(self, op, config):
        rel = keyed(RNG.uniform(0.0, 10.0, (7, 3)))
        eager = repro.rma.__dict__[op](rel, "key", 2.5, config=config)
        db = repro.connect(config=config)
        via_matrix = getattr(db.matrix(rel, by="key"), op)(2.5).collect()
        assert identical(eager, via_matrix), op

    def test_operator_spellings(self):
        rel = keyed(RNG.uniform(0.0, 10.0, (5, 2)))
        db = repro.connect()
        m = db.matrix(rel, by="key")
        assert identical((m + 1.5).collect(),
                         repro.rma.sadd(rel, "key", 1.5))
        assert identical((m - 1.5).collect(),
                         repro.rma.ssub(rel, "key", 1.5))
        assert identical((3.0 * m).collect(),
                         repro.rma.smul(rel, "key", 3.0))
        assert identical((m * 3.0).collect(),
                         repro.rma.smul(rel, "key", 3.0))
        assert identical((-m).collect(),
                         repro.rma.smul(rel, "key", -1.0))
        assert identical((m / 2.0).collect(),
                         repro.rma.sdiv(rel, "key", 2.0))


class TestBinaryOps:
    def binary_case(self, op):
        if op in ("add", "sub", "emu"):
            r = keyed(RNG.uniform(0.0, 10.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 10.0, (5, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "mmu":
            r = keyed(RNG.uniform(0.0, 5.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (3, 4)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "opd":
            r = keyed(RNG.uniform(0.0, 5.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (4, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op in ("cpd", "sol"):
            r = keyed(RNG.uniform(0.0, 5.0, (6, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (6, 2)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        raise AssertionError(op)

    @pytest.mark.parametrize("op", sorted(
        name for name, spec in OPS.items() if spec.arity == 2))
    def test_three_surfaces_bit_identical(self, op, config):
        r, by, s, s_by = self.binary_case(op)
        eager = repro.rma.__dict__[op](r, by, s, s_by, config=config)

        db = repro.connect(config=config)
        db.register("r", r)
        db.register("s", s)
        m = getattr(db.matrix("r", by=by), op)(db.matrix("s", by=s_by))
        via_sql = db.execute(
            f"SELECT * FROM {op.upper()}(r BY {by}, s BY {s_by})")

        assert identical(eager, m.collect()), op
        assert identical(eager, via_sql), op

    def test_self_operand_cpd_bit_identical(self, config):
        # cpd(r BY k1, r BY k1): shared order BATs align by identity and
        # the kernel sees one operand (dsyrk on MKL).
        r = keyed(RNG.uniform(0.0, 5.0, (8, 3)), key="k1")
        eager = repro.rma.cpd(r, "k1", r, "k1", config=config)

        db = repro.connect(config=config)
        db.register("r", r)
        m = db.matrix("r", by="k1")
        via_sql = db.execute("SELECT * FROM CPD(r BY k1, r BY k1)")

        assert identical(eager, m.cpd(m).collect())
        assert identical(eager, via_sql)
        gram = np.column_stack([eager.column(n).tail
                                for n in eager.names[1:]])
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("op,operator", [
        ("add", lambda a, b: a + b),
        ("sub", lambda a, b: a - b),
        ("emu", lambda a, b: a * b),
        ("mmu", lambda a, b: a @ b),
    ])
    def test_operator_spellings(self, op, operator):
        r, by, s, s_by = self.binary_case(op)
        eager = repro.rma.__dict__[op](r, by, s, s_by)
        db = repro.connect()
        result = operator(db.matrix(r, by=by), db.matrix(s, by=s_by))
        assert identical(eager, result.collect())

    def test_relation_operand_with_by(self):
        r, by, s, s_by = self.binary_case("cpd")
        eager = repro.rma.cpd(r, by, s, s_by)
        db = repro.connect()
        assert identical(eager,
                         db.matrix(r, by=by).cpd(s, by=s_by).collect())


class TestEagerIsThePlanPath:
    """Eager ``repro.rma.*`` calls ``execute_rma`` directly, the pipeline
    the plan executor runs for each RMA node (through ``rma_operation``),
    so results and errors must be exactly that pipeline's."""

    def test_same_object_as_execute_rma_pipeline(self):
        rel = keyed(SQUARE)
        via_adapter = repro.rma.inv(rel, by="key")
        direct = execute_rma("inv", rel, "key")
        assert identical(via_adapter, direct)
        # The adapter preserves the merge step's warm order-cache seeding.
        assert via_adapter.cached_order_info(("key",)) is not None

    def test_rma_operation_stays_direct(self):
        rel = keyed(SQUARE)
        assert identical(rma_operation("inv", rel, "key"),
                         repro.rma.inv(rel, by="key"))

    def test_error_parity(self):
        from repro.errors import (
            KeyViolationError,
            OrderSchemaError,
            RmaError,
        )
        dup = Relation.from_columns({"k": ["a", "a"],
                                     "x": [1.0, 2.0]})
        with pytest.raises(KeyViolationError):
            repro.rma.inv(dup, by="k")
        rel = keyed(SQUARE)
        with pytest.raises(OrderSchemaError):
            repro.rma.inv(rel, by="missing")
        with pytest.raises(OrderSchemaError):
            repro.rma.qqr(rel, by=[])
        with pytest.raises(RmaError):
            repro.rma.mmu(rel, "key", None, None)
        with pytest.raises(KeyError):
            repro.rma.rma_operation("nope", rel, "key")


class TestWorkloadsAcrossSurfaces:
    """The four paper workloads, eager vs matrix-expression API."""

    def test_trips_olr(self, config):
        from repro.data.bixi import generate_stations, generate_trips
        from repro.workloads.trips_olr import (
            TripsDataset,
            _rma_ols,
            _rma_ols_matrix,
            engine_prepare,
        )
        stations = generate_stations(20, seed=1)
        trips = generate_trips(3_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        prepared = engine_prepare(dataset)
        cfg = config or RmaConfig()
        eager = _rma_ols(prepared, cfg)
        assert np.array_equal(eager, _rma_ols_matrix(prepared, cfg))

    def test_journeys_mlr(self, config):
        from repro.data.bixi import (
            generate_numeric_trips,
            generate_stations,
        )
        from repro.workloads.journeys_mlr import (
            JourneysDataset,
            _design_names,
            _rma_mlr,
            _rma_mlr_matrix,
            engine_prepare,
        )
        stations = generate_stations(20, seed=1)
        trips = generate_numeric_trips(4_000, stations, seed=3)
        dataset = JourneysDataset(trips, stations, n_legs=2, min_count=10)
        prepared = engine_prepare(dataset)
        names = _design_names(dataset)
        cfg = config or RmaConfig()
        assert np.array_equal(_rma_mlr(prepared, names, cfg),
                              _rma_mlr_matrix(prepared, names, cfg))

    def test_conferences_cov(self, config):
        from repro.data.dblp import generate_publications, generate_ranking
        from repro.workloads.conferences_cov import (
            ConferencesDataset,
            run_rma,
        )
        dataset = ConferencesDataset(generate_publications(400, 10),
                                     generate_ranking(10, seed=11))
        eager = run_rma(dataset)
        via_api = run_rma(dataset, matrix=True)
        assert via_api.system == "RMA+MKL+API"
        assert np.array_equal(np.asarray(eager.signature),
                              np.asarray(via_api.signature))

    def test_trip_count(self, config):
        from repro.workloads.trip_count import make_dataset, run_rma
        dataset = make_dataset(2_000)
        eager = run_rma(dataset)
        via_api = run_rma(dataset, matrix=True)
        assert via_api.system == "RMA+BAT+API"
        assert np.array_equal(np.asarray(eager.signature),
                              np.asarray(via_api.signature))

    def test_trips_runner_label(self):
        from repro.data.bixi import generate_stations, generate_trips
        from repro.workloads.trips_olr import TripsDataset, run_rma
        stations = generate_stations(15, seed=1)
        trips = generate_trips(2_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        eager = run_rma(dataset)
        via_api = run_rma(dataset, matrix=True)
        assert via_api.system == "RMA+MKL+API"
        assert np.array_equal(np.asarray(eager.signature),
                              np.asarray(via_api.signature))
