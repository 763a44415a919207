"""Parallel-vs-serial bit-identity.

The morsel engine's contract is that enabling it never changes a single
bit of any result: same names, same dtypes, same raw tails.  Checked for
every Table 2 operation, the scalar variants, fused element-wise chains,
and the four paper workloads, under adversarial morsel settings (1-row
morsels, morsels larger than the input) and worker counts 1, 2 and
one-per-CPU.
"""

import os

import numpy as np
import pytest

import repro
from repro.bat.bat import DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.core.ops import execute_rma
from repro.linalg.policy import BackendPolicy
from repro.opspec import OPS, SCALAR_OPS
from repro.relational.relation import Relation

MAX_WORKERS = os.cpu_count() or 1

# (workers, min_morsel_rows): 1-row morsels force maximal chunking even
# on tiny inputs; the huge floor forces the serial fallback inside an
# enabled engine; max workers exercises the real pool width.
SETTINGS = [
    pytest.param(1, 1, id="workers1-morsel1"),
    pytest.param(2, 1, id="workers2-morsel1"),
    pytest.param(2, 10**9, id="workers2-morselhuge"),
    pytest.param(MAX_WORKERS, 1, id="workersmax-morsel1"),
]


def parallel_config(workers, min_rows, prefer="auto",
                    validate=True) -> RmaConfig:
    return RmaConfig(policy=BackendPolicy(prefer=prefer),
                     validate_keys=validate,
                     parallel=ParallelConfig(enabled=True, workers=workers,
                                             min_morsel_rows=min_rows))


def serial_config(prefer="auto", validate=True) -> RmaConfig:
    return RmaConfig(policy=BackendPolicy(prefer=prefer),
                     validate_keys=validate,
                     parallel=ParallelConfig(enabled=False))


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


def keyed(matrix: np.ndarray, key: str = "key", shuffle_seed=3) -> Relation:
    n, k = matrix.shape
    data = {key: [f"k{i:03d}" for i in range(n)]}
    for j in range(k):
        data[f"x{j}"] = matrix[:, j]
    rel = Relation.from_columns(data)
    if shuffle_seed is not None and n > 1:
        rng = np.random.default_rng(shuffle_seed)
        perm = rng.permutation(n).astype(np.int64)
        rel = Relation(rel.schema, [c.fetch(perm) for c in rel.columns])
    return rel


def matrices(relations):
    """One handle per relation, keyed by its first attribute, on a
    database without caches (every collect really executes)."""
    db = repro.connect(plan_cache=False)
    return [db.matrix(r, by=r.names[0]) for r in relations]


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


class TestTable2Ops:
    @pytest.mark.parametrize("workers,min_rows", SETTINGS)
    @pytest.mark.parametrize("op", sorted(UNARY_INPUTS))
    def test_unary(self, op, workers, min_rows):
        rel = keyed(UNARY_INPUTS[op])
        serial = execute_rma(op, rel, "key", config=serial_config())
        parallel = execute_rma(op, rel, "key",
                               config=parallel_config(workers, min_rows))
        assert identical(serial, parallel), op

    def binary_case(self, op):
        if op in ("add", "sub", "emu"):
            r = keyed(RNG.uniform(0.0, 10.0, (64, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 10.0, (64, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "mmu":
            r = keyed(RNG.uniform(0.0, 5.0, (32, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (3, 4)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "opd":
            r = keyed(RNG.uniform(0.0, 5.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (4, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op in ("cpd", "sol"):
            r = keyed(RNG.uniform(0.0, 5.0, (48, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (48, 2)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        raise AssertionError(op)

    @pytest.mark.parametrize("workers,min_rows", SETTINGS)
    @pytest.mark.parametrize("op", sorted(
        name for name, spec in OPS.items() if spec.arity == 2))
    def test_binary(self, op, workers, min_rows):
        r, by, s, s_by = self.binary_case(op)
        serial = execute_rma(op, r, by, s, s_by, config=serial_config())
        parallel = execute_rma(op, r, by, s, s_by,
                               config=parallel_config(workers, min_rows))
        assert identical(serial, parallel), op

    def test_all_ops_covered(self):
        unary = {name for name, spec in OPS.items() if spec.arity == 1}
        assert unary == set(UNARY_INPUTS)

    @pytest.mark.parametrize("op", sorted(SCALAR_OPS))
    def test_scalar_variants(self, op):
        rel = keyed(RNG.uniform(0.0, 10.0, (64, 3)))
        serial = execute_rma(op, rel, "key", config=serial_config(),
                             scalar=2.5)
        parallel = execute_rma(op, rel, "key",
                               config=parallel_config(2, 1), scalar=2.5)
        assert identical(serial, parallel), op

    def test_int_application_columns(self):
        # INT columns exercise the chunked float-view materialization.
        r = Relation.from_columns({
            "k1": [f"a{i}" for i in range(50)],
            "v": np.arange(50, dtype=np.int64)})
        s = Relation.from_columns({
            "k2": [f"a{i}" for i in range(50)],
            "w": np.arange(50, dtype=np.int64) * 3})
        serial = execute_rma("add", r, "k1", s, "k2",
                             config=serial_config())
        parallel = execute_rma("add", r, "k1", s, "k2",
                               config=parallel_config(2, 1))
        assert identical(serial, parallel)

        # mmu and cpd over INT keys and columns, each mode on fresh
        # relations, so the casts, key checks and gathers all run cold.
        def int_relation(n_rows, key, seed):
            rng = np.random.default_rng(seed)
            data = {key: np.arange(n_rows, dtype=np.int64)}
            for j in range(4):
                data[f"c{j}"] = rng.integers(0, 1_000, n_rows)
            return Relation.from_columns(data)

        for op, other_rows, other_key in (("mmu", 4, "w"),
                                          ("cpd", 300, "id2")):
            results = [execute_rma(op, int_relation(300, "id", 1), "id",
                                   int_relation(other_rows, other_key, 2),
                                   other_key, config=config)
                       for config in (serial_config(),
                                      parallel_config(2, 1))]
            assert identical(*results), op

    def test_sparse_add_routing_matches(self):
        # Mostly-zero columns: the add per morsel must equal the add over
        # whole columns bit for bit.
        n = 4096
        dense = RNG.uniform(1.0, 2.0, n)
        sparse = np.zeros(n)
        sparse[::257] = 7.0
        r = Relation.from_columns({"k1": [f"a{i:05d}" for i in range(n)],
                                   "u": sparse, "v": dense})
        s = Relation.from_columns({"k2": [f"a{i:05d}" for i in range(n)],
                                   "x": sparse * 2, "y": sparse})
        serial = execute_rma("add", r, "k1", s, "k2",
                             config=serial_config())
        parallel = execute_rma("add", r, "k1", s, "k2",
                               config=parallel_config(3, 1))
        assert identical(serial, parallel)


class TestFusedChains:
    def chain(self, leaves):
        m0, m1, m2, m3 = matrices(leaves)
        return (m0 + m1 - m2) * m3

    def leaves(self, n=200):
        out = []
        for i in range(4):
            rng = np.random.default_rng(70 + i)
            perm = rng.permutation(n)
            out.append(Relation.from_columns({
                f"k{i}": [f"r{v:05d}" for v in perm],
                "d0": rng.uniform(0.0, 100.0, n),
                "d1": rng.uniform(0.0, 100.0, n)}))
        return out

    @pytest.mark.parametrize("workers,min_rows", SETTINGS)
    def test_fused_chain_identity(self, workers, min_rows):
        leaves = self.leaves()
        serial = self.chain(leaves).collect(
            config=serial_config(validate=False))
        parallel = self.chain(leaves).collect(
            config=parallel_config(workers, min_rows, validate=False))
        assert identical(serial, parallel)

    def test_fused_chain_with_scalar_steps(self):
        leaves = self.leaves()
        def pipeline(config):
            m0, m1, m2 = matrices(leaves[:3])
            return ((m0 + m1) * 0.5 - m2).collect(config=config)
        assert identical(pipeline(serial_config(validate=False)),
                         pipeline(parallel_config(2, 1, validate=False)))

    def test_independent_subtrees_identity(self):
        # Sibling RMA arguments and the two sides of a join are scheduled
        # concurrently; results must not change.
        rel = keyed(RNG.uniform(1.0, 9.0, (6, 6)) + 6 * np.eye(6))
        def pipeline(config):
            (m,) = matrices([rel])
            return (m.inv() @ m.qqr()).collect(config=config)
        assert identical(pipeline(serial_config()),
                         pipeline(parallel_config(2, 1)))


class TestWorkloads:
    """The four paper workloads agree bit-for-bit under the env gate.

    The runners build their own ``RmaConfig`` internally, whose
    ``parallel`` field defaults from the ``REPRO_PARALLEL*`` environment —
    exactly the override CI uses to force the engine through the suite.
    """

    def run_both(self, monkeypatch, runner):
        for var in ("REPRO_PARALLEL", "REPRO_PARALLEL_WORKERS",
                    "REPRO_PARALLEL_MIN_MORSEL_ROWS"):
            monkeypatch.delenv(var, raising=False)
        serial = runner()
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "2")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_MORSEL_ROWS", "1")
        parallel = runner()
        assert np.array_equal(np.asarray(serial.signature),
                              np.asarray(parallel.signature))

    def test_trips_olr(self, monkeypatch):
        from repro.data.bixi import generate_stations, generate_trips
        from repro.workloads.trips_olr import TripsDataset, run_rma
        stations = generate_stations(15, seed=1)
        trips = generate_trips(2_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        self.run_both(monkeypatch, lambda: run_rma(dataset))

    def test_journeys_mlr(self, monkeypatch):
        from repro.data.bixi import generate_numeric_trips, \
            generate_stations
        from repro.workloads.journeys_mlr import JourneysDataset, run_rma
        stations = generate_stations(15, seed=1)
        trips = generate_numeric_trips(2_000, stations, seed=3)
        dataset = JourneysDataset(trips, stations, n_legs=2, min_count=10)
        self.run_both(monkeypatch, lambda: run_rma(dataset))

    def test_conferences_cov(self, monkeypatch):
        from repro.data.dblp import generate_publications, \
            generate_ranking
        from repro.workloads.conferences_cov import ConferencesDataset, \
            run_rma
        dataset = ConferencesDataset(generate_publications(200, 8),
                                     generate_ranking(8))
        self.run_both(monkeypatch, lambda: run_rma(dataset))

    def test_trip_count(self, monkeypatch):
        from repro.workloads.trip_count import make_dataset, run_rma
        dataset = make_dataset(1_000)
        self.run_both(monkeypatch, lambda: run_rma(dataset))
