"""Matrix-expression equivalence for the four paper workloads.

Each workload's matrix part is rebuilt as a lazy ``Matrix`` expression
(``test_lazy_*``) and must be bit-identical (same raw tails) to the eager
per-operation execution the runners use.
"""

import numpy as np
import pytest

import repro
from repro.core import RmaConfig
from repro.core.ops import execute_rma
from repro.data.bixi import generate_numeric_trips, generate_stations, \
    generate_trips
from repro.data.dblp import generate_publications
from repro.linalg.policy import BackendPolicy
from repro.workloads.journeys_mlr import JourneysDataset, _design_names, \
    _rma_mlr
from repro.workloads.journeys_mlr import engine_prepare as prepare_journeys
from repro.workloads.trip_count import make_dataset
from repro.workloads.trips_olr import TripsDataset, _rma_ols, \
    _rma_ols_matrix
from repro.workloads.trips_olr import engine_prepare as prepare_trips
from repro.workloads.trips_olr import run_rma as run_trips_rma


@pytest.fixture(scope="module")
def stations():
    return generate_stations(20, seed=1)


@pytest.fixture(scope="module")
def config():
    return RmaConfig(policy=BackendPolicy(prefer="mkl"),
                     validate_keys=False)


class TestTripsOlr:
    def test_lazy_matches_eager(self, stations, config):
        trips = generate_trips(3_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        prepared = prepare_trips(dataset)
        eager = _rma_ols(prepared, config)
        lazy = _rma_ols_matrix(prepared, config)
        assert np.array_equal(eager, lazy)

    def test_runner_agrees(self, stations):
        trips = generate_trips(3_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        eager = run_trips_rma(dataset)
        lazy = run_trips_rma(dataset, matrix=True)
        assert lazy.system == "RMA+MKL+API"
        assert np.array_equal(np.asarray(eager.signature),
                              np.asarray(lazy.signature))


class TestJourneysMlr:
    def test_lazy_matches_eager(self, stations, config):
        trips = generate_numeric_trips(4_000, stations, seed=3)
        dataset = JourneysDataset(trips, stations, n_legs=2, min_count=10)
        prepared = prepare_journeys(dataset)
        names = _design_names(dataset)
        eager = _rma_mlr(prepared, names, config)

        from repro.bat.bat import BAT, DataType
        from repro.relational.relation import Relation
        n = prepared.nrows
        columns = {"journey_id": prepared.column("journey_id"),
                   "const": BAT(DataType.DBL, np.ones(n))}
        for name in names:
            columns[name] = prepared.column(name)
        a = Relation.from_columns(columns)
        v = Relation.from_columns({
            "journey_id": prepared.column("journey_id"),
            "y": prepared.column("total_duration")})
        db = repro.connect(config=config)
        design = db.matrix(a, by="journey_id")
        beta = (design.cpd(design).inv()
                @ design.cpd(v, by="journey_id")).collect()
        assert np.array_equal(eager, beta.column("y").tail)


class TestConferencesCov:
    def test_lazy_cross_product_matches(self, config):
        publications = generate_publications(400, 10)
        eager = execute_rma("cpd", publications, "author",
                            publications, "author", config=config)
        frame = repro.connect(config=config).matrix(publications,
                                                    by="author")
        lazy = frame.cpd(frame).collect()
        assert eager.names == lazy.names
        for name in eager.names[1:]:
            assert np.array_equal(eager.column(name).tail,
                                  lazy.column(name).tail)
        assert list(eager.column("C").tail) == list(lazy.column("C").tail)


class TestTripCountAdd:
    def test_lazy_add_matches(self):
        dataset = make_dataset(2_000)
        config = RmaConfig(policy=BackendPolicy(prefer="auto"),
                           validate_keys=False)
        eager = execute_rma("add", dataset.year1, dataset.key1,
                            dataset.year2, dataset.key2, config=config)
        db = repro.connect(config=config)
        lazy = (db.matrix(dataset.year1, by=dataset.key1)
                + db.matrix(dataset.year2, by=dataset.key2)).collect()
        assert eager.names == lazy.names
        for name in eager.names:
            assert np.array_equal(eager.column(name).tail,
                                  lazy.column(name).tail)

    def test_derived_result_starts_warm(self):
        dataset = make_dataset(500)
        db = repro.connect()
        result = (db.matrix(dataset.year1, by=dataset.key1)
                  + db.matrix(dataset.year2, by=dataset.key2)).collect()
        info = result.cached_order_info((dataset.key1,))
        assert info is not None
        assert info.known_positions is not None
