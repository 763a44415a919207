"""The paper's four mixed relational/matrix workloads (§8.6).

Each module implements one workload for every system (RMA+ with both
backends, R, AIDA, MADlib) with identical semantics, returns per-phase
timings, and exposes a numeric signature so tests can assert that all
systems compute the same answer.  RMA+ has one pipeline per workload: the
relational part on the engine, the matrix part as one ``Matrix``
expression on a ``repro.connect()`` session.
"""

from repro.workloads.common import PhaseTimes, WorkloadResult
from repro.workloads.trips_olr import TripsDataset, run_trips
from repro.workloads.journeys_mlr import JourneysDataset, run_journeys
from repro.workloads.conferences_cov import (
    ConferencesDataset,
    run_conferences,
)
from repro.workloads.trip_count import TripCountDataset, run_trip_count

__all__ = [
    "PhaseTimes",
    "WorkloadResult",
    "TripsDataset",
    "run_trips",
    "JourneysDataset",
    "run_journeys",
    "ConferencesDataset",
    "run_conferences",
    "TripCountDataset",
    "run_trip_count",
]
