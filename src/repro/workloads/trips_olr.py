"""Workload 1 — Trips: ordinary linear regression (paper Fig. 15).

Data preparation (relational): select trips in a year range, keep trips
whose (start, end) station pair occurs at least ``min_count`` times, join
the stations table twice to obtain coordinates, and compute the distance.
Matrix part: OLS of duration on distance — the paper's formulation
``MMU(INV(CPD(A,A)), CPD(A,V))`` with A = [1, distance].

System-specific notes:

* **RMA+** runs the relational part on the engine and the matrix part as
  one ``Matrix`` expression (`cpd`/`inv`/`mmu`) on a ``repro.connect()``
  session, with the backend chosen by the policy (MKL here; the BAT
  variant is the Fig. 15b ablation);
* **AIDA** runs the same relational part on the engine, then moves the
  working table to Python.  Numeric columns transfer by pointer; the
  date/time/member columns must be converted element-wise — the cost that
  separates AIDA from RMA+ in Fig. 15a;
* **R** loads from CSV (dark bar), preps with data.table-style operations
  (single-core python-loop merges), converts to matrix, then solves;
* **MADlib** is a row store with a pure-python ``linregr_train`` UDF.
"""

from __future__ import annotations

import datetime as _dt
import os
import tempfile
from dataclasses import dataclass

import numpy as np

import repro.relational.ops as rel_ops
from repro.api import connect
from repro.baselines.aida import AidaTable
from repro.baselines.madlib import MadlibDatabase, linregr_train
from repro.baselines.rlike import RFrame, as_matrix, read_csv_r
from repro.bat.bat import BAT, DataType, date_to_int
from repro.core import RmaConfig
from repro.data.bixi import station_distance_km
from repro.linalg.policy import BackendPolicy
from repro.relational import AggregateSpec, group_by, join, rename, write_csv
from repro.relational.relation import Relation
from repro.workloads.common import PhaseTimes, WorkloadResult

MIN_PAIR_COUNT = 50


@dataclass
class TripsDataset:
    trips: Relation
    stations: Relation
    year_low: int
    year_high: int
    min_count: int = MIN_PAIR_COUNT

    @property
    def date_low(self) -> int:
        return date_to_int(_dt.date(self.year_low, 1, 1))

    @property
    def date_high(self) -> int:
        return date_to_int(_dt.date(self.year_high, 12, 31))


# -- shared engine-side preparation (used by RMA+ and AIDA) --------------------

def engine_prepare(dataset: TripsDataset) -> Relation:
    """Relational part on the column engine; returns
    (trip_id, start_date, start_time, is_member, distance, duration)."""
    trips = dataset.trips
    dates = trips.column("start_date").tail
    mask = (dates >= dataset.date_low) & (dates <= dataset.date_high)
    selected = rel_ops.select_mask(trips, mask)

    pairs = group_by(selected, ["start_station", "end_station"],
                     [AggregateSpec("count", "*", "n")])
    frequent = rel_ops.select_mask(pairs,
                                   pairs.column("n").tail
                                   >= dataset.min_count)
    frequent = rel_ops.project(frequent, ["start_station", "end_station"])
    frequent = rename(frequent, {"start_station": "fs", "end_station": "fe"})
    kept = join(selected, frequent, ["start_station", "end_station"],
                ["fs", "fe"])

    start_coords = rename(dataset.stations,
                          {"code": "sc", "name": "sn",
                           "latitude": "slat", "longitude": "slon"})
    end_coords = rename(dataset.stations,
                        {"code": "ec", "name": "en",
                         "latitude": "elat", "longitude": "elon"})
    kept = join(kept, start_coords, ["start_station"], ["sc"],
                drop_right_keys=True)
    kept = join(kept, end_coords, ["end_station"], ["ec"],
                drop_right_keys=True)

    distance = station_distance_km(kept.column("slat").tail,
                                   kept.column("slon").tail,
                                   kept.column("elat").tail,
                                   kept.column("elon").tail)
    kept = rel_ops.extend(kept, "distance", BAT(DataType.DBL, distance))
    return rel_ops.project(kept, ["trip_id", "start_date", "start_time",
                                  "is_member", "distance", "duration"])


def _ols_inputs(prepared: Relation) -> tuple[Relation, Relation]:
    """Design relation A = [1, distance] and target V keyed by trip_id."""
    n = prepared.nrows
    # Attribute order (const, distance) matches the sorted order of the
    # context attribute C that cpd produces, so the row labels of the
    # chained inv/mmu stay aligned with the coefficients (see the note on
    # square-matrix chains in README.md).
    a = Relation.from_columns({
        "trip_id": prepared.column("trip_id"),
        "const": BAT(DataType.DBL, np.ones(n)),
        "distance": prepared.column("distance").cast(DataType.DBL)})
    v = Relation.from_columns({
        "trip_id": prepared.column("trip_id"),
        "duration": prepared.column("duration").cast(DataType.DBL)})
    return a, v


def _rma_ols(prepared: Relation, config: RmaConfig) -> np.ndarray:
    """beta = MMU(INV(CPD(A,A)), CPD(A,V)) as one matrix expression.

    ``(A'A)^-1 A'v`` reads as linear algebra on the session API and
    compiles into one plan covering the whole chain, so the chained
    ``inv``/``mmu`` reuse the warm order caches of their inputs.
    """
    a, v = _ols_inputs(prepared)
    design = connect(config=config).matrix(a, by="trip_id")
    beta = (design.cpd(design).inv()
            @ design.cpd(v, by="trip_id")).collect()
    return beta.column("duration").tail.copy()


def run_rma(dataset: TripsDataset, backend: str = "mkl") -> WorkloadResult:
    """RMA+ with the given kernel backend ('mkl' or 'bat')."""
    times = PhaseTimes()
    config = RmaConfig(policy=BackendPolicy(prefer=backend),
                       validate_keys=False)
    with times.measure("prep"):
        prepared = engine_prepare(dataset)
    with times.measure("matrix"):
        beta = _rma_ols(prepared, config)
    return WorkloadResult(f"RMA+{backend.upper()}", times, beta,
                          {"rows": prepared.nrows})


def run_aida(dataset: TripsDataset) -> WorkloadResult:
    times = PhaseTimes()
    with times.measure("prep"):
        prepared = engine_prepare(dataset)
        table = AidaTable(prepared)
        # Move the working table to Python.  distance/duration transfer by
        # pointer; start_date/start_time/is_member must be converted.
        arrays = table.to_python(["trip_id", "start_date", "start_time",
                                  "is_member", "distance", "duration"])
    with times.measure("matrix"):
        x = np.column_stack([np.ones(len(arrays["distance"])),
                             arrays["distance"]])
        y = arrays["duration"].astype(np.float64)
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        # Result goes back to the engine for further relational use.
        AidaTable.from_python({"coef": beta}, table.stats)
    return WorkloadResult("AIDA", times, beta,
                          {"converted": table.stats.converted_columns})


def _write_csvs(dataset: TripsDataset, directory: str) -> tuple[str, str]:
    trips_path = os.path.join(directory, "trips.csv")
    stations_path = os.path.join(directory, "stations.csv")
    write_csv(dataset.trips, trips_path)
    write_csv(dataset.stations, stations_path)
    return trips_path, stations_path


def run_r(dataset: TripsDataset,
          csv_dir: str | None = None) -> WorkloadResult:
    """R: CSV load + data.table prep + as.matrix + solve."""
    times = PhaseTimes()
    own_dir = None
    if csv_dir is None:
        own_dir = tempfile.TemporaryDirectory()
        csv_dir = own_dir.name
        trips_path, stations_path = _write_csvs(dataset, csv_dir)
    else:
        trips_path = os.path.join(csv_dir, "trips.csv")
        stations_path = os.path.join(csv_dir, "stations.csv")
        if not os.path.exists(trips_path):
            trips_path, stations_path = _write_csvs(dataset, csv_dir)
    try:
        with times.measure("load"):
            trips = read_csv_r(trips_path)
            stations = read_csv_r(stations_path)
        with times.measure("prep"):
            # Dates arrive as strings; R would parse them (row-at-a-time).
            dates = np.array(
                [_dt.date.fromisoformat(d).toordinal() - 719163
                 for d in trips["start_date"]], dtype=np.float64)
            trips = trips.with_column("date_num", dates)
            mask = ((dates >= dataset.date_low)
                    & (dates <= dataset.date_high))
            selected = trips.subset(mask)
            counts = selected.aggregate(
                ["start_station", "end_station"], {"n": ("count", "*")})
            frequent = counts.subset(counts["n"] >= dataset.min_count)
            kept = selected.merge(frequent.select(
                ["start_station", "end_station"]),
                ["start_station", "end_station"])
            s1 = RFrame({"start_station": stations["code"],
                         "slat": stations["latitude"],
                         "slon": stations["longitude"]})
            s2 = RFrame({"end_station": stations["code"],
                         "elat": stations["latitude"],
                         "elon": stations["longitude"]})
            kept = kept.merge(s1, ["start_station"])
            kept = kept.merge(s2, ["end_station"])
            distance = station_distance_km(kept["slat"], kept["slon"],
                                           kept["elat"], kept["elon"])
            kept = kept.with_column("distance", distance)
        with times.measure("matrix"):
            design = as_matrix(kept.with_column(
                "icept", np.ones(len(kept))), ["icept", "distance"])
            y = kept["duration"].astype(np.float64)
            beta = np.linalg.solve(design.T @ design, design.T @ y)
    finally:
        if own_dir is not None:
            own_dir.cleanup()
    return WorkloadResult("R", times, beta, {"rows": len(kept)})


def run_madlib(dataset: TripsDataset) -> WorkloadResult:
    times = PhaseTimes()
    db = MadlibDatabase.from_relations(trips=dataset.trips,
                                       stations=dataset.stations)
    with times.measure("prep"):
        date_i = db.column_index("trips", "start_date")
        low = _dt.date(dataset.year_low, 1, 1)
        high = _dt.date(dataset.year_high, 12, 31)
        selected = db.select(
            "trips", lambda row: low <= row[date_i] <= high)
        db.create("selected", db.schemas["trips"], selected)
        start_i = db.column_index("trips", "start_station")
        end_i = db.column_index("trips", "end_station")
        counts = db.group_count("selected",
                                lambda row: (row[start_i], row[end_i]))
        kept = [row for row in selected
                if counts[(row[start_i], row[end_i])] >= dataset.min_count]
        db.create("kept", db.schemas["trips"], kept)
        joined = db.join("kept", "stations", "start_station", "code")
        db.create("j1", db.schemas["trips"]
                  + ["code", "name", "slat", "slon"], joined)
        joined = db.join("j1", "stations", "end_station", "code")
        duration_i = db.column_index("trips", "duration")
        slat_i = len(db.schemas["trips"]) + 2
        rows_x: list[list[float]] = []
        rows_y: list[float] = []
        for row in joined:
            slat, slon = row[slat_i], row[slat_i + 1]
            elat, elon = row[-2], row[-1]
            distance = float(station_distance_km(slat, slon, elat, elon))
            rows_x.append([1.0, distance])
            rows_y.append(float(row[duration_i]))
    with times.measure("matrix"):
        beta = np.array(linregr_train(rows_x, rows_y))
    return WorkloadResult("MADlib", times, beta, {"rows": len(rows_x)})


def run_trips(dataset: TripsDataset, systems: tuple[str, ...] =
              ("rma-mkl", "rma-bat", "aida", "r", "madlib")) \
        -> list[WorkloadResult]:
    runners = {
        "rma-mkl": lambda: run_rma(dataset, "mkl"),
        "rma-bat": lambda: run_rma(dataset, "bat"),
        "aida": lambda: run_aida(dataset),
        "r": lambda: run_r(dataset),
        "madlib": lambda: run_madlib(dataset),
    }
    return [runners[s]() for s in systems]
