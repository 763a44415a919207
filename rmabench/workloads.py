"""The four benchmark workloads, each a closed loop over the public API.

A workload generates its inputs from the seed, opens a database with
``repro.connect()``, registers the inputs and warms up (``setup``, the
``setup_s`` metric).  ``query(i)`` is one unit of work, timed by the
runner; its parameters are drawn from ``(seed, i)``.  ``record(i, result)``
keeps what the correctness check needs (untimed), and ``verify()`` checks
every recorded answer against a reference computed outside the library's
query path and returns the number of wrong answers.

Only the public API runs inside ``query``: ``repro.connect()``,
``Database.execute``, ``Database.matrix(...)...collect()``, eager
``repro.rma.*`` and ``repro.Relation`` constructors.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

import numpy as np

import repro
from repro import ParallelConfig, Relation, RmaConfig
from repro.bat.bat import BAT, DataType, date_to_int

WORKLOADS: dict[str, type] = {}

WARMUP = 1 << 40
"""Query index of warm-up queries (its parameters follow the seed too)."""


def workload(cls):
    WORKLOADS[cls.name] = cls
    return cls


def digest_columns(names, dtypes, tails, label_sample: int = 0) -> str:
    """Content hash of a relation's names, types and exact column bits.

    String columns enter through Python's (per-process salted) tuple hash,
    so digests compare only within one process — which is all the
    benchmark needs.  ``label_sample > 0`` hashes only that many evenly
    strided values of each string column (row labels), keeping the check
    of large results cheap; numeric columns are always hashed whole."""
    h = hashlib.blake2b(digest_size=16)
    for name, dtype, tail in zip(names, dtypes, tails):
        if tail.dtype == object and label_sample:
            tail = tail[::max(1, len(tail) // label_sample)]
        h.update(f"{name}\x1e{dtype}\x1e{len(tail)}\x1e".encode())
        if tail.dtype == object:
            h.update(hash(tuple(tail)).to_bytes(8, "little", signed=True))
        else:
            h.update(memoryview(np.ascontiguousarray(tail)).cast("B"))
    return h.hexdigest()


def digest(relation: Relation, label_sample: int = 0) -> str:
    return digest_columns(relation.names,
                          [c.dtype.name for c in relation.columns],
                          [c.tail for c in relation.columns], label_sample)


def fingerprint(result) -> object:
    """A comparable summary of a query's answer (relations by digest)."""
    if result is None or isinstance(result, (int, float, str)):
        return result
    if isinstance(result, Relation):
        return digest(result)
    return tuple(fingerprint(part) for part in result)


class Workload:
    """Base class: see the module docstring for the protocol."""

    name = ""
    why = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.db = None
        self.sizes: dict[str, object] = {}

    def rng(self, i: int) -> np.random.Generator:
        """The generator for query ``i``: depends only on (seed, i)."""
        return np.random.default_rng([self.seed, i])

    def scaled(self, n: int, minimum: int) -> int:
        return max(minimum, int(round(n * self.scale)))

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_reference(self) -> None:
        """Reference answers that need no loop results (untimed)."""

    def prepare_query(self, i: int):
        """Client-side work before query ``i`` (untimed); returns the
        zero-argument call the runner times."""
        return lambda: self.query(i)

    def query(self, i: int):
        raise NotImplementedError

    def record(self, i: int, result) -> None:
        raise NotImplementedError

    def verify(self) -> int:
        raise NotImplementedError


# -- olr_trips ----------------------------------------------------------------

_DEG = 0.017453292519943295  # pi / 180, the factor np.radians applies
_YEARS = (2014, 2015, 2016, 2017)
_FIRST_DAY = date_to_int(datetime.date(_YEARS[0], 1, 1))
_LAST_DAY = date_to_int(datetime.date(_YEARS[-1], 12, 31))
_WINDOW_DAYS = 2 * 365
_K_RANGE = (10, 110)  # HAVING COUNT(*) >= k, at 120k trips


def _day(value: int) -> str:
    return (datetime.date(1970, 1, 1)
            + datetime.timedelta(days=int(value))).isoformat()


def _trips_sql(low: int, high: int, k: int) -> str:
    """Fig. 15's data preparation as one statement: date-window filter,
    frequent station pairs, two joins to stations, equirectangular
    distance (as ``repro.data.bixi.station_distance_km`` computes it)."""
    dx = (f"((e.longitude - s.longitude) * {_DEG} "
          f"* COS((s.latitude + e.latitude) / 2.0 * {_DEG}))")
    dy = f"((e.latitude - s.latitude) * {_DEG})"
    span = f"DATE '{_day(low)}' AND DATE '{_day(high)}'"
    return (
        "SELECT t.trip_id AS trip_id, 1.0 AS const, "
        f"6371.0 * SQRT({dx} * {dx} + {dy} * {dy}) AS distance, "
        "t.duration * 1.0 AS duration "
        "FROM trips AS t "
        "JOIN (SELECT start_station AS fs, end_station AS fe FROM trips "
        f"WHERE start_date BETWEEN {span} "
        f"GROUP BY start_station, end_station HAVING COUNT(*) >= {k}) AS p "
        "ON t.start_station = p.fs AND t.end_station = p.fe "
        "JOIN stations AS s ON t.start_station = s.code "
        "JOIN stations AS e ON t.end_station = e.code "
        f"WHERE t.start_date BETWEEN {span}")


@dataclass
class _Window:
    """The attributes ``repro.workloads.trips_olr.engine_prepare`` reads,
    for an arbitrary date window (its own dataset type holds years)."""

    trips: Relation
    stations: Relation
    date_low: int
    date_high: int
    min_count: int


@workload
class OlrTrips(Workload):
    name = "olr_trips"
    why = ("Fig. 15 Trips OLS: SQL prep (filter, GROUP BY/HAVING, two "
           "joins) then (A'A)^-1 A'v; the relational layer does most work")
    BETA_RTOL = 1e-6

    def params(self, i: int) -> tuple[int, int, int]:
        """A two-year date window placed anywhere in the data's years
        (it always spans two seasons of trips, so queries cost about the
        same), and k."""
        rng = self.rng(i)
        low = int(rng.integers(_FIRST_DAY, _LAST_DAY - _WINDOW_DAYS))
        return low, low + _WINDOW_DAYS, int(rng.integers(*self.k_range))

    def setup(self) -> None:
        from repro.data import bixi
        n_trips = self.scaled(120_000, 2_000)
        self.stations = bixi.generate_stations(60, seed=self.seed + 1)
        self.trips = bixi.generate_trips(n_trips, self.stations,
                                         years=_YEARS, seed=self.seed + 2)
        # k scales with the trip count, so small self-test inputs keep
        # enough frequent pairs for a well-conditioned design matrix.
        low = max(2, round(_K_RANGE[0] * self.scale))
        self.k_range = (low, max(low + 1, round(_K_RANGE[1] * self.scale)))
        self.sizes = {"trips": n_trips, "stations": 60}
        self.db = repro.connect(config=RmaConfig(validate_keys=False))
        self.db.register("trips", self.trips)
        self.db.register("stations", self.stations)
        self.results: dict[int, tuple[int, list, np.ndarray]] = {}
        self.query(WARMUP)  # parse, plan, first-touch order caches

    def query(self, i: int):
        prep = self.db.execute(_trips_sql(*self.params(i)))
        a = Relation.from_columns({"trip_id": prep.column("trip_id"),
                                   "const": prep.column("const"),
                                   "distance": prep.column("distance")})
        v = Relation.from_columns({"trip_id": prep.column("trip_id"),
                                   "duration": prep.column("duration")})
        design = self.db.matrix(a, by="trip_id")
        target = self.db.matrix(v, by="trip_id")
        beta = (design.cpd(design).inv() @ design.cpd(target)).collect()
        return prep.nrows, beta

    def record(self, i: int, result) -> None:
        rows, beta = result
        self.results[i] = (rows, beta.column("C").python_values(),
                           beta.column("duration").tail.copy())

    def _engine_prepare(self, low: int, high: int, k: int) -> Relation:
        from repro.workloads.trips_olr import engine_prepare
        return engine_prepare(_Window(self.trips, self.stations, low, high,
                                      k))

    def _reference(self, low: int, high: int, k: int) -> tuple[int, np.ndarray]:
        """(rows, beta) from engine_prepare's distances over all trips,
        filtered by the window and the pair count in numpy."""
        dates = self.trips.column("start_date").tail
        pair = (self.trips.column("start_station").tail * 1_000_003
                + self.trips.column("end_station").tail)
        in_window = (dates >= low) & (dates <= high)
        codes, counts = np.unique(pair[in_window], return_counts=True)
        frequent = codes[counts >= k]
        keep = in_window & np.isin(pair, frequent)
        x = np.column_stack([np.ones(int(keep.sum())), self.distance[keep]])
        beta, *_ = np.linalg.lstsq(x, self.duration[keep], rcond=None)
        return int(keep.sum()), beta

    def prepare_reference(self) -> None:
        every = self._engine_prepare(_FIRST_DAY, _LAST_DAY, 1)
        ids = every.column("trip_id").tail  # trip_id is the row number
        self.distance = np.empty(self.trips.nrows)
        self.distance[ids] = every.column("distance").tail
        self.duration = self.trips.column("duration").tail.astype(np.float64)
        # The numpy filter must agree with engine_prepare on a window.
        low, high, k = self.params(0)
        if self._reference(low, high, k)[0] != \
                self._engine_prepare(low, high, k).nrows:
            raise AssertionError(
                "olr_trips reference disagrees with engine_prepare")

    def verify(self) -> int:
        failed = 0
        for i, (rows, labels, beta) in self.results.items():
            expected_rows, expected = self._reference(*self.params(i))
            if (rows != expected_rows
                    or labels != ["const", "distance"]
                    or not np.allclose(beta, expected,
                                       rtol=self.BETA_RTOL, atol=0.0)):
                failed += 1
        return failed


# -- ew_chain -------------------------------------------------------------------

_EW_LEAVES = 6
_EW_COLUMNS = 4


@workload
class EwChain(Workload):
    name = "ew_chain"
    why = ("Fig. 18 generalised: (c*a + b - c2) * d over 6 STR-keyed "
           "relations fuses into one serial pass of prepare alignment and "
           "BAT kernels")
    LABEL_SAMPLE = 1024

    def params(self, i: int) -> tuple[list[int], float]:
        rng = self.rng(i)
        leaves = [int(x) for x in rng.choice(_EW_LEAVES, 4, replace=False)]
        return leaves, float(rng.uniform(0.5, 2.0))

    def setup(self) -> None:
        n = self.scaled(150_000, 1_000)
        rng = np.random.default_rng([self.seed, 0xE1])
        keys = np.array([f"s{v:07d}" for v in range(n)], dtype=object)
        self.perms, self.values, relations = [], [], []
        for leaf in range(_EW_LEAVES):
            perm = rng.permutation(n)
            values = [rng.standard_normal(n) for _ in range(_EW_COLUMNS)]
            columns = {f"k{leaf}": BAT(DataType.STR, keys[perm])}
            for j, tail in enumerate(values):
                columns[f"x{j}"] = BAT(DataType.DBL, tail)
            self.perms.append(perm)
            self.values.append(values)
            relations.append(Relation.from_columns(columns))
        self.keys = keys
        self.relations = relations
        self.sizes = {"relations": _EW_LEAVES, "rows": n,
                      "dbl_columns": _EW_COLUMNS, "parallel": False}
        # Serial on purpose: with the morsel engine on (2 workers) a shared
        # 2-CPU machine spread the run-to-run medians past the bound, and
        # the engine bought no speed there.
        self.db = repro.connect(config=RmaConfig(
            validate_keys=False, parallel=ParallelConfig(enabled=False)))
        for leaf, relation in enumerate(relations):
            self.db.register(f"r{leaf}", relation)
        self.digests: dict[int, str] = {}
        # Warm-up touches every leaf once (their order caches fill).
        for leaves in ([0, 1, 2, 3], [4, 5, 0, 1]):
            self._collect(leaves, 1.5)

    def _collect(self, leaves: list[int], c: float) -> Relation:
        a, b, c2, d = (self.db.matrix(f"r{x}", by=f"k{x}") for x in leaves)
        return ((c * a + b - c2) * d).collect()

    def query(self, i: int):
        return self._collect(*self.params(i))

    def record(self, i: int, result) -> None:
        self.digests[i] = digest(result, self.LABEL_SAMPLE)

    def _oracle(self, leaves: list[int], c: float) -> str:
        """The chain in numpy: rows stay in the first leaf's storage
        order and the other leaves align to it by key (the relative sort:
        all leaves hold the same key set)."""
        first = self.perms[leaves[0]]
        aligned = [self.positions[leaf][first] for leaf in leaves[1:]]
        labels = self.keys[first[::max(1, len(first) // self.LABEL_SAMPLE)]]
        names, dtypes, tails = [], [], []
        for leaf in leaves:
            names.append(f"k{leaf}")
            dtypes.append(DataType.STR.name)
            tails.append(labels)
        va, vb, vc, vd = (self.values[x] for x in leaves)
        for j in range(_EW_COLUMNS):
            names.append(f"x{j}")
            dtypes.append(DataType.DBL.name)
            tails.append((c * va[j] + vb[j][aligned[0]] - vc[j][aligned[1]])
                         * vd[j][aligned[2]])
        return digest_columns(names, dtypes, tails, self.LABEL_SAMPLE)

    def prepare_reference(self) -> None:
        self.positions = []  # leaf -> row of each key index
        for perm in self.perms:
            position = np.empty_like(perm)
            position[perm] = np.arange(len(perm))
            self.positions.append(position)
        # The oracle must equal the eager per-operation chain, bit for bit.
        from repro.core.ops import execute_rma
        leaves, c = self.params(0)
        r = [self.relations[x] for x in leaves]
        k = [f"k{x}" for x in leaves]
        config = self.db.config
        step = execute_rma("smul", r[0], [k[0]], config=config, scalar=c)
        step = execute_rma("add", step, [k[0]], r[1], [k[1]], config=config)
        step = execute_rma("sub", step, k[:2], r[2], [k[2]], config=config)
        step = execute_rma("emu", step, k[:3], r[3], [k[3]], config=config)
        if digest(step, self.LABEL_SAMPLE) != self._oracle(leaves, c):
            raise AssertionError(
                "ew_chain oracle disagrees with the eager execute_rma chain")

    def verify(self) -> int:
        return sum(got != self._oracle(*self.params(i))
                   for i, got in self.digests.items())


# -- cov_dblp -------------------------------------------------------------------

@workload
class CovDblp(Workload):
    name = "cov_dblp"
    why = ("Fig. 17 covariance: cpd over a fresh ~150-conference "
           "projection per query; MKL copy-in/out and BLAS dominate "
           "(Fig. 14's layer)")
    RTOL = 1e-9

    def params(self, i: int) -> list[int]:
        rng = self.rng(i)
        return sorted(int(x) for x in rng.choice(self.n_confs, self.n_pick,
                                                 replace=False))

    def setup(self) -> None:
        from repro.data import dblp
        n_authors = self.scaled(20_000, 500)
        self.n_confs = self.scaled(200, 20)
        self.n_pick = max(2, self.n_confs * 3 // 4)
        publications = dblp.generate_publications(n_authors, self.n_confs,
                                                  seed=self.seed + 12)
        self.names = [n for n in publications.names if n != "author"]
        columns = {"author": publications.column("author")}
        for name in self.names:
            tail = publications.column(name).tail
            columns[name] = BAT(DataType.DBL, tail - tail.mean())
        self.centred = Relation.from_columns(columns)
        self.n_authors = n_authors
        self.sizes = {"authors": n_authors, "conferences": self.n_confs,
                      "picked": self.n_pick}
        self.db = repro.connect(config=RmaConfig(validate_keys=False))
        self.failed = 0
        self.query(WARMUP)

    def query(self, i: int):
        names = [self.names[j] for j in self.params(i)]
        projected = Relation.from_columns(
            {"author": self.centred.column("author"),
             **{name: self.centred.column(name) for name in names}})
        cm = self.db.matrix(projected, by="author")
        return (cm.cpd(cm) * (1.0 / (self.n_authors - 1))).collect()

    def prepare_reference(self) -> None:
        dense = np.column_stack([self.centred.column(n).tail
                                 for n in self.names])
        self.gram = dense.T @ dense / (self.n_authors - 1)

    def record(self, i: int, result) -> None:
        pick = self.params(i)
        names = [self.names[j] for j in pick]
        expected = self.gram[np.ix_(pick, pick)]
        got = np.column_stack([result.column(n).tail for n in names])
        scale = np.abs(expected).max()
        ok = (result.column("C").python_values() == names
              and result.names == ["C"] + names
              and np.abs(got - expected).max() <= self.RTOL * scale)
        self.failed += not ok

    def verify(self) -> int:
        return self.failed


# -- sql_session ------------------------------------------------------------------

_SQL_ROWS = 5_000
_SQL_APP = 8
_SQL_GROUPS = 50
_THRESHOLDS = (-1.0, -0.5, 0.0, 0.5, 1.0)
_WRITE_EVERY = 20


def _sql_reads() -> list[tuple[str, object]]:
    """The read catalogue: (kind, argument) pairs, 41 in all."""
    reads: list[tuple[str, object]] = [
        ("sql", "SELECT * FROM ADD(a BY id, b BY id2)"),
        ("sql", "SELECT * FROM SUB(a BY id, b BY id2)"),
        ("sql", "SELECT * FROM CPD(a BY id, b BY id2)"),
        ("sql", "SELECT * FROM MMU(a BY id, sq BY k)"),
        ("sql", "SELECT * FROM INV(sq BY k)"),
    ]
    for t in _THRESHOLDS:
        for u in _THRESHOLDS:
            reads.append(("sql", f"SELECT id, x1, x2 FROM a "
                                 f"WHERE x1 > {t} AND x2 < {u}"))
    for t in _THRESHOLDS:
        reads.append(("sql", "SELECT d.name AS name, COUNT(*) AS n, "
                             "SUM(c.v * d.w) AS s FROM c JOIN dim AS d "
                             f"ON c.g = d.g WHERE c.v > {t} GROUP BY d.name"))
    reads += [("matrix", "add"), ("matrix", "gram"), ("matrix", "inv"),
              ("matrix", "mmu"), ("eager", "inv"), ("eager", "cpd")]
    return reads


def _numeric_table(rng: np.random.Generator, key: str, n: int,
                   keys: np.ndarray) -> Relation:
    columns = {key: BAT(DataType.INT, keys)}
    for j in range(_SQL_APP):
        columns[f"x{j + 1}"] = BAT(DataType.DBL, rng.standard_normal(n))
    return Relation.from_columns(columns)


def _square_table(rng: np.random.Generator) -> Relation:
    """8 x 8, diagonally dominant so INV never fails."""
    dense = rng.standard_normal((_SQL_APP, _SQL_APP)) + 8 * np.eye(_SQL_APP)
    columns = {"k": BAT(DataType.INT, np.arange(_SQL_APP, dtype=np.int64))}
    for j in range(_SQL_APP):
        columns[f"x{j + 1}"] = BAT(DataType.DBL, dense[:, j].copy())
    return Relation.from_columns(columns)


@workload
class SqlSession(Workload):
    name = "sql_session"
    why = ("one long session of Zipf-skewed small SQL/Matrix/eager reads, "
           "every 20th op a write: per-call parse, plan and cache cost is "
           "the whole query")
    ZIPF = 1.1

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0x5E])
        n = self.scaled(_SQL_ROWS, 100)
        self.tables = {
            "a": _numeric_table(rng, "id", n,
                                rng.permutation(n).astype(np.int64)),
            "b": _numeric_table(rng, "id2", n,
                                rng.permutation(n).astype(np.int64)),
            "sq": _square_table(rng),
            "c": Relation.from_columns({
                "cid": BAT(DataType.INT, np.arange(n, dtype=np.int64)),
                "g": BAT(DataType.INT,
                         rng.integers(0, _SQL_GROUPS, n).astype(np.int64)),
                "v": BAT(DataType.DBL, rng.standard_normal(n))}),
            "dim": Relation.from_columns({
                "g": BAT(DataType.INT, np.arange(_SQL_GROUPS,
                                                 dtype=np.int64)),
                "name": BAT(DataType.STR, np.array(
                    [f"grp{g:02d}" for g in range(_SQL_GROUPS)],
                    dtype=object)),
                "w": BAT(DataType.DBL, rng.uniform(0.5, 2.0, _SQL_GROUPS))}),
        }
        self.n = n
        self.reads = _sql_reads()
        ranks = np.arange(1, len(self.reads) + 1, dtype=np.float64)
        weights = ranks ** -self.ZIPF
        self.weights = weights / weights.sum()
        # The popularity ranking is fixed (seed 0), so every seed runs
        # the same operation mix; the seed draws the stream and the data.
        self.popularity = np.random.default_rng(0).permutation(
            len(self.reads))
        self.sizes = {"rows": n, "app_columns": _SQL_APP,
                      "square": _SQL_APP, "groups": _SQL_GROUPS,
                      "distinct_reads": len(self.reads),
                      "write_every": _WRITE_EVERY}
        self.config = RmaConfig(validate_keys=False)
        self.db = self._open(plan_cache=True)
        self.digests: dict[int, str | None] = {}
        for read in self.reads:  # warm-up: every read once
            self._run_op(self.db, read)

    def _open(self, plan_cache: bool):
        db = repro.connect(config=self.config, plan_cache=plan_cache)
        for name, relation in self.tables.items():
            db.register(name, relation)
        return db

    def op(self, i: int) -> tuple[str, object]:
        """Operation ``i`` of the stream: a read or (every 20th) a write."""
        rng = self.rng(i)
        if i % _WRITE_EVERY != _WRITE_EVERY - 1:
            rank = int(rng.choice(len(self.reads), p=self.weights))
            return self.reads[self.popularity[rank]]
        kind = int(rng.integers(4))
        if kind == 0:
            return ("register", ("b", _numeric_table(
                rng, "id2", self.n, rng.permutation(self.n)
                .astype(np.int64))))
        if kind == 1:
            return ("register", ("sq", _square_table(rng)))
        return ("sql", f"INSERT INTO c VALUES ({self.n + i}, "
                       f"{int(rng.integers(_SQL_GROUPS))}, "
                       f"{float(rng.standard_normal()):.6f})")

    def _run_op(self, db, operation: tuple[str, object]):
        kind, argument = operation
        if kind == "sql":
            return db.execute(argument)
        if kind == "register":
            name, relation = argument
            db.register(name, relation)
            return None
        if kind == "matrix":
            a = db.matrix("a", by="id")
            if argument == "add":
                return (a + db.matrix("b", by="id2")).collect()
            if argument == "gram":
                return a.cpd(a).collect()
            sq = db.matrix("sq", by="k")
            if argument == "inv":
                return sq.inv().collect()
            return (a @ sq).collect()
        if argument == "inv":
            return repro.rma.inv(db.table("sq"), by="k", config=self.config)
        return repro.rma.cpd(db.table("a"), "id", db.table("b"), "id2",
                             config=self.config)

    def prepare_query(self, i: int):
        # Drawing and building the operation is the client's work; the
        # runner times only what reaches the database.
        operation = self.op(i)
        return lambda: self._run_op(self.db, operation)

    def record(self, i: int, result) -> None:
        self.digests[i] = None if result is None else digest(result)

    def verify(self) -> int:
        """Replay the stream on an uncached database with the same write
        history; every read must be bit-identical.  Reads repeated between
        two writes are computed once there (the reference is a pure
        function of the catalog state)."""
        reference = self._open(plan_cache=False)
        failed = 0
        epoch_answers: dict[tuple, str | None] = {}
        for i in range(max(self.digests) + 1 if self.digests else 0):
            operation = self.op(i)
            if i % _WRITE_EVERY == _WRITE_EVERY - 1:
                self._run_op(reference, operation)
                epoch_answers.clear()
                continue
            if operation not in epoch_answers:
                result = self._run_op(reference, operation)
                epoch_answers[operation] = None if result is None \
                    else digest(result)
            if (i in self.digests
                    and self.digests[i] != epoch_answers[operation]):
                failed += 1
        return failed
