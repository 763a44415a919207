"""GROUP BY and join over evaluated keys: a window that keeps few rows.

A GROUP BY and a join over a filtered scan's nil-free INT columns gather
their key codes from the base (:func:`repro.relational.joins.base_codes`)
only while the rows keep at least ``1 / DENSE_SPAN_FACTOR`` of the base
rows.  Below that, :meth:`~repro.plan.frame.Frame.base_codes` declines:
the GROUP BY codes its evaluated keys itself, and the join codes both
sides with :func:`~repro.relational.joins.encode_keys`.  Rows, row order
and bits equal the uncached session (``connect(plan_cache=False)``) and
the unoptimized run, serially and on the morsel engine with 1-row
morsels, cold and warm.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.relational.joins as rel_join
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.plan import frame as plan_frame
from repro.relational.relation import Relation

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1

SERIAL = RmaConfig()
PARALLEL = RmaConfig(parallel=ParallelConfig(enabled=True, workers=4,
                                             min_morsel_rows=1))
CONFIGS = pytest.mark.parametrize("config", [SERIAL, PARALLEL],
                                  ids=["serial", "parallel"])

DAYS = 40
"""Row ``i`` of a fact table falls on day ``i % DAYS``, so a window of
``w`` days keeps ``w / DAYS`` of the rows: below a quarter for ``w < 10``
(``statement``'s ``width`` below 9)."""
FIRST = dt.date(2016, 1, 1)


def fact_table(a: list[int], b: list[int], x: list[float]) -> Relation:
    n = len(a)
    days = np.arange(n, dtype=np.int64) % DAYS
    return Relation.from_columns({
        "a": BAT(DataType.INT, np.array(a, dtype=np.int64)),
        "b": BAT(DataType.INT, np.array(b, dtype=np.int64)),
        "d": BAT.from_values([FIRST + dt.timedelta(days=int(day))
                              for day in days], DataType.DATE),
        "x": BAT(DataType.DBL, np.array(x, dtype=np.float64)),
    })


def statement(keys: tuple[str, ...], kind: str, low: int, width: int,
              k: int) -> str:
    """Fig. 15's pair join over the ``width + 1`` days from ``low``: the
    groups of ``keys`` with at least ``k`` rows, joined back to the
    window's rows on the keys."""
    span = (f"BETWEEN DATE '{FIRST + dt.timedelta(days=low)}' "
            f"AND DATE '{FIRST + dt.timedelta(days=low + width)}'")
    groups = ", ".join(f"{key} AS g{i}" for i, key in enumerate(keys))
    on = " AND ".join(f"f.{key} = p.g{i}" for i, key in enumerate(keys))
    return (f"SELECT f.x AS x, f.a AS a, p.n AS n, p.sx AS sx FROM f "
            f"{kind} (SELECT {groups}, COUNT(*) AS n, SUM(x) AS sx FROM f "
            f"WHERE d {span} GROUP BY {', '.join(keys)} "
            f"HAVING COUNT(*) >= {k}) AS p ON {on} WHERE f.d {span}")


def sessions(fact: Relation, config: RmaConfig):
    """A caching session and its uncached reference over ``fact``."""
    pair = (repro.connect(config=config),
            repro.connect(config=config, plan_cache=False))
    for db in pair:
        db.register("f", fact)
    return pair


def bits(relation: Relation) -> tuple:
    """Names, types and exact column bits, in row order."""
    return (tuple(relation.names),
            tuple(c.dtype for c in relation.columns),
            tuple(c.tail.tobytes() for c in relation.columns))


@pytest.fixture
def key_paths(monkeypatch):
    """What each GROUP BY and join was handed: whether
    ``Frame.base_codes`` coded the keys, whether a join probed with
    ``left_codes``, and whether ``encode_keys`` coded a right side."""
    seen = {"base_codes": [], "left_codes": [], "encoded_pairs": 0}
    base_codes = plan_frame.Frame.base_codes
    join_positions = rel_join.join_positions
    encode_keys = rel_join.encode_keys

    def spy_base_codes(self, *args, **kwargs):
        coded = base_codes(self, *args, **kwargs)
        seen["base_codes"].append(coded is not None)
        return coded

    def spy_join(*args, **kwargs):
        seen["left_codes"].append(kwargs.get("left_codes") is not None)
        return join_positions(*args, **kwargs)

    def spy_encode(left, right=None):
        seen["encoded_pairs"] += right is not None
        return encode_keys(left, right)

    monkeypatch.setattr(plan_frame.Frame, "base_codes", spy_base_codes)
    monkeypatch.setattr(rel_join, "join_positions", spy_join)
    monkeypatch.setattr(rel_join, "encode_keys", spy_encode)
    return seen


class TestSelectiveWindow:
    @staticmethod
    def fact() -> Relation:
        rng = np.random.default_rng(5)
        n = 50 * DAYS
        return fact_table(rng.integers(0, 6, n).tolist(),
                          rng.integers(-3, 3, n).tolist(),
                          (rng.integers(-8, 9, n) / 2).tolist())

    @CONFIGS
    @pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
    def test_keys_are_evaluated_below_a_quarter(self, config, kind,
                                                key_paths,
                                                run_unoptimized):
        fact = self.fact()
        db, reference = sessions(fact, config)
        for low, width, k in [(0, 5, 2), (3, 8, 3), (20, 2, 1), (31, 8, 4)]:
            sql = statement(("a", "b"), kind, low, width, k)
            for counter in ("base_codes", "left_codes"):
                key_paths[counter].clear()
            key_paths["encoded_pairs"] = 0
            out = db.execute(sql)
            # Two declined codings (GROUP BY, join) and one join probing
            # the evaluated keys of both sides.
            assert key_paths["base_codes"] == [False, False]
            assert key_paths["left_codes"] == [False]
            assert key_paths["encoded_pairs"] == 1
            assert out.nrows > 0
            assert bits(out) == bits(reference.execute(sql))
            assert bits(out) == bits(run_unoptimized(db, sql))

    def test_a_wide_window_gathers_base_codes(self, key_paths):
        db, reference = sessions(self.fact(), SERIAL)
        sql = statement(("a", "b"), "JOIN", 0, 19, 2)
        out = db.execute(sql)
        assert key_paths["base_codes"] == [True, True]
        assert key_paths["left_codes"] == [True]
        assert bits(out) == bits(reference.execute(sql))


@st.composite
def fact_tables(draw):
    """A fact table of 1-6 rows per day over ``DAYS`` days, nil-free INT
    keys ``a`` in [0, 5] and ``b`` in [-3, 2]."""
    n = DAYS * draw(st.integers(1, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return fact_table(column(st.integers(0, 5)), column(st.integers(-3, 2)),
                      column(st.integers(-8, 8).map(lambda v: v / 2)))


@settings(max_examples=25 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fact=fact_tables(),
       keys=st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "a")]),
       kind=st.sampled_from(["JOIN", "LEFT JOIN"]),
       windows=st.lists(st.tuples(st.integers(0, DAYS - 10),
                                  st.integers(0, 8), st.integers(1, 3)),
                        min_size=3, max_size=4),
       parallel=st.booleans())
def test_random_selective_windows_match_references(fact, keys, kind,
                                                   windows, parallel,
                                                   run_unoptimized):
    config = PARALLEL if parallel else SERIAL
    db, reference = sessions(fact, config)
    for low, width, k in windows:
        sql = statement(keys, kind, low, width, k)
        out = db.execute(sql)
        assert bits(out) == bits(reference.execute(sql))
        assert bits(out) == bits(run_unoptimized(db, sql))
