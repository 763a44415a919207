"""Tests of the benchmark harness: table structure, the claim lines, and
the paper claims that held in every one of 10 runs at this scale, serially
and on the morsel-parallel engine."""

import pytest

from repro.api import connect
from repro.bench import harness
from repro.bench.harness import CONNECT, EXPERIMENTS, run_all, run_experiment
from repro.bench.reporting import ExperimentResult
from repro.core import RmaConfig
from repro.core.ops import execute_rma
from repro.data.synthetic import uniform_pair
from repro.errors import ReproError

SCALE = 0.02

# Claims (by their opening words) that held in 10 of 10 runs of every
# experiment at SCALE on a shared 2-CPU x86 host, serially and with
# REPRO_PARALLEL=1 and 1-row morsels.  The others are printed by the
# experiments only; CHANGES.md lists the ones that fail.
HOLDING = [
    ("fig13a", "qqr: skipping the sort beats sorting at every point "
               "(engine)"),
    ("fig13b", "qqr: skipping the sort beats sorting at every point "
               "(engine)"),
    ("table6", "R fails above its memory budget"),
    ("table7", "RMA+, RMA+ via connect() and SciDB select the same rows"),
    ("fig14", "R: transformation dominates ADD"),
    ("fig14", "RMA+: transformation dominates ADD"),
    ("fig14", "transformation is minor for complex ops"),
    ("fig15", "all systems compute the same answer"),
    ("fig15", "RMA+ and AIDA beat R and MADlib"),
    ("fig15", "RMA+ beats AIDA"),
    ("fig16", "all systems compute the same answer"),
    ("fig16", "numeric-only data: AIDA's prep is comparable"),
    ("fig16", "R's merge-based prep is slower than AIDA's"),
    ("fig16", "MADlib is slowest"),
    ("fig17", "all systems compute the same answer"),
    ("fig18", "all systems compute the same answer"),
    ("fig18", "MADlib (row loops) is > 3x slower than RMA+BAT"),
]


@pytest.fixture(scope="module")
def results():
    """Every experiment, run once at tiny scale, shared by the tests."""
    return {name: run_experiment(name, scale=SCALE) for name in EXPERIMENTS}


def claim(result, opening):
    """(holds, measured) of the one claim of ``result`` opening with
    ``opening``."""
    [found] = [(holds, measured) for text, holds, measured in result.claims
               if text.startswith(opening)]
    return found


class TestReporting:
    def test_render_contains_headers_and_rows(self):
        result = ExperimentResult("t1", "demo", ["a", "b"])
        result.add_row(a=1, b=0.5)
        result.add_row(a=2, b=None)
        result.note("a note")
        text = result.render()
        assert "t1: demo" in text
        assert "a note" in text
        assert "-" in text  # None renders as '-'

    def test_render_prints_one_line_per_claim(self):
        result = ExperimentResult("t", "t", ["x"])
        result.check("x wins", True, "2.0x")
        result.check("y wins", 0, "0.5x")
        lines = result.render().splitlines()
        assert "claim PASS: x wins (2.0x)" in lines
        assert "claim FAIL: y wins (0.5x)" in lines
        assert result.claims[1] == ("y wins", False, "0.5x")

    def test_number_formatting(self):
        result = ExperimentResult("t", "t", ["x"])
        result.add_row(x=1234.5)
        result.add_row(x=0.00123)
        text = result.render()
        assert "1234" in text or "1235" in text
        assert "0.0012" in text

    def test_column_access(self):
        result = ExperimentResult("t", "t", ["x"])
        result.add_row(x=1)
        result.add_row(x=2)
        assert result.column("x") == [1, 2]


class TestHarness:
    def test_registry_covers_every_table_and_figure(self):
        expected = {"fig13a", "fig13b", "table4", "table5", "table6",
                    "table7", "fig14", "fig15", "fig16", "fig17",
                    "fig18"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ReproError):
            run_experiment("fig99")

    def test_run_all_warms_up_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_global_warmup",
                            lambda: calls.append("warmup"))
        monkeypatch.setattr(harness, "EXPERIMENTS", {
            "a": lambda scale: calls.append(("a", scale)),
            "b": lambda scale: calls.append(("b", scale))})
        run_all(scale=0.5)
        assert calls[0] == "warmup"
        assert [c for c in calls if c != "warmup"] == [("a", 0.5),
                                                       ("b", 0.5)]

    def test_every_experiment_renders_a_claim(self, results):
        for name, result in results.items():
            assert result.claims, name
            assert any(line.startswith(("claim PASS: ", "claim FAIL: "))
                       for line in result.render().splitlines()), name

    @pytest.mark.parametrize("name,engine", [
        ("fig13a", ["add", "add relative sorting", "qqr",
                    "qqr w/o sorting"]),
        ("fig13b", ["add", "add relative sorting", "qqr",
                    "qqr w/o sorting"]),
        ("table4", ["seconds"]),
        ("table5", ["seconds"]),
        ("table6", ["RMA+"]),
        ("table7", ["RMA+"])])
    def test_rma_tables_time_engine_and_connect(self, results, name,
                                                engine):
        result = results[name]
        for column in engine:
            for timed in (column, column + CONNECT):
                assert timed in result.headers
                assert all(s > 0 for s in result.column(timed)), timed

    @pytest.mark.parametrize("name,opening", HOLDING)
    def test_claim_holds(self, results, name, opening):
        holds, measured = claim(results[name], opening)
        assert holds, measured

    def test_table4_structure(self, results):
        result = results["table4"]
        assert result.headers == ["#attrs", "seconds", "seconds connect()"]
        assert len(result.rows) == 6

    def test_table4_grows_with_width(self, results):
        for column in ("seconds", "seconds connect()"):
            seconds = results["table4"].column(column)
            assert seconds[-1] > seconds[0]

    def test_table4_adds_2000_attributes(self):
        # Table 4's claim that the engine handles thousands of columns.
        r, s = uniform_pair(200, 2_000, seed=4)
        config = RmaConfig(validate_keys=False)
        engine = execute_rma("add", r, "id1", s, "id2", config=config)
        db = connect(config=config)
        api = (db.matrix(r, by="id1") + db.matrix(s, by="id2")).collect()
        for out in (engine, api):
            assert len(out.names) == 2_002
            assert out.nrows == 200
        assert (api.column("x1999").tail
                == engine.column("x1999").tail).all()

    def test_table6_r_fails_rma_survives(self, results):
        result = results["table6"]
        assert any(v is None for v in result.column("R"))
        assert all(v is not None for v in result.column("RMA+"))
        backends = result.column("RMA+ backend")
        assert "bat" in backends and "mkl" in backends

    def test_table7_scidb_slower(self, results):
        ratios = results["table7"].column("SciDB/RMA+")
        assert ratios[-1] > 1.0

    def test_fig13_qqr_optimized_flat(self, results):
        result = results["fig13a"]
        optimized = result.column("qqr w/o sorting")
        full = result.column("qqr")
        # optimized beats full sorting at every sweep point
        assert all(o < f for o, f in zip(optimized, full))
