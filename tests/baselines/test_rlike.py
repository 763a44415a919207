"""Tests for the R (data.table + matrix) baseline."""

import numpy as np
import pytest

from repro.baselines.rlike import (
    RFrame,
    as_character_matrix,
    as_matrix,
    character_matrix_join,
    matrix_to_frame,
    read_csv_r,
)
from repro.errors import ReproError
from repro.relational import Relation


@pytest.fixture
def frame():
    return RFrame({"k": np.array([1, 2, 2, 3]),
                   "v": np.array([10.0, 20.0, 30.0, 40.0]),
                   "name": np.array(["a", "b", "c", "d"], dtype=object)})


class TestRFrame:
    def test_basic(self, frame):
        assert len(frame) == 4
        assert frame.names == ["k", "v", "name"]

    def test_misaligned_rejected(self):
        with pytest.raises(ReproError):
            RFrame({"a": np.array([1]), "b": np.array([1, 2])})

    def test_from_relation(self, users):
        frame = RFrame.from_relation(users)
        assert frame.names == ["User", "State", "YoB"]
        assert frame["YoB"].dtype == np.int64

    def test_subset(self, frame):
        out = frame.subset(frame["k"] == 2)
        assert list(out["v"]) == [20.0, 30.0]

    def test_with_column_copies(self, frame):
        out = frame.with_column("w", frame["v"] * 2)
        assert "w" in out.names
        assert "w" not in frame.names

    def test_order_by(self, frame):
        out = frame.order_by("v")
        assert list(out["v"]) == [10.0, 20.0, 30.0, 40.0]

    def test_aggregate(self, frame):
        out = frame.aggregate(["k"], {"s": ("sum", "v"),
                                      "n": ("count", "*"),
                                      "m": ("mean", "v")})
        rows = {k: (s, n, m) for k, s, n, m in zip(
            out["k"], out["s"], out["n"], out["m"])}
        assert rows[2] == (50.0, 2, 25.0)

    def test_aggregate_min_max(self, frame):
        out = frame.aggregate(["k"], {"lo": ("min", "v"),
                                      "hi": ("max", "v")})
        rows = {k: (lo, hi) for k, lo, hi in zip(out["k"], out["lo"],
                                                 out["hi"])}
        assert rows[2] == (20.0, 30.0)

    def test_merge_matches_engine_join(self, frame):
        other = RFrame({"k": np.array([2, 3, 9]),
                        "tag": np.array(["x", "y", "z"], dtype=object)})
        out = frame.merge(other, ["k"])
        assert sorted(zip(out["k"], out["tag"])) == [
            (2, "x"), (2, "x"), (3, "y")]

    def test_merge_suffix_on_collision(self):
        a = RFrame({"k": np.array([1]), "v": np.array([1.0])})
        b = RFrame({"k": np.array([1]), "v": np.array([2.0])})
        out = a.merge(b, ["k"])
        assert "v_y" in out.names

    def test_apply_rows(self, frame):
        out = frame.apply_rows(lambda v: v * 10, ["v"], "v10")
        assert list(out["v10"]) == [100.0, 200.0, 300.0, 400.0]


class TestMatrixConversion:
    def test_as_matrix(self, frame):
        timings = {}
        m = as_matrix(frame, ["k", "v"], timings)
        assert m.shape == (4, 2)
        assert timings["to_matrix"] > 0

    def test_as_matrix_rejects_strings(self, frame):
        with pytest.raises(ReproError):
            as_matrix(frame, ["name"])

    def test_matrix_to_frame_roundtrip(self, frame):
        m = as_matrix(frame, ["k", "v"])
        back = matrix_to_frame(m, ["k", "v"])
        assert np.allclose(back["v"], frame["v"])

    def test_character_matrix(self, frame):
        cm = as_character_matrix(frame)
        assert cm.dtype == object
        assert cm[0, 2] == "a"
        assert cm[0, 0] == "1"  # everything becomes a string

    def test_character_matrix_join(self):
        left = np.array([["1", "x"], ["2", "y"]], dtype=object)
        right = np.array([["1", "L"], ["3", "M"]], dtype=object)
        out = character_matrix_join(left, 0, right, 0)
        assert out.shape == (1, 3)
        assert list(out[0]) == ["1", "x", "L"]

    def test_character_matrix_join_empty(self):
        left = np.array([["1", "x"]], dtype=object)
        right = np.array([["9", "L"]], dtype=object)
        assert character_matrix_join(left, 0, right, 0).shape[0] == 0


class TestCsvLoader:
    def test_read_csv_r(self, tmp_path, users):
        from repro.relational import write_csv
        path = tmp_path / "u.csv"
        write_csv(users, path)
        frame = read_csv_r(path)
        assert frame.names == ["User", "State", "YoB"]
        assert frame["YoB"].dtype == np.float64  # R reads numerics as dbl
        assert frame["User"].dtype == object
