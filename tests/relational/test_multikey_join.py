"""Composite keys through the merge join's entry point.

``merge_join_positions`` binary-searches single sorted keys only; a
composite key, sorted or not, takes the hash path and must produce its
position pairs exactly."""

import numpy as np
import pytest

from repro.bat.bat import BAT, DataType
from repro.relational.joins import join_positions, merge_join_positions


def lex_sorted_pair(n: int, seed: int, majors: int = 20,
                    minors: int = 5) -> list[BAT]:
    rng = np.random.default_rng(seed)
    major = np.sort(rng.integers(0, majors, n))
    minor = np.concatenate([
        np.sort(rng.integers(0, minors, int(np.sum(major == v))))
        for v in np.unique(major)]) if n else np.empty(0, dtype=np.int64)
    return [BAT(DataType.INT, major.astype(np.int64)),
            BAT(DataType.INT, minor.astype(np.int64))]


def assert_same(a, b):
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


class TestMultiKeyMerge:
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_matches_hash_path(self, how):
        left = lex_sorted_pair(300, seed=1)
        right = lex_sorted_pair(250, seed=2)
        assert_same(join_positions(left, right, how),
                    merge_join_positions(left, right, how))

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_disjoint_and_empty_sides(self, how):
        left = lex_sorted_pair(50, seed=3)
        empty = [BAT(DataType.INT, np.empty(0, dtype=np.int64)),
                 BAT(DataType.INT, np.empty(0, dtype=np.int64))]
        assert_same(join_positions(left, empty, how),
                    merge_join_positions(left, empty, how))

    def test_three_key_composite(self):
        rng = np.random.default_rng(4)
        n = 200

        def keys(seed):
            r = np.random.default_rng(seed)
            rows = sorted(tuple(r.integers(0, 4, 3)) for _ in range(n))
            cols = np.array(rows, dtype=np.int64)
            return [BAT(DataType.INT, np.ascontiguousarray(cols[:, i]))
                    for i in range(3)]

        left, right = keys(5), keys(6)
        assert_same(join_positions(left, right, "inner"),
                    merge_join_positions(left, right, "inner"))

    def test_mixed_int_dbl_composite(self):
        major = np.array([0, 0, 1, 1], dtype=np.int64)
        left = [BAT(DataType.INT, major),
                BAT(DataType.DBL, np.array([0.5, 1.5, 0.0, 2.0]))]
        sorted_right = [BAT(DataType.INT, major),
                        BAT(DataType.DBL, np.array([1.5, 2.5, 0.0, 0.5]))]
        assert_same(join_positions(left, sorted_right, "inner"),
                    merge_join_positions(left, sorted_right, "inner"))
        # Minor decreasing inside the second tie group.
        bad_right = [BAT(DataType.INT, major),
                     BAT(DataType.DBL, np.array([1.5, 2.5, 0.5, 0.0]))]
        assert_same(join_positions(left, bad_right, "inner"),
                    merge_join_positions(left, bad_right, "inner"))

    def test_unsorted_falls_back_to_hash(self):
        left = lex_sorted_pair(100, seed=7)
        shuffled = [BAT(DataType.INT,
                        np.random.default_rng(8).permutation(80)
                        .astype(np.int64)),
                    BAT(DataType.INT,
                        np.random.default_rng(9).integers(0, 5, 80)
                        .astype(np.int64))]
        assert_same(join_positions(left, shuffled, "inner"),
                    merge_join_positions(left, shuffled, "inner"))

    def test_str_keys_stay_on_hash_path(self):
        left = [BAT(DataType.STR, np.array(["a", "b"], dtype=object)),
                BAT(DataType.INT, np.array([1, 2], dtype=np.int64))]
        right = [BAT(DataType.STR, np.array(["a", "b"], dtype=object)),
                 BAT(DataType.INT, np.array([1, 2], dtype=np.int64))]
        assert_same(join_positions(left, right, "inner"),
                    merge_join_positions(left, right, "inner"))

    def test_duplicate_heavy_groups(self):
        # All-equal keys: the full cross product must match.
        left = [BAT(DataType.INT, np.zeros(4, dtype=np.int64)),
                BAT(DataType.INT, np.zeros(4, dtype=np.int64))]
        right = [BAT(DataType.INT, np.zeros(3, dtype=np.int64)),
                 BAT(DataType.INT, np.zeros(3, dtype=np.int64))]
        lpos, rpos = merge_join_positions(left, right, "inner")
        assert len(lpos) == 12
        assert_same(join_positions(left, right, "inner"), (lpos, rpos))
