"""Tests for the MADlib baseline (row store + UDF matrix operations)."""

import numpy as np
import pytest

from repro.baselines.madlib import (
    MadlibDatabase,
    covariance,
    linregr_train,
    matrix_add,
    matrix_inverse,
    matrix_mult,
)
from repro.errors import ReproError


class TestRowStore:
    def test_create_and_rows(self):
        db = MadlibDatabase()
        db.create("t", ["a", "b"], [(1, "x"), (2, "y")])
        assert db.rows("t") == [(1, "x"), (2, "y")]
        assert db.column_index("t", "b") == 1

    def test_from_relations(self, users):
        db = MadlibDatabase.from_relations(u=users)
        assert len(db.rows("u")) == 3

    def test_unknown_table(self):
        with pytest.raises(ReproError):
            MadlibDatabase().rows("nope")

    def test_select(self, users):
        db = MadlibDatabase.from_relations(u=users)
        out = db.select("u", lambda row: row[1] == "CA")
        assert len(out) == 2

    def test_join(self, users, ratings):
        db = MadlibDatabase.from_relations(u=users, r=ratings)
        out = db.join("u", "r", "User", "User")
        assert len(out) == 3
        assert len(out[0]) == 3 + 4

    def test_group_count(self, users):
        db = MadlibDatabase.from_relations(u=users)
        counts = db.group_count("u", lambda row: row[1])
        assert counts == {"CA": 2, "FL": 1}

    def test_matrix_format(self):
        db = MadlibDatabase()
        db.create_matrix("m", [[1.0, 2.0], [3.0, 4.0]])
        assert db.matrix_rows("m") == [[1.0, 2.0], [3.0, 4.0]]


class TestUdfs:
    def test_matrix_add(self):
        out = matrix_add([[1.0, 2.0]], [[10.0, 20.0]])
        assert out == [[11.0, 22.0]]

    def test_matrix_add_mismatch(self):
        with pytest.raises(ReproError):
            matrix_add([[1.0]], [[1.0], [2.0]])

    def test_matrix_mult_matches_numpy(self, rng):
        a = rng.normal(size=(4, 3)).tolist()
        b = rng.normal(size=(3, 5)).tolist()
        assert np.allclose(matrix_mult(a, b),
                           np.array(a) @ np.array(b))

    def test_matrix_inverse_matches_numpy(self, rng):
        a = (rng.normal(size=(4, 4)) + 4 * np.eye(4)).tolist()
        assert np.allclose(matrix_inverse(a), np.linalg.inv(a),
                           atol=1e-10)

    def test_matrix_inverse_singular(self):
        with pytest.raises(ReproError):
            matrix_inverse([[1.0, 1.0], [1.0, 1.0]])

    def test_linregr_matches_numpy(self, rng):
        x = np.column_stack([np.ones(50), rng.normal(size=50)])
        beta_true = np.array([2.0, 3.0])
        y = x @ beta_true + rng.normal(scale=0.01, size=50)
        beta = linregr_train(x.tolist(), y.tolist())
        assert np.allclose(beta, beta_true, atol=0.05)

    def test_covariance_matches_numpy(self, rng):
        data = rng.normal(size=(30, 4))
        expected = np.cov(data, rowvar=False)
        assert np.allclose(covariance(data.tolist()), expected)

    def test_covariance_needs_rows(self):
        with pytest.raises(ReproError):
            covariance([[1.0, 2.0]])
