"""The MADlib baseline (Hellerstein et al., VLDB 2012).

MADlib is a UDF library over PostgreSQL: a row store whose matrix
operations run as single-threaded UDFs over tables in a special format —
"one attribute with a row id value and another array-valued attribute for
matrix rows" (§2).  Its performance profile in the paper (slowest system in
every figure, omitted from two charts) comes from exactly that: per-row
interpreted execution with no vectorization and no parallelism.  The row
store and UDFs below are honest pure-python implementations with the same
structure.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ReproError


class MadlibDatabase:
    """A miniature row-store: tables are lists of python tuples."""

    def __init__(self):
        self.tables: dict[str, list[tuple]] = {}
        self.schemas: dict[str, list[str]] = {}

    def create(self, name: str, columns: Sequence[str],
               rows: Iterable[Sequence[Any]]) -> None:
        self.schemas[name] = list(columns)
        self.tables[name] = [tuple(row) for row in rows]

    @classmethod
    def from_relations(cls, **relations) -> "MadlibDatabase":
        db = cls()
        for name, relation in relations.items():
            db.create(name, relation.names, relation.to_rows())
        return db

    def rows(self, name: str) -> list[tuple]:
        if name not in self.tables:
            raise ReproError(f"unknown table {name!r}")
        return self.tables[name]

    def column_index(self, table: str, column: str) -> int:
        return self.schemas[table].index(column)

    # -- row-at-a-time relational operators ----------------------------------

    def select(self, table: str,
               predicate: Callable[[tuple], bool]) -> list[tuple]:
        return [row for row in self.rows(table) if predicate(row)]

    def join(self, left: str, right: str, left_col: str,
             right_col: str) -> list[tuple]:
        li = self.column_index(left, left_col)
        ri = self.column_index(right, right_col)
        index: dict[Any, list[tuple]] = {}
        for row in self.rows(right):
            index.setdefault(row[ri], []).append(row)
        out = []
        for row in self.rows(left):
            for match in index.get(row[li], ()):
                out.append(row + match)
        return out

    def group_count(self, table: str,
                    key: Callable[[tuple], Any]) -> dict[Any, int]:
        counts: dict[Any, int] = {}
        for row in self.rows(table):
            k = key(row)
            counts[k] = counts.get(k, 0) + 1
        return counts

    # -- the MADlib matrix format ----------------------------------------------

    def create_matrix(self, name: str,
                      rows: Iterable[Sequence[float]]) -> None:
        """Store a matrix as (row_id, array) rows — MADlib's input format."""
        self.create(name, ["row_id", "row_vec"],
                    [(i, list(map(float, row)))
                     for i, row in enumerate(rows)])

    def matrix_rows(self, name: str) -> list[list[float]]:
        ordered = sorted(self.rows(name), key=lambda r: r[0])
        return [row[1] for row in ordered]


# -- UDF-style matrix operations (single-threaded, interpreted) ----------------

def matrix_add(a: list[list[float]], b: list[list[float]]) \
        -> list[list[float]]:
    """madlib.matrix_add: per-element python loop."""
    if len(a) != len(b):
        raise ReproError("matrix_add: row count mismatch")
    out = []
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            raise ReproError("matrix_add: column count mismatch")
        out.append([x + y for x, y in zip(ra, rb)])
    return out


def matrix_mult(a: list[list[float]], b: list[list[float]]) \
        -> list[list[float]]:
    """madlib.matrix_mult: triple python loop."""
    if not a or not b or len(a[0]) != len(b):
        raise ReproError("matrix_mult: dimension mismatch")
    k = len(b)
    m = len(b[0])
    out = []
    for row in a:
        acc = [0.0] * m
        for p in range(k):
            v = row[p]
            if v != 0.0:
                brow = b[p]
                for j in range(m):
                    acc[j] += v * brow[j]
        out.append(acc)
    return out


def matrix_inverse(a: list[list[float]]) -> list[list[float]]:
    """Gauss-Jordan in pure python (what a C-less UDF costs)."""
    n = len(a)
    work = [list(map(float, row)) + [1.0 if i == j else 0.0
                                     for j in range(n)]
            for i, row in enumerate(a)]
    for i in range(n):
        pivot_row = max(range(i, n), key=lambda r: abs(work[r][i]))
        if abs(work[pivot_row][i]) < 1e-12:
            raise ReproError("matrix_inverse: singular matrix")
        work[i], work[pivot_row] = work[pivot_row], work[i]
        pivot = work[i][i]
        work[i] = [v / pivot for v in work[i]]
        for r in range(n):
            if r != i and work[r][i] != 0.0:
                factor = work[r][i]
                work[r] = [v - factor * w for v, w in zip(work[r],
                                                          work[i])]
    return [row[n:] for row in work]


def linregr_train(x: list[list[float]], y: list[float]) -> list[float]:
    """madlib.linregr_train: normal equations, accumulated row by row."""
    if len(x) != len(y):
        raise ReproError("linregr_train: X and y length mismatch")
    k = len(x[0])
    xtx = [[0.0] * k for _ in range(k)]
    xty = [0.0] * k
    for row, target in zip(x, y):
        for i in range(k):
            vi = row[i]
            if vi == 0.0:
                continue
            xty[i] += vi * target
            xtx_i = xtx[i]
            for j in range(k):
                xtx_i[j] += vi * row[j]
    inverse = matrix_inverse(xtx)
    return [sum(inverse[i][j] * xty[j] for j in range(k))
            for i in range(k)]


def covariance(x: list[list[float]]) -> list[list[float]]:
    """madlib-style covariance: means then centered cross products."""
    n = len(x)
    if n < 2:
        raise ReproError("covariance needs at least two rows")
    k = len(x[0])
    means = [0.0] * k
    for row in x:
        for j in range(k):
            means[j] += row[j]
    means = [m / n for m in means]
    cov = [[0.0] * k for _ in range(k)]
    for row in x:
        centered = [row[j] - means[j] for j in range(k)]
        for i in range(k):
            ci = centered[i]
            if ci == 0.0:
                continue
            cov_i = cov[i]
            for j in range(k):
                cov_i[j] += ci * centered[j]
    scale = 1.0 / (n - 1)
    return [[v * scale for v in row] for row in cov]
