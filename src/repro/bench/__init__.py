"""Benchmark harness: regenerates every table and figure of §8.

``python -m repro.bench <experiment> [--scale S]`` prints a paper-style
table for any of: fig13a, fig13b, table4, table5, table6, table7, fig14,
fig15, fig16, fig17, fig18, or ``all``.  Each table ends with the paper's
claims about it, one ``claim PASS|FAIL: <text> (<measured>)`` line each.
"""

from repro.bench.reporting import ExperimentResult
from repro.bench import harness

__all__ = ["ExperimentResult", "harness"]
