"""Shared workload plumbing: phase timing and result records."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class PhaseTimes:
    """Per-phase wall-clock seconds, matching the paper's stacked bars:
    solid = data preparation (relational), dashed = matrix computation,
    dark = load (R's CSV ingest)."""

    load: float = 0.0
    prep: float = 0.0
    matrix: float = 0.0

    @property
    def total(self) -> float:
        return self.load + self.prep + self.matrix

    @contextmanager
    def measure(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            setattr(self, phase, getattr(self, phase) + elapsed)


@dataclass
class WorkloadResult:
    """Outcome of one workload run on one system."""

    system: str
    times: PhaseTimes
    signature: Any = None
    detail: dict = field(default_factory=dict)

    def agrees_with(self, other: "WorkloadResult",
                    rtol: float = 1e-6, atol: float = 1e-8) -> bool:
        """Numeric agreement of signatures across systems."""
        a = np.asarray(self.signature, dtype=np.float64)
        b = np.asarray(other.signature, dtype=np.float64)
        if a.shape != b.shape:
            return False
        return bool(np.allclose(a, b, rtol=rtol, atol=atol))
