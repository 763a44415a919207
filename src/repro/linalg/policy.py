"""Backend choice policy (paper §7.3, §8.6).

The query engine is free to run a matrix operation directly on BATs or to
copy the data into a contiguous array and delegate to MKL.  The paper's
policy, reproduced here:

* *linear* operations (``add``, ``sub``, ``emu``) run on BATs — the copy
  overhead cannot be amortized (Fig. 18b);
* complex operations are delegated to MKL (Figs. 15b/16b/17b);
* when the dense matrices would not fit in memory, fall back to the BAT
  implementation, which relies on the engine's memory management
  (Table 6's 100Mx70 row).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BackendError
from repro.linalg.bat_backend import BatBackend
from repro.linalg.mkl_backend import MklBackend
from repro.opspec import LINEAR_OPS, spec_of

DEFAULT_MEMORY_LIMIT = 4 << 30  # 4 GiB of dense doubles


@dataclass
class BackendPolicy:
    """Chooses the kernel backend per operation.

    ``prefer`` is one of ``"auto"`` (the paper's policy), ``"bat"`` or
    ``"mkl"`` (forced, as the paper workloads' RMA+BAT and RMA+MKL
    runs do).
    """

    prefer: str = "auto"
    memory_limit_bytes: int = DEFAULT_MEMORY_LIMIT
    bat: BatBackend = field(default_factory=BatBackend)
    mkl: MklBackend = field(default_factory=MklBackend)

    def __post_init__(self):
        if self.prefer not in ("auto", "bat", "mkl"):
            raise BackendError(
                f"unknown backend preference {self.prefer!r}; "
                "expected 'auto', 'bat' or 'mkl'")

    def dense_bytes(self, op: str, shape_a: tuple[int, int],
                    shape_b: tuple[int, int] | None = None) -> int:
        """Bytes of contiguous doubles the MKL path would allocate.

        ``shape_b`` is ``None`` for unary operations and for self-operand
        binary ones, whose single operand is copied in once.
        """
        a_cells = shape_a[0] * shape_a[1]
        total = a_cells
        largest = a_cells
        if shape_b is not None:
            b_cells = shape_b[0] * shape_b[1]
            total += b_cells
            largest = max(largest, b_cells)
        # Result allocation: bounded by the larger input for every operation
        # except usv, whose full U is nrows x nrows.
        if op == "usv":
            total += shape_a[0] * shape_a[0]
        else:
            total += largest
        return total * 8

    def choose(self, op: str, shape_a: tuple[int, int],
               shape_b: tuple[int, int] | None = None):
        """Return the backend instance that should run ``op``."""
        spec_of(op)  # validate the name early
        if self.prefer == "bat":
            return self.bat
        if self.prefer == "mkl":
            return self.mkl
        if op in LINEAR_OPS:
            return self.bat
        if self.dense_bytes(op, shape_a, shape_b) > self.memory_limit_bytes:
            return self.bat
        return self.mkl
