"""Matrix kernels over column lists, with two interchangeable backends.

A matrix is represented as a list of aligned float64 numpy columns — the
application part of a relation viewed column-wise, exactly as the BATs hold
it.  Two backends compute the base results:

* :class:`~repro.linalg.bat_backend.BatBackend` — no-copy algorithms written
  as whole-column operations (the paper's Alg. 2 style);
* :class:`~repro.linalg.mkl_backend.MklBackend` — copies columns to a
  contiguous dense array, delegates to numpy/LAPACK (the paper's MKL path),
  and copies the result back; all three phases are instrumented.

:class:`~repro.linalg.policy.BackendPolicy` chooses between them per
operation, as §7.3/§8.6 describe.  :mod:`repro.linalg.kernels` runs a
kernel program — one operation or a fused element-wise chain — through
one step function: scalar steps are numpy ufuncs, every other step calls
the chosen backend's ``compute``, over whole columns or per morsel.
"""

from repro.linalg.matrix import Columns, ncols, nrows
from repro.linalg.bat_backend import BatBackend
from repro.linalg.mkl_backend import MklBackend
from repro.linalg.transform import TransformStats, from_dense, to_dense
from repro.linalg.policy import BackendPolicy

__all__ = [
    "Columns",
    "nrows",
    "ncols",
    "BatBackend",
    "MklBackend",
    "TransformStats",
    "to_dense",
    "from_dense",
    "BackendPolicy",
]
