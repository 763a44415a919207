"""Derived workload results start with a warm order cache.

The bit-identity of the four workloads' pipelines against their eager
references lives in ``tests/api/test_api_equivalence.py``
(``TestWorkloadsAcrossSurfaces``).
"""

import repro
from repro.workloads.trip_count import make_dataset


class TestTripCountAdd:
    def test_derived_result_starts_warm(self):
        dataset = make_dataset(500)
        db = repro.connect()
        result = (db.matrix(dataset.year1, by=dataset.key1)
                  + db.matrix(dataset.year2, by=dataset.key2)).collect()
        info = result.cached_order_info((dataset.key1,))
        assert info is not None
        assert info.known_positions is not None
