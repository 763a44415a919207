"""The one gate of the physical-property layer.

BATs and relations are immutable, so physical properties (``tsorted``,
``trevsorted``, ``tkey``, ``tnonil``), per-relation order permutations and
float views of integer columns can never go stale — they are computed on
first demand and cached on the instance, exactly like MonetDB's per-BAT
property bits and order indexes.

This module holds the single process-wide switch for the whole layer, in
every module that uses it: the BAT short-circuits (identity permutations in
:func:`repro.bat.sorting.order_by`, binary search in
:func:`repro.bat.kernels.thetaselect`, the skipped right-side code sort in
:func:`repro.relational.joins.join_positions`), the per-relation order
cache :mod:`repro.core.context` prepares from, result-order seeding in
:mod:`repro.core.ops` and fused element-wise execution.  With the switch off
every property is recomputed from scratch on each use and no cache is read
or written.  Results are bit-identical either way — only the work performed
differs.

The switch exists for the tests that check this bit-identity, which flip
it with :func:`use_properties` while no query runs; it is not a
configuration knob.  Its value is part of
:meth:`repro.core.config.RmaConfig.cache_token`, so a session's plan and
result caches never serve an entry computed under the other setting.
"""

from __future__ import annotations

from contextlib import contextmanager

_ENABLED = True


def properties_enabled() -> bool:
    """Whether property tracking, caching and short-circuits are active."""
    return _ENABLED


@contextmanager
def use_properties(enabled: bool):
    """Scope the switch to a block (for the on/off identity tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous
