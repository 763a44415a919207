"""Configuration for relational matrix operations."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bat.properties import properties_enabled
from repro.linalg.policy import BackendPolicy


def _env_int(name: str, default: int) -> int:
    """An integer environment override, or ``default`` when unset/invalid."""
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


@dataclass
class ParallelConfig:
    """Knobs of the morsel-driven parallel engine (:mod:`repro.engine`).

    * ``enabled`` — master gate.  Off by default: the serial pipeline is
      the reference implementation and the parallel engine must be
      bit-identical to it (``tests/engine/test_parallel_identity.py``
      and the doubled CI run assert this).  The environment variable
      ``REPRO_PARALLEL`` (``1``/``true``/``on``) flips the *default* on,
      which is how CI forces the engine through the whole tier-1 suite;
    * ``workers`` — the engine's degree of parallelism; ``0`` means one
      per CPU (``os.cpu_count()``).  ``REPRO_PARALLEL_WORKERS`` overrides
      the default.  An effective worker count of 1 short-circuits to the
      serial path.  The cap bounds each parallel call site (morsel
      partitions and task-group widths); the threads themselves come
      from one shared CPU-sized pool (:mod:`repro.engine.pool`), so
      independent call sites that overlap — concurrent subplan subtrees
      each chunking their own columns — can briefly exceed it;
    * ``min_morsel_rows`` — never split a column into morsels smaller
      than this (``REPRO_PARALLEL_MIN_MORSEL_ROWS`` overrides): thread
      handoff costs microseconds, so tiny inputs stay serial.  Tests set
      it to 1 to force morsel execution on small data.
    """

    enabled: bool = False
    workers: int = 0
    min_morsel_rows: int = 65536

    @classmethod
    def from_env(cls) -> "ParallelConfig":
        """Defaults, with the ``REPRO_PARALLEL*`` overrides applied.

        Malformed numeric overrides are ignored (with the built-in
        default kept): this runs inside every ``RmaConfig()``
        construction, so a typo'd environment variable must not take the
        whole library down.
        """
        enabled = os.environ.get("REPRO_PARALLEL", "").lower() in (
            "1", "true", "on", "yes")
        config = cls(enabled=enabled,
                     workers=_env_int("REPRO_PARALLEL_WORKERS", 0))
        min_rows = _env_int("REPRO_PARALLEL_MIN_MORSEL_ROWS", 0)
        if min_rows > 0:
            config.min_morsel_rows = min_rows
        return config

    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1

    def active(self) -> bool:
        """Whether parallel execution is on at all (before sizing)."""
        return self.enabled and self.effective_workers() > 1

    def token(self) -> tuple:
        return (self.enabled, self.workers, self.min_morsel_rows)


@dataclass
class RmaConfig:
    """Execution knobs for RMA operations.

    * ``policy`` — which kernel backend runs base results (§7.3);
    * ``optimize_sorting`` — apply the §8.1 optimizations (skip sorting for
      row-order-invariant/-equivariant operations, relative sorting for
      element-wise operations).  Disabling reproduces the unoptimized curves
      of Fig. 13;
    * ``validate_keys`` — verify that order schemas form keys.  This is the
      safe default; benchmarks that reproduce the paper's timings disable it
      (MonetDB relies on declared key constraints instead of re-checking);
    * ``fuse_elementwise`` — let the plan optimizer collapse chains of
      relative-class element-wise operations (``add``/``sub``/``emu`` and
      the scalar variants) into one :class:`~repro.plan.nodes.FusedRma`
      node, executed as a single prepare/align/kernel-program/merge pass
      with all intermediate relations elided.  On by default.
    * ``parallel`` — the morsel-driven parallel engine
      (:class:`ParallelConfig`, see :mod:`repro.engine`): element-wise
      kernel programs, application-part gathers/float casts and
      independent subplan subtrees run partitioned across a shared worker
      pool.  Results are bit-identical to serial execution (a deterministic
      chunk-ordered merge reassembles morsel results).  Off by default;
      the ``REPRO_PARALLEL`` environment variable flips the default on.

    The physical-property layer (cached BAT properties and per-relation
    order caches) is not a field: its one gate is the process-wide switch
    in :mod:`repro.bat.properties`, which only tests flip.
    """

    policy: BackendPolicy = field(default_factory=BackendPolicy)
    optimize_sorting: bool = True
    validate_keys: bool = True
    fuse_elementwise: bool = True
    parallel: ParallelConfig = field(default_factory=ParallelConfig.from_env)

    def cache_token(self) -> tuple:
        """Value identity for plan/result caches.

        Results and optimized plans depend on the configuration, so cache
        entries are stamped with this token and revalidated on lookup.
        The token is built from *values*, not object identity: it covers
        every semantic input (all flags plus the policy's type and
        decision inputs), so in-place mutation is caught while
        equal-valued configs — e.g. a fresh ``RmaConfig()`` per
        ``collect(cache=...)`` call — keep hitting.  It also carries the
        property-layer gate (:func:`~repro.bat.properties.properties_enabled`,
        not a config field), so an entry cached with the layer on is never
        served with it off.
        """
        return (self.optimize_sorting, self.validate_keys,
                properties_enabled(),
                self.fuse_elementwise, self.parallel.token(),
                type(self.policy).__qualname__,
                self.policy.prefer, self.policy.memory_limit_bytes)


_DEFAULT = RmaConfig()


def default_config() -> RmaConfig:
    """The process-wide default configuration."""
    return _DEFAULT
