"""Performance metrics: registry, pipeline observer, benchmark capture.

The ROADMAP's north star — "as fast as the hardware allows" — is only
actionable when per-stage cost is measured, persisted and compared run
over run.  This package provides the three layers of that loop:

- :mod:`repro.metrics.registry` — a deterministic-friendly
  :class:`MetricsRegistry` of counters, gauges and timers.  The registry
  never reads a clock: durations are handed to it, so registries built
  from the same observations are byte-identical regardless of when (or on
  how many threads) they were filled.
- :mod:`repro.metrics.observer` — :class:`MetricsObserver`, a pipeline
  observer that subscribes to the :class:`~repro.core.pipeline.EventBus`
  and aggregates stage timings, context counters, preprocessing
  cache statistics and per-source object counts into per-source
  registries that merge deterministically in input order.
- :mod:`repro.metrics.bench` — the ``repro bench`` engine: runs the
  benchmark catalog for every system under comparison and persists a
  schema-versioned ``BENCH_<seq>.json`` snapshot, plus the regression
  comparator behind ``repro bench --compare``.

See ``docs/METRICS.md`` for the snapshot schema and compare semantics.
"""

from repro.metrics.observer import MetricsObserver, peak_rss_bytes, wall_timestamp
from repro.metrics.registry import MetricsRegistry, TimerSummary, default_registry

__all__ = [
    "MetricsRegistry",
    "TimerSummary",
    "default_registry",
    "MetricsObserver",
    "peak_rss_bytes",
    "wall_timestamp",
]
