"""The metrics observer: pipeline events in, per-source registries out.

:class:`MetricsObserver` subscribes to the pipeline
:class:`~repro.core.pipeline.EventBus` and files every measurement into a
per-source :class:`~repro.metrics.registry.MetricsRegistry`:

- ``stage.<name>`` timers — one observation per stage execution, from the
  pipeline's own ``stage_end`` wall-clock (the observer never measures;
  it records what the pipeline measured).
- ``pipeline`` timer — one observation per completed run.
- context counter deltas (``objects_extracted``, ``pages_prepared``, ...)
  folded from ``stage_end`` events, so multi-pass enrichment runs sum
  instead of double-counting the run totals.
- ``runs`` / ``discards`` counters and per-stage ``retries.<stage>``.

:meth:`MetricsObserver.snapshot` merges the per-source registries
**deterministically in input order**: the order registered through
:meth:`note_source_order` (``ObjectRunner.run_sources`` does this before
fanning out), falling back to sorted source names for stragglers — so a
parallel multi-source run snapshots byte-identically to a serial one fed
the same observations.

This module is part of the observer layer, the only code allowed to read
clocks (reprolint ``D102``): :func:`wall_timestamp` is the single place a
wall-clock timestamp enters a persisted artifact, and
:func:`peak_rss_bytes` reads the process's high-water memory mark.
"""

from __future__ import annotations

import sys
import threading
import time
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.pipeline import PipelineEvent, PipelineObserver
from repro.metrics.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.cache import PreprocessCache
    from repro.core.pipeline import PipelineContext


def wall_timestamp() -> str:
    """The current UTC time as an ISO-8601 string (artifact stamping only).

    Lives in the observer layer so persisted benchmark artifacts can say
    when they were captured without any pipeline data ever depending on
    the wall clock.
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def monotonic_seconds() -> float:
    """A monotonic clock reading, for interval measurement only.

    Callers outside the observer layer (for example the bench session's
    per-shard wall timings) subtract two readings; the absolute value is
    meaningless.  Lives here so clock reads stay confined to this module
    (reprolint ``D102``).
    """
    return time.monotonic()


def peak_rss_bytes() -> int:
    """The run's peak resident set size in bytes (0 if unavailable).

    Reads both ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN`` and reports the
    **maximum of the two** — the high-water mark of the largest single
    process, not a sum (``ru_maxrss`` values of processes alive at
    different times do not add meaningfully).  Without the children
    reading, a process-backend run would attribute all worker memory to
    nobody.  ``resource.getrusage`` reports kilobytes on Linux and bytes
    on macOS; normalized to bytes here.  Platforms without the
    ``resource`` module (Windows) report 0 rather than failing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = max(own, children)
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


class MetricsObserver(PipelineObserver):
    """Aggregates pipeline events into per-source metrics registries.

    Safe to share across threads, for callers that run sources on
    their own threads under one observer.  Within one source, events
    arrive from a single thread in pipeline order, so each per-source registry's observation lists are
    deterministic; the cross-source merge order is pinned by
    :meth:`note_source_order`.

    Preprocessing caches registered through :meth:`observe_cache`
    contribute their lifetime hit/miss/races statistics to the snapshot
    (``ObjectRunner`` registers its cache automatically when this
    observer is subscribed).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._per_source: dict[str, MetricsRegistry] = {}
        self._source_order: list[str] = []
        self._caches: list["PreprocessCache"] = []
        self._adopted_cache_stats: dict[str, int] = _summed([])

    # -- wiring -----------------------------------------------------------

    def note_source_order(self, sources: Iterable[str]) -> None:
        """Pin the snapshot merge order of the given sources.

        Call before a (possibly parallel) multi-source run with the input
        order; sources already noted keep their original position.
        """
        with self._lock:
            for source in sources:
                if source not in self._source_order:
                    self._source_order.append(source)

    def observe_cache(self, cache: "PreprocessCache") -> None:
        """Fold this cache's lifetime stats into future snapshots."""
        with self._lock:
            if not any(existing is cache for existing in self._caches):
                self._caches.append(cache)

    def adopt_source(self, source: str, registry: MetricsRegistry) -> None:
        """Fold a per-source registry produced elsewhere into this observer.

        The process backend runs each source in a worker with its own
        :class:`MetricsRegistry`; the parent adopts them here.  Merging
        into the source's own slot keeps the cross-source fold pinned to
        :meth:`note_source_order`, so a process-backend run snapshots
        byte-identically to a serial one.
        """
        self._registry(source).merge(registry)

    def adopt_cache_stats(self, stats: Mapping[str, int]) -> None:
        """Fold a static cache-stats mapping into future snapshots.

        Worker processes cannot share live :class:`PreprocessCache`
        objects with the parent, so they report what each source added
        to their caches and the parent adopts the dicts — summed
        alongside the observed caches.
        """
        with self._lock:
            self._adopted_cache_stats = _summed(
                [self._adopted_cache_stats, stats]
            )

    def _registry(self, source: str) -> MetricsRegistry:
        """The per-source registry, created (and ordered) on first use."""
        with self._lock:
            registry = self._per_source.get(source)
            if registry is None:
                registry = MetricsRegistry()
                self._per_source[source] = registry
                if source not in self._source_order:
                    self._source_order.append(source)
            return registry

    # -- event hooks ------------------------------------------------------

    def on_stage_end(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Record the stage's wall-clock and counter deltas."""
        registry = self._registry(event.source)
        registry.observe(f"stage.{event.stage}", event.elapsed)
        for name, delta in event.counters.items():
            registry.count(name, delta)

    def on_stage_retry(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Count the retry against its stage."""
        self._registry(event.source).count(f"retries.{event.stage}")

    def on_pipeline_end(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Record the completed run: total elapsed, run and discard counts."""
        registry = self._registry(event.source)
        registry.observe("pipeline", event.elapsed)
        registry.count("runs")
        if event.discarded:
            registry.count("discards")

    # -- snapshots --------------------------------------------------------

    def sources(self) -> tuple[str, ...]:
        """Observed sources in merge order (noted order, then first-seen)."""
        with self._lock:
            ordered = [s for s in self._source_order if s in self._per_source]
            stragglers = sorted(set(self._per_source) - set(ordered))
            return tuple(ordered + stragglers)

    def source_registry(self, source: str) -> MetricsRegistry:
        """The per-source registry (created empty on first access).

        Worker processes use this to export what they observed for each
        source; the parent side pairs it with :meth:`adopt_source`.
        """
        return self._registry(source)

    def merged_registry(self) -> MetricsRegistry:
        """All per-source registries folded together in merge order."""
        order = self.sources()
        with self._lock:
            registries = [self._per_source[source] for source in order]
        return MetricsRegistry.merged(registries)

    def cache_stats(self) -> dict[str, int]:
        """Summed lifetime stats of every observed preprocessing cache."""
        with self._lock:
            caches = list(self._caches)
        return _summed(
            [*(cache.stats() for cache in caches), self.adopted_cache_stats()]
        )

    def adopted_cache_stats(self) -> dict[str, int]:
        """The summed stats :meth:`adopt_cache_stats` received."""
        with self._lock:
            return dict(self._adopted_cache_stats)

    def snapshot(self) -> dict[str, object]:
        """Everything observed, as one deterministic JSON-ready mapping.

        ``sources`` lists the merge order, ``per_source`` the individual
        registries, ``merged`` their ordered fold, and ``cache`` the
        summed preprocessing-cache statistics.  Given the same events and
        caches, two observers snapshot byte-identically under
        ``json.dumps(..., sort_keys=True)`` regardless of how many
        threads delivered the events.
        """
        order = self.sources()
        with self._lock:
            per_source = {
                source: self._per_source[source] for source in order
            }
        return {
            "sources": list(order),
            "per_source": {
                source: registry.snapshot()
                for source, registry in per_source.items()
            },
            "merged": MetricsRegistry.merged(per_source.values()).snapshot(),
            "cache": self.cache_stats(),
        }


def _summed(parts: list[Mapping[str, int]]) -> dict[str, int]:
    """Key-wise sum of cache-stats mappings, over the four base keys."""
    totals = {"hits": 0, "misses": 0, "races": 0, "entries": 0}
    for stats in parts:
        for name, value in stats.items():
            totals[name] = totals.get(name, 0) + value
    return totals
