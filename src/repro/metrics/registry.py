"""A deterministic-friendly registry of counters, gauges and timers.

The registry is a passive accumulator: it never reads a clock and never
inspects the process, so two registries fed the same observations are
equal no matter when, where or on how many threads they were filled.
Wall-clock measurement stays in the observer layer
(:mod:`repro.metrics.observer`), which hands finished durations in — the
split the reprolint ``D102`` rule enforces.

Merging is explicit and ordered: :meth:`MetricsRegistry.merge` folds
another registry in, and :meth:`MetricsRegistry.merged` folds a sequence
in input order.  Counters add, gauges last-write-wins (later registries
override earlier ones), timer observation lists concatenate — so merging
per-source registries in input order yields the same snapshot whether the
sources ran serially or in worker processes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class TimerSummary:
    """Order statistics of one timer's observations, in seconds."""

    count: int
    total: float
    min: float
    max: float
    mean: float
    p50: float
    p95: float

    def as_dict(self) -> dict[str, float]:
        """The summary as a plain JSON-serializable mapping."""
        return {
            "count": self.count,
            "total": _round(self.total),
            "min": _round(self.min),
            "max": _round(self.max),
            "mean": _round(self.mean),
            "p50": _round(self.p50),
            "p95": _round(self.p95),
        }


def _round(value: float) -> float:
    """Stable 9-decimal rounding for snapshot output."""
    return round(value, 9)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted observation list."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _summarize(values: list[float]) -> "TimerSummary | None":
    """Order statistics of an observation list (``None`` when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    return TimerSummary(
        count=len(ordered),
        total=sum(ordered),
        min=ordered[0],
        max=ordered[-1],
        mean=sum(ordered) / len(ordered),
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
    )


class MetricsRegistry:
    """Thread-safe accumulator of counters, gauges and timer observations.

    Counters are monotonically growing integers (``count``), gauges are
    point-in-time floats with last-write-wins semantics (``gauge``), and
    timers collect duration observations (``observe``) summarized on
    demand as min/max/mean/p50/p95 (:meth:`summary`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the named counter by ``amount``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Append one duration observation to the named timer."""
        with self._lock:
            self._timers.setdefault(name, []).append(float(seconds))

    # -- reading ----------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Current value of a gauge (``default`` when never set)."""
        with self._lock:
            return self._gauges.get(name, default)

    def observations(self, name: str) -> tuple[float, ...]:
        """All recorded observations of a timer, in recording order."""
        with self._lock:
            return tuple(self._timers.get(name, ()))

    def summary(self, name: str) -> TimerSummary | None:
        """Order statistics of one timer (``None`` if it never fired)."""
        with self._lock:
            values = list(self._timers.get(name, ()))
        return _summarize(values)

    def timer_names(self) -> tuple[str, ...]:
        """Names of all timers with at least one observation, sorted."""
        with self._lock:
            return tuple(sorted(self._timers))

    # -- merging ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters add, gauges take the other registry's value (last write
        wins), timer observations append in the other registry's order.
        """
        counters, gauges, timers = other._state()
        with self._lock:
            for name, amount in counters.items():
                self._counters[name] = self._counters.get(name, 0) + amount
            self._gauges.update(gauges)
            for name, values in timers.items():
                self._timers.setdefault(name, []).extend(values)

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry folding ``registries`` in input order."""
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out

    def _state(self) -> tuple[dict[str, int], dict[str, float], dict[str, list[float]]]:
        """A consistent copy of the internal maps (for merge/snapshot)."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                {name: list(values) for name, values in self._timers.items()},
            )

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        """A lock-free state copy, so registries cross process boundaries.

        The process backend of ``run_sources`` ships each worker's
        per-source registries back to the parent for the order-pinned
        merge; the lock is dropped here and recreated on unpickle.

        Each attribute is read directly (not through :meth:`_state`) so
        the homeward surface is explicit per field: reprolint's P602
        rule checks that every worker-mutated attribute appears here,
        and a deleted line is a caught regression, not silent data loss.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: list(values)
                    for name, values in self._timers.items()
                },
            }

    def __setstate__(self, state: dict[str, object]) -> None:
        """Rebuild the registry (and a fresh lock) from pickled state."""
        self._lock = threading.Lock()
        self._counters = dict(state["counters"])
        self._gauges = dict(state["gauges"])
        self._timers = {
            name: list(values) for name, values in state["timers"].items()
        }

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """The registry as a deterministic JSON-serializable mapping.

        Keys are sorted and floats rounded to nine decimals, so equal
        registries serialize byte-identically under
        ``json.dumps(..., sort_keys=True)``.
        """
        counters, gauges, timers = self._state()
        summaries: dict[str, dict[str, float]] = {}
        for name in sorted(timers):
            summary = _summarize(timers[name])
            if summary is not None:
                summaries[name] = summary.as_dict()
        return {
            "counters": {name: counters[name] for name in sorted(counters)},
            "gauges": {name: _round(gauges[name]) for name in sorted(gauges)},
            "timers": summaries,
        }

    def counters_snapshot(self) -> dict[str, int]:
        """Just the counters, sorted by name."""
        with self._lock:
            return {name: self._counters[name] for name in sorted(self._counters)}


#: Process-wide registry for library-internal health counters (for
#: example the grading layer's negative-missed clamp).  Created eagerly
#: at import time so no function ever rebinds a module-level name
#: (keeping reprolint's T301 shared-state rule quiet by construction).
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry for internal health counters."""
    return _DEFAULT_REGISTRY
