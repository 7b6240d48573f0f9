"""Deterministic ``cProfile`` harness over the benchmark catalog.

``repro bench --profile`` drives this module: it runs the same catalog
sweep as a BENCH capture (same sources, same session-wide preprocess
cache, same systems) under ``cProfile`` and renders two tables —

- the per-stage timer summaries the :class:`~repro.metrics.observer.
  MetricsObserver` already aggregates (wall-clock measurement stays
  confined to that boundary; this module never reads the clock itself),
- the top project functions by cumulative profiler time, with repo-
  relative locations and deterministic tie-breaking, so two profiles of
  the same build rank the same frames in the same order.

A third table counts the cyclic garbage collector's work during the
profiled runs, which neither ``cProfile`` nor the stage timers can see:
collections and objects collected per generation, tallied through
``gc.callbacks`` (counts only, no clock).

The numbers themselves vary with the host — the *structure* (which
frames dominate, how stage time decomposes) is the reproducible part,
and is what the hot-path work in ``src/repro/wrapper/`` was driven by.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
from dataclasses import dataclass, field

from repro.metrics.bench import BenchConfig, BenchSession

#: Path fragments identifying project frames worth showing; everything
#: else (stdlib, interpreter builtins) is noise at this granularity.
PROJECT_FRAGMENTS = ("repro", "benchmarks")


@dataclass
class ProfileRow:
    """One function's aggregate profiler statistics."""

    location: str
    calls: int
    tottime: float
    cumtime: float


class CollectorTally:
    """Counts the garbage collector's work, as a ``gc.callbacks`` entry.

    ``collections[g]`` is how many collections of generation ``g`` ran
    (a collection of ``g`` also walks the younger ones), ``collected[g]``
    how many unreachable objects they freed.
    """

    def __init__(self) -> None:
        self.collections = [0] * len(gc.get_count())
        self.collected = [0] * len(gc.get_count())

    def __call__(self, phase: str, info: dict) -> None:
        """Tally one collection when it stops."""
        if phase == "stop":
            generation = info["generation"]
            self.collections[generation] += 1
            self.collected[generation] += info["collected"]

    def __enter__(self) -> "CollectorTally":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


@dataclass
class ProfileReport:
    """Everything ``render_profile`` needs to print the profile tables."""

    scale: float
    systems: tuple[str, ...]
    #: ``"system: timer"`` -> summary dict (count/total/mean/p50/p95),
    #: straight from the metrics observer of each profiled run.
    stage_timers: dict[str, dict] = field(default_factory=dict)
    rows: list[ProfileRow] = field(default_factory=list)
    #: The garbage collector's work during the profiled runs.
    collector: CollectorTally = field(default_factory=CollectorTally)


def _normalize_location(filename: str, line: int, name: str) -> str | None:
    """Repo-relative ``path:line(function)`` for project frames, else None."""
    normalized = filename.replace("\\", "/")
    for anchor in ("src/repro/", "benchmarks/"):
        index = normalized.rfind(anchor)
        if index >= 0:
            return f"{normalized[index:]}:{line}({name})"
    return None


def profile_session(config: BenchConfig | None = None) -> ProfileReport:
    """Profile one catalog sweep per configured system.

    Each system's ``run_system`` call runs under the shared profiler, so
    the function table aggregates across systems while the stage table
    stays per-system.  The collector tally covers every system's run.
    """
    config = config or BenchConfig()
    session = BenchSession(config)
    profiler = cProfile.Profile()
    report = ProfileReport(scale=config.scale, systems=tuple(config.systems))
    for system_name in config.systems:
        with report.collector:
            profiler.enable()
            __, wrap, metrics = session.run_system(system_name)
            profiler.disable()
        merged = metrics.merged_registry().snapshot()
        for timer_name in sorted(merged["timers"]):
            key = f"{system_name}: {timer_name}"
            report.stage_timers[key] = merged["timers"][timer_name]
        wrap_summary = wrap.summary("wrap")
        if wrap_summary is not None:
            report.stage_timers[f"{system_name}: wrap"] = (
                wrap_summary.as_dict()
            )
    stats = pstats.Stats(profiler)
    rows: list[ProfileRow] = []
    for (filename, line, name), entry in stats.stats.items():  # type: ignore[attr-defined]
        location = _normalize_location(filename, line, name)
        if location is None:
            continue
        cc, nc, tt, ct, __ = entry
        rows.append(
            ProfileRow(location=location, calls=nc, tottime=tt, cumtime=ct)
        )
    # Deterministic order: cumulative time, then total time, then the
    # location string so equal-time frames never swap between runs.
    rows.sort(key=lambda row: (-row.cumtime, -row.tottime, row.location))
    report.rows = rows
    return report


def render_profile(report: ProfileReport, top: int = 25) -> str:
    """Fixed-width text rendering of the stage, collector and function tables."""
    lines: list[str] = []
    lines.append(
        f"profile: scale={report.scale} systems={','.join(report.systems)}"
    )
    lines.append("")
    lines.append("stage timers (observer boundary)")
    header = f"  {'timer':<40} {'count':>7} {'total s':>9} {'mean ms':>9}"
    lines.append(header)
    for key in sorted(report.stage_timers):
        summary = report.stage_timers[key]
        lines.append(
            f"  {key:<40} {summary.get('count', 0):>7} "
            f"{summary.get('total', 0.0):>9.3f} "
            f"{summary.get('mean', 0.0) * 1000:>9.2f}"
        )
    lines.append("")
    lines.append("garbage collector (gc.callbacks)")
    lines.append(f"  {'generation':<10} {'collections':>11} {'collected':>10}")
    tally = report.collector
    for generation, count in enumerate(tally.collections):
        lines.append(
            f"  {generation:<10} {count:>11} {tally.collected[generation]:>10}"
        )
    lines.append("")
    lines.append(f"top {top} project functions by cumulative time")
    lines.append(
        f"  {'cum s':>8} {'tot s':>8} {'calls':>9}  function"
    )
    for row in report.rows[:top]:
        lines.append(
            f"  {row.cumtime:>8.3f} {row.tottime:>8.3f} {row.calls:>9}  "
            f"{row.location}"
        )
    return "\n".join(lines)
