"""Metric definitions and their derivation from phases and spans.

:data:`END_TO_END` and :data:`PER_LAYER` are the names ``BENCHMARK.json``
lists, with units and direction; a test keeps the two in step.  The
layer-to-metric predictions behind them are in ``perfbench/README.md``.
"""

from __future__ import annotations

from perfbench.spans import LAYERS, SHARD_SPAN, Lane, union_length
from perfbench.workloads import PhaseResult, percentile

#: (name, unit, better) of every end-to-end metric, measured untraced.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("sources_per_s", "1/s", "higher"),
    ("cpu_ms_per_source", "ms", "lower"),
    ("source_p50_ms", "ms", "lower"),
    ("source_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, from the traced run.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("htmlkit.self_ms_per_page", "ms", "lower"),
    ("htmlkit.cache_hit_ratio", "ratio", "higher"),
    ("vision.self_ms_per_page", "ms", "lower"),
    ("annotation.self_ms_per_source", "ms", "lower"),
    ("annotation.find_calls_per_source", "count", "lower"),
    ("annotation.find_us_per_call", "us", "lower"),
    ("annotation.sample_ratio", "ratio", "higher"),
    ("wrapper.self_ms_per_source", "ms", "lower"),
    ("wrapper.supports_per_source", "count", "lower"),
    ("wrapper.match_ratio", "ratio", "higher"),
    ("extraction.self_ms_per_page", "ms", "lower"),
    ("extraction.objects_per_source", "count", "higher"),
    ("registry.lookup_ms_per_call", "ms", "lower"),
    ("registry.hit_ratio", "ratio", "higher"),
    ("registry.fingerprint_ms_per_source", "ms", "lower"),
    ("registry.put_ms_per_call", "ms", "lower"),
    ("recognizers.build_calls", "count", "lower"),
    ("recognizers.build_ms_per_call", "ms", "lower"),
    ("core.pipeline_overhead_ms_per_source", "ms", "lower"),
    ("core.dispatch_ms", "ms", "lower"),
    ("core.worker_busy_ratio", "ratio", "higher"),
    ("core.straggler_ms", "ms", "lower"),
    ("service.self_ms_per_request", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Largest |sum of self times + unattributed - traced wall| / traced wall
#: the traced run's accounting may show.
ACCOUNTING_TOLERANCE = 0.01


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(
    phase: PhaseResult,
    setup_s: float,
    setup_samples: int,
    rss_mb: float,
    speed: float = 1.0,
) -> tuple[dict[str, float], dict[str, int]]:
    """Every end-to-end metric, and the sample count behind each.

    Times are multiplied by ``speed``, the host-speed factor of
    :class:`perfbench.hostspeed.HostSpeed` (1.0 gives the raw values).
    """
    p50, __ = percentile(phase.latencies_ms, 0.5)
    p90, __ = percentile(phase.latencies_ms, 0.9)
    items = phase.attempted
    values = {
        "setup_s": setup_s * speed,
        "sources_per_s": items / (phase.wall_s * speed),
        "cpu_ms_per_source": phase.cpu_s * 1000.0 * speed / items,
        "source_p50_ms": p50 * speed,
        "source_p90_ms": p90 * speed,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": setup_samples,
        "sources_per_s": items,
        "cpu_ms_per_source": items,
        "source_p50_ms": len(phase.latencies_ms),
        "source_p90_ms": len(phase.latencies_ms),
        "peak_rss_mb": 1,
    }
    return values, samples


class _Tally:
    """Self time, call count and summed facts per callable name."""

    def __init__(self, lanes: list[Lane]):
        self.self_s: dict[str, float] = {}
        self.layer_self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.facts: dict[str, dict[str, float]] = {}
        for lane in lanes:
            for span, own in zip(lane.spans, lane.self_times):
                self.self_s[span.name] = self.self_s.get(span.name, 0.0) + own
                self.layer_self_s[span.layer] = (
                    self.layer_self_s.get(span.layer, 0.0) + own
                )
                self.calls[span.name] = self.calls.get(span.name, 0) + 1
                bucket = self.facts.setdefault(span.name, {})
                for key, value in span.facts.items():
                    bucket[key] = bucket.get(key, 0.0) + value

    def fact(self, name: str, key: str) -> float:
        return self.facts.get(name, {}).get(key, 0.0)

    def ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s.get(name, 0.0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)


def _dispatch(lanes: list[Lane]) -> tuple[float, float, float]:
    """``core`` dispatch: (dispatch ms, worker busy ratio, straggler ms).

    For each ``run_sources`` call, dispatch is its wall minus what its
    in-process children and the worker shard spans inside it cover; the
    busy ratio is worker busy time over workers x wall (a serial call is
    one worker whose busy time is its pipeline runs); the straggler gap
    is the spread between the busiest and idlest shard.
    """
    parent = lanes[0]
    shards = [
        span
        for lane in lanes[1:]
        for span in lane.spans
        if span.name == SHARD_SPAN
    ]
    dispatch = busy = capacity = straggler = 0.0
    for index, call in enumerate(parent.spans):
        if call.name != "run_sources":
            continue
        wall = call.duration
        children = [
            (span.start, span.end)
            for span in parent.spans
            if span.parent == index
        ]
        inside = [s for s in shards if call.start <= s.start and s.end <= call.end]
        covered = union_length(children + [(s.start, s.end) for s in inside])
        dispatch += wall - covered
        if inside:
            durations = [s.duration for s in inside]
            busy += sum(durations)
            capacity += len(inside) * wall
            straggler += max(durations) - min(durations)
        else:
            busy += sum(
                span.duration
                for span in parent.spans
                if span.parent == index and span.name == "run"
            )
            capacity += wall
    return dispatch * 1000.0, _ratio(busy, capacity), straggler * 1000.0


def per_layer(
    lanes: list[Lane],
    setup_lanes: list[Lane],
    items: int,
    traced_wall: float,
    untraced_wall: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric, plus the accounting that backs them.

    ``lanes`` cover the traced timed phase; ``setup_lanes`` cover the
    traced set-up and timed phase together, for the recognizer builds
    that mostly happen in set-up.
    """
    tally = _Tally(lanes)
    builds = _Tally(setup_lanes)
    dispatch_ms, busy_ratio, straggler_ms = _dispatch(lanes)
    hits = tally.fact("clean_pages", "hits")
    misses = tally.fact("clean_pages", "misses")
    layer_ms = {
        layer: 1000.0 * seconds for layer, seconds in tally.layer_self_s.items()
    }
    unattributed_ms = 1000.0 * sum(lane.unattributed for lane in lanes)
    lane_wall_ms = 1000.0 * sum(lane.wall for lane in lanes)
    accounted_ms = sum(layer_ms.values()) + unattributed_ms
    values = {
        "htmlkit.self_ms_per_page": _ratio(
            layer_ms.get("htmlkit", 0.0), tally.fact("clean_pages", "pages")
        ),
        "htmlkit.cache_hit_ratio": _ratio(hits, hits + misses),
        "vision.self_ms_per_page": _ratio(
            layer_ms.get("vision", 0.0), tally.count("segment_page")
        ),
        "annotation.self_ms_per_source": _ratio(
            layer_ms.get("annotation", 0.0), items
        ),
        "annotation.find_calls_per_source": _ratio(tally.count("find"), items),
        "annotation.find_us_per_call": _ratio(
            1000.0 * tally.ms("find"), tally.count("find")
        ),
        "annotation.sample_ratio": _ratio(
            tally.fact("select_sample", "sample"),
            tally.fact("select_sample", "annotated"),
        ),
        "wrapper.self_ms_per_source": _ratio(layer_ms.get("wrapper", 0.0), items),
        "wrapper.supports_per_source": _ratio(
            tally.count("generate_wrapper"), items
        ),
        "wrapper.match_ratio": _ratio(
            tally.fact("generate_wrapper", "matched"),
            tally.count("generate_wrapper"),
        ),
        "extraction.self_ms_per_page": _ratio(
            layer_ms.get("extraction", 0.0),
            tally.fact("extract_objects", "pages"),
        ),
        "extraction.objects_per_source": _ratio(
            tally.fact("extract_objects", "objects"), items
        ),
        "registry.lookup_ms_per_call": _ratio(
            tally.ms("lookup"), tally.count("lookup")
        ),
        "registry.hit_ratio": _ratio(
            tally.fact("lookup", "hit"), tally.count("lookup")
        ),
        "registry.fingerprint_ms_per_source": _ratio(
            tally.ms("pages_fingerprint"), items
        ),
        # The process backend stores a worker's writes through
        # ``StagedWrites.apply_to`` (one call per source) instead of put.
        "registry.put_ms_per_call": _ratio(
            tally.ms("put", "put_discard", "apply_to"),
            tally.count("put", "put_discard", "apply_to"),
        ),
        "recognizers.build_calls": float(builds.count("build")),
        "recognizers.build_ms_per_call": _ratio(
            builds.ms("build"), builds.count("build")
        ),
        "core.pipeline_overhead_ms_per_source": _ratio(tally.ms("run"), items),
        "core.dispatch_ms": dispatch_ms,
        "core.worker_busy_ratio": busy_ratio,
        "core.straggler_ms": straggler_ms,
        "service.self_ms_per_request": _ratio(
            layer_ms.get("service", 0.0), items
        ),
        "unattributed_ms": unattributed_ms,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    accounting = {
        "lanes": float(len(lanes)),
        "lane_wall_ms": lane_wall_ms,
        "accounted_ms": accounted_ms,
        "error": _ratio(abs(accounted_ms - lane_wall_ms), lane_wall_ms),
        **{f"self_ms.{layer}": layer_ms.get(layer, 0.0) for layer in LAYERS},
    }
    return values, accounting
