"""Every worker-mutated metrics field survives pickle -> adopt.

The process backend's metrics story rests on one invariant: anything a
worker mutates on a :class:`MetricsRegistry` or :class:`MetricsObserver`
reaches the parent through the explicit homeward surface — pickled
per-source registries adopted with ``adopt_source``, plus the
``adopt_cache_stats`` dict.  These tests check it property-style: drive
randomized (but seeded) workloads, diff the mutated ``__dict__`` fields
against a fresh instance, and assert each one either crosses the pickle
boundary intact or is explicitly accounted for by a documented side
channel.

A new field added to either class without a homeward path fails here
with a message naming the field.
"""

import pickle
import random

import pytest

from repro.core.cache import PreprocessCache
from repro.core.pipeline import PipelineEvent
from repro.metrics import MetricsObserver, MetricsRegistry

#: Observer fields that deliberately do NOT ship through pickle->adopt,
#: each with the side channel that carries its information instead.  A
#: field missing from here *and* from the adopt surface is a bug.
OBSERVER_SIDE_CHANNELS = {
    # Live cache handles cannot cross the boundary; their counters ship
    # as a plain dict through adopt_cache_stats (summed on the parent).
    "_caches": "adopt_cache_stats",
}

#: Fields that exist for intra-process safety only and carry no data.
TRANSPORT_EXEMPT = {"_lock"}


def _mutated_fields(instance, fresh) -> set[str]:
    """Names of ``__dict__`` entries differing from a fresh instance."""
    mutated = set()
    for name, value in instance.__dict__.items():
        if name in TRANSPORT_EXEMPT:
            continue
        if name not in fresh.__dict__ or fresh.__dict__[name] != value:
            mutated.add(name)
    return mutated


def _drive_registry(registry: MetricsRegistry, seed: int) -> None:
    """A randomized-but-seeded workload touching every registry field."""
    rng = random.Random(seed)
    for index in range(rng.randint(3, 12)):
        registry.count(f"counter.{index % 4}", rng.randint(1, 9))
        registry.gauge(f"gauge.{index % 3}", rng.random())
        registry.observe(f"timer.{index % 2}", rng.random())


def _drive_observer(observer: MetricsObserver, seed: int) -> list[str]:
    """Feed pipeline events for a few sources; returns the source order."""
    rng = random.Random(seed)
    sources = [f"src-{index}" for index in range(rng.randint(2, 4))]
    observer.note_source_order(sources)
    for source in sources:
        for stage in ("preprocess", "annotate", "wrapping"):
            observer.on_stage_end(
                PipelineEvent(
                    kind="stage_end",
                    source=source,
                    stage=stage,
                    elapsed=rng.random(),
                    counters={"objects_extracted": rng.randint(0, 5)},
                ),
                None,
            )
        observer.on_pipeline_end(
            PipelineEvent(
                kind="pipeline_end",
                source=source,
                elapsed=rng.random(),
                discarded=rng.random() < 0.3,
            ),
            None,
        )
    return sources


class TestRegistryHomeward:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_mutated_field_is_in_getstate(self, seed):
        registry = MetricsRegistry()
        _drive_registry(registry, seed)
        mutated = _mutated_fields(registry, MetricsRegistry())
        assert mutated, "workload must touch at least one field"
        shipped = {f"_{key}" for key in registry.__getstate__()}
        missing = mutated - shipped
        assert not missing, (
            f"MetricsRegistry fields {sorted(missing)} are mutated but "
            "absent from __getstate__ — worker-side updates would be "
            "lost on merge (add them to __getstate__/__setstate__)"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_pickle_roundtrip_preserves_observations(self, seed):
        registry = MetricsRegistry()
        _drive_registry(registry, seed)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        # The full per-field state matches, not just the summary.
        assert clone.__getstate__() == registry.__getstate__()


class TestObserverHomeward:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_mutated_field_has_a_homeward_path(self, seed):
        observer = MetricsObserver()
        _drive_observer(observer, seed)
        cache = PreprocessCache()
        observer.observe_cache(cache)
        mutated = _mutated_fields(observer, MetricsObserver())
        # Fields whose contents ride the pickle->adopt path.
        adopted = {"_per_source", "_source_order", "_adopted_cache_stats"}
        unaccounted = mutated - adopted - set(OBSERVER_SIDE_CHANNELS)
        assert not unaccounted, (
            f"MetricsObserver fields {sorted(unaccounted)} are mutated "
            "during a run but have no homeward path — route them through "
            "adopt_* or document a side channel in OBSERVER_SIDE_CHANNELS"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_pickle_adopt_reproduces_worker_snapshot(self, seed):
        # The exact parent-side merge the process backend performs:
        # note the order, adopt pickled per-source registries, adopt the
        # worker's cache stats as a dict.
        worker = MetricsObserver()
        sources = _drive_observer(worker, seed)
        worker.adopt_cache_stats({"hits": 3, "misses": 2, "races": 0,
                                  "entries": 1})
        parent = MetricsObserver()
        parent.note_source_order(sources)
        for source in worker.sources():
            shipped = pickle.loads(
                pickle.dumps(worker.source_registry(source))
            )
            parent.adopt_source(source, shipped)
        parent.adopt_cache_stats(worker.cache_stats())
        assert parent.snapshot() == worker.snapshot()

    def test_side_channel_names_are_real_methods(self):
        for field, channel in OBSERVER_SIDE_CHANNELS.items():
            assert field in MetricsObserver().__dict__
            assert callable(getattr(MetricsObserver, channel))
