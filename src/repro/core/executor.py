"""The one batch executor behind ``run_sources`` and the bench sweep.

:func:`run_batch` runs ``(key, item)`` pairs through one item function
``run_item(key, item, view)``, where ``view`` is the item's own
:class:`~repro.registry.store.StagedRegistryView` (``None`` without a
registry).  It plans hash-mod shards, runs each shard's items in input
order, and merges the shards in global input order, so every backend
gives byte-identical output.  ``serial`` is one in-process shard;
``thread`` runs the shards over the live worker on a thread pool, one
task per shard; ``process`` ships each shard as a :class:`ShardTask`
through the caller's ``dispatch`` function to the caller's module-level
worker entry, which rebuilds its worker from ``ShardTask.worker`` and
answers with :func:`run_worker_shard`.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.faults import SourceFailure
from repro.core.results import MultiSourceResult, SourceResult
from repro.core.sharding import stable_shard
from repro.errors import MultiSourceError
from repro.metrics.observer import MetricsObserver, monotonic_seconds
from repro.registry.store import (
    StagedRegistryView,
    StagedWrites,
    WrapperRegistry,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.pipeline import PipelineObserver
    from repro.metrics.registry import MetricsRegistry

#: ``run_item(key, item, view)`` -> the item's outcome.
RunItem = Callable[[str, Any, "StagedRegistryView | None"], Any]

#: ``(key, item)`` pairs in input order.
Items = Sequence[tuple[str, Any]]


@dataclass(frozen=True)
class ShardTask:
    """One shard as shipped to a worker process (every field picklable).

    ``worker`` is the caller's spec: the worker entry rebuilds its runner
    or session from it, because the live one holds locks and caches.
    """

    worker: Any
    items: tuple[tuple[str, Any], ...]
    index: int
    count: int
    fail_fast: bool


@dataclass(frozen=True)
class ShardResult:
    """One shard's outcomes plus the state the merge folds in.

    ``outcomes`` maps each run item to its outcome (a fail-fast shard
    stops at its first failure).  ``writes`` holds each run item's
    buffered registry writes: live views in-process, exported
    :class:`StagedWrites` from a worker.  Only a worker fills the
    remaining fields, because in-process the live observers, cache and
    registry saw everything already.
    """

    index: int
    count: int
    wall_seconds: float
    outcomes: dict[str, Any]
    writes: dict[str, StagedRegistryView | StagedWrites]
    #: Per-source metrics, for ``MetricsObserver.adopt_source``.
    registries: dict[str, "MetricsRegistry"] = field(default_factory=dict)
    registry_stats: dict[str, int] | None = None
    cache_stats: dict[str, int] | None = None


def _run_shard(
    index: int,
    count: int,
    items: Items,
    run_item: RunItem,
    registry: WrapperRegistry | None,
    fail_fast: bool,
) -> ShardResult:
    """Run one shard's items in order, each through its own staged view.

    An exception becomes the item's :class:`SourceFailure`; under
    ``fail_fast`` the shard stops there.  Nothing reaches ``registry``:
    the views buffer every write for the merge to apply.
    """
    start = monotonic_seconds()
    outcomes: dict[str, Any] = {}
    writes: dict[str, StagedRegistryView | StagedWrites] = {}
    for key, item in items:
        view = StagedRegistryView(registry) if registry is not None else None
        if view is not None:
            writes[key] = view
        try:
            outcomes[key] = run_item(key, item, view)
        except Exception as exc:
            outcomes[key] = SourceFailure.from_exception(key, exc)
            if fail_fast:
                break
    return ShardResult(
        index=index,
        count=count,
        wall_seconds=round(monotonic_seconds() - start, 6),
        outcomes=outcomes,
        writes=writes,
    )


def run_worker_shard(
    task: ShardTask,
    run_item: RunItem,
    observer: MetricsObserver,
    registry: WrapperRegistry | None,
) -> ShardResult:
    """Run a process shard over the worker's own services; pack it for home.

    Registry writes leave as exported :class:`StagedWrites`, metrics as
    per-source registries, the counters of ``registry`` and of the
    caches ``observer`` watches as plain dicts.
    """
    shard = _run_shard(
        task.index, task.count, task.items, run_item, registry, task.fail_fast
    )
    return dataclasses.replace(
        shard,
        writes={key: view.export() for key, view in shard.writes.items()},
        registries={
            key: observer.source_registry(key) for key in observer.sources()
        },
        registry_stats=registry.stats() if registry is not None else None,
        cache_stats=observer.cache_stats(),
    )


def run_batch(
    items: Items,
    run_item: RunItem,
    *,
    backend: str = "serial",
    workers: int = 1,
    fail_fast: bool = True,
    registry: WrapperRegistry | None = None,
    observers: Iterable["PipelineObserver"] = (),
    worker: Callable[[], Any] | None = None,
    dispatch: Callable[[list[ShardTask]], list[ShardResult]] | None = None,
    ship: Callable[[Any], Any] | None = None,
) -> tuple[list[Any], list[ShardResult]]:
    """Run a batch on ``backend``; return its outcomes and its shards.

    Outcomes come one per item in input order (failures as
    :class:`SourceFailure`, under isolate); shards in index order.
    ``thread`` and ``process`` fan out only with ``workers > 1`` and
    more than one item.  The :class:`MetricsObserver` ones among
    ``observers`` adopt what workers ship home.  The process backend
    needs ``worker``, called once for the picklable worker spec, and
    ``dispatch``; ``ship`` maps an item to what crosses the boundary
    (default: the item itself).
    """
    observers = [o for o in observers if isinstance(o, MetricsObserver)]
    for observer in observers:
        observer.note_source_order(key for key, __ in items)
    if workers > 1 and len(items) > 1 and backend in ("thread", "process"):
        buckets: list[list[tuple[str, Any]]] = [[] for __ in range(workers)]
        for key, item in items:
            buckets[stable_shard(key, workers)].append((key, item))
        plan = [(index, bucket) for index, bucket in enumerate(buckets) if bucket]
        if backend == "process":
            spec = worker()
            shards = dispatch([
                ShardTask(
                    worker=spec,
                    items=tuple(
                        (key, ship(item) if ship is not None else item)
                        for key, item in bucket
                    ),
                    index=index,
                    count=workers,
                    fail_fast=fail_fast,
                )
                for index, bucket in plan
            ])
        else:
            with ThreadPoolExecutor(max_workers=len(plan)) as pool:
                futures = [
                    pool.submit(
                        _run_shard, index, workers, bucket, run_item,
                        registry, fail_fast,
                    )
                    for index, bucket in plan
                ]
                shards = [future.result() for future in futures]
    else:
        shards = [_run_shard(0, 1, items, run_item, registry, fail_fast)]
    return _merge(items, shards, fail_fast, registry, observers), shards


def _merge(
    items: Items,
    shards: list[ShardResult],
    fail_fast: bool,
    registry: WrapperRegistry | None,
    observers: list[MetricsObserver],
) -> list[Any]:
    """Fold shard results in global input order; abort on a failure."""
    outcome_by_key: dict[str, Any] = {}
    writes_by_key: dict[str, StagedRegistryView | StagedWrites] = {}
    # Keyed per-source stores, not dict.update: each key lives in
    # exactly one shard, so the merged mappings cannot depend on the
    # shard layout.
    for shard in shards:
        for key, outcome in shard.outcomes.items():
            outcome_by_key[key] = outcome
        for key, staged in shard.writes.items():
            writes_by_key[key] = staged
        for observer in observers:
            for key, shipped in shard.registries.items():
                observer.adopt_source(key, shipped)
            if shard.cache_stats is not None:
                observer.adopt_cache_stats(shard.cache_stats)
        if registry is not None and shard.registry_stats is not None:
            registry.adopt_stats(shard.registry_stats)
    # The first failure in input order decides the cut: every item
    # before it ran to completion in its shard, whatever the layout.
    outcomes: list[Any] = []
    failure: SourceFailure | None = None
    for key, __ in items:
        outcome = outcome_by_key[key]
        if fail_fast and isinstance(outcome, SourceFailure):
            failure = outcome
            break
        outcomes.append(outcome)
    if registry is not None:
        for key, __ in items[: len(outcomes)]:
            staged = writes_by_key.get(key)
            if staged is not None:
                staged.apply_to(registry)
    if failure is not None:
        # The failing item sits right after the completed prefix, so
        # pooling the prefix plus the failure gives the partial result.
        raise MultiSourceError(
            f"source {failure.source!r} failed at {failure.stage or 'run'}: "
            f"{failure.error} ({len(outcomes)} of {len(items)} sources "
            "completed before the abort)",
            partial=pool_outcomes(items, [*outcomes, failure]),
            failure=failure,
        ) from failure.exception
    return outcomes


def pool_outcomes(items: Items, outcomes: list[Any]) -> MultiSourceResult:
    """Pool per-item outcomes into one result, keeping input order."""
    pooled = MultiSourceResult()
    for (key, __), outcome in zip(items, outcomes):
        if isinstance(outcome, SourceFailure):
            pooled.failures[key] = outcome
            continue
        pooled.results[key] = outcome
        if isinstance(outcome, SourceResult):
            pooled.objects.extend(outcome.objects)
    return pooled
