"""The batch executor: its per-source work queue, on real worker
processes, and the merge that folds what the workers send home."""

import gc
from functools import partial
from pathlib import Path

import pytest

from repro.core.executor import (
    SourceReport,
    _merge,
    process_pool,
    run_batch,
    run_worker_shard,
)
from repro.core.faults import SourceFailure, wall_sleep
from repro.errors import MultiSourceError
from repro.metrics import MetricsObserver, MetricsRegistry
from repro.registry import StagedRegistryView, WrapperRegistry, signature_for
from repro.sod.dsl import parse_sod

SOD = parse_sod("t(a)")

#: Seconds the slow item takes: long enough for the other worker to
#: start and drain everything else meanwhile.
SLOW = 1.0


def _run_item(marks, key, item, view):
    """Mark the start of ``key``, then fail or sleep ``item`` seconds."""
    (marks / key).touch()
    if item == "fail":
        raise RuntimeError(f"{key} failed")
    wall_sleep(item)
    return key.upper()


def _entry(task):
    """Worker entry: serve the queue, marking starts under ``task.worker``."""
    marks = Path(task.worker)
    return run_worker_shard(
        task, partial(_run_item, marks), MetricsObserver(), None
    )


def _freeze_count(key, item, view):
    """An item whose outcome is the freeze count it ran under."""
    if item == "fail":
        raise RuntimeError(f"{key} failed")
    return gc.get_freeze_count()


def _freeze_count_entry(task):
    """Worker entry: serve the queue with :func:`_freeze_count` items."""
    return run_worker_shard(task, _freeze_count, MetricsObserver(), None)


def _dispatch(queue, entry=_entry):
    """Serve the queue on a process pool, one long call per worker."""
    return process_pool(queue, entry)


def run(items, tmp_path, workers=2, fail_fast=True):
    return run_batch(
        items,
        partial(_run_item, tmp_path),
        workers=workers,
        fail_fast=fail_fast,
        worker=lambda: str(tmp_path),
        dispatch=_dispatch,
    )


def started(tmp_path):
    return sorted(path.name for path in tmp_path.iterdir())


class TestQueue:
    def test_slow_first_item_does_not_hold_back_the_rest(self, tmp_path):
        items = [("slow", SLOW)] + [(f"quick-{i}", 0) for i in range(6)]
        outcomes, shards = run(items, tmp_path)
        assert outcomes == [key.upper() for key, __ in items]
        # One worker spent the whole run on the slow item; the other
        # took every other item off the queue meanwhile.
        assert sorted(shard.sources for shard in shards) == [1, 6]

    def test_worker_rows_cover_the_batch(self, tmp_path):
        items = [(f"item-{i}", 0.01) for i in range(9)]
        outcomes, shards = run(items, tmp_path, workers=3)
        assert outcomes == [key.upper() for key, __ in items]
        assert sorted(shard.index for shard in shards) == [0, 1, 2]
        assert {shard.count for shard in shards} == {3}
        assert sum(shard.sources for shard in shards) == len(items)

    def test_more_workers_than_cores_claim_each_item_once(self, tmp_path):
        # A lost or doubled claim would drop an outcome or run an item
        # twice; the shared counter must hand out every position once.
        items = [(f"item-{i:03d}", 0) for i in range(150)]
        outcomes, shards = run(items, tmp_path, workers=4)
        assert outcomes == [key.upper() for key, __ in items]
        assert sum(shard.sources for shard in shards) == len(items)
        assert started(tmp_path) == [key for key, __ in items]

    def test_fail_fast_starts_nothing_past_the_failure(self, tmp_path):
        items = [("slow", SLOW), ("bad", "fail")] + [
            (f"late-{i}", 0) for i in range(6)
        ]
        with pytest.raises(MultiSourceError) as excinfo:
            run(items, tmp_path)
        # While one worker ran the slow item, the other failed on "bad"
        # and closed the queue: no later item ever started.
        assert started(tmp_path) == ["bad", "slow"]
        error = excinfo.value
        assert error.failure.source == "bad"
        assert list(error.partial.results) == ["slow"]
        assert list(error.partial.failures) == ["bad"]

    def test_isolate_runs_every_item(self, tmp_path):
        items = [("bad", "fail")] + [(f"item-{i}", 0) for i in range(4)]
        outcomes, __ = run(items, tmp_path, fail_fast=False)
        assert isinstance(outcomes[0], SourceFailure)
        assert outcomes[1:] == [key.upper() for key, __ in items[1:]]
        assert len(started(tmp_path)) == len(items)

    def test_one_worker_runs_in_process_and_stops_at_a_failure(self, tmp_path):
        items = [("a", 0), ("bad", "fail"), ("c", 0)]
        with pytest.raises(MultiSourceError):
            run(items, tmp_path, workers=1)
        assert started(tmp_path) == ["a", "bad"]


def run_frozen(items, workers):
    return run_batch(
        items,
        _freeze_count,
        workers=workers,
        worker=lambda: None,
        dispatch=partial(_dispatch, entry=_freeze_count_entry),
    )


class TestHeapFreeze:
    """Every batch runs on the heap it started on, frozen, and thaws it."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_items_run_frozen_and_the_heap_thaws_after(self, workers):
        assert gc.get_freeze_count() == 0
        items = [(f"item-{i}", 0) for i in range(4)]
        outcomes, __ = run_frozen(items, workers)
        # Forked workers inherit the frozen heap; in-process items run on it.
        assert all(count > 0 for count in outcomes)
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fail_fast_abort_thaws_the_heap(self, workers):
        assert gc.get_freeze_count() == 0
        items = [("a", 0), ("bad", "fail"), ("c", 0)]
        with pytest.raises(MultiSourceError):
            run_frozen(items, workers)
        assert gc.get_freeze_count() == 0

    def test_a_heap_the_caller_froze_stays_frozen(self):
        assert gc.get_freeze_count() == 0
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            outcomes, __ = run_frozen([("a", 0), ("b", 0)], 1)
            # The batch neither froze what the caller left young (the
            # count would grow) nor thawed what the caller froze (it
            # would drop to 0); frozen objects may still die meanwhile.
            assert all(0 < count <= frozen for count in outcomes)
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()


def _report(position, key, registry):
    """What a worker ships home for ``key``, tagged with its position.

    ``a`` stores a discard tombstone for signature S and ``c`` demotes S,
    so only input order leaves S out of the registry.
    """
    view = StagedRegistryView(registry)
    if key == "a":
        view.put_discard(SOD, "fp", "a", "wrap", "no records")
    elif key == "c":
        view.demote(signature_for(SOD, "fp"))
    metrics = MetricsRegistry()
    metrics.count("runs")
    metrics.gauge("last_position", position)
    return SourceReport(
        position=position,
        outcome=key.upper(),
        writes=view.export(),
        metrics=metrics,
        cache_stats={"hits": position},
        registry_stats={"misses": 1},
    )


class TestMerge:
    ITEMS = [("a", None), ("b", None), ("c", None)]

    def merged(self, arrival, root):
        """Merge reports that arrived in ``arrival`` order."""
        registry = WrapperRegistry(root)
        observer = MetricsObserver()
        reports = {
            position: _report(position, self.ITEMS[position][0], registry)
            for position in arrival
        }
        outcomes = _merge(self.ITEMS, reports, True, registry, [observer])
        files = {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*.json"))
        }
        return outcomes, observer.snapshot(), registry.stats(), files

    def test_reports_fold_in_input_order_whatever_their_arrival(self, tmp_path):
        serial = self.merged((0, 1, 2), tmp_path / "serial")
        arrived = self.merged((2, 0, 1), tmp_path / "arrived")
        assert serial[0] == ["A", "B", "C"]
        # The later demotion wins: S is gone.
        assert list(serial[3]) == ["index.json"]
        assert arrived == serial
