"""The batch executor's per-source work queue, on real worker processes."""

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

from repro.core.executor import attach_queue, run_batch, run_worker_shard
from repro.core.faults import SourceFailure, wall_sleep
from repro.errors import MultiSourceError
from repro.metrics import MetricsObserver

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


@contextmanager
def _dispatch(queue):
    """Serve the queue on a process pool, one long call per worker."""
    with ProcessPoolExecutor(
        max_workers=queue.width, initializer=attach_queue, initargs=(queue,)
    ) as pool:
        yield [pool.submit(_entry, task) for task in queue.tasks()]


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
