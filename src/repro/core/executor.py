"""The one batch executor behind ``run_sources`` and the bench sweep.

:func:`run_batch` runs ``(key, item)`` pairs through one item function
``run_item(key, item, view)``, where ``view`` is the item's own
:class:`~repro.registry.store.StagedRegistryView` (``None`` without a
registry).  One worker runs the items in input order in-process.  More
workers share one per-source :class:`WorkQueue`: each worker process
makes one long call of the caller's module-level entry, which rebuilds
its worker from ``ShardTask.worker`` and hands over to
:func:`run_worker_shard`.  That call claims the next input position
from a shared counter, runs the item and streams a
:class:`SourceReport` home, until the queue is empty, so no worker
idles while another still has a backlog.  Each item's buffered
registry writes travel as one exported
:class:`~repro.registry.store.StagedWrites`, in-process and from a
worker alike, and the merge folds the reports keyed by input position,
so serial and pooled runs give byte-identical output whatever worker
ran what.  A worker that dies becomes a typed
``SourceFailure(stage="worker")`` for the item it had in flight.
"""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Iterable,
    Sequence,
)

from repro.core.faults import SourceFailure
from repro.core.results import MultiSourceResult, SourceResult
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

#: ``dispatch(queue)``: a context manager running ``queue`` on a process
#: pool and yielding the futures of its workers' calls.
Dispatch = Callable[["WorkQueue"], ContextManager[list[Future]]]

#: Seconds the parent waits for a report before it checks whether the
#: pool's calls are all over (a worker died, or one raised).
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ShardTask:
    """One worker's call, as shipped to its process (every field picklable).

    ``worker`` is the caller's spec: the worker entry rebuilds its runner
    or session from it, because the live one holds locks and caches.
    The items themselves reach the worker inside the :class:`WorkQueue`
    its process was started with.
    """

    worker: Any
    index: int
    count: int


@dataclass(frozen=True)
class ShardResult:
    """What one worker call (or the in-process loop) did.

    Its share of a queue varies from run to run; only the merged
    reports are pinned to input order.
    """

    index: int
    count: int
    wall_seconds: float
    #: Items this call ran.
    sources: int


@dataclass(frozen=True)
class SourceReport:
    """One item's outcome plus the state the merge folds in.

    ``writes`` holds the item's buffered registry writes.  Only a worker
    fills the remaining fields, because in-process the live observers,
    cache and registry saw everything already: the item's metrics, and
    what it added to the worker's preprocess-cache and registry
    counters.  Shipping them per item lets the merge adopt exactly the
    items a serial run would have run.
    """

    position: int
    outcome: Any
    writes: StagedWrites | None = None
    metrics: "MetricsRegistry | None" = None
    cache_stats: dict[str, int] | None = None
    registry_stats: dict[str, int] | None = None


class WorkQueue:
    """One pool's per-source queue: positions to claim, reports to stream.

    The parent builds it and hands it to every worker as the pool's
    initializer argument, so a forked worker inherits it, batch items
    included, instead of unpickling a copy.  Workers :meth:`claim`
    positions from one shared counter in increasing order and
    :meth:`send` one report per item; the parent :meth:`drain` s the
    reports while the workers run.
    """

    def __init__(
        self,
        worker: Any,
        items: Items,
        positions: Sequence[int],
        width: int,
        fail_fast: bool,
    ):
        context = multiprocessing.get_context()
        self.worker = worker
        self.items = items
        self.positions = tuple(positions)
        self.width = width
        self.fail_fast = fail_fast
        #: ``[claimed, stopped]``: how many positions were handed out,
        #: and whether a fail-fast failure closed the queue.
        self._claims = context.RawArray("q", 2)
        self._claim_lock = context.Lock()
        self._send_lock = context.Lock()
        self._reader, self._writer = context.Pipe(duplex=False)
        #: Parent side: the reports received, by position.
        self.reports: dict[int, SourceReport] = {}

    def tasks(self) -> list[ShardTask]:
        """One task per worker of the pool."""
        return [
            ShardTask(worker=self.worker, index=index, count=self.width)
            for index in range(self.width)
        ]

    # -- worker side -------------------------------------------------------

    def claim(self) -> int | None:
        """The next position to run, or ``None`` once the queue is done."""
        with self._claim_lock:
            claimed, stopped = self._claims
            if stopped or claimed >= len(self.positions):
                return None
            self._claims[0] = claimed + 1
        return self.positions[claimed]

    def stop(self) -> None:
        """Hand out no further position (a fail-fast failure happened).

        Positions are claimed in increasing order, so every position
        before the failing one was claimed already and still finishes.
        """
        with self._claim_lock:
            self._claims[1] = 1

    def send(self, report: SourceReport | None) -> None:
        """Stream one report home; ``None`` says this worker is done."""
        with self._send_lock:
            self._writer.send(report)

    # -- parent side -------------------------------------------------------

    def drain(self, calls: list[Future]) -> bool:
        """Take reports until every worker says it is done.

        Returns False when some worker never did: it died, or its call
        raised.  The reports streamed before that are kept either way.
        """
        # Only the workers hold the write end now, so a read past the
        # last byte of a dead pool ends in EOFError instead of blocking.
        self._writer.close()
        ended = 0
        over = False
        while ended < len(calls):
            if not self._reader.poll(0 if over else _POLL_SECONDS):
                if over:
                    break
                # Quiet pipe: once every call is over (a worker died or
                # raised), read what the pipe still holds, then stop.
                over = all(call.done() for call in calls)
                continue
            try:
                report = self._reader.recv()
            except EOFError:
                break
            if report is None:
                ended += 1
            else:
                self.reports[report.position] = report
        self._reader.close()
        return ended == len(calls)

    @staticmethod
    def results(calls: list[Future]) -> list[ShardResult]:
        """What the calls returned; the ones a worker death ended are missing.

        Any other exception of a call is raised.
        """
        wait(calls)
        results = []
        for call in calls:
            error = call.exception()
            if error is None:
                results.append(call.result())
            elif not isinstance(error, BrokenProcessPool):
                raise error
        return results

    def _claimed(self) -> int:
        # Read without the lock: a worker killed in claim() may hold it.
        return self._claims[0]

    def unfinished(self) -> list[int]:
        """Positions claimed but never reported: in flight at a death."""
        claimed = self.positions[: self._claimed()]
        return [position for position in claimed if position not in self.reports]

    def unclaimed(self) -> list[int]:
        """Positions no worker claimed."""
        return list(self.positions[self._claimed():])


#: The queue this worker process serves (set by :func:`attach_queue`).
_ATTACHED: WorkQueue | None = None


def attach_queue(queue: WorkQueue) -> None:
    """Pool initializer: remember the queue this worker process serves."""
    global _ATTACHED
    _ATTACHED = queue


def _run_one(
    key: str,
    item: Any,
    run_item: RunItem,
    registry: WrapperRegistry | None,
) -> tuple[Any, StagedWrites | None]:
    """Run one item through its own staged view; an exception is its failure.

    Nothing reaches ``registry``: the view buffers every write, exported
    for the merge to apply.
    """
    view = StagedRegistryView(registry) if registry is not None else None
    try:
        outcome = run_item(key, item, view)
    except Exception as exc:
        outcome = SourceFailure.from_exception(key, exc)
    return outcome, view.export() if view is not None else None


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """What one item added to a set of counters."""
    return {name: value - before.get(name, 0) for name, value in after.items()}


def run_worker_shard(
    task: ShardTask,
    run_item: RunItem,
    observer: MetricsObserver,
    registry: WrapperRegistry | None,
) -> ShardResult:
    """Serve the attached queue over the worker's own services.

    Claims positions until the queue is done and streams each item's
    report home: its metrics, and what it added to the counters of
    ``registry`` and of the caches ``observer`` watches.
    """
    queue = _ATTACHED
    start = monotonic_seconds()
    ran = 0
    while (position := queue.claim()) is not None:
        key, item = queue.items[position]
        cache_before = observer.cache_stats()
        registry_before = registry.stats() if registry is not None else {}
        outcome, writes = _run_one(key, item, run_item, registry)
        if queue.fail_fast and isinstance(outcome, SourceFailure):
            queue.stop()
        queue.send(
            SourceReport(
                position=position,
                outcome=outcome,
                writes=writes,
                metrics=observer.source_registry(key),
                cache_stats=_delta(observer.cache_stats(), cache_before),
                registry_stats=(
                    _delta(registry.stats(), registry_before)
                    if registry is not None
                    else None
                ),
            )
        )
        ran += 1
    queue.send(None)
    return ShardResult(
        index=task.index,
        count=task.count,
        wall_seconds=round(monotonic_seconds() - start, 6),
        sources=ran,
    )


def _run_in_process(
    items: Items,
    run_item: RunItem,
    registry: WrapperRegistry | None,
    fail_fast: bool,
) -> tuple[dict[int, SourceReport], ShardResult]:
    """Run the items in input order; under ``fail_fast`` stop at a failure."""
    start = monotonic_seconds()
    reports: dict[int, SourceReport] = {}
    for position, (key, item) in enumerate(items):
        outcome, writes = _run_one(key, item, run_item, registry)
        reports[position] = SourceReport(position, outcome, writes)
        if fail_fast and isinstance(outcome, SourceFailure):
            break
    shard = ShardResult(
        index=0,
        count=1,
        wall_seconds=round(monotonic_seconds() - start, 6),
        sources=len(reports),
    )
    return reports, shard


def _first_failure(reports: dict[int, SourceReport]) -> int | None:
    """The lowest position whose outcome is a failure, if any."""
    return min(
        (
            position
            for position, report in reports.items()
            if isinstance(report.outcome, SourceFailure)
        ),
        default=None,
    )


def _fan_out(
    items: Items,
    spec: Any,
    workers: int,
    fail_fast: bool,
    dispatch: Dispatch,
    merge: Callable[[dict[int, SourceReport]], list[Any]],
) -> tuple[list[Any], list[ShardResult]]:
    """Run ``items`` on worker processes; the merged outcomes, and the calls.

    The parent's heap stays frozen (``gc.freeze``) while workers run, so
    a forked worker's collections never walk, and so never copy, the
    objects it inherited.  Once every report is in, the merge runs while
    the workers exit.  When a worker dies, every item its pool had in
    flight runs again alone on a fresh worker: one that kills that
    worker too becomes ``SourceFailure(stage="worker")``, the others
    report as usual.  The items nobody claimed go to a fresh pool.
    Under ``fail_fast`` nothing past the first failure starts again.
    """
    reports: dict[int, SourceReport] = {}
    shards: list[ShardResult] = []
    todo = list(range(len(items)))
    gc.freeze()
    try:
        while todo:
            queue = WorkQueue(spec, items, todo, min(workers, len(todo)), fail_fast)
            with dispatch(queue) as calls:
                drained = queue.drain(calls)
                reports.update(queue.reports)
                if drained:
                    outcomes = merge(reports)
                shards.extend(queue.results(calls))
            if drained:
                return outcomes, shards
            # A worker that died between items leaves nothing in flight;
            # blaming the next position keeps every pass making progress.
            suspects = queue.unfinished() or queue.unclaimed()[:1]
            for position in suspects:
                cut = _first_failure(reports)
                if fail_fast and cut is not None and position > cut:
                    break
                alone = WorkQueue(spec, items, [position], 1, fail_fast)
                with dispatch(alone) as calls:
                    alone.drain(calls)
                    shards.extend(alone.results(calls))
                reports[position] = alone.reports.get(
                    position,
                    SourceReport(position, _worker_failure(items[position][0])),
                )
            if fail_fast and _first_failure(reports) is not None:
                break
            todo = [p for p in queue.unclaimed() if p not in suspects]
        return merge(reports), shards
    finally:
        gc.unfreeze()


def _worker_failure(key: str) -> SourceFailure:
    """The failure of an item whose worker process died running it."""
    exc = BrokenProcessPool(
        "the worker process died while running this source"
    )
    return SourceFailure(
        source=key,
        stage="worker",
        error=f"{type(exc).__name__}: {exc}",
        exception=exc,
    )


def run_batch(
    items: Items,
    run_item: RunItem,
    *,
    workers: int = 1,
    fail_fast: bool = True,
    registry: WrapperRegistry | None = None,
    observers: Iterable["PipelineObserver"] = (),
    worker: Callable[[], Any] | None = None,
    dispatch: Dispatch | None = None,
) -> tuple[list[Any], list[ShardResult]]:
    """Run a batch over ``workers``; return its outcomes and its calls.

    Outcomes come one per item in input order (failures as
    :class:`SourceFailure`, under isolate); the calls as one
    :class:`ShardResult` each.  The batch fans out to worker processes
    only with ``workers > 1`` and more than one item; otherwise it runs
    in-process.  The :class:`MetricsObserver` ones among ``observers``
    adopt what workers ship home.  A fan-out needs ``worker``, called
    once for the picklable worker spec, and ``dispatch``: given a
    :class:`WorkQueue`, a context manager that starts a process pool
    with :func:`attach_queue` as its initializer, submits one call of
    the caller's worker entry per :meth:`WorkQueue.tasks` task and
    yields the futures.
    """
    observers = [o for o in observers if isinstance(o, MetricsObserver)]
    for observer in observers:
        observer.note_source_order(key for key, __ in items)

    def merge(reports: dict[int, SourceReport]) -> list[Any]:
        return _merge(items, reports, fail_fast, registry, observers)

    if workers > 1 and len(items) > 1:
        return _fan_out(items, worker(), workers, fail_fast, dispatch, merge)
    reports, shard = _run_in_process(items, run_item, registry, fail_fast)
    return merge(reports), [shard]


def _merge(
    items: Items,
    reports: dict[int, SourceReport],
    fail_fast: bool,
    registry: WrapperRegistry | None,
    observers: list[MetricsObserver],
) -> list[Any]:
    """Fold the reports in input order; abort on a failure.

    Under ``fail_fast`` the first failure in input order decides the
    cut: the merge adopts the metrics and counters of the items before
    it and of the failing item, the ones a serial run ran, and ignores
    any item a worker finished past it.
    """
    cut = _first_failure(reports) if fail_fast else None
    adopted = len(items) if cut is None else cut + 1
    for position in range(adopted):
        report = reports[position]
        key = items[position][0]
        for observer in observers:
            if report.metrics is not None:
                observer.adopt_source(key, report.metrics)
            if report.cache_stats is not None:
                observer.adopt_cache_stats(report.cache_stats)
        if registry is not None and report.registry_stats is not None:
            registry.adopt_stats(report.registry_stats)
    completed = len(items) if cut is None else cut
    outcomes = [reports[position].outcome for position in range(completed)]
    if registry is not None:
        for position in range(completed):
            staged = reports[position].writes
            if staged is not None:
                staged.apply_to(registry)
    if cut is not None:
        failure = reports[cut].outcome
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
