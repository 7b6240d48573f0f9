"""The staged pipeline: stages, shared context, observers and event bus.

The paper's Figure 1 architecture is an explicit dataflow — pre-processing,
recognizer setup, annotation/sampling, wrapper generation, extraction,
de-duplication.  This module makes that dataflow a first-class object:
every box is a :class:`Stage` whose ``run`` method operates on one shared
:class:`PipelineContext`, and a :class:`Pipeline` threads the context
through its stages in order, timing each stage into
``SourceResult.timings`` and broadcasting lifecycle events to any number
of :class:`PipelineObserver` subscribers — JSON-lines tracing
(:class:`TraceObserver`), metrics aggregation
(:class:`~repro.metrics.observer.MetricsObserver`) — without the stages
knowing about any of them.

Stages register themselves by name via :func:`register_stage`, so a
pipeline can be assembled from names (:func:`build_stages`) and custom
stages can be slotted into the standard order without touching the core.

A stage signals "this source cannot be wrapped" by raising
:class:`~repro.errors.SourceDiscardedError`; the pipeline records the
discard on the result and stops, exactly like the paper's alpha gate.
A stage raising :class:`~repro.errors.TransientSourceError` is retried
per the active :class:`~repro.core.faults.RetryPolicy`
(``RunParams.max_retries``) with deterministic backoff, each retry
announced as a ``stage_retry`` event; any other exception is stamped
with the failing stage and attempt count and propagates unchanged.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.cache import PreprocessCache
from repro.core.faults import RetryPolicy, SleepFn, wall_sleep
from repro.core.params import RunParams
from repro.core.results import SourceResult
from repro.errors import SourceDiscardedError, TransientSourceError
from repro.htmlkit.dom import Element
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.sod.types import SodType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.kb.ontology import Ontology
    from repro.recognizers.base import Recognizer
    from repro.registry.store import StagedRegistryView, WrapperRegistry
    from repro.vision.segmentation import BlockTree
    from repro.wrapper.generate import Wrapper
    from repro.wrapper.tokens import TokenTable


#: Canonical stage order, mirroring the paper's Figure 1 left to right.
DEFAULT_STAGE_ORDER: tuple[str, ...] = (
    "preprocess",
    "segmentation",
    "annotation",
    "wrapping",
    "extraction",
    "enrichment",
)

#: Registry-first stage order: match against the wrapper registry after
#: pre-processing; a hit skips segmentation/annotation/wrapping entirely,
#: a miss induces as usual and stores the result.  The post-extraction
#: check demotes stale registry wrappers back to induction.
REGISTRY_STAGE_ORDER: tuple[str, ...] = (
    "preprocess",
    "registry_match",
    "segmentation",
    "annotation",
    "wrapping",
    "extraction",
    "enrichment",
    "registry_check",
    "registry_store",
)


# -- events and observers -------------------------------------------------


@dataclass
class PipelineEvent:
    """One lifecycle event emitted by a running pipeline.

    ``counters`` holds the *deltas* of the context counters accumulated
    during the stage for ``stage_end`` events, and the run totals for
    ``pipeline_end`` events.
    """

    kind: str
    source: str
    stage: str = ""
    pass_index: int = 0
    elapsed: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    discarded: bool = False
    discard_stage: str = ""
    discard_reason: str = ""
    #: Set on the terminal ``pipeline_end`` event when a stage raised an
    #: unexpected exception (``stage`` then names the failing stage), and
    #: on ``stage_retry`` events with the transient error being retried.
    error: str = ""
    #: On ``stage_retry`` events: the attempt (1-based) that just failed.
    attempt: int = 0
    #: On ``stage_retry`` events: the backoff before the next attempt.
    retry_delay: float = 0.0

    def to_json(self) -> dict[str, Any]:
        """The event as a JSON-serializable dict (empty fields dropped).

        This is the writer of the ``trace_event`` artifact family in
        :mod:`repro.analysis.schemas` — the key set emitted here is
        pinned by the committed ``schemas.json`` snapshot, so renames
        show up in review instead of silently breaking trace consumers.
        """
        data: dict[str, Any] = {"event": self.kind, "source": self.source}
        if self.stage:
            data["stage"] = self.stage
        data["pass"] = self.pass_index
        if self.kind in ("stage_end", "pipeline_end"):
            data["elapsed_s"] = round(self.elapsed, 6)
        if self.attempt:
            data["attempt"] = self.attempt
        if self.kind == "stage_retry":
            data["retry_delay_s"] = round(self.retry_delay, 6)
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.discarded:
            data["discarded"] = True
            data["discard_stage"] = self.discard_stage
            data["discard_reason"] = self.discard_reason
        if self.error:
            data["error"] = self.error
        return data


class PipelineObserver:
    """Receiver of pipeline lifecycle events; subclass and override.

    All hooks are no-ops by default, so observers override only what they
    care about.  Hooks run synchronously on the pipeline's thread; under a
    parallel multi-source run they may be invoked from several worker
    threads at once, so observers shared across sources must synchronize
    their own mutable state (:class:`TraceObserver` and
    :class:`~repro.metrics.observer.MetricsObserver` do).
    """

    def on_pipeline_start(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Called once before the first stage runs."""

    def on_stage_start(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Called right before each enabled stage runs."""

    def on_stage_end(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Called after each stage, with its wall-clock ``elapsed``."""

    def on_stage_retry(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Called when a transient stage failure is about to be retried."""

    def on_pipeline_end(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Called once after the last stage (or the discarding stage)."""


class EventBus:
    """Broadcasts :class:`PipelineEvent` objects to subscribed observers."""

    def __init__(self, observers: Iterable[PipelineObserver] = ()):
        self._observers: list[PipelineObserver] = list(observers)

    def subscribe(self, observer: PipelineObserver) -> None:
        """Add an observer to every subsequent emission."""
        self._observers.append(observer)

    @property
    def observers(self) -> tuple[PipelineObserver, ...]:
        """The subscribed observers, in subscription order."""
        return tuple(self._observers)

    def emit(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Dispatch ``event`` to the matching hook of every observer."""
        for observer in self._observers:
            getattr(observer, f"on_{event.kind}")(event, ctx)


class TraceObserver(PipelineObserver):
    """Writes one JSON line per pipeline event to a file or stream.

    The sink may be a path (opened and owned by the observer — call
    :meth:`close` or use the observer as a context manager) or any
    writable text stream.  Writes are locked, so callers may share one
    trace observer across their own threads and get an interleaved but
    line-atomic trace.

    Every event line is flushed as it is written, so the trace stays
    complete up to the crash point when a stage raises mid-pipeline (the
    pipeline also emits a terminal ``pipeline_end`` event carrying the
    error before re-raising).  :meth:`close` is idempotent.
    """

    def __init__(self, sink: str | Path | IO[str]):
        if isinstance(sink, (str, Path)):
            self._handle: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = sink
            self._owns_handle = False
        self._lock = threading.Lock()
        self._closed = False

    def _write(self, event: PipelineEvent) -> None:
        with self._lock:
            if self._closed:
                return
            self._handle.write(json.dumps(event.to_json(), sort_keys=True) + "\n")
            self._handle.flush()

    def on_pipeline_start(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Trace the run header."""
        self._write(event)

    def on_stage_start(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Trace the stage opening."""
        self._write(event)

    def on_stage_end(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Trace the stage timing and counter deltas."""
        self._write(event)

    def on_stage_retry(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Trace the retry announcement (attempt, backoff, error)."""
        self._write(event)

    def on_pipeline_end(self, event: PipelineEvent, ctx: "PipelineContext") -> None:
        """Trace the run summary."""
        self._write(event)

    def close(self) -> None:
        """Flush and close the sink if this observer opened it (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()

    def __enter__(self) -> "TraceObserver":
        """Support ``with TraceObserver(path) as trace:`` usage."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the sink on scope exit."""
        self.close()


# -- context --------------------------------------------------------------


@dataclass
class PipelineContext:
    """Shared state threaded through every stage of one pipeline run.

    Stages read what upstream stages produced and write what downstream
    stages need: pre-processing fills ``pages``, segmentation narrows them
    to ``regions``, annotation selects ``sample_regions``, wrapper
    generation sets ``wrapper``, extraction fills ``result.objects``.
    ``counters`` accumulates named integer counts (pages prepared, objects
    extracted, ...) that surface on stage-end events.
    """

    source: str
    params: RunParams
    sod: SodType
    recognizers: Sequence["Recognizer"] = ()
    ontology: "Ontology | None" = None
    raw_pages: list[str] = field(default_factory=list)
    #: Cleaned page trees.  Through the cache they are a ``LazyPages``,
    #: which thaws a cache hit when a stage first indexes it.
    pages: Sequence[Element] = field(default_factory=list)
    block_trees: "list[BlockTree] | None" = None
    regions: list[Element] = field(default_factory=list)
    sample_regions: list[Element] = field(default_factory=list)
    wrapper: "Wrapper | None" = None
    result: SourceResult | None = None
    #: Shared role-interning table of the source's tokenized sample (set by
    #: the wrapping stage, reused by anything re-tokenizing the same pages).
    token_table: "TokenTable | None" = None
    cache: PreprocessCache | None = None
    #: Content-addressed wrapper store (or a per-source staged view of
    #: one) for the registry-first path; None runs the classic pipeline.
    registry: "WrapperRegistry | StagedRegistryView | None" = None
    pass_index: int = 0
    total_passes: int = 1
    counters: Counter = field(default_factory=Counter)
    #: Free-form scratch space for custom stages.
    artifacts: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Create the result container when the caller did not supply one."""
        if self.result is None:
            self.result = SourceResult(source=self.source)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the named counter by ``amount``."""
        self.counters[name] += amount

    def gazetteers(self) -> dict[str, GazetteerRecognizer]:
        """The gazetteer recognizers in use, keyed by entity-type name."""
        return {
            recognizer.type_name: recognizer
            for recognizer in self.recognizers
            if isinstance(recognizer, GazetteerRecognizer)
        }


# -- stages ---------------------------------------------------------------


class Stage:
    """One named step of the pipeline.

    Subclasses set ``name`` (unique registry key), optionally
    ``timing_field`` (the :class:`~repro.core.results.StageTimings`
    attribute :class:`Pipeline` adds their wall-clock to), and implement
    :meth:`run`.  ``enabled`` lets a stage excuse itself from a run —
    skipped stages emit no events.

    ``reads``/``writes`` declare the stage's *context contract*: the
    :class:`PipelineContext` fields its methods may load and store.  The
    reprolint stage-contract rule (``C201``, see ``docs/ANALYSIS.md``)
    statically verifies every registered stage's body against its
    declaration, so inter-stage dataflow stays visible in one place.  The
    counter/scratch APIs (``count``/``counters``/``gazetteers``/
    ``artifacts``) never need declaring.
    """

    name: str = ""
    timing_field: str = ""
    #: PipelineContext fields this stage may load (enforced by reprolint).
    reads: tuple[str, ...] = ()
    #: PipelineContext fields this stage may store or mutate through.
    writes: tuple[str, ...] = ()

    def enabled(self, ctx: PipelineContext) -> bool:
        """Whether this stage should run for the given context."""
        return True

    def run(self, ctx: PipelineContext) -> None:
        """Execute the stage, mutating the context in place."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


_STAGE_REGISTRY: dict[str, type[Stage]] = {}


def register_stage(cls: type[Stage]) -> type[Stage]:
    """Class decorator adding a :class:`Stage` to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    _STAGE_REGISTRY[cls.name] = cls
    return cls


def stage_registry() -> dict[str, type[Stage]]:
    """A copy of the name -> stage-class registry."""
    # The concrete stages live in repro.core.stages; importing the package
    # is what registers them, so make sure that happened.
    import repro.core.stages  # noqa: F401  (registration side effect)

    return dict(_STAGE_REGISTRY)


def build_stages(names: Iterable[str] = DEFAULT_STAGE_ORDER) -> list[Stage]:
    """Instantiate registered stages by name, in the given order."""
    registry = stage_registry()
    stages = []
    for name in names:
        if name not in registry:
            known = ", ".join(sorted(registry))
            raise ValueError(f"unknown stage {name!r} (known: {known})")
        stages.append(registry[name]())
    return stages


# -- the pipeline ---------------------------------------------------------


class Pipeline:
    """Runs stages in order over one context, timing and broadcasting.

    The pipeline owns the cross-cutting concerns the stages should not:
    wall-clock measurement (filed under each stage's ``timing_field`` in
    ``ctx.result.timings``), counter-delta bookkeeping, discard handling
    (a stage raising :class:`SourceDiscardedError` marks the result and
    stops the run), transient-failure retries with deterministic backoff,
    and event emission through the :class:`EventBus`.

    ``retry_policy`` overrides the policy otherwise derived from the
    context's ``RunParams`` (``max_retries``); ``sleep`` replaces the
    real backoff sleep — tests inject a recording fake so retry suites
    never spend wall-clock time.
    """

    def __init__(
        self,
        stages: Iterable[Stage] | None = None,
        observers: Iterable[PipelineObserver] = (),
        retry_policy: RetryPolicy | None = None,
        sleep: SleepFn | None = None,
    ):
        self.stages: list[Stage] = (
            list(stages) if stages is not None else build_stages()
        )
        self.bus = EventBus(observers)
        self._retry_policy = retry_policy
        self._sleep: SleepFn = sleep if sleep is not None else wall_sleep

    def _fail(
        self,
        ctx: PipelineContext,
        run_started: float,
        stage_name: str,
        attempt: int,
        exc: BaseException,
    ) -> None:
        """Record an unexpected stage failure before it propagates.

        Emits the terminal ``pipeline_end`` event naming the stage and
        error (so traces close coherently) and stamps the exception with
        ``repro_stage``/``repro_attempts`` for the multi-source executor
        to turn into a :class:`~repro.core.faults.SourceFailure`.  The
        exception itself propagates to the caller unchanged.
        """
        try:
            exc.repro_stage = stage_name
            exc.repro_attempts = attempt
        except AttributeError:  # pragma: no cover - slotted exceptions
            pass
        self.bus.emit(
            PipelineEvent(
                kind="pipeline_end",
                source=ctx.source,
                stage=stage_name,
                pass_index=ctx.pass_index,
                elapsed=time.perf_counter() - run_started,
                counters=dict(ctx.counters),
                attempt=attempt,
                error=f"{type(exc).__name__}: {exc}",
            ),
            ctx,
        )

    def run(self, ctx: PipelineContext) -> SourceResult:
        """Thread ``ctx`` through every enabled stage and return its result."""
        result = ctx.result
        assert result is not None
        run_started = time.perf_counter()
        self.bus.emit(
            PipelineEvent(
                kind="pipeline_start",
                source=ctx.source,
                pass_index=ctx.pass_index,
            ),
            ctx,
        )
        policy = self._retry_policy or RetryPolicy.from_params(ctx.params)
        for stage in self.stages:
            if not stage.enabled(ctx):
                continue
            self.bus.emit(
                PipelineEvent(
                    kind="stage_start",
                    source=ctx.source,
                    stage=stage.name,
                    pass_index=ctx.pass_index,
                ),
                ctx,
            )
            counters_before = Counter(ctx.counters)
            stage_started = time.perf_counter()
            attempt = 1
            while True:
                try:
                    stage.run(ctx)
                    break
                except SourceDiscardedError as exc:
                    result.discarded = True
                    result.discard_stage = exc.stage
                    result.discard_reason = exc.reason
                    break
                except TransientSourceError as exc:
                    if attempt >= policy.max_attempts:
                        self._fail(ctx, run_started, stage.name, attempt, exc)
                        raise
                    delay = policy.delay(
                        attempt, source=ctx.source, stage=stage.name
                    )
                    self.bus.emit(
                        PipelineEvent(
                            kind="stage_retry",
                            source=ctx.source,
                            stage=stage.name,
                            pass_index=ctx.pass_index,
                            attempt=attempt,
                            retry_delay=delay,
                            error=f"{type(exc).__name__}: {exc}",
                        ),
                        ctx,
                    )
                    self._sleep(delay)
                    attempt += 1
                except Exception as exc:
                    self._fail(ctx, run_started, stage.name, attempt, exc)
                    raise
            elapsed = time.perf_counter() - stage_started
            if stage.timing_field:
                timings = result.timings
                setattr(
                    timings,
                    stage.timing_field,
                    getattr(timings, stage.timing_field) + elapsed,
                )
            deltas = {
                name: value - counters_before.get(name, 0)
                for name, value in ctx.counters.items()
                if value != counters_before.get(name, 0)
            }
            self.bus.emit(
                PipelineEvent(
                    kind="stage_end",
                    source=ctx.source,
                    stage=stage.name,
                    pass_index=ctx.pass_index,
                    elapsed=elapsed,
                    counters=deltas,
                    discarded=result.discarded,
                    discard_stage=result.discard_stage,
                    discard_reason=result.discard_reason,
                ),
                ctx,
            )
            if result.discarded:
                break
        self.bus.emit(
            PipelineEvent(
                kind="pipeline_end",
                source=ctx.source,
                pass_index=ctx.pass_index,
                elapsed=time.perf_counter() - run_started,
                counters=dict(ctx.counters),
                discarded=result.discarded,
                discard_stage=result.discard_stage,
                discard_reason=result.discard_reason,
            ),
            ctx,
        )
        return result
