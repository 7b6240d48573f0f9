"""The ObjectRunner façade over the staged pipeline.

Typical use::

    runner = ObjectRunner(
        sod=parse_sod("concert(artist, date<kind=predefined>, ...)"),
        ontology=ontology,
        corpus=corpus,
        gazetteer_classes={"artist": "Artist", "theater": "Theater"},
    )
    result = runner.run_source("zvents", raw_html_pages)
    for instance in result.objects:
        print(instance.values)

The runner owns recognizer setup and the cross-cutting services —
preprocessing cache, observers, worker pool — and delegates the actual
dataflow to :class:`~repro.core.pipeline.Pipeline` over the stages
registered in :mod:`repro.core.stages`.  Subscribe a
:class:`~repro.core.pipeline.PipelineObserver` (for example a
:class:`~repro.core.pipeline.TraceObserver`) to watch stage-level timings
and counters of every run.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import ContextManager, Iterable

from repro.baselines.interface import SystemOutput
from repro.core.cache import LazyPages, PreprocessCache
from repro.core.faults import ISOLATE, FaultInjector
from repro.core.executor import (
    ShardResult,
    ShardTask,
    WorkQueue,
    pool_outcomes,
    process_pool,
    run_batch,
    run_worker_shard,
)
from repro.core.params import RunParams
from repro.core.pipeline import (
    Pipeline,
    PipelineContext,
    PipelineObserver,
    build_stages,
    stage_registry,
)
from repro.core.results import MultiSourceResult, SourceResult, StageTimings
from repro.corpus.store import Corpus
from repro.errors import ProcessBackendConfigError, SodError
from repro.htmlkit.dom import Element
from repro.kb.ontology import Ontology
from repro.metrics.observer import MetricsObserver
from repro.recognizers.base import Recognizer
from repro.recognizers.build import DictionaryBuilder
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.predefined import predefined_names, predefined_recognizer
from repro.recognizers.registry import RecognizerRegistry
from repro.recognizers.rules import FullNodeRecognizer
from repro.registry.store import StagedRegistryView, WrapperRegistry
from repro.sod.types import (
    KIND_IS_INSTANCE_OF,
    KIND_PREDEFINED,
    KIND_REGEX,
    SodType,
    entity_types,
)


def _run_process_shard(task: ShardTask) -> ShardResult:
    """Serve a batch's work queue in a worker process (module-level).

    One call per worker: it rebuilds the runner from ``task.worker``,
    then runs sources one at a time off the shared queue, each through
    a staged registry view over a private registry handle, under one
    :class:`MetricsObserver`.  Nothing is written to the shared registry
    here — writes are exported and applied by the parent in global input
    order, which is what keeps an N-way process run byte-identical to
    the serial one.
    """
    kwargs, registry_root = task.worker
    observer = MetricsObserver()
    registry = WrapperRegistry(registry_root) if registry_root else None
    runner = ObjectRunner(
        **kwargs, observers=(observer,), wrapper_registry=registry
    )
    return run_worker_shard(task, runner._run_item, observer, registry)


def _dispatch_shards(queue: WorkQueue) -> ContextManager[list[Future]]:
    """Serve a work queue on a process pool: one long call per worker."""
    return process_pool(queue, _run_process_shard)


class ObjectRunner:
    """Targeted extraction for one SOD over any number of sources."""

    def __init__(
        self,
        sod: SodType,
        registry: RecognizerRegistry | None = None,
        ontology: Ontology | None = None,
        corpus: Corpus | None = None,
        gazetteer_classes: dict[str, str] | None = None,
        params: RunParams | None = None,
        extra_gazetteer_entries: dict[str, dict[str, float]] | None = None,
        observers: Iterable[PipelineObserver] = (),
        cache: PreprocessCache | None = None,
        fault_injector: FaultInjector | None = None,
        wrapper_registry: WrapperRegistry | None = None,
    ):
        self.sod = sod
        self.params = params or RunParams()
        self.registry = registry or RecognizerRegistry()
        #: Content-addressed wrapper store; when set, single-pass runs take
        #: the registry-first path (match -> induce on miss -> extract)
        #: instead of inducing unconditionally.
        self.wrapper_registry = wrapper_registry
        #: Optional deterministic fault harness: wraps every stage of
        #: every pipeline this runner builds.
        self.fault_injector = fault_injector
        self._ontology = ontology
        self._corpus = corpus
        self._gazetteer_classes = dict(gazetteer_classes or {})
        #: Per-source dictionary completion (paper Section IV-A): extra
        #: entries merged into each built gazetteer, keyed by type name.
        self._extra_gazetteer_entries = dict(extra_gazetteer_entries or {})
        #: Observers subscribed to every pipeline run of this runner.
        self.observers: list[PipelineObserver] = list(observers)
        #: Content-hash cache of tidied/cleaned page trees, shared across
        #: passes, sources and (if injected) runners.
        self.cache = cache if cache is not None else PreprocessCache()
        for observer in self.observers:
            if isinstance(observer, MetricsObserver):
                observer.observe_cache(self.cache)
        if self._workers() > 1:
            self._check_process_backend_support()
        self._setup_recognizers()

    # -- recognizer setup -------------------------------------------------

    def _setup_recognizers(self) -> None:
        """Resolve a recognizer for every entity type of the SOD.

        Predefined kinds instantiate the built-in recognizers; isInstanceOf
        kinds build gazetteers on the fly from the ontology/corpus; regex
        kinds must already be registered by the caller.
        """
        builder = DictionaryBuilder(
            ontology=self._ontology,
            corpus=self._corpus,
            neighborhood_radius=self.params.neighborhood_radius,
        )
        self.recognizers: list[Recognizer] = []
        for entity in entity_types(self.sod):
            key = entity.name.lower()
            if self.registry.names() and key in self.registry.names():
                recognizer = self.registry.get(entity.name)
                if entity.cover_node and not isinstance(
                    recognizer, FullNodeRecognizer
                ):
                    recognizer = FullNodeRecognizer(recognizer)
                    self.registry.register(recognizer, name=entity.name)
                self.recognizers.append(recognizer)
                continue
            if entity.kind == KIND_PREDEFINED:
                base = entity.recognizer or entity.name
                if base.lower() not in predefined_names():
                    raise SodError(
                        f"entity {entity.name!r} declares predefined recognizer "
                        f"{base!r}, which does not exist"
                    )
                recognizer = predefined_recognizer(base, type_name=entity.name)
            elif entity.kind == KIND_IS_INSTANCE_OF:
                class_name = self._gazetteer_classes.get(
                    entity.name, entity.name.capitalize()
                )
                recognizer = builder.build(class_name, type_name=entity.name)
                for value, confidence in self._extra_gazetteer_entries.get(
                    entity.name, {}
                ).items():
                    recognizer.add(value, confidence)
            elif entity.kind == KIND_REGEX:
                recognizer = self.registry.get(entity.name)
            else:  # pragma: no cover - kinds validated by the SOD layer
                raise SodError(f"unknown recognizer kind {entity.kind!r}")
            if entity.cover_node:
                recognizer = FullNodeRecognizer(recognizer)
            self.registry.register(recognizer, name=entity.name)
            self.recognizers.append(recognizer)

    def gazetteers(self) -> dict[str, GazetteerRecognizer]:
        """The gazetteer recognizers in use, by entity-type name."""
        return {
            recognizer.type_name: recognizer
            for recognizer in self.recognizers
            if isinstance(recognizer, GazetteerRecognizer)
        }

    # -- pipeline assembly ------------------------------------------------

    def add_observer(self, observer: PipelineObserver) -> None:
        """Subscribe an observer to every subsequent pipeline run.

        A runner that can fan out applies the construction-time rule
        here too: only :class:`MetricsObserver` observers can follow
        their measurements across the process boundary, so anything
        else is rejected at subscription time.
        """
        if self._workers() > 1:
            self._check_process_backend_support(extra_observers=(observer,))
        self.observers.append(observer)
        if isinstance(observer, MetricsObserver):
            observer.observe_cache(self.cache)

    def _build_pipeline(self) -> Pipeline:
        """A pipeline with the runner's observers and fault harness."""
        stages = build_stages()
        if self.fault_injector is not None:
            stages = self.fault_injector.wrap_all(stages)
        return Pipeline(stages, self.observers)

    def _run_pipeline(self, ctx: PipelineContext) -> SourceResult:
        """Run ``ctx`` through a pipeline, then release the trees it built.

        The trees the preprocess stage built from ``ctx.raw_pages`` (a
        :class:`~repro.core.cache.LazyPages`) are released when the run
        ends, also when it raises, so they die by reference count.
        Trees the caller passed in are never touched.
        """
        try:
            return self._build_pipeline().run(ctx)
        finally:
            if isinstance(ctx.pages, LazyPages):
                ctx.pages.release()

    def _context(
        self,
        source: str,
        raw_pages: Iterable[str] = (),
        pages: Iterable[Element] = (),
        pass_index: int = 0,
        total_passes: int = 1,
        registry: "WrapperRegistry | StagedRegistryView | None" = None,
        timings: StageTimings | None = None,
    ) -> PipelineContext:
        """A fresh context carrying this runner's shared services.

        ``timings`` hands an earlier run's :class:`StageTimings` of the
        same source to this one, so a source that runs the pipeline more
        than once reports one set of timings covering every run.
        """
        return PipelineContext(
            source=source,
            params=self.params,
            sod=self.sod,
            recognizers=self.recognizers,
            ontology=self._ontology,
            raw_pages=list(raw_pages),
            pages=list(pages),
            cache=self.cache,
            pass_index=pass_index,
            total_passes=total_passes,
            registry=registry,
            result=SourceResult(
                source=source, timings=timings or StageTimings()
            ),
        )

    # -- entry points ------------------------------------------------------

    def prepare_pages(self, raw_pages: list[str]) -> list[Element]:
        """Fresh tidied and cleaned trees of raw HTML pages (via the cache)."""
        return list(self.cache.clean_pages(raw_pages).pages)

    def _run(
        self,
        source: str,
        registry: "WrapperRegistry | StagedRegistryView | None",
        raw_pages: Iterable[str] = (),
        pages: Iterable[Element] = (),
    ) -> SourceResult:
        """Run one source through the pipeline as often as it needs.

        Every re-run rule of a source lives here:

        - With ``enrich_dictionaries`` the registry is off, and the
          whole pipeline runs ``enrichment_passes`` times, each pass
          annotating with the dictionaries the previous one grew, until
          a pass discards.  Enrichment deliberately *re-induces*; a
          registry hit would defeat the loop.
        - If the post-extraction check demoted a stale registry wrapper,
          the source re-runs once: the second attempt misses (the entry
          is gone), induces a fresh wrapper and stores it.
        - A discard raised during induction never reaches the store
          stage (the pipeline stops at the discarding stage), so it is
          written back here: stored as a registry tombstone under the
          fingerprint from match time, so warm runs replay it instead
          of re-paying the doomed induction.

        The returned ``timings`` cover every run.
        """
        from repro.core.stages.registry import (
            DEMOTED_KEY,
            FINGERPRINT_KEY,
            ORIGIN_KEY,
        )

        passes = 1
        if self.params.enrich_dictionaries:
            registry = None
            passes = max(1, self.params.enrichment_passes)
        result = SourceResult(source=source)
        pass_index, reran = 0, False
        while pass_index < passes:
            ctx = self._context(
                source,
                raw_pages=raw_pages,
                pages=pages,
                pass_index=pass_index,
                total_passes=passes,
                registry=registry,
                timings=result.timings,
            )
            result = self._run_pipeline(ctx)
            if (
                result.discarded
                and ctx.artifacts.get(ORIGIN_KEY) == "induced"
                and FINGERPRINT_KEY in ctx.artifacts
            ):
                registry.put_discard(
                    ctx.sod,
                    ctx.artifacts[FINGERPRINT_KEY],
                    source=source,
                    stage=result.discard_stage,
                    reason=result.discard_reason,
                )
            if ctx.artifacts.get(DEMOTED_KEY) and not reran:
                reran = True
                continue
            if result.discarded:
                break
            pass_index += 1
        return result

    def run_source(self, source: str, raw_pages: list[str]) -> SourceResult:
        """Run the full pipeline on raw HTML pages of one source.

        With a ``wrapper_registry`` the run is registry-first: a stored
        wrapper for this (SOD, template) skips segmentation, annotation
        and wrapper generation entirely, and a freshly induced wrapper is
        stored for the next run.

        With ``enrich_dictionaries`` and ``enrichment_passes > 1`` the
        whole pipeline re-runs on fresh copies of the pages: every pass
        annotates with the dictionaries the previous pass grew, so
        coverage — and with it the wrapper — improves (the paper's
        "use current annotations to discover new annotations" loop).
        Tidying/cleaning is only paid once: later passes thaw fresh trees
        from the preprocessing cache's snapshots.  :meth:`_run` holds the
        re-run rules; the returned ``timings`` cover every run.
        """
        return self._run(source, self.wrapper_registry, raw_pages=raw_pages)

    def run_source_prepared(
        self, source: str, pages: list[Element]
    ) -> SourceResult:
        """Run on already tidied/cleaned pages (shared-harness entry)."""
        return self._run(source, self.wrapper_registry, pages=pages)

    def run_sources(
        self,
        sources: dict[str, list[str]],
        deduplicate_across: bool = False,
        dedup_keys: tuple[str, ...] = (),
    ) -> "MultiSourceResult":
        """Run the pipeline over several sources of the same domain.

        With more than one worker (:meth:`_workers`) independent sources
        wrap concurrently in worker processes, each taking the next
        source off a shared queue as soon as it is free; results keep
        the input order, so the outcome is identical to a serial run.

        Unexpected per-source failures (anything except a quality-gate
        discard, and including a worker process dying, recorded as
        ``stage="worker"``) follow ``params.failure_policy``: under
        ``isolate`` the failure is recorded on
        ``MultiSourceResult.failures`` and every surviving source
        completes exactly as it would have in a fault-free run; under
        ``fail_fast`` no later source starts after the first failure and
        :class:`~repro.errors.MultiSourceError` is raised, carrying the
        results of the sources that completed before the failing one (in
        input order) as ``partial``.

        With ``deduplicate_across=True``, the pooled objects pass through
        the de-duplication stage of the paper's Figure 1 architecture —
        the Web's redundancy means the same real-world item often appears
        on several sources.  ``dedup_keys`` names the identifying
        attributes (defaults to exact agreement on all shared attributes).
        """
        from repro.core.dedup import DedupConfig, deduplicate

        items = list(sources.items())
        outcomes, __ = run_batch(
            items,
            self._run_item,
            workers=self._workers(),
            fail_fast=self.params.failure_policy != ISOLATE,
            registry=self.wrapper_registry,
            observers=self.observers,
            worker=self._worker_spec,
            dispatch=_dispatch_shards,
        )
        result = pool_outcomes(items, outcomes)
        if deduplicate_across:
            outcome = deduplicate(
                result.objects, DedupConfig(key_attributes=dedup_keys)
            )
            result.objects = outcome.objects
            result.duplicates_merged = outcome.merged
        return result

    def _run_item(
        self,
        source: str,
        raw_pages: list[str],
        view: StagedRegistryView | None,
    ) -> SourceResult:
        """One batch item: through its staged registry view when present."""
        return self._run(source, view, raw_pages=raw_pages)

    def _workers(self) -> int:
        """The pool width ``run_sources`` fans out to; 1 runs in-process.

        Enrichment runs force serial execution: gazetteer growth feeds
        later sources, which is inherently order-dependent.
        """
        if self.params.enrich_dictionaries:
            return 1
        return max(1, int(self.params.max_workers))

    def _check_process_backend_support(
        self, extra_observers: Iterable[PipelineObserver] = ()
    ) -> None:
        """Reject runner features that cannot cross a process boundary.

        Fault injectors hold process-local state (locks, recorded calls)
        the workers could not honor;
        non-metrics observers would silently see nothing.  Failing loudly
        beats a run that quietly measures less than it claims.

        Runs at construction time (``__init__``/:meth:`add_observer`
        when the runner can fan out, :meth:`_workers` above 1), so a
        misconfigured runner fails with a typed
        :class:`ProcessBackendConfigError` naming the offending field
        before any worker spawns.  The dispatch path re-checks as a
        backstop for callers that mutate runner attributes directly.
        """
        if self.fault_injector is not None:
            raise ProcessBackendConfigError(
                "fault_injector",
                "the process backend does not support a fault injector; "
                "use max_workers=1 for fault-injection runs",
            )
        unsupported = [
            type(observer).__name__
            for observer in (*self.observers, *extra_observers)
            if not isinstance(observer, MetricsObserver)
        ]
        if unsupported:
            raise ProcessBackendConfigError(
                "observers",
                "the process backend supports only MetricsObserver "
                f"observers; got {', '.join(sorted(unsupported))} "
                "(use max_workers=1 for other observers)",
            )

    def _worker_spec(self) -> tuple[dict, str | None]:
        """What a worker process rebuilds this runner from (picklable).

        The runner's constructor arguments plus the wrapper-registry
        root; a worker only runs items, so it never fans out again.
        Called in the parent just before the workers fork, it also loads
        the stage modules, so every worker inherits them instead of
        importing them anew.
        """
        self._check_process_backend_support()
        stage_registry()
        registry = self.wrapper_registry
        kwargs = {
            "sod": self.sod,
            "registry": self.registry,
            "ontology": self._ontology,
            "corpus": self._corpus,
            "gazetteer_classes": self._gazetteer_classes,
            "extra_gazetteer_entries": self._extra_gazetteer_entries,
            "params": self.params,
        }
        return kwargs, str(registry.root) if registry else None


class ObjectRunnerSystem:
    """Adapter exposing ObjectRunner behind the comparison interface.

    Reads its discard verdict and wrapping time off the
    :class:`SourceResult` (``timings.wrapping`` covers every pipeline
    run the source made); extra observers — say, a benchmark-wide
    :class:`~repro.metrics.observer.MetricsObserver` — can be injected
    at construction.
    """

    def __init__(
        self,
        ontology: Ontology | None = None,
        corpus: Corpus | None = None,
        gazetteer_classes: dict[str, str] | None = None,
        params: RunParams | None = None,
        extra_gazetteer_entries: dict[str, dict[str, float]] | None = None,
        observers: Iterable[PipelineObserver] = (),
        wrapper_registry: WrapperRegistry | None = None,
    ):
        self._ontology = ontology
        self._corpus = corpus
        self._gazetteer_classes = gazetteer_classes
        self._params = params
        self._extra_gazetteer_entries = extra_gazetteer_entries
        self._observers = list(observers)
        self._wrapper_registry = wrapper_registry

    @property
    def name(self) -> str:
        return "objectrunner"

    def run(
        self, source: str, pages: list[Element], sod: SodType
    ) -> SystemOutput:
        """Run the full pipeline on prepared pages of one source."""
        runner = ObjectRunner(
            sod=sod,
            ontology=self._ontology,
            corpus=self._corpus,
            gazetteer_classes=self._gazetteer_classes,
            params=self._params,
            extra_gazetteer_entries=self._extra_gazetteer_entries,
            observers=self._observers,
            wrapper_registry=self._wrapper_registry,
        )
        result = runner.run_source_prepared(source, pages)
        if result.discarded:
            return SystemOutput(
                system=self.name,
                source=source,
                failed=True,
                failure_reason=result.discard_reason,
            )
        return SystemOutput(
            system=self.name,
            source=source,
            objects=result.objects,
            wrap_seconds=result.timings.wrapping,
        )
