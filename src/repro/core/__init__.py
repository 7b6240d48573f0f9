"""The ObjectRunner pipeline: the paper's primary contribution, end to end.

:class:`~repro.core.objectrunner.ObjectRunner` is a façade over the staged
pipeline subsystem (:mod:`repro.core.pipeline`): each box of the paper's
Figure 1 — page tidying and cleaning, VIPS-style central-block selection,
annotation with Algorithm-1 sample selection, wrapper generation with the
automatic parameter-variation loop, extraction, dictionary enrichment —
is a named :class:`~repro.core.pipeline.Stage` running over a shared
:class:`~repro.core.pipeline.PipelineContext`.  The pipeline files each
stage's wall-clock into ``SourceResult.timings``; observers subscribe to
stage start/end events for metrics (``MetricsObserver``) and JSON-lines
tracing (:class:`~repro.core.pipeline.TraceObserver`); preprocessing
memoizes through :class:`~repro.core.cache.PreprocessCache`; multi-source
runs fan out to worker processes when ``RunParams.max_workers`` is above 1.
"""

from repro.core.cache import CachedPages, PreprocessCache
from repro.core.dedup import DedupConfig, DedupResult, deduplicate
from repro.core.faults import (
    FAIL_FAST,
    FAILURE_POLICIES,
    ISOLATE,
    FaultInjector,
    FaultSpec,
    SourceFailure,
    wall_sleep,
)
from repro.core.objectrunner import ObjectRunner, ObjectRunnerSystem
from repro.core.params import BACKENDS, RunParams
from repro.core.sharding import ShardSpec, stable_shard
from repro.core.pipeline import (
    DEFAULT_STAGE_ORDER,
    EventBus,
    Pipeline,
    PipelineContext,
    PipelineEvent,
    PipelineObserver,
    Stage,
    TraceObserver,
    build_stages,
    register_stage,
    stage_registry,
)
from repro.core.results import MultiSourceResult, SourceResult, StageTimings

__all__ = [
    "ObjectRunner",
    "ObjectRunnerSystem",
    "RunParams",
    "BACKENDS",
    "ShardSpec",
    "stable_shard",
    "SourceResult",
    "MultiSourceResult",
    "StageTimings",
    "DedupConfig",
    "DedupResult",
    "deduplicate",
    "Pipeline",
    "PipelineContext",
    "PipelineEvent",
    "PipelineObserver",
    "EventBus",
    "Stage",
    "TraceObserver",
    "build_stages",
    "register_stage",
    "stage_registry",
    "DEFAULT_STAGE_ORDER",
    "PreprocessCache",
    "CachedPages",
    "SourceFailure",
    "FaultInjector",
    "FaultSpec",
    "FAIL_FAST",
    "ISOLATE",
    "FAILURE_POLICIES",
    "wall_sleep",
]
