"""ObjectRunner reproduction: targeted extraction of structured Web data.

Reproduces Derouiche, Cautis & Abdessalem, *Automatic Extraction of
Structured Web Data with Domain Knowledge* (ICDE 2012): the ObjectRunner
system, its substrates (HTML toolkit, render-model segmentation, YAGO-like
ontology, Hearst-pattern corpus mining), the ExAlg and RoadRunner
baselines, the synthetic structured-Web datasets, and the evaluation
harness regenerating the paper's tables and figures.

Quickstart::

    from repro import ObjectRunner, parse_sod

    sod = parse_sod("concert(artist, date<kind=predefined>, "
                    "location(theater, address<kind=predefined>?))")
    runner = ObjectRunner(sod, ontology=my_ontology)
    result = runner.run_source("mysite", html_pages)
"""

from repro.core.cache import PreprocessCache
from repro.core.faults import FaultInjector, FaultSpec, SourceFailure
from repro.core.objectrunner import ObjectRunner, ObjectRunnerSystem
from repro.core.params import RunParams
from repro.core.pipeline import (
    Pipeline,
    PipelineContext,
    PipelineEvent,
    PipelineObserver,
    Stage,
    TraceObserver,
)
from repro.core.results import MultiSourceResult, SourceResult
from repro.errors import (
    MultiSourceError,
    ProcessBackendConfigError,
    ReproError,
    SodError,
    SourceDiscardedError,
)
from repro.sod.dsl import parse_sod
from repro.sod.instances import ObjectInstance
from repro.sod.types import (
    DisjunctionType,
    EntityType,
    Multiplicity,
    SetType,
    TupleType,
)

__version__ = "1.0.0"

__all__ = [
    "ObjectRunner",
    "ObjectRunnerSystem",
    "RunParams",
    "SourceResult",
    "MultiSourceResult",
    "SourceFailure",
    "FaultInjector",
    "FaultSpec",
    "Pipeline",
    "PipelineContext",
    "PipelineEvent",
    "PipelineObserver",
    "Stage",
    "TraceObserver",
    "PreprocessCache",
    "ObjectInstance",
    "parse_sod",
    "EntityType",
    "SetType",
    "TupleType",
    "DisjunctionType",
    "Multiplicity",
    "ProcessBackendConfigError",
    "ReproError",
    "SodError",
    "SourceDiscardedError",
    "MultiSourceError",
    "__version__",
]
