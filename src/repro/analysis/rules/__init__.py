"""Bundled reprolint rules; importing this package registers them all.

=========  ==============================================================
Rule id    Check
=========  ==============================================================
``D101``   stdlib ``random`` outside ``utils/rng.py``
``D102``   wall-clock reads outside observer modules
``D103``   bare-set iteration feeding an ordering-sensitive sink
``D104``   unsorted filesystem listings
``D105``   ``time.sleep`` outside ``core/faults.py``
``D106``   tainted (clock/RNG/env/set-order) value reaching an artifact
``C201``   stage context access outside the declared reads/writes
``C202``   undeclared context access through helpers the stage calls
``E401``   exception-contract violation in stage-reachable code
``A501``   public-API drift (broken export / unreachable symbol)
``S501``   writer/reader key drift in a serialized-artifact family
``S502``   artifact shape changed without a schema-version bump
``S503``   external-input reader can raise an untyped ``KeyError``
``S504``   consumer requires a key older committed artifacts lack
``P601``   unpicklable value flows into the process boundary
``P602``   worker-mutated attribute missing from the homeward surface
``P603``   split-brain module global under the process backend
``P604``   order-sensitive merge fold over process-shard results
=========  ==============================================================

D101–D105 are per-file; D106, C202, E401, A501, the S-rules and the
P-rules are whole-program rules built on the shared
:class:`repro.analysis.graph.ProjectGraph` (D106
adds the taint pass of :mod:`repro.analysis.dataflow`; S501–S504 add
the schema-contract pass of :mod:`repro.analysis.schemas`; P601–P604
add the process-boundary pass of :mod:`repro.analysis.procbound`).
The full catalog with rationale and examples lives in
``docs/ANALYSIS.md``.
"""

from repro.analysis.rules.api import ApiDriftRule
from repro.analysis.rules.contracts import (
    ALWAYS_ALLOWED,
    StageContract,
    StageContractRule,
    TransitiveStageContractRule,
    param_access_summaries,
    stage_contracts,
)
from repro.analysis.rules.determinism import (
    SetOrderRule,
    UnseededRandomRule,
    UnsortedListingRule,
    WallClockRule,
    WallSleepRule,
    is_set_expr,
)
from repro.analysis.rules.exceptions import ExceptionContractRule
from repro.analysis.rules.procbound import (
    SPLIT_BRAIN_ALLOWLIST,
    SplitBrainGlobalRule,
    UnpicklableBoundaryRule,
    UnpinnedMergeFoldRule,
    WorkerStateLossRule,
)
from repro.analysis.rules.schema import (
    ExternalInputRule,
    HistoryToleranceRule,
    SchemaDriftRule,
    SchemaVersionRule,
)
from repro.analysis.rules.taint import TaintToArtifactRule

__all__ = [
    "ALWAYS_ALLOWED",
    "ApiDriftRule",
    "ExceptionContractRule",
    "ExternalInputRule",
    "HistoryToleranceRule",
    "SPLIT_BRAIN_ALLOWLIST",
    "SchemaDriftRule",
    "SchemaVersionRule",
    "SetOrderRule",
    "SplitBrainGlobalRule",
    "StageContract",
    "StageContractRule",
    "TaintToArtifactRule",
    "TransitiveStageContractRule",
    "UnpicklableBoundaryRule",
    "UnpinnedMergeFoldRule",
    "UnseededRandomRule",
    "UnsortedListingRule",
    "WallClockRule",
    "WallSleepRule",
    "WorkerStateLossRule",
    "is_set_expr",
    "param_access_summaries",
    "stage_contracts",
]
