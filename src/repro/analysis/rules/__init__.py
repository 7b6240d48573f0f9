"""Bundled reprolint rules; importing this package registers them all.

=========  ==============================================================
Rule id    Check
=========  ==============================================================
``D101``   stdlib ``random`` outside ``utils/rng.py``
``D102``   wall-clock reads outside observer modules
``D103``   bare-set iteration feeding an ordering-sensitive sink
``D104``   unsorted filesystem listings
``D105``   ``time.sleep`` outside ``core/faults.py``
``C201``   stage context access outside the declared reads/writes
``C202``   undeclared context access through helpers the stage calls
``E401``   exception-contract violation in stage-reachable code
``A501``   public-API drift (broken export / unreachable symbol)
=========  ==============================================================

D101–D105 and C201 are per-file; C202, E401 and A501 are whole-program
rules built on the shared :class:`repro.analysis.graph.ProjectGraph`.
A clock or environment value that reaches an artifact has no static
rule: ``tests/test_determinism_ambient.py`` catches it at run time.
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

__all__ = [
    "ALWAYS_ALLOWED",
    "ApiDriftRule",
    "ExceptionContractRule",
    "SetOrderRule",
    "StageContract",
    "StageContractRule",
    "TransitiveStageContractRule",
    "UnseededRandomRule",
    "UnsortedListingRule",
    "WallClockRule",
    "WallSleepRule",
    "is_set_expr",
    "param_access_summaries",
    "stage_contracts",
]
