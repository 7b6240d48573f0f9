"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library throws with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class HtmlParseError(ReproError):
    """Raised when HTML input is so malformed that not even tidying helps."""


class SodError(ReproError):
    """Raised for invalid Structured Object Descriptions."""


class SodSyntaxError(SodError):
    """Raised when the SOD DSL text cannot be parsed."""


class RecognizerError(ReproError):
    """Raised for recognizer configuration problems (e.g. bad regexes)."""


class UnknownTypeError(RecognizerError):
    """Raised when an entity type has no registered recognizer."""


class SourceDiscardedError(ReproError):
    """Raised when a source fails a quality gate and is discarded.

    The paper's pipeline discards sources with unsatisfactory annotation
    levels (threshold ``alpha`` over visual blocks) or whose equivalence-class
    hierarchy can no longer match the SOD.  The ``stage`` attribute records
    which gate fired.
    """

    def __init__(self, source: str, stage: str, reason: str):
        super().__init__(f"source {source!r} discarded at {stage}: {reason}")
        self.source = source
        self.stage = stage
        self.reason = reason


class ProcessBackendConfigError(ReproError, ValueError):
    """Raised when a runner configuration cannot cross a process boundary.

    The process backend ships task specs to worker processes by pickle;
    fault injectors and non-metrics observers hold process-local state
    the workers could not honor.  The error is raised at
    :class:`~repro.core.objectrunner.ObjectRunner` construction time —
    before any worker spawns — and ``field`` names the offending
    constructor argument (``"fault_injector"`` or ``"observers"``).  Subclasses :class:`ValueError` so callers treating
    it as a plain configuration error keep working.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class MultiSourceError(ReproError):
    """Raised by ``run_sources`` under the ``fail_fast`` policy.

    Carries what the batch had finished before the abort: ``partial`` is
    a :class:`~repro.core.results.MultiSourceResult` holding the results
    of every source that completed *before* the failing source in input
    order (deterministic — later, still-running sources are cancelled or
    discarded), and ``failure`` is the
    :class:`~repro.core.faults.SourceFailure` that triggered the abort.
    The original exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, partial=None, failure=None):
        super().__init__(message)
        self.partial = partial
        self.failure = failure


class InjectedFaultError(RuntimeError):
    """Raised by the fault-injection harness for ``crash`` faults.

    Deliberately *not* a :class:`ReproError`: injected crashes simulate
    unexpected, foreign failures, so nothing in the library (or in a
    caller's ``except ReproError``) may swallow one by accident.
    """


class WrapperError(ReproError):
    """Raised when wrapper generation fails for internal reasons."""


class WrapperSchemaError(WrapperError):
    """Raised when persisted wrapper data is malformed or schema-incompatible.

    Loading a wrapper (single file or registry entry) validates the schema
    version and every required field before reconstruction, so old-format,
    truncated or hand-edited payloads surface as one typed error naming
    the offending field instead of a bare ``KeyError`` deep inside
    :mod:`repro.wrapper.serialize`.
    """


class RegistryError(ReproError):
    """Raised for wrapper-registry storage problems.

    Covers corrupt or unreadable registry entries, index/entry signature
    mismatches and malformed index files — everything the
    content-addressed store (:mod:`repro.registry`) can detect about its
    own persistence layer.
    """

